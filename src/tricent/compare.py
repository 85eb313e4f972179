"""Classical centrality measures and ranking-comparison machinery.

Rankings are deterministic: scores sort descending, scores within a relative
eps form a tie group, tie groups order internally by label, and competition
ranking numbers are assigned (tied items share the best rank, the next rank
skips). Top-k sets truncate tie groups at the k boundary in label order.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .centrality import CentralityVector, triangle_centrality
from .errors import InputError


def degree_centrality(g):
    return CentralityVector(scores=g.degrees.astype(np.float64), method="DC")


def closeness_centrality(g):
    """Inverse mean distance, computed per connected component with the
    component-local vertex count; isolated vertices score 0."""
    n = g.n
    scores = np.zeros(n)
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        q = deque([s])
        reached = 0
        total = 0
        while q:
            v = q.popleft()
            for w in g.neighbors_of(v).tolist():
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    total += dist[w]
                    reached += 1
                    q.append(w)
        scores[s] = reached / total if total else 0.0
    return CentralityVector(scores=scores, method="CC")


def betweenness_centrality(g):
    """Shortest-path betweenness by per-source BFS with dependency
    accumulation; undirected halving applied at the end."""
    n = g.n
    scores = np.zeros(n)
    for s in range(n):
        stack = []
        preds = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            stack.append(v)
            for w in g.neighbors_of(v).tolist():
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    q.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                scores[w] += delta[w]
    return CentralityVector(scores=scores / 2.0, method="BC")


def _adjacency_product(g):
    """The function x -> A @ x for g's adjacency matrix A, on the CSR arrays."""
    rows = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    return lambda x: np.bincount(rows, weights=x[g.neighbors], minlength=g.n)


def _power_iterate(product, n, tol, max_iter):
    x = np.ones(n) / math.sqrt(n)
    for _ in range(max_iter):
        y = product(x)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return np.zeros(n), False
        y /= norm
        if np.max(np.abs(y - x)) < tol:
            return y, True
        x = y
    return x, False


def eigenvector_centrality(g, tol=1e-10, max_iter=10000):
    """Power iteration on the adjacency matrix with 2-norm normalization.

    Bipartite-like oscillation gets one shifted retry on A + I; persistent
    non-convergence is flagged on the result rather than raised.
    """
    if g.n == 0:
        return CentralityVector(scores=np.zeros(0), method="EV")
    product = _adjacency_product(g)
    x, ok = _power_iterate(product, g.n, tol, max_iter)
    if not ok:
        x, ok = _power_iterate(lambda x: product(x) + x, g.n, tol, max_iter)
    return CentralityVector(scores=np.abs(x), method="EV", converged=ok)


def pagerank(g, damping=0.85, tol=1e-10, max_iter=10000):
    """Damped random walk with uniform redistribution of dangling mass."""
    n = g.n
    if n == 0:
        return CentralityVector(scores=np.zeros(0), method="PR")
    deg = g.degrees.astype(np.float64)
    dangling = deg == 0
    safe = np.where(dangling, 1.0, deg)
    product = _adjacency_product(g)
    v = np.ones(n) / n
    ok = False
    for _ in range(max_iter):
        spread = product(v / safe)
        nxt = (1.0 - damping) / n + damping * (spread + v[dangling].sum() / n)
        if np.abs(nxt - v).sum() < tol:
            v = nxt
            ok = True
            break
        v = nxt
    return CentralityVector(scores=v, method="PR", converged=ok)


MEASURES = {
    "TC": triangle_centrality,
    "BC": betweenness_centrality,
    "CC": closeness_centrality,
    "DC": degree_centrality,
    "EV": eigenvector_centrality,
    "PR": pagerank,
}


def compute_all(g, measures=None):
    names = measures or list(MEASURES)
    return {name: MEASURES[name](g) for name in names}


@dataclass
class Ranking:
    """Vertices best-first with competition ranks and tie groups."""

    order: np.ndarray       # vertex ids, best first (ties by label)
    rank: np.ndarray        # 1-based competition rank per vertex
    scores: np.ndarray
    groups: list            # tie groups as lists of vertex ids, best first

    def top(self, k):
        return [int(v) for v in self.order[:k]]

    def top_set(self, k):
        return set(self.top(k))


def rank_vertices(cv, eps=1e-9):
    """Deterministic ranking of a CentralityVector (or raw score array)."""
    scores = cv.scores if isinstance(cv, CentralityVector) else np.asarray(cv, dtype=np.float64)
    n = scores.shape[0]
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    # a vertex opens a new tie group unless its score is within relative eps
    # of the previous vertex's in rank order
    opens = np.ones(n, dtype=bool)
    prev, cur = ranked[:-1], ranked[1:]
    opens[1:] = ~(np.abs(prev - cur) <= eps * np.maximum(np.abs(prev), np.abs(cur)))
    starts = np.flatnonzero(opens)
    group = np.cumsum(opens) - 1
    rank = np.empty(n, dtype=np.int64)
    rank[order] = starts[group] + 1
    # each tie group by label: the key is already sorted outside tie groups,
    # and numpy's stable sort, which merges sorted runs, is near linear on it
    order = order[np.argsort(group * n + order, kind="stable")]
    order_list = order.tolist()
    bounds = starts.tolist() + [n]
    groups = [order_list[i:j] for i, j in zip(bounds, bounds[1:])]
    return Ranking(order=order, rank=rank, scores=scores.copy(), groups=groups)


def top_k_jaccard(r1, r2, k=10):
    """Exact Jaccard index of the two top-k sets, 1 <= k <= n."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if r1.order.shape[0] < k or r2.order.shape[0] < k:
        raise InputError(f"rankings must cover at least k={k} vertices")
    s1, s2 = r1.top_set(k), r2.top_set(k)
    inter = len(s1 & s2)
    return Fraction(inter, len(s1) + len(s2) - inter)


def best_jaccard_competitor(measure, rankings, k=10):
    """Closest competitor by top-k Jaccard.

    Ties between competitors resolve by walking down the reference measure's
    ranked list: prefer the competitor ranking the current vertex strictly
    higher, moving to the next vertex on ties or misses.
    """
    ref = rankings[measure]
    scored = []
    for name, rk in rankings.items():
        if name == measure:
            continue
        scored.append((top_k_jaccard(ref, rk, k), name))
    top_j = max(j for j, _ in scored)
    tied = [name for j, name in scored if j == top_j]
    if len(tied) > 1:
        for v in ref.order:
            ranks = {name: int(rankings[name].rank[v]) for name in tied}
            lowest = min(ranks.values())
            leaders = [name for name in tied if ranks[name] == lowest]
            if len(leaders) == 1:
                tied = leaders
                break
            tied = leaders  # drop losers, keep walking on ties
    return tied[0], top_j


@dataclass
class DotMatrix:
    """Agreement grid for one measure: rows are graphs, columns competitors;
    a cell is set iff both measures pick the same top vertex on that graph."""

    measure: str
    graphs: list
    competitors: list
    cells: np.ndarray

    @property
    def agreement_percent(self):
        return 100.0 * self.cells.sum() / self.cells.size if self.cells.size else 0.0

    @property
    def unique_rows(self):
        """Graphs where this measure agreed with no competitor."""
        return int((~self.cells.any(axis=1)).sum())

    @property
    def full_rows(self):
        return int(self.cells.all(axis=1).sum())


def agreement_dot_matrices(rankings_by_graph, measures=None):
    """One DotMatrix per measure from {graph: {measure: Ranking}}."""
    graphs = list(rankings_by_graph)
    if measures is None:
        measures = list(next(iter(rankings_by_graph.values()))) if graphs else []
    tops = {
        gname: {m: int(rks[m].order[0]) for m in measures}
        for gname, rks in rankings_by_graph.items()
    }
    out = {}
    for m in measures:
        comp = [c for c in measures if c != m]
        cells = np.zeros((len(graphs), len(comp)), dtype=bool)
        for i, gname in enumerate(graphs):
            for j, c in enumerate(comp):
                cells[i, j] = tops[gname][m] == tops[gname][c]
        out[m] = DotMatrix(measure=m, graphs=graphs, competitors=comp, cells=cells)
    return out
