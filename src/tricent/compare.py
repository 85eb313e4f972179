"""Classical centrality measures and ranking-comparison machinery.

Rankings are deterministic: scores sort descending, scores within a relative
eps form a tie group, tie groups order internally by label, and competition
ranking numbers are assigned (tied items share the best rank, the next rank
skips). Top-k sets truncate tie groups at the k boundary in label order.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .centrality import CentralityVector, triangle_centrality
from .errors import InputError
from .graph import row_lists

TOL = 1e-10         # convergence threshold of eigenvector and PageRank
MAX_ITER = 10_000   # iteration cap of eigenvector and PageRank
DAMPING = 0.85      # PageRank damping factor
TIE_EPS = 1e-9      # relative score gap below which rank_vertices ties
# Exact closeness and betweenness run one breadth-first search per vertex,
# Θ(n·m) in all, and refuse graphs whose n·m is larger. Betweenness spends
# about 650 ns per unit of n·m (2-core x86-64, Python 3.11), so about a
# minute at this size; closeness about a fifth of that.
EXACT_PATH_LIMIT = 90_000_000


def degree_centrality(g):
    return CentralityVector(scores=g.degrees.astype(np.float64), method="DC")


def _require_exact_size(g, measure):
    if g.n * g.m > EXACT_PATH_LIMIT:
        raise InputError(f"exact {measure} limited to n*m <= {EXACT_PATH_LIMIT}, "
                         f"got {g.n * g.m}")


def _bfs(rows, s):
    """Vertices reached from s in visit order, and every vertex's distance
    from s (-1 where unreached)."""
    dist = [-1] * len(rows)
    dist[s] = 0
    order = [s]
    for v in order:  # the list is the queue: the loop reaches each append
        d = dist[v] + 1
        for w in rows[v]:
            if dist[w] < 0:
                dist[w] = d
                order.append(w)
    return order, dist


def closeness_centrality(g):
    """Inverse mean distance, computed per connected component with the
    component-local vertex count; isolated vertices score 0."""
    _require_exact_size(g, "closeness")
    rows = row_lists(g.neighbors, g.offsets)
    scores = np.zeros(g.n)
    for s in range(g.n):
        order, dist = _bfs(rows, s)
        total = sum(dist[v] for v in order)
        scores[s] = (len(order) - 1) / total if total else 0.0
    return CentralityVector(scores=scores, method="CC")


def betweenness_centrality(g):
    """Brandes' shortest-path betweenness: per source, path counts forward and
    dependencies backward over the BFS visit order; undirected halving at the
    end."""
    _require_exact_size(g, "betweenness")
    rows = row_lists(g.neighbors, g.offsets)
    n = g.n
    scores = [0.0] * n
    for s in range(n):
        order, dist = _bfs(rows, s)
        sigma = [0.0] * n
        sigma[s] = 1.0
        for w in order[1:]:
            d = dist[w] - 1
            sigma[w] = sum(sigma[v] for v in rows[w] if dist[v] == d)
        delta = [0.0] * n
        for w in reversed(order[1:]):
            d = dist[w] - 1
            for v in rows[w]:
                if dist[v] == d:
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            scores[w] += delta[w]
    return CentralityVector(scores=np.array(scores) / 2.0, method="BC")


def _adjacency_product(g):
    """The function x -> A @ x for g's adjacency matrix A, on the CSR arrays."""
    rows = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    return lambda x: np.bincount(rows, weights=x[g.neighbors], minlength=g.n)


def _power_iterate(product, n):
    x = np.ones(n) / math.sqrt(n)
    for _ in range(MAX_ITER):
        y = product(x)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return np.zeros(n), False
        y /= norm
        if np.max(np.abs(y - x)) < TOL:
            return y, True
        x = y
    return x, False


def eigenvector_centrality(g):
    """Power iteration on the adjacency matrix with 2-norm normalization.

    Bipartite-like oscillation gets one shifted retry on A + I; persistent
    non-convergence is flagged on the result rather than raised.
    """
    if g.n == 0:
        return CentralityVector(scores=np.zeros(0), method="EV")
    product = _adjacency_product(g)
    x, ok = _power_iterate(product, g.n)
    if not ok:
        x, ok = _power_iterate(lambda x: product(x) + x, g.n)
    return CentralityVector(scores=np.abs(x), method="EV", converged=ok)


def pagerank(g):
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
    for _ in range(MAX_ITER):
        spread = product(v / safe)
        nxt = (1.0 - DAMPING) / n + DAMPING * (spread + v[dangling].sum() / n)
        if np.abs(nxt - v).sum() < TOL:
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


def compute_all(g):
    return {name: measure(g) for name, measure in MEASURES.items()}


@dataclass
class Ranking:
    """Vertices best-first with competition ranks; a tie group is a maximal
    run of equal rank in ``order``."""

    order: np.ndarray       # vertex ids, best first (ties by label)
    rank: np.ndarray        # 1-based competition rank per vertex

    def top(self, k):
        return [int(v) for v in self.order[:k]]


def rank_vertices(cv):
    """Deterministic ranking of a CentralityVector."""
    scores = cv.scores
    n = scores.shape[0]
    # descending score order: an int64 argsort of the float bits mapped to
    # integers of the same order (-0.0 just below +0.0). The argsort need not
    # be stable: equal scores, and the two zeros, share a tie group, which
    # the second sort orders by id
    bits = scores.astype(np.float64).view(np.int64)
    bits ^= (bits >> 63) & np.int64(2 ** 63 - 1)
    order = np.argsort(~bits)
    ranked = scores[order]
    # a vertex opens a new tie group unless its score is within relative eps
    # of the previous vertex's in rank order
    opens = np.ones(n, dtype=bool)
    prev, cur = ranked[:-1], ranked[1:]
    opens[1:] = ~(np.abs(prev - cur) <= TIE_EPS * np.maximum(np.abs(prev), np.abs(cur)))
    starts = np.flatnonzero(opens)
    group = np.cumsum(opens) - 1
    rank = np.empty(n, dtype=np.int64)
    rank[order] = starts[group] + 1
    # each tie group by label: the keys group * n + id are distinct and
    # ``group`` is sorted, so sorting them sorts ids inside each group
    group *= n
    order += group
    order.sort()
    order -= group
    return Ranking(order=order, rank=rank)


def top_k_jaccard(r1, r2, k=10):
    """Exact Jaccard index of the two top-k sets, 1 <= k <= n."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if r1.order.shape[0] < k or r2.order.shape[0] < k:
        raise InputError(f"rankings must cover at least k={k} vertices")
    s1, s2 = set(r1.top(k)), set(r2.top(k))
    inter = len(s1 & s2)
    return Fraction(inter, len(s1) + len(s2) - inter)


def best_jaccard_competitor(measure, rankings):
    """Closest competitor by top-10 Jaccard.

    Ties between competitors resolve by walking down the reference measure's
    ranked list: prefer the competitor ranking the current vertex strictly
    higher, moving to the next vertex on ties or misses.
    """
    ref = rankings[measure]
    scored = []
    for name, rk in rankings.items():
        if name == measure:
            continue
        scored.append((top_k_jaccard(ref, rk), name))
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


def agreement_dot_matrices(rankings_by_graph):
    """One DotMatrix per measure from {graph: {measure: Ranking}}; the first
    graph's measures name the matrices."""
    graphs = list(rankings_by_graph)
    measures = list(rankings_by_graph[graphs[0]]) if graphs else []
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
