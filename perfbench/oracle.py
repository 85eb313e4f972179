"""Independent oracle: triangle centrality by sparse matrix algebra.

Shares no code with ``tricent``: it starts from the raw edge lines, builds its
own adjacency matrix A with scipy, and computes T = (A @ A) * A (elementwise),
whose entry (u, v) counts the triangles on edge {u, v}. From T it derives
per-vertex triangle counts, the total, the triangle-neighbor relation and the
score vector (3A - 2*binarize(T) + I) @ (T @ 1) / (1' T 1), in exact int64
up to the one final division.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

SCORE_TOL = 1e-12
ROW_BLOCK = 4096  # rows of A @ A formed at a time, to cap memory on hubs


@dataclass
class Truth:
    """What the oracle knows about one input graph."""

    labels: np.ndarray      # distinct labels in sorted order; index = vertex id
    A: sp.csr_matrix        # symmetric 0/1 int64 adjacency, sorted indices
    tri: np.ndarray         # triangles per vertex
    total: int              # triangles in the graph
    T: sp.csr_matrix        # per-edge triangle counts on the pattern of A
    scores: np.ndarray      # triangle centrality per vertex

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.A.nnz // 2


def adjacency(a, b):
    """Sorted distinct labels and the simple undirected adjacency matrix of
    the lines (a[i], b[i]); self-loops and repeats collapse."""
    labels, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    n = labels.shape[0]
    u, v = inv[: a.shape[0]], inv[a.shape[0]:]
    keep = u != v
    u, v = u[keep], v[keep]
    A = sp.csr_matrix((np.ones(2 * u.shape[0], dtype=np.int64),
                       (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n))
    A.sum_duplicates()
    A.data[:] = 1
    A.sort_indices()
    return labels, A


def triangle_matrix(A):
    """T = (A @ A) * A, formed in row blocks."""
    blocks = [(A[lo:lo + ROW_BLOCK] @ A).multiply(A[lo:lo + ROW_BLOCK]).tocsr()
              for lo in range(0, A.shape[0], ROW_BLOCK)]
    if not blocks:
        return sp.csr_matrix(A.shape, dtype=np.int64)
    T = sp.vstack(blocks, format="csr").astype(np.int64)
    T.eliminate_zeros()
    T.sort_indices()
    return T


def truth(a, b):
    labels, A = adjacency(a, b)
    n = A.shape[0]
    T = triangle_matrix(A)
    y = np.asarray(T.sum(axis=1)).ravel().astype(np.int64)  # = 2 * tri(v)
    grand = int(y.sum())                                     # = 6 * total
    if grand == 0:
        scores = np.zeros(n)
    else:
        Tb = T.copy()
        Tb.data[:] = 1
        X = 3 * A - 2 * Tb + sp.identity(n, dtype=np.int64, format="csr")
        scores = (X @ y).astype(np.float64) / float(grand)
    return Truth(labels=labels, A=A, tri=y // 2, total=grand // 6, T=T, scores=scores)


def ring_scores(t, p, k, joints):
    """Closed-form clique-ring scores in the oracle's vertex order."""
    joint = np.isin(t.labels, joints)
    return np.where(joint, (2 * k + 2) / (p * k), (k + 2) / (p * k))


def score_error(scores, expected):
    """Why ``scores`` do not match ``expected`` elementwise, or None."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != expected.shape:
        return f"{scores.shape[0]} scores for {expected.shape[0]} vertices"
    diff = np.abs(scores - expected)
    worst = int(np.argmax(diff)) if diff.size else 0
    if diff.size and not diff[worst] <= SCORE_TOL:
        return f"vertex {worst}: {scores[worst]!r} vs {expected[worst]!r}"
    return None


def label_ids(keys, t):
    """The oracle's vertex id of each label in ``keys``, or None unless
    ``keys`` holds each of the input's labels exactly once."""
    got = np.asarray(keys) if len(keys) else t.labels[:0]
    if got.shape != (t.n,) or got.dtype.kind != t.labels.dtype.kind:
        return None
    ids = np.searchsorted(t.labels, got)
    if t.n and not (np.array_equal(t.labels[np.minimum(ids, t.n - 1)], got)
                    and np.unique(ids).shape[0] == t.n):
        return None
    return ids


def tsv_scores(text, t):
    """Read a ``tc compute`` TSV against ``t``.

    Returns the scores by vertex id and why the lines are wrong (None if they
    are right): one ``label<TAB>score`` line per vertex, exactly the input's
    labels, ordered by score descending, then by label.
    """
    rows = [line.split("\t") for line in text.splitlines()]
    if len(rows) != t.n or any(len(r) != 2 for r in rows):
        return None, f"{len(rows)} lines for {t.n} vertices"
    keys = [r[0] for r in rows]
    if t.labels.dtype.kind in "iu":
        try:
            keys = [int(x) for x in keys]
        except ValueError:
            return None, "non-integer label in integer-labelled output"
    ids = label_ids(keys, t)
    if ids is None:
        return None, "label set differs from the input's"
    try:
        scores = np.array([float(r[1]) for r in rows])
    except ValueError:
        return None, "a score is not a number"
    for i in range(1, len(rows)):
        if scores[i] > scores[i - 1] or (scores[i] == scores[i - 1] and ids[i] < ids[i - 1]):
            return None, f"lines {i} and {i + 1} out of order"
    by_id = np.empty(t.n)
    by_id[ids] = scores
    return by_id, None


def tsv_error(text, t):
    """Why ``text`` is not the ``tc compute`` TSV for ``t``, or None."""
    scores, err = tsv_scores(text, t)
    return err or score_error(scores, t.scores)


# Classical measures: checked by properties, not by a second implementation.

def pagerank_error(pr):
    s = float(np.sum(pr))
    return None if abs(s - 1.0) <= 1e-9 else f"PageRank sums to {s!r}"


def eigenvector_error(ev, t):
    x = np.asarray(ev, dtype=np.float64)
    norm = float(np.linalg.norm(x))
    if t.m == 0:
        return None
    if not norm > 0:
        return "zero eigenvector"
    Ax = t.A @ x
    lam = float(x @ Ax) / norm**2
    resid = float(np.linalg.norm(Ax - lam * x)) / norm
    return None if resid <= 1e-6 * max(1.0, lam) else f"eigenvector residual {resid:.3g}"


def _distances(t):
    return csgraph.shortest_path(t.A, method="D", unweighted=True, directed=False)


def closeness_error(cc, t):
    d = _distances(t)
    fin = np.isfinite(d)
    reached = fin.sum(axis=1) - 1
    total = np.where(fin, d, 0).sum(axis=1)
    expected = np.divide(reached, total, out=np.zeros(t.n), where=total > 0)
    diff = np.abs(np.asarray(cc) - expected)
    ok = np.all(diff <= 1e-12 * np.maximum(1.0, expected))
    return None if ok else f"closeness off by {float(diff.max()):.3g}"


def betweenness_error(bc, t):
    """Total betweenness equals the sum over reachable pairs s < t of
    d(s, t) - 1, the interior vertices of their shortest paths."""
    d = _distances(t)
    iu = np.triu_indices(t.n, 1)
    pair = d[iu]
    want = float(np.sum(pair[np.isfinite(pair)] - 1))
    got = float(np.sum(bc))
    return None if math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9) else (
        f"total betweenness {got!r} vs {want!r}")
