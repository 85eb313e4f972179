"""Sparse-matrix formulation of triangle centrality.

T holds per-edge triangle counts on the adjacency pattern (the elementwise
product of the squared adjacency matrix with itself). It is built here from
the per-edge counts of the blocked wedge-check kernel
(`tricent.triangle.wedge_counts`) rather than by matrix multiplication,
which is both faster and exact in int64. With y = T @ 1, the score vector is
(3A - 2*binarize(T) + I) @ y over the grand total, evaluated as the int64
vector 3*(A @ y) - 2*(binarize(T) @ y) + y, so no sparse sum is built; the
final division is the only float step.
scipy is imported inside the functions that use it, so importing the package
(and every route but this one) does not pay for loading scipy.
"""

import numpy as np

from .centrality import CentralityVector
from .errors import ConsistencyError, InputError
from .graph import build_abbreviated_adjacency, degree_order
from .triangle import _stats_and_marks, edge_count_arrays, wedge_counts


def adjacency_matrix(g):
    """CSR adjacency matrix with int64 unit entries and an empty diagonal.

    The graph's offsets and neighbors are already a CSR pattern, rows sorted
    and free of duplicates, so they are A's indptr and indices as they stand.
    """
    import scipy.sparse as sp

    return sp.csr_matrix((np.ones(2 * g.m, dtype=np.int64), g.neighbors, g.offsets),
                         shape=(g.n, g.n))


def build_triangle_matrix(g):
    """Symmetric CSR matrix of per-edge triangle counts via enumeration."""
    import scipy.sparse as sp

    adj = build_abbreviated_adjacency(g, degree_order(g))
    stats, _ = _stats_and_marks(adj, wedge_counts(adj), per_edge=True)
    i, j, c = edge_count_arrays(adj, stats)
    return sp.csr_matrix((c, (i, j)), shape=(g.n, g.n))


def tc_algebraic(A, T):
    """Score vector from the adjacency and triangle-count matrices."""
    import scipy.sparse as sp

    n = A.shape[0]
    if T.shape != A.shape:
        raise InputError("A and T shapes differ")
    T = T.tocsr()
    y = T @ np.ones(n, dtype=np.int64)
    k = int(y.sum())
    if k == 0:
        return CentralityVector(scores=np.zeros(n), method="algebraic", tri_total=0,
                                triangle_free=True)
    # binarize(T) shares T's pattern, with ones for its entries
    T_bin = sp.csr_matrix((np.ones_like(T.data), T.indices, T.indptr), shape=T.shape)
    x = 3 * (A @ y) - 2 * (T_bin @ y) + y
    scores = x.astype(np.float64) / float(k)
    return CentralityVector(scores=scores, method="algebraic", tri_total=k // 6)


def triangle_centrality_algebraic(g):
    """Convenience composition: build A and T, then score."""
    return tc_algebraic(adjacency_matrix(g), build_triangle_matrix(g))


def triangle_identities(T):
    """Per-vertex counts as half row sums and the total as a sixth of the
    grand sum; non-integrality signals a corrupt matrix."""
    row_sums = np.asarray(T.sum(axis=1)).ravel().astype(np.int64)
    if np.any(row_sums % 2):
        raise ConsistencyError("row sums of T must be even")
    grand = int(row_sums.sum())
    if grand % 6:
        raise ConsistencyError("grand sum of T must divide by 6")
    return row_sums // 2, grand // 6
