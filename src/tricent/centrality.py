"""Triangle centrality scores.

Score of v = (core/3 + non-core) / total, where core sums triangle counts
over v and its triangle neighbors and non-core sums them over the remaining
neighbors. Sums are kept in exact integers; the single floating-point step is
the final division, computed as (core + 3*non_core) / (3*total).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import InputError
from .graph import build_abbreviated_adjacency, degree_order
from .triangle import (_stats_and_marks, hash_neighbor_pair_tri_neighbors, marked_pairs,
                       wedge_counts)


@dataclass
class CentralityVector:
    """Per-vertex scores plus provenance.

    ``tri_total`` is the normalizing global triangle count for triangle-based
    methods (None for the classical measures). ``triangle_free`` flags the
    all-zero result defined for graphs without triangles; ``converged`` is
    used by the iterative classical measures.
    """

    scores: np.ndarray
    method: str
    tri_total: int | None = None
    triangle_free: bool = False
    converged: bool = True


def _scores_from_sums(core, non_core, total):
    # one division at the end keeps everything before it exact
    return (core + 3 * non_core).astype(np.float64) / float(3 * total)


def _neighbor_sums(g, per_vertex):
    # a row's sum is the difference of the running sums at its two offsets,
    # which is 0 for a vertex without neighbors
    csum = np.zeros(g.neighbors.shape[0] + 1, dtype=np.int64)
    np.cumsum(per_vertex[g.neighbors], out=csum[1:])
    return csum[g.offsets[1:]] - csum[g.offsets[:-1]]


def tc_from_triangles(g, stats, neighborhood=None, adj=None, marks=None, method="main"):
    """Second phase: fold triangle counts into scores.

    Accepts either explicit neighbor lists (one list of triangle neighbors
    per vertex) or (adj, marks), in which case the core sums accumulate
    symmetrically over marked prefix entries without materializing lists.
    """
    tri = stats.per_vertex
    if stats.total == 0:
        return CentralityVector(scores=np.zeros(g.n), method=method, tri_total=0,
                                triangle_free=True)
    # (src, dst): one row per ordered triangle-neighbor pair
    if neighborhood is not None:
        src = np.repeat(np.arange(g.n, dtype=np.int64), [len(row) for row in neighborhood])
        dst = np.fromiter(chain.from_iterable(neighborhood), dtype=np.int64,
                          count=src.shape[0])
    elif adj is not None and marks is not None:
        src, dst = marked_pairs(adj, marks)
    else:
        raise InputError("need either a neighborhood or (adj, marks)")
    core = tri.copy()
    np.add.at(core, src, tri[dst])
    s = _neighbor_sums(g, tri)
    non_core = s - core + tri  # = s - (core - tri); core already includes tri[v]
    scores = _scores_from_sums(core, non_core, stats.total)
    return CentralityVector(scores=scores, method=method, tri_total=int(stats.total))


def triangle_centrality(g):
    """Production pipeline: degree order, abbreviated adjacency, per-edge
    triangle counts from the blocked wedge-check kernel, the counts and marks
    derived from them, then the score fold over marks."""
    adj = build_abbreviated_adjacency(g, degree_order(g))
    stats, marks = _stats_and_marks(adj, wedge_counts(adj), per_edge=False)
    return tc_from_triangles(g, stats, adj=adj, marks=marks, method="main")


def triangle_centrality_basic(g):
    """Reference pipeline over hash-based detection and explicit lists."""
    adj = build_abbreviated_adjacency(g, degree_order(g))
    stats, nbh = hash_neighbor_pair_tri_neighbors(g, adj)
    return tc_from_triangles(g, stats, neighborhood=nbh, method="basic")


CHAIN_ROLES = ("inner-joint", "outer-joint", "inner-member", "outer-member")


def closed_form_tc(family, k=None, p=None, role=None):
    """Exact rational score for the closed-form graph families.

    Caveat: the clique-ring formulas presume every triangle lies inside one of
    the cliques. In the smallest ring (p = 3) the three joint vertices are
    mutually adjacent and close one extra triangle, so the generated p = 3
    family deviates slightly from these values; they agree exactly for p >= 4.
    """
    if family == "clique":
        _require(k is not None and k >= 3, "clique needs k >= 3")
        return Fraction(1)
    if family == "bridged-cliques":
        _require(k is not None and k >= 3, "bridged-cliques needs k >= 3")
        _require(p is not None and p >= 1, "bridged-cliques needs p >= 1")
        return Fraction(3, k)
    if family == "disjoint-cliques":
        _require(k is not None and k >= 3, "disjoint-cliques needs k >= 3")
        _require(p is not None and p >= 1, "disjoint-cliques needs p >= 1")
        return Fraction(1, p)
    if family == "clique-chain":
        _require(k is not None and k >= 3, "clique-chain needs k >= 3")
        _require(p is not None and p >= 3, "clique-chain needs p >= 3")
        if role == "inner-joint":
            _require(p >= 4, "inner-joint requires p >= 4")
            return Fraction(2 * k + 2, p * k)
        if role == "outer-joint":
            return Fraction(2 * k + 1, p * k)
        if role == "inner-member":
            return Fraction(k + 2, p * k)
        if role == "outer-member":
            return Fraction(k + 1, p * k)
        raise InputError(f"unknown chain role {role!r}")
    if family == "clique-ring":
        _require(k is not None and k >= 3, "clique-ring needs k >= 3")
        _require(p is not None and p >= 3, "clique-ring needs p >= 3")
        if role == "joint":
            return Fraction(2 * k + 2, p * k)
        if role == "member":
            return Fraction(k + 2, p * k)
        raise InputError(f"unknown ring role {role!r}")
    if family == "lone-triangle":
        return Fraction(1)
    raise InputError(f"unknown family {family!r}")


def _require(cond, msg):
    if not cond:
        raise InputError(msg)
