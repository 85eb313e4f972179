"""Triangle centrality scores.

Score of v = (core/3 + non-core) / total, where core sums triangle counts
over v and its triangle neighbors and non-core sums them over the remaining
neighbors. In the paper's vector form the scores are
C = (3A - 2Ť + I)·tri / (3·tri(G)), for A the adjacency matrix, Ť the 0/1
triangle-neighbor matrix and tri the per-vertex counts. The vector
3·(A·tri) + tri - 2·(Ť·tri) is kept in exact integers; the single
floating-point step is the final division by 3·tri(G).

Every triangle route but the MapReduce simulator is one run of
:func:`triangle_pipeline`: order the graph once, detect the triangles in the
ordered adjacency with the route's kernel, fold them into scores. The
returned vector carries each phase's seconds and the shape of the order
(:func:`order_shape`).
"""

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError
from .graph import ordered_adjacency
from .triangle import count_triangles, hash_neighbor_pair_tri_neighbors, marked_pairs


@dataclass
class CentralityVector:
    """Per-vertex scores plus provenance.

    ``tri_total`` is the normalizing global triangle count for triangle-based
    methods (None for the classical measures), and ``triangle_free`` derives
    from it the all-zero result defined for graphs without triangles;
    ``converged`` is used by the iterative classical measures. ``phases``
    (seconds by phase name) and ``shape`` (:func:`order_shape`) are set by
    the routes that order the graph, and are None elsewhere.
    """

    scores: np.ndarray
    method: str
    tri_total: int | None = None
    converged: bool = True
    phases: dict | None = field(default=None, init=False)
    shape: dict | None = field(default=None, init=False)

    @property
    def triangle_free(self):
        return self.tri_total == 0


def _neighbor_sums(g, per_vertex):
    # a row's sum is the difference of the running sums at its two offsets,
    # which is 0 for a vertex without neighbors
    csum = np.zeros(g.neighbors.shape[0] + 1, dtype=np.int64)
    np.cumsum(per_vertex[g.neighbors], out=csum[1:])
    return csum[g.offsets[1:]] - csum[g.offsets[:-1]]


def tc_from_triangles(g, stats, neighborhood=None, adj=None, marks=None, method="main"):
    """Second phase: fold triangle counts into scores,
    C = (3A - 2Ť + I)·tri / (3·tri(G)).

    ``neighborhood`` is the int64 arrays ``(src, dst)`` of
    :func:`~tricent.triangle.marked_pairs`, one row per ordered pair of
    triangle neighbors (the nonzeros of Ť), in any order. The int64 vector
    x = 3·(A·tri) + tri - 2·(Ť·tri) is exact; it is divided once, by
    3·tri(G). The (adj, marks) that make the pairs are accepted in place of
    them for outside callers (today the traced path of
    ``perfbench/child.py``) until ROADMAP item 1 retires that path.
    """
    tri = stats.per_vertex
    if stats.total == 0:
        return CentralityVector(scores=np.zeros(g.n), method=method, tri_total=0)
    if neighborhood is None:
        if adj is None or marks is None:
            raise InputError("need either a neighborhood or (adj, marks)")
        neighborhood = marked_pairs(adj, marks)
    src, dst = neighborhood
    x = 3 * _neighbor_sums(g, tri) + tri
    np.add.at(x, src, -2 * tri[dst])
    return CentralityVector(scores=x.astype(np.float64) / float(3 * stats.total),
                            method=method, tri_total=int(stats.total))


def order_shape(g, adj):
    """The shape that bounds the detect step's work: the largest degree,
    the longest prefix of ``adj`` (at most ``sqrt(2m)`` when ``adj`` is
    degree-ordered), and the ``sum p(p-1)/2`` pairs of prefix entries a
    kernel tests."""
    p = adj.prefix_len
    return {"max_degree": int(g.degrees.max(initial=0)),
            "longest_prefix": int(p.max(initial=0)),
            "sqrt_2m": math.sqrt(2 * g.m),
            "prefix_pairs": int(p @ (p - 1)) // 2}


def triangle_pipeline(g, detect, fold):
    """Order ``g``, detect its triangles, fold them into scores.

    ``detect(g, adj)`` reads the ordered adjacency and returns a tuple;
    ``fold(g, *found)`` turns that tuple into a CentralityVector. The tuple
    holds what the fold reads (pair arrays, a matrix), never ``adj``, so the
    ordered adjacency is freed before every fold. The vector gets the
    seconds of the ``order``, ``detect`` and ``fold`` phases and the
    :func:`order_shape` of ``adj``.
    """
    t0 = time.perf_counter()
    adj = ordered_adjacency(g)
    shape = order_shape(g, adj)
    t1 = time.perf_counter()
    found = detect(g, adj)
    del adj
    t2 = time.perf_counter()
    cv = fold(g, *found)
    t3 = time.perf_counter()
    cv.phases = {"order": t1 - t0, "detect": t2 - t1, "fold": t3 - t2}
    cv.shape = shape
    return cv


def triangle_centrality(g):
    """Production route: the counts of the production kernel
    (``count_triangles``), folded over the pairs of its marks."""
    def detect(g, adj):
        stats, marks = count_triangles(adj)
        return stats, marked_pairs(adj, marks)

    return triangle_pipeline(
        g, detect, lambda g, stats, nbh: tc_from_triangles(g, stats, neighborhood=nbh))


def triangle_centrality_basic(g):
    """Reference route: hash-based detection, folded over its neighborhood
    pairs."""
    return triangle_pipeline(
        g, hash_neighbor_pair_tri_neighbors,
        lambda g, stats, nbh: tc_from_triangles(g, stats, neighborhood=nbh, method="basic"))


CHAIN_ROLES = ("inner-joint", "outer-joint", "inner-member", "outer-member")


def closed_form_tc(family, k=None, p=None, role=None):
    """Exact rational score for the closed-form graph families.

    In the smallest clique ring (p = 3) the three joints are mutually
    adjacent and close one triangle on top of the 3 * C(k, 3) inside the
    cliques, which raises a joint's count from 2C to 2C + 1 for C = C(k-1, 2).
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
        c, den = math.comb(k - 1, 2), 3 * (3 * math.comb(k, 3) + 1)
        if role == "joint":
            if p == 3:
                return Fraction(3 * (2 * c + 1) + 2 * (k - 2) * c, den)
            return Fraction(2 * k + 2, p * k)
        if role == "member":
            if p == 3:
                return Fraction((k - 2) * c + 2 * (2 * c + 1), den)
            return Fraction(k + 2, p * k)
        raise InputError(f"unknown ring role {role!r}")
    if family == "lone-triangle":
        return Fraction(1)
    raise InputError(f"unknown family {family!r}")


def _require(cond, msg):
    if not cond:
        raise InputError(msg)
