"""Closed forms, route agreement, the MapReduce round structure and the
routes' space per edge at n = 20,000-80,000, a size the n <= 64 criteria
never reach, on the benchmark's own Holme-Kim generator."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import pair_list

from tricent.algebraic import triangle_centrality_algebraic
from tricent.centrality import (closed_form_tc, triangle_centrality,
                                triangle_centrality_basic)
from tricent.generators import clique_ring
from tricent.graph import build_abbreviated_adjacency, build_graph, degree_order
from tricent.mapreduce import RECORD_BITS, run_mapreduce_tc
from tricent.parallel import parallel_triangle_centrality
from tricent.triangle import (MergeTally, count_triangles, hash_intersection_tri_neighbors,
                              marked_pairs, triangle_neighbor)

TOL = 1e-12


@pytest.fixture(scope="module")
def holme_kim_20k(bench_gen):
    """``holme_kim(20000, 5, 0.8, 1)``, m = 99,963, built once for the module."""
    edges = bench_gen.holme_kim(20000, 5, 0.8, 1)
    return build_graph(zip(edges.a.tolist(), edges.b.tolist()))


def test_large_clique_ring_meets_closed_form():
    p, k = 20000, 5
    g, roles = clique_ring(p, k)
    assert g.n == 80_000
    scores = triangle_centrality(g).scores
    for role, labels in roles.items():
        want = float(closed_form_tc("clique-ring", k=k, p=p, role=role))
        got = scores[[g.id_of(label) for label in labels]]
        assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("seed", [1, 2])
def test_routes_agree_on_holme_kim(bench_gen, holme_kim_20k, seed):
    if seed == 1:
        g = holme_kim_20k
    else:
        edges = bench_gen.holme_kim(20000, 5, 0.8, seed)
        g = build_graph(zip(edges.a.tolist(), edges.b.tolist()))
    ref = triangle_centrality(g)
    for alt in (triangle_centrality_basic(g), triangle_centrality_algebraic(g)):
        assert alt.tri_total == ref.tri_total
        assert np.max(np.abs(alt.scores - ref.scores)) <= TOL
    par, counters = parallel_triangle_centrality(g)
    assert np.array_equal(par.scores, ref.scores)  # bitwise
    # the route's closed-form merge count against one run of the merge
    adj = build_abbreviated_adjacency(g, degree_order(g))
    tally = MergeTally()
    merge_stats, merge_marks = triangle_neighbor(adj, tally)
    assert (counters.merge_comparisons, counters.triangles) == (
        tally.merge_comparisons, tally.triangles)
    # the production kernel and the dict intersection against the merge's pairs
    pairs = pair_list(marked_pairs(adj, merge_marks))
    stats, marks = count_triangles(adj)
    assert stats.total == merge_stats.total == ref.tri_total
    assert np.array_equal(stats.per_vertex, merge_stats.per_vertex)
    assert pair_list(marked_pairs(adj, marks)) == pairs
    assert pair_list(hash_intersection_tri_neighbors(adj)) == pairs
    # triangle total from scipy, sharing no code with the kernels
    a = sp.csr_matrix((np.ones(2 * g.m, dtype=np.int64), g.neighbors, g.offsets),
                      shape=(g.n, g.n))
    assert ref.tri_total == int((a @ a).multiply(a).sum()) // 6
    assert ref.tri_total > 0


def test_mapreduce_structure_on_holme_kim(holme_kim_20k):
    g = holme_kim_20k
    ref = triangle_centrality(g)
    cv, rounds = run_mapreduce_tc(g)
    # criterion 8's counts and bit budget, at scale
    assert [r.round_index for r in rounds] == [1, 2, 3, 4]
    plen = build_abbreviated_adjacency(g, degree_order(g)).prefix_len
    assert rounds[0].reduce_records == g.m + int((plen * (plen - 1) // 2).sum())
    assert rounds[1].reduce_records == 6 * ref.tri_total
    assert sum(r.est_bits for r in rounds) <= 8 * g.m * math.sqrt(2 * g.m) * 3 * RECORD_BITS
    assert cv.tri_total == ref.tri_total
    assert np.max(np.abs(cv.scores - ref.scores)) <= TOL


# traced peak bytes per edge of one call, measured on 2-core x86-64 with
# Python 3.11 and numpy 2.4 (the graph's own CSR is 17.6): about 15% headroom
SPACE_PER_EDGE = {
    triangle_centrality: 80,  # measured 69.6
    triangle_centrality_basic: 83,  # measured 72.0
    parallel_triangle_centrality: 131,  # measured 89.9
    triangle_centrality_algebraic: 120,  # measured 104.2
}


@pytest.mark.parametrize("route", list(SPACE_PER_EDGE), ids=lambda f: f.__name__)
def test_routes_use_linear_space(holme_kim_20k, route):
    # the paper's O(m + n) space: a fixed number of bytes per edge
    g = holme_kim_20k
    route(build_graph([(1, 2), (2, 3), (1, 3)]))  # lazy imports, outside the trace
    tracemalloc.start()
    try:
        route(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.m <= SPACE_PER_EDGE[route]
