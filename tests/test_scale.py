"""Closed forms and route agreement at n = 20,000-80,000, a size the n <= 64
criteria never reach, on the benchmark's own Holme-Kim generator."""

import numpy as np
import pytest
import scipy.sparse as sp

from tricent.algebraic import triangle_centrality_algebraic
from tricent.centrality import (closed_form_tc, triangle_centrality,
                                triangle_centrality_basic)
from tricent.generators import clique_ring
from tricent.graph import build_abbreviated_adjacency, build_graph, degree_order
from tricent.parallel import parallel_triangle_centrality
from tricent.triangle import (MergeTally, count_triangles, hash_intersection_tri_neighbors,
                              materialize_triangle_neighbors, triangle_neighbor)

TOL = 1e-12


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
def test_routes_agree_on_holme_kim(bench_gen, seed):
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
    # the production kernel and the dict intersection against the merge's lists
    lists = materialize_triangle_neighbors(adj, merge_marks)
    stats, marks = count_triangles(adj)
    assert stats.total == merge_stats.total == ref.tri_total
    assert np.array_equal(stats.per_vertex, merge_stats.per_vertex)
    assert materialize_triangle_neighbors(adj, marks) == lists
    assert hash_intersection_tri_neighbors(adj) == lists
    # triangle total from scipy, sharing no code with the kernels
    a = sp.csr_matrix((np.ones(2 * g.m, dtype=np.int64), g.neighbors, g.offsets),
                      shape=(g.n, g.n))
    assert ref.tri_total == int((a @ a).multiply(a).sum()) // 6
    assert ref.tri_total > 0
