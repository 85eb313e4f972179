"""Acceptance suite: one test per gated criterion, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import functools
import math

import numpy as np
import pytest

from tricent.algebraic import (build_triangle_matrix,
                               triangle_centrality_algebraic,
                               triangle_identities)
from tricent.centrality import (closed_form_tc, triangle_centrality,
                                triangle_centrality_basic)
from tricent.compare import (betweenness_centrality, degree_centrality,
                             eigenvector_centrality, pagerank, rank_vertices)
from tricent.generators import (book_with_satellite, bridged_cliques, clique,
                                clique_bridge_hub, clique_chain, clique_ring,
                                clique_star_hub, disjoint_cliques, load_fixture,
                                lone_triangle, star_triangle_hub)
from tricent.generators import triad_hub
from tricent.graph import build_abbreviated_adjacency, degree_order
from tricent.mapreduce import RECORD_BITS, run_mapreduce_tc
from tricent.parallel import ParallelConfig, parallel_triangle_centrality
from tricent.triangle import (MergeTally, brute_force_triangles,
                              hash_intersection_tri_neighbors,
                              hash_neighbor_pair_count,
                              hash_neighbor_pair_tri_neighbors,
                              materialize_triangle_neighbors, triangle_neighbor,
                              triangle_neighbor_alt)

TOL = 1e-12


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] FAIL - {label}")
                raise
            print(f"[criterion {number:02d}] PASS - {label}")
        return run
    return wrap


def ordered(g):
    return build_abbreviated_adjacency(g, degree_order(g))


def fixtures():
    return [load_fixture(n) for n in ("borgatti", "karate", "dolphins", "hijackers")]


@criterion(1, "worked example: center vertex scores exactly 1")
def test_c01_worked_example():
    g = book_with_satellite()
    cv = triangle_centrality(g)
    assert abs(cv.scores[g.id_of("v")] - 1.0) <= TOL


@criterion(2, "closed-form families match computed scores (~120 cases)")
def test_c02_closed_form_suite():
    cases = 0
    for k in range(3, 9):
        g, roles = clique(k)
        cv = triangle_centrality(g)
        assert np.all(np.abs(cv.scores - float(closed_form_tc("clique", k=k))) <= TOL)
        cases += 1
        for p in range(1, 6):
            g, roles = bridged_cliques(p, k)
            cv = triangle_centrality(g)
            want = float(closed_form_tc("bridged-cliques", k=k, p=p))
            assert abs(cv.scores[g.id_of(roles["bridge"][0])] - want) <= TOL
            cases += 1

            g, roles = disjoint_cliques(p, k)
            cv = triangle_centrality(g)
            want = float(closed_form_tc("disjoint-cliques", k=k, p=p))
            assert np.all(np.abs(cv.scores - want) <= TOL)
            cases += 1
        for p in range(3, 6):
            g, roles = clique_chain(p, k)
            cv = triangle_centrality(g)
            for role, labels in roles.items():
                if not labels:
                    continue
                want = float(closed_form_tc("clique-chain", k=k, p=p, role=role))
                for lab in labels:
                    assert abs(cv.scores[g.id_of(lab)] - want) <= TOL
            cases += 1
        for p in range(4, 6):  # p = 3 rings covered by the strict-xfail companion
            g, roles = clique_ring(p, k)
            cv = triangle_centrality(g)
            for role, labels in roles.items():
                want = float(closed_form_tc("clique-ring", k=k, p=p, role=role))
                for lab in labels:
                    assert abs(cv.scores[g.id_of(lab)] - want) <= TOL
            cases += 1
    for pendants in range(1, 6):
        g, _ = lone_triangle(pendants)
        cv = triangle_centrality(g)
        assert np.all(np.abs(cv.scores - 1.0) <= TOL)
        cases += 1
    assert cases >= 100


@pytest.mark.xfail(strict=True, reason=(
    "the ring closed form presumes all triangles lie inside cliques, but at "
    "p=3 the three joint vertices are mutually adjacent and close one extra "
    "triangle; the stated values are unattainable on the generated family"))
@criterion(2, "ring family at minimum size (p=3) matches the closed form")
def test_c02_ring_minimum_size():
    for k in range(3, 9):
        g, roles = clique_ring(3, k)
        cv = triangle_centrality(g)
        for role, labels in roles.items():
            want = float(closed_form_tc("clique-ring", k=k, p=3, role=role))
            for lab in labels:
                assert abs(cv.scores[g.id_of(lab)] - want) <= TOL


@criterion(3, "showcase rank table: TC first everywhere, competitor spot checks")
def test_c03_rank_table():
    hub = triad_hub()            # ring-of-triads hub
    bridge = clique_bridge_hub() # four bridged six-cliques
    stars = star_triangle_hub()
    mixed = clique_star_hub()
    for g in (hub, bridge, stars, mixed):
        rk = rank_vertices(triangle_centrality(g))
        assert int(rk.rank[g.id_of("a")]) == 1
    cv = triangle_centrality(bridge)
    a = bridge.id_of("a")
    assert abs(cv.scores[a] - 0.5) <= TOL
    assert np.all(np.abs(np.delete(cv.scores, a) - 0.25) <= TOL)
    assert int(rank_vertices(degree_centrality(bridge)).rank[a]) == 25
    assert int(rank_vertices(pagerank(hub)).rank[hub.id_of("a")]) != 1
    assert int(rank_vertices(betweenness_centrality(hub)).rank[hub.id_of("a")]) == 1
    assert int(rank_vertices(betweenness_centrality(bridge)).rank[a]) == 1
    assert int(rank_vertices(eigenvector_centrality(bridge)).rank[a]) == 25


@criterion(4, "bundled-network triangle totals are exact")
def test_c04_fixture_totals():
    expect = {"borgatti": (19, 32, 13), "karate": (34, 78, 45),
              "dolphins": (62, 159, 95), "hijackers": (62, 153, 133)}
    for name, (n, m, tri) in expect.items():
        g = load_fixture(name)
        stats, _ = triangle_neighbor(ordered(g))
        assert (g.n, g.m, stats.total) == (n, m, tri)


@criterion(5, "case-study top vertices after tie policy")
def test_c05_case_study_rankings():
    cases = {"karate": 14, "dolphins": 15, "borgatti": "d"}
    for name, top in cases.items():
        g = load_fixture(name)
        rk = rank_vertices(triangle_centrality(g))
        assert g.labels[int(rk.order[0])] == top
        assert int(rk.rank[g.id_of(top)]) == 1
    g = load_fixture("hijackers")
    rk = rank_vertices(triangle_centrality(g))
    assert [g.labels[int(v)] for v in rk.order[:2]] == [38, 35]


@criterion(6, "five implementations agree on fixtures + 200 random graphs")
def test_c06_cross_implementation(random_suite_200):
    for g in fixtures() + random_suite_200:
        ref = triangle_centrality(g)
        for alt in (triangle_centrality_basic(g),
                    triangle_centrality_algebraic(g),
                    run_mapreduce_tc(g)[0]):
            assert alt.scores.shape == ref.scores.shape
            assert np.max(np.abs(alt.scores - ref.scores), initial=0.0) <= TOL
        for workers in (1, 2, 4, 8):
            par, _ = parallel_triangle_centrality(g, ParallelConfig(workers=workers))
            assert np.array_equal(par.scores, ref.scores)  # bitwise


@criterion(7, "triangle routines match the cubic oracle on 500 random graphs")
def test_c07_triangle_oracle(random_suite_500):
    for g in random_suite_500:
        adj = ordered(g)
        ref_stats, ref_nbh = brute_force_triangles(g)
        s1, marks = triangle_neighbor(adj)
        n1 = materialize_triangle_neighbors(adj, marks)
        s2, n2 = triangle_neighbor_alt(adj)
        s3 = hash_neighbor_pair_count(g, adj)
        s4, n4 = hash_neighbor_pair_tri_neighbors(g, adj)
        n5 = hash_intersection_tri_neighbors(adj)
        for s in (s1, s2, s3, s4):
            assert s.total == ref_stats.total
            assert np.array_equal(s.per_vertex, ref_stats.per_vertex)
        assert n1 == ref_nbh
        assert n2 == ref_nbh
        assert n4 == ref_nbh
        assert n5 == ref_nbh


@criterion(8, "four rounds with exact emission counts and bit budget (c <= 8)")
def test_c08_mapreduce_structure(random_suite_200):
    width = 3 * RECORD_BITS
    for g in fixtures() + random_suite_200:
        adj = ordered(g)
        stats, _ = triangle_neighbor(adj)
        cv, rounds = run_mapreduce_tc(g)
        assert [r.round_index for r in rounds] == [1, 2, 3, 4]
        pair_count = int(sum(p * (p - 1) // 2 for p in adj.prefix_len.tolist()))
        assert rounds[0].reduce_records == g.m + pair_count
        assert rounds[1].reduce_records == 6 * stats.total
        if g.m:
            total_bits = sum(r.est_bits for r in rounds)
            assert total_bits <= 8 * g.m * math.sqrt(2 * g.m) * width


@criterion(9, "matrix identities: half row sums, sixth grand sum, support, symmetry")
def test_c09_algebraic_identities(random_suite_200):
    for g in fixtures() + random_suite_200[:60]:
        T = build_triangle_matrix(g)
        per_vertex, total = triangle_identities(T)
        adj = ordered(g)
        stats, marks = triangle_neighbor(adj)
        assert np.array_equal(per_vertex, stats.per_vertex)
        assert total == stats.total
        assert (T != T.T).nnz == 0
        nbh = materialize_triangle_neighbors(adj, marks)
        csr = T.tocsr()
        for v in range(g.n):
            support = sorted(csr.indices[csr.indptr[v]:csr.indptr[v + 1]].tolist())
            assert support == nbh[v]
        if g.n <= 32:
            A = np.zeros((g.n, g.n), dtype=np.int64)
            for v in range(g.n):
                A[v, g.neighbors_of(v)] = 1
            assert np.array_equal(T.toarray(), (A @ A) * A)


@criterion(10, "merge-comparison work stays within 4 * m * sqrt(2m)")
def test_c10_work_bound(random_suite_200, random_suite_500):
    for g in fixtures() + random_suite_200 + random_suite_500:
        if g.m == 0:
            continue
        tally = MergeTally()
        triangle_neighbor(ordered(g), tally=tally)
        assert tally.merge_comparisons <= 4 * g.m * math.sqrt(2 * g.m)


def test_c11_out_of_scope_note():
    print("[criterion 11] NOTE - large-machine wallclocks and the full 20-graph "
          "corpus statistics are out of desk scope; `tc bench` prints triangle "
          "totals for user-supplied datasets instead")
