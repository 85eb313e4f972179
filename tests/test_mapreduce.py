import math

import numpy as np
import pytest

from tricent.centrality import triangle_centrality
from tricent.errors import ConsistencyError, InputError
from tricent.generators import book_with_satellite, clique, load_fixture
from tricent.graph import build_abbreviated_adjacency, build_graph, degree_order
from tricent.mapreduce import (RECORD_BITS, annotate_edges, mr_round1,
                               mr_round2, mr_round3, mr_round4,
                               run_mapreduce_tc)


def k_n(n):
    return build_graph([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def test_round1_k3_trace():
    g = k_n(3)
    out, stats = mr_round1(annotate_edges(g))
    assert sorted(out, key=repr) == sorted(
        [((0, 1), None), ((0, 2), None), ((1, 2), 0), ((1, 2), None)], key=repr)
    assert stats.map_records == 3
    assert stats.reduce_records == 4


def test_round1_path_has_no_witnessed_edge():
    g = build_graph([(1, 2), (2, 3)])
    out, _ = mr_round1(annotate_edges(g))
    by_key = {}
    for key, val in out:
        by_key.setdefault(key, []).append(val)
    for values in by_key.values():
        assert not (None in values and any(v is not None for v in values))


def test_round1_emission_formula(small_random_suite):
    for g in small_random_suite:
        adj = build_abbreviated_adjacency(g, degree_order(g))
        expect = g.m + int(sum(p * (p - 1) // 2 for p in adj.prefix_len.tolist()))
        _, stats = mr_round1(annotate_edges(g))
        assert stats.reduce_records == expect


def test_round1_rejects_inconsistent_degrees():
    records = [((0, 1), (1, 2)), ((1, 2), (0, 3))]
    with pytest.raises(InputError):
        mr_round1(records)


def test_round2_emissions():
    assert mr_round2(mr_round1(annotate_edges(k_n(3)))[0])[1].reduce_records == 6
    assert mr_round2(mr_round1(annotate_edges(k_n(4)))[0])[1].reduce_records == 24
    tree = build_graph([(1, 2), (1, 3), (1, 4)])
    assert mr_round2(mr_round1(annotate_edges(tree))[0])[1].reduce_records == 0


def test_round3_counts():
    g = load_fixture("karate")
    edges = annotate_edges(g)
    r2, _ = mr_round2(mr_round1(edges)[0])
    out, total, stats = mr_round3(r2, edges)
    assert total == 45
    assert stats.reduce_records == 2 * g.m + g.n  # one per neighbor + one self

    g = book_with_satellite()
    edges = annotate_edges(g)
    r2, _ = mr_round2(mr_round1(edges)[0])
    out, total, _ = mr_round3(r2, edges)
    v = g.id_of("v")
    self_counts = [c for key, (c, flag) in out if key == v and flag == 1]
    assert total == 3
    # every record shipped to v from a triangle neighbor carries that
    # neighbor's count; the self record carries 2
    assert 2 in self_counts


def test_round3_rejects_odd_flags():
    records = [(0, (1, 1))]  # single flagged record cannot be halved
    with pytest.raises(ConsistencyError):
        mr_round3(records, [])


def test_round4_k3_and_worked_example():
    g = k_n(3)
    edges = annotate_edges(g)
    r3, total, _ = mr_round3(mr_round2(mr_round1(edges)[0])[0], edges)
    cv, stats = mr_round4(r3, total, g.n)
    assert np.array_equal(cv.scores, np.ones(3))
    assert stats.reduce_records == 3

    g = book_with_satellite()
    cv, _ = run_mapreduce_tc(g)
    assert abs(cv.scores[g.id_of("v")] - 1.0) <= 1e-12


def test_exactly_four_rounds_and_agreement(small_random_suite):
    fixtures = [load_fixture(n) for n in ("borgatti", "karate")]
    for g in small_random_suite[:25] + fixtures:
        cv, stats = run_mapreduce_tc(g)
        assert [s.round_index for s in stats] == [1, 2, 3, 4]
        ref = triangle_centrality(g)
        assert np.max(np.abs(cv.scores - ref.scores), initial=0.0) <= 1e-12


def test_triangle_free_still_runs_four_rounds():
    g = build_graph([(1, 2), (2, 3)])
    cv, stats = run_mapreduce_tc(g)
    assert cv.triangle_free and len(stats) == 4
    assert np.all(cv.scores == 0.0)


def test_bit_estimate_bound(small_random_suite):
    width = 3 * RECORD_BITS  # widest emitted record
    for g in small_random_suite:
        if g.m == 0:
            continue
        _, stats = run_mapreduce_tc(g)
        total_bits = sum(s.est_bits for s in stats)
        assert total_bits <= 8 * g.m * math.sqrt(2 * g.m) * width


def test_empty_graph_still_four_rounds():
    cv, stats = run_mapreduce_tc(build_graph([]))
    assert cv.triangle_free and cv.scores.shape == (0,)
    assert [s.round_index for s in stats] == [1, 2, 3, 4]
    assert all(s.est_bits == 0 for s in stats)


def test_k6_scores_one():
    g, _ = clique(6)
    cv, _ = run_mapreduce_tc(g)
    assert np.all(np.abs(cv.scores - 1.0) <= 1e-12)


# (map_records, reduce_records, est_bits) per round, pinned from the
# record-walking meter that each stream's fixed record width replaced
GOLDEN_ROUNDS = {
    "borgatti": [(32, 53, 14272), (53, 78, 14976), (142, 83, 30656), (83, 19, 2432)],
    "karate": [(78, 147, 38208), (147, 270, 51840), (426, 190, 70784), (190, 34, 4352)],
    "dolphins": [(159, 360, 89472), (360, 570, 109440), (888, 380, 141952), (380, 62, 7936)],
    "hijackers": [(153, 315, 80064), (315, 798, 153216), (1104, 368, 137344), (368, 62, 7936)],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ROUNDS))
def test_round_stats_match_golden_values(name):
    _, stats = run_mapreduce_tc(load_fixture(name))
    got = [(s.map_records, s.reduce_records, s.est_bits) for s in stats]
    assert got == GOLDEN_ROUNDS[name]
