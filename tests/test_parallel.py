import threading

import numpy as np

from tricent.centrality import triangle_centrality
from tricent.generators import clique, load_fixture
from tricent.parallel import ParallelConfig, parallel_triangle_centrality
from tricent.graph import build_abbreviated_adjacency, build_graph, degree_order
from tricent.triangle import MergeTally, triangle_neighbor


def test_karate_deterministic_across_worker_counts():
    g = load_fixture("karate")
    ref = triangle_centrality(g)
    for workers in (1, 2, 4, 8):
        cv, counters = parallel_triangle_centrality(g, ParallelConfig(workers=workers))
        assert np.array_equal(cv.scores, ref.scores)
        assert counters.triangles == 45
    order = sorted(range(g.n), key=lambda v: (-cv.scores[v], v))
    assert g.labels[order[0]] == 14


def test_k6_all_ones_with_workers():
    g, _ = clique(6)
    cv, _ = parallel_triangle_centrality(g, ParallelConfig(workers=4))
    assert np.all(np.abs(cv.scores - 1.0) <= 1e-12)


def test_random_graphs_bitwise_equal(small_random_suite, widest_random_graphs):
    for g in small_random_suite[:20] + widest_random_graphs:
        ref = triangle_centrality(g)
        for workers in (1, 3, 7):
            cv, counters = parallel_triangle_centrality(g, ParallelConfig(workers=workers))
            assert np.array_equal(cv.scores, ref.scores)
            assert counters.triangles == (ref.tri_total or 0)


def test_counters_equal_one_merge_pass(small_random_suite, widest_random_graphs):
    for g in small_random_suite[:20] + widest_random_graphs + [load_fixture("dolphins")]:
        tally = MergeTally()
        triangle_neighbor(build_abbreviated_adjacency(g, degree_order(g)), tally)
        for workers in (1, 3, 7):
            _, counters = parallel_triangle_centrality(g, ParallelConfig(workers=workers))
            assert counters.merge_comparisons == tally.merge_comparisons
            assert counters.triangles == tally.triangles


def test_pair_tests_count_prefix_pairs(small_random_suite):
    fixtures = [load_fixture(n) for n in ("borgatti", "karate", "dolphins", "hijackers")]
    for g in fixtures + small_random_suite:
        lengths = build_abbreviated_adjacency(g, degree_order(g)).prefix_len.tolist()
        expected = sum(p * (p - 1) // 2 for p in lengths)
        for workers in (1, 3):
            cv, _ = parallel_triangle_centrality(g, ParallelConfig(workers=workers))
            assert cv.shape["prefix_pairs"] == expected


def test_empty_graph_counters_zero():
    g = build_graph([])
    cv, tally = parallel_triangle_centrality(g, ParallelConfig(workers=2))
    assert cv.triangle_free
    assert tally == MergeTally(merge_comparisons=0, triangles=0)
    assert cv.shape == {"max_degree": 0, "longest_prefix": 0, "sqrt_2m": 0.0,
                        "prefix_pairs": 0}


def test_max_prefix_is_the_longest_prefix():
    g, _ = clique(12)  # the vertex ranked lowest sees the other 11 above it
    cv, _ = parallel_triangle_centrality(g)
    assert cv.shape["longest_prefix"] == 11


def test_huge_worker_count_starts_no_threads(monkeypatch):
    def refuse(self):
        raise AssertionError("the parallel route started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    g = load_fixture("karate")
    cv, _ = parallel_triangle_centrality(g, ParallelConfig(workers=10**6))
    assert np.array_equal(cv.scores, triangle_centrality(g).scores)

