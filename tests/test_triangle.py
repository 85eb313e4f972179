import math
import tracemalloc

import numpy as np
import pytest

from tricent import triangle
from tricent.centrality import tc_from_triangles, triangle_centrality
from tricent.errors import InputError
from tricent.generators import book_with_satellite, clique, load_fixture
from tricent.graph import build_abbreviated_adjacency, build_graph, degree_order, row_lists
from tricent.triangle import (BRUTE_FORCE_LIMIT, MergeTally, _hash_buckets, _hash_counts,
                              _hash_find, _hash_table, _merge_counts,
                              _prefix_pairs, brute_force_triangles, edge_count_arrays,
                              hash_intersection_tri_neighbors,
                              hash_neighbor_pair_count,
                              hash_neighbor_pair_tri_neighbors,
                              materialize_triangle_neighbors, triangle_neighbor,
                              triangle_neighbor_alt, wedge_counts)

FIXTURE_NAMES = ("borgatti", "karate", "dolphins", "hijackers")


def ordered(g):
    return build_abbreviated_adjacency(g, degree_order(g))


def k_n(n):
    return build_graph([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path(n):
    return build_graph([(i, i + 1) for i in range(1, n)])


def test_triangle_neighbor_k3():
    g = k_n(3)
    stats, marks = triangle_neighbor(ordered(g))
    assert stats.total == 1
    assert stats.per_vertex.tolist() == [1, 1, 1]
    nbh = materialize_triangle_neighbors(ordered(g), marks)
    assert nbh == [[1, 2], [0, 2], [0, 1]]


def test_triangle_neighbor_path_is_empty():
    g = path(4)
    stats, marks = triangle_neighbor(ordered(g))
    assert stats.total == 0
    assert not marks.any()


@pytest.mark.parametrize("name,total", [
    ("borgatti", 13), ("karate", 45), ("dolphins", 95), ("hijackers", 133),
])
def test_fixture_totals(name, total):
    g = load_fixture(name)
    stats, _ = triangle_neighbor(ordered(g))
    assert stats.total == total


def test_book_satellite_neighborhood():
    g = book_with_satellite()
    adj = ordered(g)
    stats, marks = triangle_neighbor(adj)
    nbh = materialize_triangle_neighbors(adj, marks)
    v = g.id_of("v")
    got = {g.labels[u] for u in nbh[v]}
    assert got == {"a", "b", "c"}
    assert g.id_of("d") not in nbh[v]
    assert stats.per_vertex[v] == 2


def test_marks_match_brute_relation():
    g = load_fixture("borgatti")
    adj = ordered(g)
    _, marks = triangle_neighbor(adj)
    nbh = materialize_triangle_neighbors(adj, marks)
    _, oracle = brute_force_triangles(g)
    assert nbh == oracle


def test_all_implementations_agree(small_random_suite):
    fixtures = [load_fixture(n) for n in ("borgatti", "karate")]
    for g in small_random_suite + fixtures + [book_with_satellite()]:
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
            assert int(s.per_vertex.sum()) == 3 * s.total
        assert n1 == n2 == n4 == n5 == ref_nbh


def test_detection_count_equals_total(small_random_suite):
    for g in small_random_suite:
        tally = MergeTally()
        stats, _ = triangle_neighbor(ordered(g), tally=tally)
        assert tally.triangles == stats.total


def test_merge_comparisons_bound(small_random_suite):
    for g in small_random_suite:
        if g.m == 0:
            continue
        tally = MergeTally()
        triangle_neighbor(ordered(g), tally=tally)
        assert tally.merge_comparisons <= 2 * g.m * math.sqrt(2 * g.m)


def test_per_edge_counts_align_with_marks(small_random_suite):
    fixtures = [load_fixture(n) for n in ("borgatti", "karate", "dolphins", "hijackers")]
    for g in small_random_suite + fixtures:
        adj = ordered(g)
        stats, marks = triangle_neighbor(adj, per_edge=True)
        assert stats.per_edge.shape == marks.shape
        assert np.array_equal(marks, stats.per_edge > 0)
        for v in range(g.n):
            nv = set(g.neighbors_of(v).tolist())
            lo, hi = adj.prefix_offsets[v], adj.prefix_offsets[v + 1]
            higher = adj.higher[lo:hi].tolist()
            for u, c in zip(higher, stats.per_edge[lo:hi].tolist()):
                assert c == len(nv & set(g.neighbors_of(u).tolist()))


def test_per_edge_counts_are_common_neighbor_sizes(small_random_suite):
    for g in small_random_suite[:15]:
        adj = ordered(g)
        stats, _ = triangle_neighbor(adj, per_edge=True)
        seen = set()
        for i, j, c in zip(*(a.tolist() for a in edge_count_arrays(adj, stats))):
            seen.add((min(i, j), max(i, j)))
            ni = set(g.neighbors_of(i).tolist())
            nj = set(g.neighbors_of(j).tolist())
            assert c == len(ni & nj)
        # edges in no triangle are absent from the triples
        for u, v in g.edges():
            if (u, v) not in seen:
                nu = set(g.neighbors_of(u).tolist())
                assert not (nu & set(g.neighbors_of(v).tolist()))
        if stats.per_edge is not None:
            assert int(stats.per_edge.sum()) == 3 * stats.total


def merge_counts(adj):
    """Per-entry triangle counts from one pass of the merge kernel."""
    poff = adj.prefix_offsets
    counts = [0] * int(poff[-1])
    _merge_counts(row_lists(adj.higher, poff), poff.tolist(), counts)
    return counts


def test_wedge_counts_equal_merge_counts(small_random_suite, random_suite_500):
    fixtures = [load_fixture(name) for name in FIXTURE_NAMES]
    for g in fixtures + small_random_suite + random_suite_500:
        adj = ordered(g)
        counts = wedge_counts(adj)
        assert counts.dtype == np.int64
        assert counts.tolist() == merge_counts(adj)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_wedge_counts_do_not_depend_on_the_blocks(monkeypatch, small_random_suite, block):
    # block 1 puts one entry per block, however many wedges it opens, and
    # small blocks end inside rows; the hash kernel takes the same blocks
    graphs = [load_fixture(name) for name in FIXTURE_NAMES] + small_random_suite
    want = [wedge_counts(ordered(g)).tolist() for g in graphs]
    monkeypatch.setattr(triangle, "_WEDGE_BLOCK", block)
    assert [wedge_counts(ordered(g)).tolist() for g in graphs] == want
    assert [_hash_counts(ordered(g)).tolist() for g in graphs] == want


def test_triangle_centrality_scores_equal_the_merge_route(small_random_suite,
                                                          random_suite_500):
    fixtures = [load_fixture(name) for name in FIXTURE_NAMES]
    for g in fixtures + small_random_suite + random_suite_500:
        adj = ordered(g)
        stats, marks = triangle_neighbor(adj, per_edge=False)
        merged = tc_from_triangles(g, stats, adj=adj, marks=marks)
        assert triangle_centrality(g).scores.tobytes() == merged.scores.tobytes()


def test_wedge_counts_memory_is_bounded():
    g, _ = clique(260)  # 2.9e6 wedges: unblocked, their index arrays need > 150 MB
    adj = ordered(g)
    for kernel in (wedge_counts, _hash_counts):
        tracemalloc.start()
        try:
            counts = kernel(adj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(counts == 258)  # every edge of K_k lies in k - 2 triangles
        assert peak < 8 * 2**20


def test_prefix_pairs_yield_each_pair_of_one_prefix_once(small_random_suite):
    fixtures = [load_fixture(name) for name in FIXTURE_NAMES]
    for g in fixtures + small_random_suite + [clique(260)[0]]:
        adj = ordered(g)
        poff, plen = adj.prefix_offsets, adj.prefix_len
        blocks = list(_prefix_pairs(adj))
        first = np.concatenate([f for f, _ in blocks] + [np.zeros(0, np.int64)])
        second = np.concatenate([s for _, s in blocks] + [np.zeros(0, np.int64)])
        # i < j inside one prefix, no pair twice, and as many pairs as there
        # are: so every pair exactly once
        row = np.searchsorted(poff, first, side="right") - 1
        assert np.all(first < second) and np.all(second < poff[row + 1])
        assert np.unique(first * int(poff[-1]) + second).shape[0] == first.shape[0]
        assert first.shape[0] == int((plen * (plen - 1) // 2).sum())
        if g.n == 260:
            assert len(blocks) > 100  # 2.9e6 pairs in blocks of 2^14


def star(k):
    return build_graph([(0, i) for i in range(1, k + 1)])


def test_hash_counts_equal_wedge_and_merge_counts(small_random_suite):
    fixtures = [load_fixture(name) for name in FIXTURE_NAMES]
    small = [build_graph([]), build_graph([(1, 2)]), star(6), k_n(3), k_n(4)]
    for g in fixtures + small_random_suite + small:
        adj = ordered(g)
        counts = _hash_counts(adj)
        assert counts.dtype == np.int64
        assert counts.tolist() == wedge_counts(adj).tolist() == merge_counts(adj)
    # the merge kernel takes seconds on K_260, whose closed form (258 on every
    # edge) both kernels meet in test_wedge_counts_memory_is_bounded


def test_hash_find_walks_shared_buckets():
    # twelve keys that share one bucket under the module's hash, among 64
    size = 64
    shift = np.uint64(64 - size.bit_length())
    cands = np.arange(20_000, dtype=np.int64)
    buckets = _hash_buckets(cands, shift)
    shared = cands[buckets == buckets[0]]
    assert shared.shape[0] >= 14
    rest = cands[buckets != buckets[0]][:size - 12]
    keys = np.concatenate((shared[:12], rest))[::-1].copy()
    table = _hash_table(keys)
    assert np.diff(table[1]).max() == 12
    # every key is found at its index, wherever it sits in its chain
    assert _hash_find(table, keys).tolist() == list(range(size))
    # absent keys in the long chain's bucket walk it to its end; keys in
    # other buckets that hold no key stop at once
    absent = np.setdiff1d(cands, keys)
    assert _hash_find(table, shared[12:]).tolist() == [-1] * (shared.shape[0] - 12)
    assert np.all(_hash_find(table, absent) == -1)


def test_hash_counts_with_every_key_in_one_bucket(monkeypatch, small_random_suite):
    graphs = [load_fixture(name) for name in FIXTURE_NAMES] + small_random_suite[:10]
    want = [wedge_counts(ordered(g)).tolist() for g in graphs]
    monkeypatch.setattr(triangle, "_HASH_MULTIPLIER", np.uint64(0))
    assert [_hash_counts(ordered(g)).tolist() for g in graphs] == want


def test_hash_pair_neighbors_on_triangle_free_tree():
    tree = build_graph([(1, 2), (1, 3), (2, 4), (2, 5)])
    stats, nbh = hash_neighbor_pair_tri_neighbors(tree, ordered(tree))
    assert stats.total == 0
    assert all(row == [] for row in nbh)


def test_hash_intersection_on_clique_chain():
    from tricent.generators import clique_chain

    g, _ = clique_chain(3, 4)
    nbh = hash_intersection_tri_neighbors(ordered(g))
    _, oracle = brute_force_triangles(g)
    assert nbh == oracle


def test_hash_pair_count_k4():
    g = k_n(4)
    stats = hash_neighbor_pair_count(g, ordered(g))
    assert stats.total == 4
    assert stats.per_vertex.tolist() == [3, 3, 3, 3]


def test_triangle_count_upper_bound(small_random_suite):
    for g in small_random_suite:
        stats, _ = triangle_neighbor(ordered(g))
        deg = g.degrees
        for v in range(g.n):
            assert stats.per_vertex[v] <= deg[v] * (deg[v] - 1) // 2


def test_alt_variant_karate():
    g = load_fixture("karate")
    stats, _ = triangle_neighbor_alt(ordered(g))
    assert stats.total == 45


def test_brute_force_guard_and_small_cases():
    assert brute_force_triangles(k_n(5))[0].total == 10
    assert brute_force_triangles(path(3))[0].total == 0
    with pytest.raises(InputError):
        brute_force_triangles(path(BRUTE_FORCE_LIMIT + 1))
