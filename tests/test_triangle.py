import math
import tracemalloc

import numpy as np
import pytest
from conftest import pair_list

from tricent import triangle
from tricent.centrality import tc_from_triangles, triangle_centrality
from tricent.errors import InputError
from tricent.generators import (book_with_satellite, clique, clique_chain, clique_ring,
                                load_fixture)
from tricent.graph import build_abbreviated_adjacency, build_graph, degree_order, row_lists
from tricent.triangle import (BRUTE_FORCE_LIMIT, MergeTally, _hash_buckets, _hash_counts,
                              _hash_find, _hash_table, _merge_counts, _prefix_pairs,
                              brute_force_triangles, count_triangles, edge_count_arrays,
                              hash_intersection_tri_neighbors,
                              hash_neighbor_pair_tri_neighbors, marked_pairs,
                              merge_comparison_count, triangle_neighbor, wedge_counts)

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
    nbh = marked_pairs(ordered(g), marks)
    assert pair_list(nbh) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


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
    v = g.id_of("v")
    row = [u for s, u in pair_list(marked_pairs(adj, marks)) if s == v]
    assert sorted(g.labels[u] for u in row) == ["a", "b", "c"]
    assert g.id_of("d") not in row
    assert stats.per_vertex[v] == 2


def test_marks_match_brute_relation():
    g = load_fixture("borgatti")
    adj = ordered(g)
    _, marks = triangle_neighbor(adj)
    _, oracle = brute_force_triangles(g)
    assert pair_list(marked_pairs(adj, marks)) == pair_list(oracle)


def test_all_implementations_agree(small_random_suite):
    fixtures = [load_fixture(n) for n in ("borgatti", "karate")]
    # K_12's prefixes run up to length 11, the longest merges; the p = 3
    # ring's joints close a triangle of their own; the star has a vertex of
    # degree 30 and no triangle
    dense = [k_n(12), clique_ring(3, 5)[0], star(30)]
    for g in small_random_suite + fixtures + [book_with_satellite()] + dense:
        adj = ordered(g)
        ref_stats, ref_nbh = brute_force_triangles(g)
        s1, marks = triangle_neighbor(adj)
        n1 = marked_pairs(adj, marks)
        s2, marks = count_triangles(adj)
        n2 = marked_pairs(adj, marks)
        s3, n3 = hash_neighbor_pair_tri_neighbors(g, adj)
        n4 = hash_intersection_tri_neighbors(adj)
        for s in (s1, s2, s3):
            assert s.total == ref_stats.total
            assert np.array_equal(s.per_vertex, ref_stats.per_vertex)
            assert int(s.per_vertex.sum()) == 3 * s.total
        assert (pair_list(n1) == pair_list(n2) == pair_list(n3) == pair_list(n4)
                == pair_list(ref_nbh))


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


def test_merge_comparison_count_equals_the_merge(random_suite_500):
    shapes = [
        build_graph([]),
        build_graph([(1, 2), (2, 3), (1, 3), (9, 9)]),  # 9 has no neighbors
        path(30),
        star(30),  # the hub ranks last, so every entry's far prefix is empty
        k_n(40),  # prefixes up to 39 long, about sqrt(2m)
        clique_ring(3, 5)[0],
        clique_chain(4, 5)[0],
    ]
    for g in shapes + random_suite_500:
        adj = ordered(g)
        tally = MergeTally()
        triangle_neighbor(adj, tally)
        comparisons = merge_comparison_count(adj, tally.triangles)
        assert comparisons == tally.merge_comparisons
    adj = ordered(star(30))
    assert merge_comparison_count(adj, 0) == 0


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
        for i, j, c in zip(*(a.tolist() for a in edge_count_arrays(adj, stats.per_edge))):
            seen.add((min(i, j), max(i, j)))
            ni = set(g.neighbors_of(i).tolist())
            nj = set(g.neighbors_of(j).tolist())
            assert c == len(ni & nj)
        # edges in no triangle are absent from the triples
        for u, v in g.edges():
            if (u, v) not in seen:
                nu = set(g.neighbors_of(u).tolist())
                assert not (nu & set(g.neighbors_of(v).tolist()))
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


def clique_on_sparse(size, seed):
    """K_size on labels 1000 and up, joined by two edges to a sparse G(300, 600).

    The clique's vertices take the largest ids, so their rows end the
    entries, and its lowest-ranked vertex holds the longest prefix, size - 1.
    """
    k = [(1000 + i, 1000 + j) for i in range(size) for j in range(i + 1, size)]
    return build_graph(g_n_m(300, 600, seed) + k + [(0, 1000), (1, 1001)])


def hubs_through_a_wedge():
    """Wedge 0-1, 0-2 between two hubs with five leaves each: the hubs rank
    above 0, and hub 1, the lower-ranked end of the pair, has an empty prefix."""
    return build_graph([(0, 1), (0, 2)] + [(h, 10 * h + i) for h in (1, 2) for i in range(5)])


@pytest.mark.parametrize("size", [8, 9, 10, 16, 17, 18])
def test_prefix_search_is_the_lower_bound_in_every_prefix(size):
    # the longest prefix L is 2^k - 1, 2^k or 2^k + 1 for k = 3, 4
    adj = ordered(clique_on_sparse(size, size))
    n, m, poff = adj.n, adj.m, adj.prefix_offsets
    longest = size - 1
    assert adj.prefix_len.max() == longest
    keys, bound = triangle._prefix_search(adj)
    assert np.array_equal(keys[:m], adj.lower * n + adj.higher)
    assert keys.shape[0] == m + longest + 1 and np.all(keys[m:] == np.iinfo(np.int64).max)
    # the last non-empty prefix probes past the entries, into the sentinels
    last = int(np.flatnonzero(adj.prefix_len)[-1])
    assert poff[last] + (1 << (longest.bit_length() - 1)) - 1 >= m
    # every row, empty ones too, against every needle x * n + y, y in [0, n]
    x = np.repeat(np.arange(n, dtype=np.int64), n + 1)
    needle = x * n + np.tile(np.arange(n + 1, dtype=np.int64), n)
    at = bound(x, needle)
    assert at.dtype == np.int64
    assert np.array_equal(at, np.searchsorted(keys[:m], needle))
    assert np.all((poff[x] <= at) & (at <= poff[x + 1]))


def test_wedge_counts_at_the_bisection_edges():
    graphs = [clique_on_sparse(size, size) for size in (8, 9, 10, 16, 17, 18)]
    graphs += [hubs_through_a_wedge()]
    for g in graphs:
        adj = ordered(g)
        assert wedge_counts(adj).tolist() == _hash_counts(adj).tolist() == merge_counts(adj)
        tally = MergeTally()
        triangle_neighbor(adj, tally)
        comparisons = merge_comparison_count(adj, tally.triangles)
        assert comparisons == tally.merge_comparisons
    # the pair (1, 2) of P(0) searches P(1), which is empty
    adj = ordered(graphs[-1])
    assert adj.higher[adj.prefix_offsets[0]:adj.prefix_offsets[1]].tolist() == [1, 2]
    assert adj.prefix_len[1] == 0 and adj.rank[1] < adj.rank[2]


def test_triangle_centrality_scores_equal_the_merge_route(small_random_suite,
                                                          random_suite_500):
    fixtures = [load_fixture(name) for name in FIXTURE_NAMES]
    for g in fixtures + small_random_suite + random_suite_500:
        adj = ordered(g)
        stats, marks = triangle_neighbor(adj, per_edge=False)
        merged = tc_from_triangles(g, stats, adj=adj, marks=marks)
        assert triangle_centrality(g).scores.tobytes() == merged.scores.tobytes()


def g_n_m(n, m, seed, offset=0):
    """Seeded G(n, m) edge draw on labels offset..offset + n - 1; repeated
    pairs and self-loops collapse in build_graph."""
    ends = np.random.default_rng(seed).integers(offset, offset + n, size=(m, 2))
    return list(map(tuple, ends.tolist()))


def spy_on_the_filter(monkeypatch):
    """Record (pairs in, pairs passed) for every block that wedge_counts filters."""
    calls = []
    inner = triangle._wedge_filter

    def spy(sig, shift, first, second):
        keep = inner(sig, shift, first, second)
        calls.append((first.shape[0], keep.shape[0]))
        return keep

    monkeypatch.setattr(triangle, "_wedge_filter", spy)
    return calls


def test_signatures_hold_all_64_bits():
    adj = ordered(build_graph(g_n_m(500, 2500, 5)))
    sig, shift = triangle._signatures(adj)
    assert sig.dtype == np.uint64 and np.array_equal(shift, adj.higher & 63)
    offsets, higher = adj.prefix_offsets.tolist(), adj.higher.tolist()
    want = []
    for v in higher:
        word = 0
        for w in higher[offsets[v]:offsets[v + 1]]:
            word |= 1 << (w & 63)
        want.append(word)
    assert sig.tolist() == want
    assert any(word >> 8 for word in want)  # bits past the first byte are in use


def test_wedge_filter_passes_open_wedges(monkeypatch):
    # v's prefix is {a, b}, a's prefix is {c}, c = 2 and b = 66 share bit 2,
    # and there is no edge a-b: the signature passes the open wedge (a, b)
    v, a, c, b = 0, 1, 2, 66
    edges = [(v, a), (v, b), (a, c), (a, 101)]
    edges += [(c, x) for x in (102, 103, 104)] + [(b, x) for x in (105, 106, 107)]
    fillers = [(x, x) for x in range(3, 66)]  # ids equal labels up to 66
    hand = build_graph(edges + fillers)
    assert hand.id_of(b) == b and (b - c) % 64 == 0
    calls = spy_on_the_filter(monkeypatch)
    monkeypatch.setattr(triangle, "_FILTER_MIN_PAIRS", 1)  # the graph has one pair
    adj = ordered(hand)
    assert adj.higher[adj.prefix_offsets[v]:adj.prefix_offsets[v + 1]].tolist() == [a, b]
    assert adj.higher[adj.prefix_offsets[a]:adj.prefix_offsets[a + 1]].tolist() == [c]
    counts = wedge_counts(adj)
    assert calls == [(1, 1)] and not counts.any()
    assert np.array_equal(counts, triangle_neighbor(adj)[0].per_edge)
    # n = 500: ids collide mod 64, and more pairs pass than close
    g = build_graph(g_n_m(500, 2500, 5))
    calls.clear()
    adj = ordered(g)
    counts = wedge_counts(adj)
    passed = sum(k for _, k in calls)
    assert passed > int(counts.sum()) // 3 > 0
    assert np.array_equal(counts, triangle_neighbor(adj)[0].per_edge)


def test_wedge_filter_skips_graphs_with_few_pairs(monkeypatch):
    calls = spy_on_the_filter(monkeypatch)
    seen = []
    for n, m in ((200, 800), (500, 2500)):  # 1,453 and 6,043 prefix pairs
        adj = ordered(build_graph(g_n_m(n, m, 3)))
        pairs = int((adj.prefix_len * (adj.prefix_len - 1) // 2).sum())
        calls.clear()
        assert wedge_counts(adj).tolist() == merge_counts(adj)
        seen.append((pairs >= triangle._FILTER_MIN_PAIRS, len(calls) > 0))
    assert seen == [(False, False), (True, True)]


def test_wedge_filter_stops_once_a_block_passes_more_than_half(monkeypatch):
    sparse = g_n_m(2000, 10_000, 11, offset=100)
    k80 = [(i, j) for i in range(80) for j in range(i + 1, 80)]
    k80_last = [(i + 5000, j + 5000) for i, j in k80]
    cases = {
        "K_80": (k80, "off after the first block"),
        "sparse": (sparse, "on throughout"),
        "clique first": (k80 + sparse + [(0, 100), (1, 101)], "off after the first block"),
        "clique last": (sparse + k80_last + [(5000, 100), (5001, 101)], "off after some"),
    }
    calls = spy_on_the_filter(monkeypatch)
    for name, (edges, side) in cases.items():
        adj = ordered(build_graph(edges))
        blocks = len(list(_prefix_pairs(adj)))
        calls.clear()
        assert wedge_counts(adj).tolist() == merge_counts(adj), name
        over = [2 * k > p for p, k in calls]
        # every filtered block but the last passed at most half
        assert blocks > 1 and not any(over[:-1]), name
        if side == "on throughout":
            assert len(calls) == blocks and not over[-1], name
        elif side == "off after the first block":
            assert len(calls) == 1 and over[0], name
        else:
            assert 1 < len(calls) < blocks and over[-1], name


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
    assert pair_list(nbh) == []


def test_hash_intersection_on_clique_chain():
    from tricent.generators import clique_chain

    g, _ = clique_chain(3, 4)
    nbh = hash_intersection_tri_neighbors(ordered(g))
    _, oracle = brute_force_triangles(g)
    assert pair_list(nbh) == pair_list(oracle)


def test_hash_pair_count_k4():
    g = k_n(4)
    stats, _ = hash_neighbor_pair_tri_neighbors(g, ordered(g))
    assert stats.total == 4
    assert stats.per_vertex.tolist() == [3, 3, 3, 3]


def test_triangle_count_upper_bound(small_random_suite):
    for g in small_random_suite:
        stats, _ = triangle_neighbor(ordered(g))
        deg = g.degrees
        for v in range(g.n):
            assert stats.per_vertex[v] <= deg[v] * (deg[v] - 1) // 2


def test_brute_force_guard_and_small_cases():
    assert brute_force_triangles(k_n(5))[0].total == 10
    assert brute_force_triangles(path(3))[0].total == 0
    # the oracle's pairs come in ascending (src, dst) order
    _, (src, dst) = brute_force_triangles(k_n(3))
    assert list(zip(src.tolist(), dst.tolist())) == [(0, 1), (0, 2), (1, 0),
                                                     (1, 2), (2, 0), (2, 1)]
    with pytest.raises(InputError):
        brute_force_triangles(path(BRUTE_FORCE_LIMIT + 1))
