import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricent.errors import InputError
from tricent.generators import load_fixture
from tricent.graph import (OrderedAdjacency, build_abbreviated_adjacency, build_graph,
                           degree_order, dump_edge_list, load_edge_list,
                           ordered_adjacency, parse_edge_list, radix_order)
from tricent.triangle import _hash_buckets, _hash_find, _hash_table


def prefix(adj, v):
    return adj.higher[adj.prefix_offsets[v]:adj.prefix_offsets[v + 1]].tolist()


def suffix(adj, v):
    return adj.lower[adj.higher == v].tolist()


def test_build_graph_cleans_input():
    g = build_graph([(1, 2), (2, 1), (2, 2), (2, 3)])
    assert (g.n, g.m) == (3, 2)
    out = io.StringIO()
    dump_edge_list(g, out)
    assert out.getvalue() == "1 2\n2 3\n"
    with pytest.raises(InputError, match="mutually comparable"):
        build_graph([(1, "a")])


def test_build_graph_empty():
    g = build_graph([])
    assert (g.n, g.m) == (0, 0)


def test_karate_counts():
    g = load_fixture("karate")
    assert (g.n, g.m) == (34, 78)


def test_labels_remap_preserving_order():
    g = build_graph([(10, 7), (7, 99)])
    assert g.labels == (7, 10, 99)
    assert g.id_of(7) == 0 and g.id_of(99) == 2


def test_graph_invariants_on_fixture():
    g = load_fixture("dolphins")
    assert int(g.degrees.sum()) == 2 * g.m
    rows = [g.neighbors_of(v).tolist() for v in range(g.n)]
    for v, row in enumerate(rows):
        assert row == sorted(set(row))
        assert v not in row
        for u in row:
            assert v in rows[u]


def test_parse_rejects_bad_record():
    with pytest.raises(InputError, match="line.txt:3"):
        parse_edge_list(io.StringIO("1 2\n# comment\n1 2 3\n"), source="line.txt")


def test_parse_accepts_comments_blanks_and_strings():
    edges = parse_edge_list(io.StringIO("# head\n\na b\nb c\n"))
    assert edges == [("a", "b"), ("b", "c")]
    assert parse_edge_list(io.StringIO("0 1\n1 2")) == [(0, 1), (1, 2)]


def test_edge_list_round_trip(small_random_suite):
    for g in small_random_suite + [load_fixture("borgatti")]:
        buf = io.StringIO()
        dump_edge_list(g, buf)
        buf.seek(0)
        g2 = load_edge_list(buf)
        assert g2.labels == g.labels
        assert np.array_equal(g2.offsets, g.offsets)
        assert np.array_equal(g2.neighbors, g.neighbors)


def test_dump_edge_list_writes_one_line_per_edge():
    # the per-edge f-string loop that dump_edge_list's one join replaces
    int_labels = load_fixture("karate")
    str_labels = build_graph([("hub", "b"), ("b", "ç1"), ("hub", "z9"), ("a", "hub")])
    assert isinstance(int_labels.labels[0], int) and isinstance(str_labels.labels[0], str)
    for g in (int_labels, str_labels, build_graph([])):
        want = "".join(f"{g.labels[u]} {g.labels[v]}\n" for u, v in g.edges())
        buf = io.StringIO()
        dump_edge_list(g, buf)
        assert buf.getvalue() == want


def test_degree_order_star():
    g = build_graph([("c", "l1"), ("c", "l2"), ("c", "l3")])
    rank = degree_order(g)
    pos = {g.labels[v]: rank[v] for v in range(g.n)}
    assert pos["l1"] < pos["l2"] < pos["l3"] < pos["c"]


def test_degree_order_ties_by_label():
    g = build_graph([(1, 2), (2, 3), (1, 3)])
    assert [g.labels[v] for v in np.argsort(degree_order(g))] == [1, 2, 3]


def test_degree_order_path():
    g = build_graph([(1, 2), (2, 3)])
    assert [g.labels[v] for v in np.argsort(degree_order(g))] == [1, 3, 2]


def reference_rank(g):
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(g.n)
    return rank


def assert_order_as_reference(g):
    """degree_order and ordered_adjacency equal a stable argsort of the
    degrees and an orientation by boolean masks, array for array."""
    rank = degree_order(g)
    assert rank.dtype == np.int64
    assert np.array_equal(rank, reference_rank(g))
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    up = rank[g.neighbors] > rank[src]
    want = OrderedAdjacency(g, src[up], g.neighbors[up], rank)
    adj = ordered_adjacency(g)
    assert (adj.n, adj.m) == (want.n, want.m)
    for name in ("lower", "higher", "prefix_len", "prefix_offsets", "rank"):
        got, ref = getattr(adj, name), getattr(want, name)
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 32 - 1), max_size=300), st.integers(0, 31))
def test_radix_order_is_a_stable_argsort(values, shift):
    # keys of every width up to 32 bits, with many ties once shifted down
    keys = np.array(values, dtype=np.int64) >> shift
    assert np.array_equal(radix_order(keys), np.argsort(keys, kind="stable"))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=200))
def test_degree_order_matches_stable_argsort(pairs):
    # self-loops leave isolated vertices, an empty list the empty graph
    assert_order_as_reference(build_graph(pairs))


def test_order_matches_reference_on_suite(random_suite_200):
    for g in random_suite_200 + [build_graph([]), build_graph([(1, 1), (2, 2)]),
                                 build_graph([(1, 2), (3, 3), (0, 4)])]:
        assert_order_as_reference(g)


def test_order_of_a_star_past_16_bit_degrees():
    # the hub's degree, 65,537, takes the radix sort's high-half pass
    leaves = 1 << 16 | 1
    g = load_edge_list(io.StringIO("".join(f"0 {v}\n" for v in range(1, leaves + 1))))
    assert g.degrees.max() == leaves
    assert_order_as_reference(g)
    rank = degree_order(g)
    assert rank[0] == leaves and np.array_equal(rank[1:], np.arange(leaves))


def test_hash_table_groups_keys_past_16_bucket_bits():
    # 70,000 keys take 17 bucket bits, so the grouping takes two radix passes
    rng = np.random.default_rng(3)
    keys = rng.choice(1 << 40, size=70_000, replace=False).astype(np.int64)
    shift, starts, table_keys, order = _hash_table(keys)
    assert int(shift) == 64 - 17
    buckets = {}
    for key, h in zip(keys.tolist(), _hash_buckets(keys, shift).tolist()):
        buckets.setdefault(h, set()).add(key)
    assert np.array_equal(table_keys, keys[order])
    lo, hi = starts[:-1].tolist(), starts[1:].tolist()
    held = {h: set(table_keys[lo[h]:hi[h]].tolist()) for h in range(len(lo)) if hi[h] > lo[h]}
    assert held == buckets
    assert np.array_equal(_hash_find((shift, starts, table_keys, order), keys),
                          np.arange(keys.shape[0]))


def test_abbreviated_adjacency_star_and_triangle():
    g = build_graph([("c", "l1"), ("c", "l2"), ("c", "l3")])
    adj = build_abbreviated_adjacency(g, degree_order(g))
    c = g.id_of("c")
    assert prefix(adj, c) == []
    for leaf in ("l1", "l2", "l3"):
        assert prefix(adj, g.id_of(leaf)) == [c]

    g = build_graph([(1, 2), (2, 3), (1, 3)])
    adj = build_abbreviated_adjacency(g, degree_order(g))
    assert prefix(adj, g.id_of(1)) == [g.id_of(2), g.id_of(3)]
    assert prefix(adj, g.id_of(2)) == [g.id_of(3)]
    assert prefix(adj, g.id_of(3)) == []


def test_partition_correctness_random(random_suite_200):
    # a graph with vertices and no edges needs no special case
    edgeless = load_edge_list(io.StringIO("1 1\n"))
    assert (edgeless.n, edgeless.m) == (1, 0)
    for g in random_suite_200 + [edgeless]:
        rank = degree_order(g)
        adj = build_abbreviated_adjacency(g, rank)
        lower, higher = adj.lower.tolist(), adj.higher.tolist()
        # every edge stored once, entries run by lower, each oriented upward
        assert len(lower) == g.m
        assert {(min(e), max(e)) for e in zip(lower, higher)} == set(g.edges())
        assert np.all(np.diff(adj.lower) >= 0)
        assert np.all(rank[adj.higher] > rank[adj.lower])
        bound = math.sqrt(2 * g.m)
        for v in range(g.n):
            higher = prefix(adj, v)
            assert higher == sorted(higher)
            assert len(higher) == len(set(higher))
            assert len(higher) <= bound
            for u in higher:
                assert rank[u] > rank[v]
            for u in suffix(adj, v):
                assert rank[u] < rank[v]
