import io
import math

import numpy as np
import pytest

from tricent.errors import InputError
from tricent.generators import load_fixture
from tricent.graph import (build_abbreviated_adjacency, build_graph,
                           degree_order, dump_edge_list, load_edge_list,
                           parse_edge_list)


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
