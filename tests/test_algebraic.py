import numpy as np
import pytest
import scipy.sparse as sp
from conftest import pair_list

from tricent.algebraic import (adjacency_matrix, build_triangle_matrix,
                               tc_algebraic, triangle_centrality_algebraic,
                               triangle_identities)
from tricent.centrality import triangle_centrality
from tricent.errors import ConsistencyError
from tricent.generators import book_with_satellite, load_fixture
from tricent.graph import build_abbreviated_adjacency, build_graph, degree_order
from tricent.triangle import brute_force_triangles, marked_pairs, triangle_neighbor


def k_n(n):
    return build_graph([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def dense_triangle_matrix(g):
    """Independent oracle: dense square-then-mask."""
    A = np.zeros((g.n, g.n), dtype=np.int64)
    for v in range(g.n):
        A[v, g.neighbors_of(v)] = 1
    return (A @ A) * A


def test_k3_matrix_entries():
    T = build_triangle_matrix(k_n(3)).toarray()
    assert np.array_equal(T, np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))


def test_k4_every_edge_in_two_triangles():
    T = build_triangle_matrix(k_n(4)).toarray()
    off = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64)
    assert np.array_equal(T, 2 * off)


def test_matches_dense_oracle(small_random_suite):
    for g in small_random_suite:
        if g.n > 32:
            continue
        T = build_triangle_matrix(g).toarray()
        assert np.array_equal(T, dense_triangle_matrix(g))


def test_matrix_is_symmetric(small_random_suite):
    for g in small_random_suite[:12]:
        T = build_triangle_matrix(g)
        assert (T != T.T).nnz == 0


def test_support_equals_triangle_neighborhood():
    for name in ("borgatti", "karate"):
        g = load_fixture(name)
        T = build_triangle_matrix(g).tocoo()
        adj = build_abbreviated_adjacency(g, degree_order(g))
        stats, marks = triangle_neighbor(adj)
        assert pair_list((T.row, T.col)) == pair_list(marked_pairs(adj, marks))


def test_identities_against_counts(small_random_suite):
    for g in small_random_suite[:20]:
        T = build_triangle_matrix(g)
        per_vertex, total = triangle_identities(T)
        stats, _ = brute_force_triangles(g)
        assert np.array_equal(per_vertex, stats.per_vertex)
        assert total == stats.total


def test_identities_closed_cases():
    per, total = triangle_identities(build_triangle_matrix(k_n(4)))
    assert per.tolist() == [3, 3, 3, 3] and total == 4
    _, total = triangle_identities(build_triangle_matrix(load_fixture("karate")))
    assert total == 45


def test_identities_reject_corrupt_matrix():
    for rows, check in (([[0, 1], [1, 0]], "row sums"), ([[0, 2], [2, 0]], "grand sum")):
        bad = sp.csr_matrix(np.array(rows, dtype=np.int64))
        with pytest.raises(ConsistencyError, match=check):
            triangle_identities(bad)


def test_k3_by_hand():
    g = k_n(3)
    A = adjacency_matrix(g)
    T = build_triangle_matrix(g)
    row_sums = np.asarray(T.sum(axis=1)).ravel()
    assert row_sums.tolist() == [2, 2, 2]
    cv = tc_algebraic(A, T)
    assert cv.tri_total == 1
    assert np.array_equal(cv.scores, np.ones(3))


def test_algebraic_equals_combinatorial(small_random_suite):
    fixtures = [load_fixture(n) for n in ("borgatti", "karate", "dolphins", "hijackers")]
    for g in small_random_suite + fixtures + [book_with_satellite()]:
        a = triangle_centrality(g)
        b = triangle_centrality_algebraic(g)
        assert np.max(np.abs(a.scores - b.scores), initial=0.0) <= 1e-12


def test_triangle_free_flagged():
    g = build_graph([(1, 2), (2, 3)])
    cv = triangle_centrality_algebraic(g)
    assert cv.triangle_free and np.all(cv.scores == 0.0)
