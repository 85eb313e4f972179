import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricent.centrality import CentralityVector
from tricent.compare import (EXACT_PATH_LIMIT, agreement_dot_matrices,
                             best_jaccard_competitor,
                             betweenness_centrality, closeness_centrality,
                             compute_all, degree_centrality,
                             eigenvector_centrality, pagerank, rank_vertices,
                             top_k_jaccard)
from tricent.errors import InputError
from tricent.generators import (clique, clique_bridge_hub, clique_ring,
                                clique_star_hub, load_fixture, triad_hub)
from tricent.graph import build_graph


def k_n(n):
    return build_graph([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def rank_of(g, cv, label):
    return int(rank_vertices(cv).rank[g.id_of(label)])


def test_degree_centrality_cases():
    g = clique_bridge_hub()
    assert rank_of(g, degree_centrality(g), "a") == 25
    g, _ = clique(5)
    assert np.all(rank_vertices(degree_centrality(g)).rank == 1)
    star = build_graph([("hub", f"s{i}") for i in range(1, 5)])
    assert rank_of(star, degree_centrality(star), "hub") == 1


def test_closeness_cases():
    g = k_n(3)
    assert np.allclose(closeness_centrality(g).scores, 1.0)
    p3 = build_graph([(1, 2), (2, 3)])
    cc = closeness_centrality(p3)
    assert abs(cc.scores[p3.id_of(2)] - 1.0) < 1e-12
    assert abs(cc.scores[p3.id_of(1)] - 2 / 3) < 1e-12
    g = triad_hub()
    assert rank_of(g, closeness_centrality(g), "a") == 1


def test_closeness_per_component():
    two = build_graph([(1, 2), (2, 3), (10, 11)])
    cc = closeness_centrality(two)
    assert abs(cc.scores[two.id_of(10)] - 1.0) < 1e-12  # component-local n
    assert abs(cc.scores[two.id_of(2)] - 1.0) < 1e-12


def reference_closeness(g):
    """Closeness by a per-source deque BFS over numpy arrays, sharing no
    code with closeness_centrality: its oracle."""
    n = g.n
    scores = np.zeros(n)
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        q = deque([s])
        reached = 0
        total = 0
        while q:
            v = q.popleft()
            for w in g.neighbors_of(v).tolist():
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    total += dist[w]
                    reached += 1
                    q.append(w)
        scores[s] = reached / total if total else 0.0
    return scores


def reference_betweenness(g):
    """Brandes betweenness with a deque and predecessor lists, sharing no
    code with betweenness_centrality: its oracle."""
    n = g.n
    scores = np.zeros(n)
    for s in range(n):
        stack = []
        preds = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            stack.append(v)
            for w in g.neighbors_of(v).tolist():
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    q.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                scores[w] += delta[w]
    return scores / 2.0


def test_shared_bfs_measures_equal_reference_loops_bitwise(small_random_suite):
    graphs = [load_fixture(name) for name in ("borgatti", "karate", "dolphins", "hijackers")]
    graphs += small_random_suite
    graphs += [build_graph([(1, 1), (2, 3), (3, 4)]),  # vertex 1 is isolated
               build_graph([(i, i + 1) for i in range(1, 300)]),
               build_graph([])]
    for g in graphs:
        assert np.array_equal(closeness_centrality(g).scores, reference_closeness(g))
        assert np.array_equal(betweenness_centrality(g).scores, reference_betweenness(g))


def test_betweenness_cases():
    star = build_graph([("hub", f"s{i}") for i in range(1, 5)])
    bc = betweenness_centrality(star)
    assert abs(bc.scores[star.id_of("hub")] - 6.0) < 1e-12  # C(4,2) leaf pairs
    assert np.all(bc.scores[[star.id_of(f"s{i}") for i in range(1, 5)]] == 0.0)
    p3 = build_graph([(1, 2), (2, 3)])
    bc = betweenness_centrality(p3)
    assert abs(bc.scores[p3.id_of(2)] - 1.0) < 1e-12
    for build in (triad_hub, clique_bridge_hub):
        g = build()
        assert rank_of(g, betweenness_centrality(g), "a") == 1


def test_eigenvector_cases():
    g, _ = clique(5)
    ev = eigenvector_centrality(g)
    assert ev.converged
    assert np.allclose(ev.scores, ev.scores[0])
    assert abs(np.linalg.norm(ev.scores) - 1.0) <= 1e-9
    assert np.all(ev.scores >= 0)
    g = clique_bridge_hub()
    assert rank_of(g, eigenvector_centrality(g), "a") == 25
    g = clique_star_hub()
    assert rank_of(g, eigenvector_centrality(g), "a") == 1
    assert eigenvector_centrality(build_graph([])).scores.shape == (0,)
    # edgeless: the first step has norm zero, and the shifted retry lands
    ev = eigenvector_centrality(build_graph([(1, 1), (2, 2)]))
    assert ev.converged
    assert np.allclose(ev.scores, np.sqrt(0.5), atol=1e-12)


def test_eigenvector_shifted_retry_on_bipartite():
    g = build_graph([("c", "a"), ("c", "b")])
    ev = eigenvector_centrality(g)
    assert ev.converged  # plain iteration oscillates; the shifted retry lands
    want = np.array([0.5, 0.5, np.sqrt(2) / 2])  # labels sort as a, b, c
    assert np.allclose(ev.scores, want, atol=1e-9)


def test_eigenvector_memory_is_linear_in_the_graph():
    g, _ = clique_ring(1000, 4)  # n = 3000: a dense n x n matrix would take 72 MB
    tracemalloc.start()
    try:
        ev = eigenvector_centrality(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ev.converged
    assert peak < 8 * 2**20


def test_pagerank_cases():
    g, _ = clique(4)
    pr = pagerank(g)
    assert pr.converged
    assert np.allclose(pr.scores, 0.25)
    assert abs(pr.scores.sum() - 1.0) <= 1e-9
    g = triad_hub()
    assert rank_of(g, pagerank(g), "a") == 7  # the six chorded ring vertices win
    two_k3 = build_graph([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    pr = pagerank(two_k3)
    assert np.allclose(pr.scores, pr.scores[0])
    assert pagerank(build_graph([])).scores.shape == (0,)
    pr = pagerank(build_graph([(1, 1), (2, 2)]))  # every vertex dangles
    assert pr.converged
    assert np.allclose(pr.scores, 0.5)


def test_pagerank_sums_to_one(small_random_suite):
    for g in small_random_suite[:10]:
        if g.n == 0:
            continue
        assert abs(pagerank(g).scores.sum() - 1.0) <= 1e-9


def test_rank_vertices_competition_ranking():
    cv = CentralityVector(scores=np.array([0.5, 0.5, 0.1]), method="x")
    rk = rank_vertices(cv)
    assert rk.rank.tolist() == [1, 1, 3]
    assert rk.order.tolist() == [0, 1, 2]
    all_equal = rank_vertices(CentralityVector(scores=np.ones(4), method="x"))
    assert all_equal.rank.tolist() == [1, 1, 1, 1]


def tie_groups(rk):
    """Tie groups as maximal runs of equal rank in ``rk.order``."""
    return [list(grp) for _, grp in groupby(rk.order.tolist(), key=lambda v: rk.rank[v])]


def test_rank_vertices_orders_each_tie_group_by_label():
    # float order within the first group is 3, 1, 0; label order is 0, 1, 3
    scores = np.array([1.0, 1.0 + 2e-12, 0.5, 1.0 + 4e-12, 0.5 - 1e-13])
    rk = rank_vertices(CentralityVector(scores=scores, method="x"))
    assert tie_groups(rk) == [[0, 1, 3], [2, 4]]
    assert rk.order.tolist() == [0, 1, 3, 2, 4]
    assert rk.rank.tolist() == [1, 1, 4, 1, 4]
    assert rk.top(2) == [0, 1]


def test_rank_vertices_scale_invariant():
    scores = np.array([3.0, 1.0, 1.0, 0.25, 7.5])
    a = rank_vertices(CentralityVector(scores=scores, method="x"))
    b = rank_vertices(CentralityVector(scores=scores * 17.0, method="x"))
    assert a.order.tolist() == b.order.tolist()
    assert a.rank.tolist() == b.rank.tolist()
    assert [len(grp) for grp in tie_groups(a)] == [len(grp) for grp in tie_groups(b)]


def reference_ranking(scores, eps=1e-9):
    """Keyed sort and a walk over consecutive scores, then each tie group in
    label order: (order, rank, groups)."""
    n = len(scores)
    groups = []
    for v in sorted(range(n), key=lambda v: (-scores[v], v)):
        a, b = scores[groups[-1][-1]] if groups else None, scores[v]
        if groups and abs(a - b) <= eps * max(abs(a), abs(b)):
            groups[-1].append(v)
        else:
            groups.append([v])
    groups = [sorted(grp) for grp in groups]
    order = [v for grp in groups for v in grp]
    rank = [0] * n
    pos = 1
    for grp in groups:
        for v in grp:
            rank[v] = pos
        pos += len(grp)
    return order, rank, groups


# near-ties on both sides of the relative eps, exact ties, zeros and signs
SCORES = st.lists(st.sampled_from([0.0, -0.0, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, 1.0 - 9e-10,
                                   0.5, 0.25, -0.5, 1e-300, 3.0]), max_size=40)


@settings(max_examples=200, deadline=None)
@given(SCORES)
def test_rank_vertices_matches_keyed_sort_reference(values):
    rk = _ranking(values)
    order, rank, groups = reference_ranking(values)
    assert rk.order.tolist() == order
    assert rk.rank.tolist() == rank
    assert tie_groups(rk) == groups


def test_karate_tc_rank_one_is_vertex_14():
    g = load_fixture("karate")
    from tricent.centrality import triangle_centrality

    rk = rank_vertices(triangle_centrality(g))
    assert g.labels[int(rk.order[0])] == 14
    assert int(rk.rank[g.id_of(14)]) == 1


def _ranking(scores):
    return rank_vertices(CentralityVector(scores=np.asarray(scores, float), method="x"))


def test_jaccard_basics():
    n = 20
    base = np.arange(n, 0, -1, dtype=float)
    r1 = _ranking(base)
    assert top_k_jaccard(r1, r1, 10) == 1
    flipped = _ranking(base[::-1].copy())
    assert top_k_jaccard(r1, flipped, 10) == 0
    # overlap of exactly 5
    mixed = base.copy()
    mixed[:5], mixed[10:15] = base[10:15], base[:5]
    r2 = _ranking(mixed)
    assert top_k_jaccard(r1, r2, 10) == Fraction(1, 3)
    assert top_k_jaccard(r2, r1, 10) == top_k_jaccard(r1, r2, 10)


def test_jaccard_value_range(small_random_suite):
    allowed = {Fraction(c, 20 - c) for c in range(11)}
    for g in small_random_suite[:6]:
        if g.n < 10:
            continue
        rankings = {m: rank_vertices(cv) for m, cv in compute_all(g).items()}
        names = list(rankings)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert top_k_jaccard(rankings[a], rankings[b]) in allowed


def test_jaccard_requires_k_vertices():
    r = _ranking([1.0, 0.5])
    for k in (10, 0, -2):
        with pytest.raises(InputError):
            top_k_jaccard(r, r, k)


def test_agreement_dot_matrix_rows():
    # graph A: all agree on vertex 0; graph B: measure X alone picks 1
    rk_same = _ranking([5.0, 1.0, 0.5])
    rk_diff = _ranking([1.0, 5.0, 0.5])
    rankings = {
        "A": {"X": rk_same, "Y": rk_same, "Z": rk_same},
        "B": {"X": rk_diff, "Y": rk_same, "Z": rk_same},
    }
    dots = agreement_dot_matrices(rankings)
    x = dots["X"]
    assert x.cells[0].all() and not x.cells[1].any()
    assert x.unique_rows == 1 and x.cells.all(axis=1).sum() == 1
    assert x.agreement_percent == 50.0


def test_agreement_on_bundled_corpus():
    graphs = {name: load_fixture(name) for name in ("borgatti", "karate", "dolphins", "hijackers")}
    rankings = {
        name: {m: rank_vertices(cv) for m, cv in compute_all(g).items()}
        for name, g in graphs.items()
    }
    dots = agreement_dot_matrices(rankings)
    tc = dots["TC"]
    assert tc.cells.shape == (4, 5)
    # karate: TC uniquely picks vertex 14 (empty row); hijackers: everyone
    # agrees on vertex 38 (full row)
    assert tc.unique_rows == 1
    assert tc.cells.all(axis=1).sum() >= 1
    best, j = best_jaccard_competitor("TC", rankings["karate"])
    assert j == max(top_k_jaccard(rankings["karate"]["TC"], rankings["karate"][m])
                    for m in ("BC", "CC", "DC", "EV", "PR"))


def test_best_jaccard_tie_walk():
    # two competitors with identical top-10 sets but different order for the
    # reference's best vertex
    ref = _ranking([10.0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0])
    close = _ranking([9.0, 10, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0])  # ranks v0 second
    exact = _ranking([10.0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0])  # ranks v0 first
    name, j = best_jaccard_competitor("ref", {"ref": ref, "close": close, "exact": exact})
    assert j == 1
    assert name == "exact"
    # two competitors rank v0 first and stay tied; v1 decides between them
    later = _ranking([10.0, 8, 9, 7, 6, 5, 4, 3, 2, 1, 0, 0])  # ranks v1 third
    name, _ = best_jaccard_competitor(
        "ref", {"ref": ref, "close": close, "later": later, "exact": exact})
    assert name == "exact"


def test_exact_path_measures_refuse_graphs_above_the_limit(edges_above_exact_limit):
    g = build_graph(edges_above_exact_limit)
    assert (g.n - 1) * g.m <= EXACT_PATH_LIMIT < g.n * g.m
    for measure in (closeness_centrality, betweenness_centrality):
        with pytest.raises(InputError, match=r"n\*m <= "):
            measure(g)
