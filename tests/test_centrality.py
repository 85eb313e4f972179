from fractions import Fraction

import numpy as np
import pytest

from tricent import algebraic, centrality, parallel
from tricent.algebraic import triangle_centrality_algebraic
from tricent.centrality import (CentralityVector, closed_form_tc, order_shape,
                                tc_from_triangles, triangle_centrality,
                                triangle_centrality_basic, triangle_pipeline)
from tricent.errors import InputError
from tricent.generators import (book_with_satellite, bridged_cliques, clique,
                                clique_bridge_hub, clique_chain, clique_ring,
                                clique_star_hub, disjoint_cliques, load_fixture,
                                lone_triangle, star_triangle_hub, triad_hub)
from tricent.graph import (OrderedAdjacency, build_abbreviated_adjacency, build_graph,
                           degree_order)
from tricent.parallel import parallel_triangle_centrality
from tricent.triangle import brute_force_triangles, marked_pairs, triangle_neighbor


def argsorted_labels(g, cv):
    order = sorted(range(g.n), key=lambda v: (-cv.scores[v], v))
    return [g.labels[v] for v in order]


def test_worked_example_center_is_one():
    g = book_with_satellite()
    cv = triangle_centrality(g)
    assert abs(cv.scores[g.id_of("v")] - 1.0) <= 1e-12
    assert cv.tri_total == 3


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_cliques_score_one(k):
    g, _ = clique(k)
    cv = triangle_centrality(g)
    assert np.all(np.abs(cv.scores - 1.0) <= 1e-12)


def test_bridged_six_cliques_scores():
    g = clique_bridge_hub(p=4, k=6)
    cv = triangle_centrality(g)
    a = g.id_of("a")
    assert abs(cv.scores[a] - 0.5) <= 1e-12
    others = np.delete(cv.scores, a)
    assert np.all(np.abs(others - 0.25) <= 1e-12)


@pytest.mark.parametrize("name,top", [
    ("karate", 14), ("dolphins", 15), ("borgatti", "d"),
])
def test_fixture_argmax(name, top):
    g = load_fixture(name)
    cv = triangle_centrality(g)
    assert argsorted_labels(g, cv)[0] == top


def test_hijackers_top_two():
    g = load_fixture("hijackers")
    cv = triangle_centrality(g)
    assert argsorted_labels(g, cv)[:2] == [38, 35]


def test_triangle_free_is_flagged_zero():
    g = build_graph([(1, 2), (2, 3), (3, 4)])
    cv = triangle_centrality(g)
    assert cv.triangle_free
    assert cv.tri_total == 0
    assert np.all(cv.scores == 0.0)


def test_main_equals_basic(small_random_suite):
    fixtures = [load_fixture(n) for n in ("borgatti", "karate", "hijackers")]
    ring, roles = clique_ring(p=800, k=13)  # n = 9600, at scale
    for g in small_random_suite + fixtures + [ring]:
        a = triangle_centrality(g)
        b = triangle_centrality_basic(g)
        assert np.array_equal(a.scores, b.scores)  # both fold the same exact integers
    for role, labels in roles.items():
        want = float(closed_form_tc("clique-ring", k=13, p=800, role=role))
        got = b.scores[[ring.id_of(lab) for lab in labels]]
        assert np.all(np.abs(got - want) <= 1e-12)


def test_scores_bounded(small_random_suite):
    for g in small_random_suite:
        cv = triangle_centrality(g)
        assert np.all(cv.scores >= 0.0)
        assert np.all(cv.scores <= 1.0 + 1e-15)


def test_tc_from_triangles_both_input_styles():
    g = load_fixture("borgatti")
    adj = build_abbreviated_adjacency(g, degree_order(g))
    stats, marks = triangle_neighbor(adj)
    src, dst = marked_pairs(adj, marks)
    # the pairs are a relation: the fold reads them in any order
    order = np.random.default_rng(0).permutation(src.shape[0])
    via_marks = tc_from_triangles(g, stats, adj=adj, marks=marks)
    via_pairs = tc_from_triangles(g, stats, neighborhood=(src[order], dst[order]))
    assert np.array_equal(via_marks.scores, via_pairs.scores)
    with pytest.raises(InputError):
        tc_from_triangles(g, stats)


def test_fold_of_the_oracle_neighborhood_equals_the_main_route(small_random_suite):
    fixtures = [load_fixture(n) for n in ("borgatti", "karate", "dolphins", "hijackers")]
    for g in small_random_suite + fixtures:
        stats, pairs = brute_force_triangles(g)
        folded = tc_from_triangles(g, stats, neighborhood=pairs)
        main = triangle_centrality(g)
        assert folded.tri_total == main.tri_total
        assert folded.scores.tobytes() == main.scores.tobytes()  # bitwise


ORDERED_ROUTES = [triangle_centrality, triangle_centrality_basic, triangle_centrality_algebraic,
                  lambda g: parallel_triangle_centrality(g)[0]]


@pytest.mark.parametrize("route", ORDERED_ROUTES)
def test_every_ordered_route_reports_its_phases_and_shape(route):
    for name in ("borgatti", "dolphins"):
        g = load_fixture(name)
        cv = route(g)
        assert list(cv.phases) == ["order", "detect", "fold"]
        assert all(s >= 0.0 for s in cv.phases.values())
        assert cv.shape == order_shape(g, build_abbreviated_adjacency(g, degree_order(g)))


@pytest.mark.parametrize("route", ORDERED_ROUTES)
def test_no_fold_receives_the_ordered_adjacency(monkeypatch, route):
    found = []

    def watched(g, detect, fold):
        def spy(g, *result):
            found.append(result)
            return fold(g, *result)

        return triangle_pipeline(g, detect, spy)

    for module in (centrality, parallel, algebraic):
        monkeypatch.setattr(module, "triangle_pipeline", watched)
    route(load_fixture("karate"))
    (result,) = found
    # one level down too: a neighbourhood is a (src, dst) tuple
    items = [x for item in result for x in (item if isinstance(item, tuple) else (item,))]
    assert not any(isinstance(x, OrderedAdjacency) for x in items)


def test_pipeline_passes_detect_results_to_the_fold():
    g = load_fixture("karate")
    seen = {}

    def detect(g, adj):
        seen["m"] = adj.m
        return "found", 45

    def fold(g, *found):
        seen["found"] = found
        return CentralityVector(scores=np.zeros(g.n), method="x", tri_total=45)

    cv = triangle_pipeline(g, detect, fold)
    assert seen == {"m": 78, "found": ("found", 45)}
    assert cv.method == "x" and cv.shape["prefix_pairs"] == 69


def test_closed_form_values():
    assert closed_form_tc("clique", k=7) == 1
    assert closed_form_tc("bridged-cliques", k=6, p=4) == Fraction(1, 2)
    assert closed_form_tc("disjoint-cliques", k=5, p=4) == Fraction(1, 4)
    assert closed_form_tc("clique-chain", k=4, p=5, role="inner-joint") == Fraction(1, 2)
    assert closed_form_tc("clique-chain", k=4, p=5, role="outer-joint") == Fraction(9, 20)
    assert closed_form_tc("clique-ring", k=4, p=5, role="member") == Fraction(6, 20)
    assert closed_form_tc("lone-triangle") == 1


def test_closed_form_rejects_bad_params():
    with pytest.raises(InputError):
        closed_form_tc("clique", k=2)
    with pytest.raises(InputError):
        closed_form_tc("clique-chain", k=4, p=2, role="outer-joint")
    with pytest.raises(InputError):
        closed_form_tc("clique-chain", k=4, p=3, role="inner-joint")
    with pytest.raises(InputError):
        closed_form_tc("clique-chain", k=4, p=4, role="x")
    with pytest.raises(InputError):
        closed_form_tc("clique-ring", k=4, p=4, role="noone")
    with pytest.raises(InputError):
        closed_form_tc("nope")


@pytest.mark.parametrize("family,build,params", [
    ("disjoint-cliques", disjoint_cliques, dict(p=3, k=5)),
    ("bridged-cliques", bridged_cliques, dict(p=2, k=4)),
    ("clique-chain", clique_chain, dict(p=4, k=5)),
    ("clique-ring", clique_ring, dict(p=5, k=3)),
])
def test_generated_families_hit_closed_forms(family, build, params):
    g, roles = build(**params)
    cv = triangle_centrality(g)
    for role, labels in roles.items():
        if family == "bridged-cliques":
            want = (closed_form_tc(family, **params) if role == "bridge"
                    else closed_form_tc("disjoint-cliques", **params))
        elif family == "disjoint-cliques":
            want = closed_form_tc(family, **params)
        else:
            want = closed_form_tc(family, role=role, **params)
        for lab in labels:
            assert abs(cv.scores[g.id_of(lab)] - float(want)) <= 1e-12


def test_lone_triangle_everyone_scores_one():
    g, _ = lone_triangle(pendants=4)
    cv = triangle_centrality(g)
    assert np.all(np.abs(cv.scores - 1.0) <= 1e-12)


@pytest.mark.parametrize("build", [triad_hub, clique_bridge_hub, star_triangle_hub,
                                   clique_star_hub])
def test_showcase_vertex_a_ranks_first(build):
    g = build()
    cv = triangle_centrality(g)
    assert argsorted_labels(g, cv)[0] == "a"
