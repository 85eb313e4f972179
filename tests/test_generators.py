import inspect

import pytest

from tricent.errors import InputError
from tricent.generators import (_EDGE_COUNTS, FIXTURES, GEN_FAMILIES, MAX_GEN_EDGES,
                                book_with_satellite, bridged_cliques,
                                clique, clique_bridge_hub, clique_chain,
                                clique_ring, clique_star_hub, disjoint_cliques,
                                generate_fixture, load_fixture, lone_triangle,
                                star_triangle_hub, triad_hub)
from tricent.graph import build_abbreviated_adjacency, degree_order
from tricent.triangle import triangle_neighbor


def totals(g):
    stats, _ = triangle_neighbor(build_abbreviated_adjacency(g, degree_order(g)))
    return g.n, g.m, stats.total


def test_disjoint_cliques_shape():
    g, roles = disjoint_cliques(2, 4)
    assert totals(g) == (8, 12, 8)
    assert len(roles["member"]) == 8


def test_bridged_cliques_roles_partition():
    g, roles = bridged_cliques(3, 5)
    labels = sorted(lab for labs in roles.values() for lab in labs)
    assert labels == sorted(g.labels)
    assert len(roles["bridge"]) == 1
    assert len(roles["attach"]) == 3


def test_chain_roles():
    g, roles = clique_chain(4, 4)
    assert g.n == 4 * 4 - 3
    assert len(roles["outer-joint"]) == 2
    assert len(roles["inner-joint"]) == 1
    assert len(roles["outer-member"]) == 2 * 3
    assert len(roles["inner-member"]) == 2 * 2
    labels = sorted(lab for labs in roles.values() for lab in labs)
    assert labels == sorted(g.labels)


def test_ring_roles():
    g, roles = clique_ring(3, 4)
    assert g.n == 3 * 3
    assert len(roles["joint"]) == 3
    assert len(roles["member"]) == 6
    assert all(g.degrees[g.id_of(j)] == 6 for j in roles["joint"])


def test_lone_triangle_shape():
    g, roles = lone_triangle(2)
    assert g.n == 9 and g.m == 9
    assert totals(g)[2] == 1


@pytest.mark.parametrize("build,n,m,tri", [
    (triad_hub, 31, 33, 3),
    (clique_bridge_hub, 25, 64, 80),
    (star_triangle_hub, 18, 20, 3),
    (clique_star_hub, 18, 24, 11),
    (book_with_satellite, 7, 9, 3),
])
def test_showcase_shapes(build, n, m, tri):
    assert totals(build()) == (n, m, tri)


@pytest.mark.parametrize("name,n,m,tri", [
    ("borgatti", 19, 32, 13),
    ("karate", 34, 78, 45),
    ("dolphins", 62, 159, 95),
    ("hijackers", 62, 153, 133),
])
def test_fixture_transcription_triples(name, n, m, tri):
    """Loud guard on the bundled-network transcriptions."""
    assert totals(load_fixture(name)) == (n, m, tri)


def test_fixture_loader_rejects_unknown():
    with pytest.raises(InputError):
        load_fixture("mystery")
    assert set(FIXTURES) == {"borgatti", "karate", "dolphins", "hijackers"}


def test_generate_fixture_dispatch():
    g = generate_fixture("clique", k=5)
    assert (g.n, g.m) == (5, 10)
    assert generate_fixture("clique").n == 5
    g = generate_fixture("clique-bridge-hub", p=2, k=3)
    assert (g.n, g.m) == (7, 8)
    assert generate_fixture("karate").m == 78
    with pytest.raises(InputError):
        generate_fixture("unknown-family")
    with pytest.raises(InputError):
        generate_fixture("clique-chain", p=1, k=4)


@pytest.mark.parametrize("family,params", [
    ("triad-hub", {"k": 9}),
    ("karate", {"p": 40, "pendants": 3}),
    ("clique-ring", {"n": 7}),
    ("clique", {"n": 5, "k": 4}),
    ("lone-triangle", {"k": 3}),
])
def test_generate_fixture_rejects_parameters_not_taken(family, params):
    with pytest.raises(InputError, match=f"{family!r} takes no parameter"):
        generate_fixture(family, **params)


@pytest.mark.parametrize("family", sorted(_EDGE_COUNTS))
def test_edge_counts_are_the_edges_built(family):
    build = GEN_FAMILIES[family]
    params = inspect.signature(build).parameters
    defaults = {name: p.default for name, p in params.items()}
    # at the defaults, and at one more of each parameter
    for bump in ({}, {name: value + 1 for name, value in defaults.items()}):
        args = {**defaults, **bump}
        assert _EDGE_COUNTS[family](**args) == build(**args).m
    assert {f for f, b in GEN_FAMILIES.items()
            if inspect.signature(b).parameters} == set(_EDGE_COUNTS)


def test_generate_fixture_refuses_over_the_edge_limit(monkeypatch):
    def refuse(edges):
        raise AssertionError("generate_fixture started to build an oversized graph")

    # K_4473 lists 10,001,628 edges and K_4472 9,997,156
    assert _EDGE_COUNTS["clique"](4472) <= MAX_GEN_EDGES < _EDGE_COUNTS["clique"](4473)
    monkeypatch.setattr("tricent.generators.build_graph", refuse)
    with pytest.raises(InputError, match="would list 10001628 edges"):
        generate_fixture("clique", k=4473)
    with pytest.raises(InputError, match="needs k >= 2"):
        generate_fixture("clique", k=-10**9)  # the family's own check


def test_param_validation():
    for bad in (lambda: clique(1), lambda: disjoint_cliques(0, 4),
                lambda: bridged_cliques(1, 1), lambda: clique_chain(2, 4),
                lambda: clique_ring(2, 4), lambda: lone_triangle(-1),
                lambda: clique_bridge_hub(p=0)):
        with pytest.raises(InputError):
            bad()
