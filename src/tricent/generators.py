"""Graph generators for closed-form families, showcase graphs, and the
bundled small networks.

Family generators return ``(Graph, roles)`` where ``roles`` maps a role name
to the tuple of vertex labels playing it; the closed-form score of each role
comes from :func:`tricent.centrality.closed_form_tc`. Showcase graphs label
their distinguished vertex ``"a"``.
"""

import functools
import inspect
from importlib import resources
from itertools import chain, combinations

from .centrality import CHAIN_ROLES
from .errors import InputError
from .graph import build_graph, load_edge_list


def _cliques(starts, k):
    """The edges of K_k on labels start .. start + k - 1, for each start."""
    return chain.from_iterable(combinations(range(s, s + k), 2) for s in starts)


def clique(k):
    """Complete graph on labels 1..k."""
    if k < 2:
        raise InputError("clique needs k >= 2")
    members = range(1, k + 1)
    g = build_graph(combinations(members, 2))
    return g, {"member": tuple(members)}


def disjoint_cliques(p, k):
    """p disjoint copies of K_k; clique i holds labels i*k+1 .. (i+1)*k."""
    if p < 1 or k < 2:
        raise InputError("disjoint-cliques needs p >= 1, k >= 2")
    g = build_graph(_cliques(range(1, p * k + 1, k), k))
    return g, {"member": tuple(range(1, p * k + 1))}


def bridged_cliques(p, k):
    """A bridge vertex (label 1) joined to one vertex of each of p copies of K_k."""
    if p < 1 or k < 2:
        raise InputError("bridged-cliques needs p >= 1, k >= 2")
    attach = range(2, 2 + p * k, k)
    g = build_graph(chain(_cliques(attach, k), ((1, a) for a in attach)))
    members = tuple(v for v in range(2, 2 + p * k) if (v - 2) % k)
    return g, {"bridge": (1,), "attach": tuple(attach), "member": members}


def clique_chain(p, k):
    """Chain of p copies of K_k, consecutive copies sharing a joint vertex."""
    if p < 3 or k < 3:
        raise InputError("clique-chain needs p >= 3, k >= 3")
    g = build_graph(_cliques(range(1, p * (k - 1) + 1, k - 1), k))
    roles = {r: [] for r in CHAIN_ROLES}
    joints = [i * (k - 1) + 1 for i in range(1, p)]
    joint_set = set(joints)
    roles["outer-joint"] = [joints[0], joints[-1]]
    roles["inner-joint"] = joints[1:-1]
    for i in range(p):
        members = range(i * (k - 1) + 1, i * (k - 1) + k + 1)
        kind = "outer-member" if i in (0, p - 1) else "inner-member"
        roles[kind] += [v for v in members if v not in joint_set]
    return g, {r: tuple(sorted(vs)) for r, vs in roles.items()}


def clique_ring(p, k):
    """Ring of p copies of K_k, consecutive copies sharing a joint vertex.

    At p = 3 the joints are mutually adjacent and form one triangle of their
    own on top of the per-clique triangles.
    """
    if p < 3 or k < 3:
        raise InputError("clique-ring needs p >= 3, k >= 3")
    n = p * (k - 1)
    joints = range(1, n + 1, k - 1)
    # the last clique wraps onto vertex 1, its last member
    g = build_graph(chain(_cliques(joints[:-1], k),
                          combinations(chain(range(joints[-1], n + 1), (1,)), 2)))
    members = tuple(v for v in range(1, n + 1) if (v - 1) % (k - 1))
    return g, {"joint": tuple(joints), "member": members}


def lone_triangle(pendants=1):
    """One triangle (labels 1..3) with `pendants` leaf vertices per corner."""
    if pendants < 0:
        raise InputError("lone-triangle needs pendants >= 0")
    # corner c holds leaves 4 + (c - 1) * pendants onward
    leaves = range(4, 4 + 3 * pendants)
    g = build_graph(chain([(1, 2), (1, 3), (2, 3)],
                          ((1 + (v - 4) // pendants, v) for v in leaves)))
    return g, {"triangle": (1, 2, 3), "pendant": tuple(leaves)}


def triad_hub():
    """Hub `a` on six ring vertices whose consecutive pairs close triangles;
    each ring vertex carries four leaves. Uniform degree everywhere but the
    leaves."""
    ring = ["b", "c", "d", "e", "f", "g"]
    edges = [("a", r) for r in ring]
    edges += [("b", "c"), ("d", "e"), ("f", "g")]
    leaf = 1
    for r in ring:
        for _ in range(4):
            edges.append((r, f"l{leaf:02d}"))
            leaf += 1
    return build_graph(edges)


def clique_bridge_hub(p=4, k=6):
    """Showcase variant of bridged cliques with the bridge labelled `a`."""
    if p < 1 or k < 2:
        raise InputError("needs p >= 1, k >= 2")

    def edges():
        for i in range(p):
            members = [f"{chr(ord('b') + i)}{j}" for j in range(1, k + 1)]
            yield from combinations(members, 2)
            yield "a", members[0]

    return build_graph(edges())


def star_triangle_hub():
    """`a` tied to a big star hub, two triangle gadgets, and one own triangle."""
    edges = [("a", "h")]
    edges += [("h", f"s{j}") for j in range(1, 9)]
    edges += [("a", "p1"), ("a", "p2"), ("p1", "p2")]
    edges += [("a", "t1"), ("t1", "t2"), ("t1", "t3"), ("t2", "t3")]
    edges += [("a", "u1"), ("u1", "u2"), ("u1", "u3"), ("u2", "u3")]
    return build_graph(edges)


def clique_star_hub():
    """`a` inside a 5-clique, tied to a triangle gadget and a 9-leaf star hub."""
    edges = list(combinations(["a", "k1", "k2", "k3", "k4"], 2))
    edges += [("a", "c"), ("c", "c1"), ("c", "c2"), ("c1", "c2")]
    edges += [("a", "h")]
    edges += [("h", f"s{j}") for j in range(1, 10)]
    return build_graph(edges)


def book_with_satellite():
    """Two triangles sharing an edge at `v` plus a separate triangle one hop away."""
    edges = [("v", "a"), ("v", "b"), ("v", "c"), ("a", "c"), ("b", "c"),
             ("v", "d"), ("d", "e"), ("d", "f"), ("e", "f")]
    return build_graph(edges)


FIXTURES = ("borgatti", "karate", "dolphins", "hijackers")


def load_fixture(name):
    """Load one of the bundled small networks by name."""
    if name not in FIXTURES:
        raise InputError(f"unknown fixture {name!r}; have {FIXTURES}")
    with resources.files("tricent.fixtures").joinpath(f"{name}.txt").open(encoding="utf-8") as fh:
        return load_edge_list(fh)


GEN_FAMILIES = {
    "clique": lambda k=5: clique(k)[0],
    "disjoint-cliques": lambda p=2, k=4: disjoint_cliques(p, k)[0],
    "bridged-cliques": lambda p=4, k=6: bridged_cliques(p, k)[0],
    "clique-chain": lambda p=3, k=4: clique_chain(p, k)[0],
    "clique-ring": lambda p=3, k=4: clique_ring(p, k)[0],
    "lone-triangle": lambda pendants=1: lone_triangle(pendants)[0],
    "triad-hub": triad_hub,
    "clique-bridge-hub": clique_bridge_hub,
    "star-triangle-hub": star_triangle_hub,
    "clique-star-hub": clique_star_hub,
    "book-satellite": book_with_satellite,
    **{name: functools.partial(load_fixture, name) for name in FIXTURES},
}


MAX_GEN_EDGES = 10**7  # generate_fixture refuses to list more edges


def _pairs(k):
    return max(k, 0) * (k - 1) // 2


# edges each family with size parameters lists, from its GEN_FAMILIES entry's
# parameters
_EDGE_COUNTS = {
    "clique": _pairs,
    "disjoint-cliques": lambda p, k: p * _pairs(k),
    "bridged-cliques": lambda p, k: p * (_pairs(k) + 1),
    "clique-chain": lambda p, k: p * _pairs(k),
    "clique-ring": lambda p, k: p * _pairs(k),
    "lone-triangle": lambda pendants: 3 + 3 * pendants,
    "clique-bridge-hub": lambda p, k: p * (_pairs(k) + 1),
}


def generate_fixture(family, **params):
    """Dispatch a named family with keyword parameters (CLI entry point).

    A parameter the family does not take is an InputError, not ignored, and
    so are parameters that would list more than ``MAX_GEN_EDGES`` edges,
    refused before anything is built."""
    if family not in GEN_FAMILIES:
        raise InputError(f"unknown family {family!r}; have {sorted(GEN_FAMILIES)}")
    build = GEN_FAMILIES[family]
    sig = inspect.signature(build)
    for name in params:
        if name not in sig.parameters:
            raise InputError(f"family {family!r} takes no parameter {name!r} "
                             f"(it takes: {', '.join(sig.parameters) or 'none'})")
    if family in _EDGE_COUNTS:
        args = sig.bind(**params)
        args.apply_defaults()
        edges = _EDGE_COUNTS[family](**args.arguments)
        if edges > MAX_GEN_EDGES:
            raise InputError(f"family {family!r} would list {edges} edges; "
                             f"the limit is {MAX_GEN_EDGES}")
    return build(**params)
