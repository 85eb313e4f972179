"""Metamorphic properties of triangle centrality on small seeded graphs.

Each property changes a graph in a way whose effect on the scores is known
from the definition alone, and checks the scores of the changed graph
against those of the original. Triangle totals come from the brute-force
oracle, which shares no code with the kernels.
"""

import random
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tricent.centrality import triangle_centrality
from tricent.graph import build_abbreviated_adjacency, build_graph, degree_order
from tricent.triangle import _hash_counts, brute_force_triangles, wedge_counts

PROPERTY = settings(max_examples=100, deadline=None)


def seeded_edges(n, p, seed):
    """G(n, p) edges on labels 1..n from a seeded draw."""
    rng = random.Random(seed)
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]


EDGES = st.builds(seeded_edges, st.integers(3, 20), st.sampled_from([0.2, 0.4, 0.7]),
                  st.integers(0, 2**32 - 1)).filter(bool)


def scores_by_label(g):
    cv = triangle_centrality(g)
    return dict(zip(g.labels, cv.scores.tolist())), cv.tri_total


def bits(x):
    return np.float64(x).view(np.int64)


def triangles(g):
    return brute_force_triangles(g)[0].total


@PROPERTY
@given(EDGES, st.randoms(use_true_random=False))
def test_relabelling_keeps_every_score_bitwise(edges, rng):
    labels = sorted({x for e in edges for x in e})
    image = dict(zip(labels, rng.sample(range(1000), len(labels))))
    before, _ = scores_by_label(build_graph(edges))
    after, _ = scores_by_label(build_graph([(image[a], image[b]) for a, b in edges]))
    assert {image[v]: bits(s) for v, s in before.items()} == \
        {v: bits(s) for v, s in after.items()}


@PROPERTY
@given(EDGES, EDGES)
def test_disjoint_union_scales_each_part(edges1, edges2):
    shift = 1000  # part 2's labels follow part 1's
    union, total = scores_by_label(build_graph(edges1 + [(a + shift, b + shift)
                                                        for a, b in edges2]))
    assert total == triangles(build_graph(edges1)) + triangles(build_graph(edges2))
    for edges, offset in ((edges1, 0), (edges2, shift)):
        own, part_total = scores_by_label(build_graph(edges))
        scale = part_total / total if total else 0.0
        for v, s in own.items():
            assert abs(union[v + offset] - s * scale) <= 1e-12


@PROPERTY
@given(EDGES, st.integers(0, 10**6))
def test_pendant_leaves_other_scores_bitwise(edges, pick):
    g = build_graph(edges)
    v = g.labels[pick % g.n]
    pendant = g.labels[-1] + 1
    before, total = scores_by_label(g)
    after, total_after = scores_by_label(build_graph(edges + [(v, pendant)]))
    assert total_after == total
    assert {u: bits(s) for u, s in after.items() if u != pendant} == \
        {u: bits(s) for u, s in before.items()}
    tri_v = brute_force_triangles(g)[0].per_vertex[g.id_of(v)]
    assert after[pendant] == (float(Fraction(int(tri_v), total)) if total else 0.0)


def entry_of(adj, g, u, v):
    """The packed prefix entry holding the edge {u, v} (labels)."""
    iu, iv = g.id_of(u), g.id_of(v)
    lower, higher = adj.lower, adj.higher
    hit = ((lower == iu) & (higher == iv)) | ((lower == iv) & (higher == iu))
    return int(np.flatnonzero(hit)[0])


@PROPERTY
@given(EDGES, st.integers(0, 10**6))
def test_added_edge_closes_one_triangle_per_common_neighbour(edges, pick):
    g = build_graph(edges)
    present = set(edges)
    missing = [(a, b) for i, a in enumerate(g.labels) for b in g.labels[i + 1:]
               if (a, b) not in present]
    assume(missing)
    u, v = missing[pick % len(missing)]
    nu, nv = (set(g.neighbors_of(g.id_of(x)).tolist()) for x in (u, v))
    common = len(nu & nv)
    g2 = build_graph(edges + [(u, v)])
    assert triangles(g2) == triangles(g) + common
    adj = build_abbreviated_adjacency(g2, degree_order(g2))
    e = entry_of(adj, g2, u, v)
    assert wedge_counts(adj)[e] == common
    assert _hash_counts(adj)[e] == common
