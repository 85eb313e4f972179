"""The paper's CREW-PRAM route, kept for its work bound.

The route is the merge kernel of :mod:`tricent.triangle` plus its work
counters: one pass of ``triangle_neighbor`` over the abbreviated adjacency,
in one thread, fills the triangle and merge-comparison counts, the prefix
lengths give the pair tests, and the score fold of :mod:`tricent.centrality`
finishes the job. Phases: setup (order, prefixes), detect, fold. The route
runs in one thread and takes no worker count: the kernel is pure Python and
holds the interpreter lock, and a thread pool over the numpy wedge kernel
gained nothing on Holme-Kim graphs. All counting is exact, so results are
bitwise identical to the sequential path. Work counters stand in for
abstract processor-count claims; ``tc compute --stats`` writes them as the
``work`` of its run record.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .centrality import tc_from_triangles
from .graph import build_abbreviated_adjacency, degree_order
from .triangle import MergeTally, triangle_neighbor


@dataclass
class ParallelConfig:
    # accepted for callers that pass a worker count; the route reads nothing
    # from it
    workers: int | None = None


@dataclass
class WorkCounters(MergeTally):
    pair_tests: int = 0
    phase_seconds: dict = field(default_factory=dict)


def parallel_triangle_centrality(g, cfg=None):
    """Scores plus work counters; bitwise equal to the sequential pipeline.
    ``cfg`` is accepted and not read."""
    counters = WorkCounters()

    t0 = time.perf_counter()
    adj = build_abbreviated_adjacency(g, degree_order(g))
    p = adj.prefix_len
    counters.pair_tests = int(np.sum(p * (p - 1) // 2))
    counters.phase_seconds["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    stats, marks = triangle_neighbor(adj, counters, per_edge=False)
    counters.phase_seconds["detect"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cv = tc_from_triangles(g, stats, adj=adj, marks=marks, method="parallel")
    counters.phase_seconds["fold"] = time.perf_counter() - t0
    return cv, counters

