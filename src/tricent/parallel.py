"""The paper's CREW-PRAM route, kept for its work bound.

The route is the main pipeline's steps plus work counters: the production
kernel (``count_triangles`` of :mod:`tricent.triangle`) finds the triangles,
the prefix lengths give the pair tests and the longest prefix, and the merge
comparisons that the merge kernel would make are computed exactly from the
prefix ends (``merge_comparison_count``, tested equal to the count of
``triangle_neighbor``) without running the merge. The score fold of
:mod:`tricent.centrality` finishes the job. Phases: setup (order, prefixes),
detect, fold. The route runs in one thread and takes no worker count: a
thread pool over the wedge kernel's blocks gained nothing on Holme-Kim
graphs. All counting is exact, so results are bitwise identical to the
sequential path. Work counters stand in for abstract processor-count
claims; ``tc compute --stats`` writes them as the ``work`` of its run record.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .centrality import tc_from_triangles
from .graph import build_abbreviated_adjacency, degree_order
from .triangle import MergeTally, count_triangles, merge_comparison_count


@dataclass
class ParallelConfig:
    # accepted for callers that pass a worker count; the route reads nothing
    # from it
    workers: int | None = None


@dataclass
class WorkCounters(MergeTally):
    pair_tests: int = 0
    max_prefix: int = 0  # the longest prefix, to set against sqrt(2m)
    phase_seconds: dict = field(default_factory=dict)


def parallel_triangle_centrality(g, cfg=None):
    """Scores plus work counters; bitwise equal to the sequential pipeline.
    ``cfg`` is accepted and not read."""
    counters = WorkCounters()

    t0 = time.perf_counter()
    adj = build_abbreviated_adjacency(g, degree_order(g))
    p = adj.prefix_len
    counters.pair_tests = int(np.sum(p * (p - 1) // 2))
    counters.max_prefix = int(p.max(initial=0))
    counters.phase_seconds["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    stats, marks = count_triangles(adj)
    counters.triangles = stats.total
    counters.merge_comparisons = merge_comparison_count(adj, stats.total)
    counters.phase_seconds["detect"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cv = tc_from_triangles(g, stats, adj=adj, marks=marks, method="parallel")
    counters.phase_seconds["fold"] = time.perf_counter() - t0
    return cv, counters
