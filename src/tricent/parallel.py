"""Deterministic partitioned triangle centrality.

The paper's CREW-PRAM algorithm partitions the sequential work: the packed
prefix entries (one per prefix edge) are cut into contiguous ranges, the
shared merge kernel of :mod:`tricent.triangle` runs over each range in order
into one list of per-edge triangle counts, the counts and marks are derived
from that list as in the sequential path, and the score fold of
:mod:`tricent.centrality` finishes the job. Phases: setup (order, prefixes),
detect, fold. The ranges run in order in the calling thread: the kernel is
pure Python and holds the interpreter lock, so threads would not overlap its
work. All counting is exact, so results are bitwise identical to the
sequential path for any partition. Work counters stand in for abstract
processor-count claims.
"""

import math
import os
import time
from dataclasses import dataclass, field

from .centrality import tc_from_triangles
from .errors import InputError
from .graph import build_abbreviated_adjacency, degree_order
from .triangle import _merge_range, _prefix_lists, _stats_and_marks


@dataclass
class ParallelConfig:
    # workers sets the partition: workers * 4 ranges unless chunk is given;
    # None means the TC_THREADS environment variable, else the CPU count
    workers: int | None = None
    chunk: int | None = None    # prefix entries per range

    def resolved_workers(self):
        w = self.workers
        if w is None:
            env = os.environ.get("TC_THREADS")
            try:
                w = int(env) if env else (os.cpu_count() or 1)
            except ValueError:
                raise InputError(f"TC_THREADS must be an integer, got {env!r}") from None
        if w < 1:
            raise InputError("worker count must be >= 1")
        return w


@dataclass
class WorkCounters:
    pair_tests: int = 0
    triangles: int = 0
    merge_comparisons: int = 0
    phase_seconds: dict = field(default_factory=dict)


def parallel_triangle_centrality(g, cfg=None):
    """Scores plus work counters; bitwise equal to the sequential pipeline."""
    cfg = cfg or ParallelConfig()
    workers = cfg.resolved_workers()
    counters = WorkCounters()

    t0 = time.perf_counter()
    adj = build_abbreviated_adjacency(g, degree_order(g))
    prefixes = _prefix_lists(adj)
    poff = adj.prefix_offsets.tolist()
    counters.pair_tests = int(sum(p * (p - 1) // 2 for p in adj.prefix_len.tolist()))
    counters.phase_seconds["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    total_entries = int(adj.prefix_offsets[-1])
    chunk = cfg.chunk or math.ceil(max(1, total_entries) / (workers * 4))
    if chunk < 1:
        raise InputError("chunk must be >= 1")
    counts = [0] * total_entries
    for lo in range(0, total_entries, chunk):
        counters.merge_comparisons += _merge_range(prefixes, poff, lo,
                                                   min(lo + chunk, total_entries), counts)
    stats, marks = _stats_and_marks(adj, counts, per_edge=False)
    counters.triangles = stats.total
    counters.phase_seconds["detect"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cv = tc_from_triangles(g, stats, adj=adj, marks=marks, method="parallel")
    counters.phase_seconds["fold"] = time.perf_counter() - t0
    return cv, counters


@dataclass
class WorkReport:
    pair_test_ratio: float
    merge_ratio: float
    triangles: int
    phase_seconds: dict

    def __str__(self):
        phases = " ".join(f"{k}={v:.4f}s" for k, v in self.phase_seconds.items())
        return (f"pair-tests/(m*sqrt(2m)) = {self.pair_test_ratio:.4f}  "
                f"merge-comparisons/(m*sqrt(2m)) = {self.merge_ratio:.4f}  "
                f"triangles = {self.triangles}  {phases}")


def work_report(counters, g):
    """Normalized work ratios against the m*sqrt(2m) budget plus timings."""
    budget = g.m * math.sqrt(2 * g.m) if g.m else 0.0
    ratio = (counters.pair_tests / budget) if budget else 0.0
    merge = (counters.merge_comparisons / budget) if budget else 0.0
    return WorkReport(pair_test_ratio=ratio, merge_ratio=merge,
                      triangles=counters.triangles, phase_seconds=counters.phase_seconds)
