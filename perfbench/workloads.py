"""The benchmark's workloads: what each generates from its seed, and why.

``make(seed)`` gives the graphs every run scores. ``probe(seed)`` gives the
few small graphs of the same shape on which the traced run also times the
MapReduce simulator and the classical measures, whose pure-Python costs
(O(records) and O(n*m)) rule out the full-size graphs.
"""

from dataclasses import dataclass
from typing import Callable

import gen


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable
    probe: Callable


def _probe_hk(seed):
    return [gen.holme_kim(120, 5, 0.8, seed * 7 + i) for i in range(6)]


def _probe_er(seed):
    return [gen.dirty_er(120, 540, seed * 7 + i) for i in range(6)]


def _probe_ring(seed):
    return [gen.clique_ring(4, 24, seed * 7 + i) for i in range(6)]


SMALL_BATCH = 200  # graphs per run
SMALL_PROBE = 12   # the first graphs of the batch (the generator is sequential)


WORKLOADS = {w.name: w for w in (
    Workload("hk-rich",
             "triangle-rich Holme-Kim graph with skewed degrees; ingest and detect both heavy",
             lambda seed: [gen.holme_kim(20_000, 5, 0.8, seed)], _probe_hk),
    Workload("er-dirty",
             "triangle-poor G(n,m) with string labels, both orientations, duplicates and "
             "self-loops; ingest and emit carry the run",
             lambda seed: [gen.dirty_er(24_000, 100_000, seed)], _probe_er),
    Workload("ring-dense",
             "ring of K_24 cliques; detect and fold carry the run and scores have a closed form",
             lambda seed: [gen.clique_ring(150, 24, seed)], _probe_ring),
    Workload("small-batch",
             "hundreds of small mixed graphs; per-call fixed costs dominate",
             lambda seed: gen.small_batch(SMALL_BATCH, seed),
             lambda seed: gen.small_batch(SMALL_PROBE, seed)),
)}
