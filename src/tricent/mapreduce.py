"""In-process simulator of the four-round key-value triangle centrality.

Rounds are pure functions multiset -> multiset with an in-memory sort/group
shuffle, no state carried between rounds. Round 1 pairs higher-ordered
neighbors; round 2 expands witnessed edges into the six directed triangle
pairs; round 3 re-joins the original edges, halves the doubled flag counts
into per-vertex triangle counts, and tags each neighbor as triangle or not;
round 4 folds the tagged counts into scores. Communication is metered per
round as (key fields + value fields) x 64 bits over newly materialized
records: reduce emissions, transforming map emissions (round 1's orientation
filter, round 3's edge re-injection), and the global-count side channel.
Identity map pass-throughs move nothing and cost nothing. Every stream has one
record shape, so its bits are its record count times that shape's width.

Record shapes (vertex ids are internal, pair keys sorted ascending):
  round 1 map:     (v, u)
  round 1 reduce:  ((a, b), None)  edge marker  |  ((a, b), v)  witness
  round 2 reduce:  (v, (u, 1))
  round 3 map:     (v, (u, flag))
  round 3 reduce:  (v, (count, flag))
  round 4 reduce:  (v, score)
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .centrality import CentralityVector
from .errors import ConsistencyError, InputError

RECORD_BITS = 64  # fixed width per key/value field


@dataclass
class RoundStats:
    round_index: int
    map_records: int
    reduce_records: int
    est_bits: int


def annotate_edges(g):
    """Degree-annotated directed edges ((v, d(v)), (u, d(u))), both orientations."""
    deg = g.degrees
    out = []
    for v in range(g.n):
        dv = int(deg[v])
        for u in g.neighbors_of(v).tolist():
            out.append(((v, dv), (u, int(deg[u]))))
    return out


def _check_annotations(records):
    seen = {}
    for (v, dv), (u, du) in records:
        for vertex, d in ((v, dv), (u, du)):
            if seen.setdefault(vertex, d) != d:
                raise InputError(f"inconsistent degree annotation for vertex {vertex}")


def _group(records):
    groups = defaultdict(list)
    for key, value in records:
        groups[key].append(value)
    return dict(sorted(groups.items()))


def mr_round1(records):
    """Keep lower-to-higher orientations, emit edge markers and witness pairs."""
    _check_annotations(records)
    mapped = []
    for (v, dv), (u, du) in records:
        if (dv, v) < (du, u):  # degree order with label tiebreak
            mapped.append((v, u))
    out = []
    for v, nbrs in _group(mapped).items():
        nbrs = sorted(nbrs)
        for u in nbrs:
            out.append(((min(u, v), max(u, v)), None))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                out.append(((nbrs[i], nbrs[j]), v))
    stats = RoundStats(1, len(mapped), len(out),
                       (2 * len(mapped) + 3 * len(out)) * RECORD_BITS)
    return out, stats


def mr_round2(records):
    """For every pair key holding an edge marker, expand each witness into the
    six directed triangle-neighbor records."""
    mapped = records  # identity map: re-emission is free
    out = []
    for (a, b), values in _group(mapped).items():
        if not any(val is None for val in values):
            continue
        for v in values:
            if v is None:
                continue
            out += [(v, (a, 1)), (a, (v, 1)), (v, (b, 1)),
                    (b, (v, 1)), (a, (b, 1)), (b, (a, 1))]
    stats = RoundStats(2, len(mapped), len(out), 3 * len(out) * RECORD_BITS)
    return out, stats


def mr_round3(records, edge_records):
    """Join the original edges back in, halve doubled flag counts into triangle
    counts, and tag every unique neighbor. Also accumulates the global count
    as a side channel (metered as n extra records)."""
    injected = [(v, (u, 0)) for (v, _dv), (u, _du) in edge_records]
    mapped = list(records) + injected
    out = []
    tri_sum = 0
    n_keys = 0
    for v, values in _group(mapped).items():
        n_keys += 1
        flagged = [u for u, flag in values if flag == 1]
        if len(flagged) % 2:
            raise ConsistencyError(f"odd triangle-flag count at vertex {v}")
        tri_v = len(flagged) // 2
        tri_sum += tri_v
        tri_set = set(flagged)
        neighbors = sorted({u for u, flag in values if flag == 0})
        for u in neighbors:
            out.append((u, (tri_v, 1 if u in tri_set else 0)))
        out.append((v, (tri_v, 1)))
    if tri_sum % 3:
        raise ConsistencyError("global triangle sum not divisible by 3")
    total = tri_sum // 3
    broadcast_bits = n_keys * 2 * RECORD_BITS  # side-channel aggregation
    stats = RoundStats(3, len(mapped), len(out),
                       3 * (len(injected) + len(out)) * RECORD_BITS + broadcast_bits)
    return out, total, stats


def mr_round4(records, total, n):
    """Fold tagged counts into scores; triangle-free emits a flagged zero vector."""
    mapped = records  # identity map: re-emission is free
    scores = np.zeros(n, dtype=np.float64)
    out = []
    for v, values in _group(mapped).items():
        x = sum(c for c, flag in values if flag == 1)
        y = sum(c for c, flag in values if flag == 0)
        score = float(x + 3 * y) / float(3 * total) if total else 0.0
        scores[v] = score
        out.append((v, score))
    stats = RoundStats(4, len(mapped), len(out), 2 * len(out) * RECORD_BITS)
    cv = CentralityVector(scores=scores, method="mapreduce", tri_total=total,
                          triangle_free=(total == 0))
    return cv, stats


def run_mapreduce_tc(g):
    """Chain the four rounds; always exactly four RoundStats."""
    edge_records = annotate_edges(g)
    r1, s1 = mr_round1(edge_records)
    r2, s2 = mr_round2(r1)
    r3, total, s3 = mr_round3(r2, edge_records)
    cv, s4 = mr_round4(r3, total, g.n)
    return cv, [s1, s2, s3, s4]
