"""Triangle counting and triangle-neighborhood identification.

The production path is the hash-free merge-intersection routine over sorted
abbreviated adjacency prefixes (`triangle_neighbor`): every triangle is
processed exactly once, from its lowest-ordered vertex, via the low-middle
edge. Hash-based variants and a cubic brute-force oracle are kept alongside
as cross-checks. All routines agree on per-vertex counts, the global count,
and the triangle-neighbor relation.
"""

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class TriangleStats:
    """Per-vertex counts, the global count, and optional per-edge counts.

    ``per_edge`` is aligned with the OrderedAdjacency neighbor array but only
    canonical positions are populated: the count of triangles on edge {u,v}
    sits at the lower-ordered endpoint's prefix entry for the other. Use
    :func:`edge_count_arrays` for the symmetric view.
    """

    per_vertex: np.ndarray
    total: int
    per_edge: np.ndarray | None = None


@dataclass
class TriangleMarks:
    """Bit arrays over the packed prefixes: bit set iff that prefix entry is a
    higher-ordered triangle neighbor of the row vertex."""

    bits: np.ndarray
    offsets: np.ndarray  # prefix offsets, length n+1

    def row(self, v):
        return self.bits[self.offsets[v]:self.offsets[v + 1]]


class TriangleNeighborhood:
    """Symmetric per-vertex triangle-neighbor lists, sorted, duplicate-free."""

    __slots__ = ("lists",)

    def __init__(self, lists):
        self.lists = lists

    def __getitem__(self, v):
        return self.lists[v]

    def __len__(self):
        return len(self.lists)

    def as_sets(self):
        return [set(row) for row in self.lists]

    def __eq__(self, other):
        return isinstance(other, TriangleNeighborhood) and self.lists == other.lists


@dataclass
class MergeTally:
    """Instrumentation filled by triangle_neighbor when passed in."""

    merge_comparisons: int = 0
    triangles: int = 0


def _prefix_lists(adj):
    off = adj.offsets
    plen = adj.prefix_len
    return [adj.nbr[off[v]:off[v] + plen[v]].tolist() for v in range(adj.n)]


def _merge_range(prefixes, off, poff, lo, hi, tri, bits, edge_counts=None):
    """Merge-intersect the packed prefix entries [lo, hi) into caller buffers.

    ``prefixes``, ``off`` and ``poff`` are an OrderedAdjacency's prefixes,
    ``offsets`` and ``prefix_offsets`` as Python lists (plain ints index
    faster than numpy scalars). Entry e of the packed index space is the prefix
    edge (v, u) with ``poff[v] <= e < poff[v + 1]``. Each triangle found
    increments ``tri`` at its three vertices, sets the marks of its three
    edges in ``bits`` and, when given, bumps ``edge_counts`` at the canonical
    positions of those edges. Returns ``(triangles, comparisons)``, so
    consecutive ranges over the same buffers add up to one pass over [0, m).
    """
    total = 0
    comparisons = 0
    v = bisect_right(poff, lo) - 1
    e = lo
    while e < hi:
        pv = prefixes[v]
        pl = len(pv)
        base_v = off[v]
        mark_v = poff[v]
        row_end = min(hi, mark_v + pl)
        for i in range(e - mark_v, row_end - mark_v):
            u = pv[i]
            pu = prefixes[u]
            ul = len(pu)
            base_u = off[u]
            mark_u = poff[u]
            found = False
            x = y = 0
            while x < pl and y < ul:
                comparisons += 1
                wv = pv[x]
                wu = pu[y]
                if wv == wu:
                    found = True
                    bits[mark_v + x] = True
                    bits[mark_u + y] = True
                    tri[v] += 1
                    tri[u] += 1
                    tri[wv] += 1
                    total += 1
                    if edge_counts is not None:
                        edge_counts[base_v + i] += 1  # {v,u}
                        edge_counts[base_v + x] += 1  # {v,w}
                        edge_counts[base_u + y] += 1  # {u,w}
                    x += 1
                    y += 1
                elif wv < wu:
                    x += 1
                else:
                    y += 1
            if found:
                bits[mark_v + i] = True
        e = row_end
        v += 1
    return total, comparisons


def triangle_neighbor(adj, tally=None, per_edge=True):
    """Merge-intersect the sorted prefixes of v and u for every prefix edge.

    Returns per-vertex/global triangle counts, marks over the prefixes, and
    (by default) canonical per-edge triangle counts. Each triangle increments
    the three vertex counters and the global counter exactly once.
    """
    tri = np.zeros(adj.n, dtype=np.int64)
    bits = np.zeros(int(adj.prefix_offsets[-1]), dtype=bool)
    edge_counts = np.zeros(adj.nbr.shape[0], dtype=np.int64) if per_edge else None
    total, comparisons = _merge_range(_prefix_lists(adj), adj.offsets.tolist(),
                                      adj.prefix_offsets.tolist(), 0, bits.shape[0],
                                      tri, bits, edge_counts)
    if tally is not None:
        tally.merge_comparisons += comparisons
        tally.triangles += total
    stats = TriangleStats(per_vertex=tri, total=total, per_edge=edge_counts)
    marks = TriangleMarks(bits=bits, offsets=adj.prefix_offsets)
    return stats, marks


def marked_pairs(adj, marks):
    """Arrays ``(src, dst)`` holding every marked prefix entry (v, u) in both
    directions: one row per ordered pair of triangle neighbors."""
    e = np.flatnonzero(marks.bits)
    v = np.searchsorted(adj.prefix_offsets, e, side="right") - 1
    u = adj.nbr[adj.offsets[v] + e - adj.prefix_offsets[v]]
    return np.concatenate((v, u)), np.concatenate((u, v))


def materialize_triangle_neighbors(adj, marks):
    """Expand marks into explicit symmetric neighbor lists."""
    src, dst = marked_pairs(adj, marks)
    flat = dst[np.lexsort((dst, src))].tolist()
    ends = np.cumsum(np.bincount(src, minlength=adj.n)).tolist()
    return TriangleNeighborhood([flat[a:b] for a, b in zip([0] + ends, ends)])


def triangle_neighbor_alt(adj):
    """Lower-synchronization variant: intersect from both edge orientations.

    Every triangle is detected twice (once per orientation of its low-middle
    edge), so counters advance by half per detection; the doubled integers
    are halved at the end for exactness. The scratch mark array is local to
    each vertex and discarded, which is what removes the cross-vertex writes.
    """
    n = adj.n
    tri2 = np.zeros(n, dtype=np.int64)  # doubled counts
    total2 = 0
    lists = [[] for _ in range(n)]
    prefixes = _prefix_lists(adj)
    prefix_index = [{u: i for i, u in enumerate(p)} for p in prefixes]
    for v in range(n):
        pv = prefixes[v]
        pl = len(pv)
        local = np.zeros(pl, dtype=bool)
        index_v = prefix_index[v]
        for u in adj.row(v).tolist():
            pu = prefixes[u]
            ul = len(pu)
            p = index_v.get(u)
            found = False
            x = y = 0
            while x < pl and y < ul:
                wv = pv[x]
                wu = pu[y]
                if wv == wu:
                    found = True
                    tri2[v] += 1
                    tri2[u] += 1
                    tri2[wv] += 1
                    total2 += 1
                    if not local[x]:
                        local[x] = True
                        lists[v].append(wv)
                        lists[wv].append(v)
                    x += 1
                    y += 1
                elif wv < wu:
                    x += 1
                else:
                    y += 1
            if found and p is not None and not local[p]:
                local[p] = True
                lists[v].append(u)
                lists[u].append(v)
    if total2 % 2 or np.any(tri2 % 2):
        raise AssertionError("odd doubled triangle counter")
    for row in lists:
        row.sort()
    stats = TriangleStats(per_vertex=tri2 // 2, total=total2 // 2)
    return stats, TriangleNeighborhood(lists)


def _edge_set(g):
    return {(u, v) for u, v in g.edges()}


def hash_neighbor_pair_count(g, adj):
    """Count triangles from unique higher-ordered neighbor pairs per vertex."""
    edges = _edge_set(g)
    n = adj.n
    tri = np.zeros(n, dtype=np.int64)
    total = 0
    prefixes = _prefix_lists(adj)
    for v in range(n):
        pv = prefixes[v]
        for i in range(len(pv)):
            u = pv[i]
            for j in range(i + 1, len(pv)):
                w = pv[j]
                if ((u, w) if u < w else (w, u)) in edges:
                    tri[v] += 1
                    tri[u] += 1
                    tri[w] += 1
                    total += 1
    return TriangleStats(per_vertex=tri, total=total)


def hash_neighbor_pair_tri_neighbors(g, adj):
    """Neighbor-pair scan with edge lookups: counts once per triangle via the
    rank guard, pairs the endpoints of each triangle edge exactly once via the
    per-edge flag."""
    edges = _edge_set(g)
    n = adj.n
    rank = adj.rank
    tri = np.zeros(n, dtype=np.int64)
    total = 0
    lists = [[] for _ in range(n)]
    prefixes = _prefix_lists(adj)
    for v in range(n):
        row = adj.row(v).tolist()
        for u in prefixes[v]:
            flagged = False
            for w in row:
                if w == u:
                    continue
                key = (u, w) if u < w else (w, u)
                if key in edges:
                    if rank[u] < rank[w]:
                        tri[v] += 1
                        tri[u] += 1
                        tri[w] += 1
                        total += 1
                    if not flagged:
                        flagged = True
                        lists[v].append(u)
                        lists[u].append(v)
    for rw in lists:
        rw.sort()
    return TriangleStats(per_vertex=tri, total=total), TriangleNeighborhood(lists)


def hash_intersection_tri_neighbors(adj):
    """Set-intersection variant over hashed prefixes; probes the smaller set
    into the larger. Returns the triangle neighborhood only."""
    n = adj.n
    prefixes = _prefix_lists(adj)
    prefix_sets = [set(p) for p in prefixes]
    accum = [set() for _ in range(n)]
    for v in range(n):
        sv = prefix_sets[v]
        for u in prefixes[v]:
            su = prefix_sets[u]
            small, large = (sv, su) if len(sv) <= len(su) else (su, sv)
            for w in small:
                if w in large:
                    accum[u].add(v)
                    accum[w].add(v)
                    accum[w].add(u)
                    accum[v].add(u)
                    accum[u].add(w)
                    accum[v].add(w)
    return TriangleNeighborhood([sorted(s) for s in accum])


def brute_force_triangles(g, limit=256):
    """Exhaustive all-triple oracle; refuses graphs above the size guard."""
    if g.n > limit:
        raise InputError(f"brute-force oracle limited to {limit} vertices, got {g.n}")
    n = g.n
    nbr_sets = [set(g.neighbors_of(v).tolist()) for v in range(n)]
    tri = np.zeros(n, dtype=np.int64)
    total = 0
    tri_nbrs = [set() for _ in range(n)]
    for i in range(n):
        si = nbr_sets[i]
        for j in range(i + 1, n):
            if j not in si:
                continue
            sj = nbr_sets[j]
            for k in range(j + 1, n):
                if k in si and k in sj:
                    total += 1
                    tri[i] += 1
                    tri[j] += 1
                    tri[k] += 1
                    tri_nbrs[i].update((j, k))
                    tri_nbrs[j].update((i, k))
                    tri_nbrs[k].update((i, j))
    stats = TriangleStats(per_vertex=tri, total=total)
    return stats, TriangleNeighborhood([sorted(s) for s in tri_nbrs])


def edge_count_arrays(adj, stats):
    """Symmetric per-edge triangle counts as ``(rows, cols, counts)`` int64
    arrays, both orientations of every edge in at least one triangle."""
    if stats.per_edge is None:
        raise InputError("stats carry no per-edge counts")
    src = np.repeat(np.arange(adj.n, dtype=np.int64), adj.prefix_len)
    # the canonical positions: each vertex's prefix entries in the row order
    pos = np.arange(src.shape[0], dtype=np.int64) - adj.prefix_offsets[src] + adj.offsets[src]
    counts = stats.per_edge[pos]
    hit = counts != 0
    v, u, c = src[hit], adj.nbr[pos[hit]], counts[hit]
    return np.concatenate((v, u)), np.concatenate((u, v)), np.concatenate((c, c))


def edge_count_triples(adj, stats):
    """Symmetric (u, v, count) triples from canonical per-edge counts."""
    return list(zip(*(a.tolist() for a in edge_count_arrays(adj, stats))))


def dump_neighborhood(nbh, file, g=None):
    """Write sorted `v: u1 u2 ...` lines, with labels when a graph is given."""
    name = (lambda v: g.labels[v]) if g is not None else (lambda v: v)
    for v in range(len(nbh.lists)):
        row = " ".join(str(name(u)) for u in nbh.lists[v])
        file.write(f"{name(v)}: {row}\n")
