"""Triangle counting and triangle-neighborhood identification.

The production path is the hash-free merge-intersection routine over sorted
abbreviated adjacency prefixes (`triangle_neighbor`): every triangle is
processed exactly once, from its lowest-ordered vertex, via the low-middle
edge, and counted on its three edges; per-vertex and global counts and the
triangle-neighbor marks are derived from those per-edge counts. Hash-based
variants and a cubic brute-force oracle are kept alongside as cross-checks.
All routines agree on per-vertex counts, the global count, and the
triangle-neighbor relation.
"""

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class TriangleStats:
    """Per-vertex counts, the global count, and optional per-edge counts.

    ``per_edge`` is aligned with :class:`TriangleMarks` ``bits``: one count
    per packed prefix entry, so the count of triangles on edge {u,v} sits at
    the lower-ordered endpoint's prefix entry for the other. Use
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


def _merge_range(prefixes, poff, lo, hi, counts):
    """Merge-intersect the packed prefix entries [lo, hi) into ``counts``.

    ``prefixes`` and ``poff`` are an OrderedAdjacency's prefixes and
    ``prefix_offsets`` as Python lists (plain ints index faster than numpy
    scalars). Entry e of the packed index space is the prefix edge (v, u) with
    ``poff[v] <= e < poff[v + 1]``, and ``counts`` is a list with one slot per
    entry: each triangle found adds 1 at its three edges. Returns the number
    of merge comparisons, so consecutive ranges over the same list add up to
    one pass over [0, m).
    """
    comparisons = 0
    v = bisect_right(poff, lo) - 1
    e = lo
    while e < hi:
        pv = prefixes[v]
        pl = len(pv)
        mark_v = poff[v]
        row_end = min(hi, mark_v + pl)
        for i in range(e - mark_v, row_end - mark_v):
            u = pv[i]
            pu = prefixes[u]
            ul = len(pu)
            mark_u = poff[u]
            x = y = 0
            while x < pl and y < ul:
                comparisons += 1
                wv = pv[x]
                wu = pu[y]
                if wv == wu:
                    counts[mark_v + x] += 1  # {v,w}
                    counts[mark_u + y] += 1  # {u,w}
                    counts[mark_v + i] += 1  # {v,u}
                    x += 1
                    y += 1
                elif wv < wu:
                    x += 1
                else:
                    y += 1
        e = row_end
        v += 1
    return comparisons


def _entry_ends(adj, e):
    """Endpoints ``(v, u)`` of the packed prefix entries ``e``, as arrays."""
    v = np.searchsorted(adj.prefix_offsets, e, side="right") - 1
    return v, adj.nbr[adj.offsets[v] + e - adj.prefix_offsets[v]]


def _stats_and_marks(adj, counts, per_edge):
    """Stats and marks from the kernel's per-entry triangle counts: a triangle
    at v lies on two of v's edges and on three edges in all, and an entry is a
    triangle-neighbor pair iff its count is positive."""
    counts = np.array(counts, dtype=np.int64)
    e = np.flatnonzero(counts)
    v, u = _entry_ends(adj, e)
    # float sums of integer counts, exact far beyond any count a graph reaches
    w = counts[e]
    halves = (np.bincount(v, weights=w, minlength=adj.n)
              + np.bincount(u, weights=w, minlength=adj.n))
    stats = TriangleStats(per_vertex=halves.astype(np.int64) // 2,
                          total=int(counts.sum()) // 3,
                          per_edge=counts if per_edge else None)
    return stats, TriangleMarks(bits=counts > 0, offsets=adj.prefix_offsets)


def triangle_neighbor(adj, tally=None, per_edge=True):
    """Merge-intersect the sorted prefixes of v and u for every prefix edge.

    The kernel counts the triangles on every prefix edge; per-vertex and
    global counts, the marks and (by default) the per-edge counts are derived
    from those counts.
    """
    m = int(adj.prefix_offsets[-1])
    counts = [0] * m
    comparisons = _merge_range(_prefix_lists(adj), adj.prefix_offsets.tolist(), 0, m, counts)
    stats, marks = _stats_and_marks(adj, counts, per_edge)
    if tally is not None:
        tally.merge_comparisons += comparisons
        tally.triangles += stats.total
    return stats, marks


def marked_pairs(adj, marks):
    """Arrays ``(src, dst)`` holding every marked prefix entry (v, u) in both
    directions: one row per ordered pair of triangle neighbors."""
    v, u = _entry_ends(adj, np.flatnonzero(marks.bits))
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
    return set(g.edges())


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
    e = np.flatnonzero(stats.per_edge)
    v, u = _entry_ends(adj, e)
    c = stats.per_edge[e]
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
