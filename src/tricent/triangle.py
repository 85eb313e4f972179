"""Triangle counting and triangle-neighborhood identification.

Both production kernels find every triangle exactly once, from its
lowest-ordered vertex, inside the sorted abbreviated adjacency prefixes, and
count it on its three edges; per-vertex and global counts and the
triangle-neighbor marks are derived from those per-edge counts. The
production path is the vectorized wedge check (`wedge_counts`), run in
blocks of bounded size. The pure-Python merge intersection (`triangle_neighbor`,
over `_merge_counts`) is its oracle, and it also serves the PRAM route of
:mod:`tricent.parallel` and the merge-comparison counts. The hash-based
prefix-pair scan behind the basic route tests the same wedges once each,
in pure Python, against a dict of the edges. A two-orientation variant, a
set-intersection variant and a cubic brute-force oracle are kept alongside
as cross-checks. All routines agree on per-vertex counts, the global count,
and the triangle-neighbor relation.
"""

from dataclasses import dataclass
from itertools import compress

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


def _packed_prefixes(adj):
    """Every vertex's prefix in packed entry order: entry e holds the higher
    endpoint u of the prefix edge (v, u), an array of length m."""
    idx = np.repeat(adj.offsets[:-1] - adj.prefix_offsets[:-1], adj.prefix_len)
    idx += np.arange(idx.shape[0])
    return adj.nbr[idx]


def _prefix_lists(adj):
    flat = _packed_prefixes(adj).tolist()
    poff = adj.prefix_offsets.tolist()
    return [flat[a:b] for a, b in zip(poff, poff[1:])]


def _merge_counts(prefixes, poff, counts):
    """Merge-intersect every packed prefix entry, in order, into ``counts``.

    ``prefixes`` and ``poff`` are an OrderedAdjacency's prefixes and
    ``prefix_offsets`` as Python lists (plain ints index faster than numpy
    scalars). Entry ``poff[v] + i`` is the prefix edge (v, prefixes[v][i]),
    and ``counts`` is a list with one slot per entry: each triangle found adds
    1 at its three edges. One pass in one thread; returns the number of merge
    comparisons.
    """
    comparisons = 0
    for v, pv in enumerate(prefixes):
        pl = len(pv)
        mark_v = poff[v]
        for i in range(pl):
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
    return comparisons


# Wedges checked per block by wedge_counts. A block's index arrays are the
# kernel's only memory beyond its few length-m arrays; on clique(260), blocks
# four times as large took longer and traced three times the peak memory.
_WEDGE_BLOCK = 1 << 14


def wedge_counts(adj):
    """Per-entry triangle counts by checking the wedges inside each prefix.

    Two entries (v, a), (v, b) of one prefix form a wedge, closed iff {a, b}
    is an edge, which the lower-ordered of a and b holds as a prefix entry.
    The wedge's packed key (lower * n + other) is looked up with
    ``searchsorted`` among the entries' keys ``v * n + u``, which are sorted,
    and each closed wedge adds 1 at its three entries. The result is the
    int64 array of counts that ``_merge_counts`` writes, entry for entry.
    Entries are taken in blocks of about ``_WEDGE_BLOCK`` wedges, so memory
    stays O(m) however many wedges the graph has.
    """
    n, poff = adj.n, adj.prefix_offsets
    m = int(poff[-1])
    counts = np.zeros(m, dtype=np.int64)
    if m == 0:
        return counts
    higher = _packed_prefixes(adj)
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, adj.prefix_len)
    keys += higher
    # entry e opens one wedge with each later entry of its row; a block ends
    # where the running wedge count passes a multiple of the block size
    running = np.repeat(poff[1:], adj.prefix_len)
    running -= np.arange(1, m + 1)
    np.cumsum(running, out=running)
    cuts = np.searchsorted(running, np.arange(_WEDGE_BLOCK, running[-1], _WEDGE_BLOCK),
                           side="right").tolist()
    del running
    lo = 0
    for hi in cuts + [m]:
        e = np.arange(lo, hi)
        w = poff[np.searchsorted(poff, e, side="right")] - e - 1
        first = np.repeat(e, w)
        # second runs over the entries after first in its row
        second = np.repeat(e + 1 + w - np.cumsum(w), w)
        second += np.arange(second.shape[0])
        a, b = higher[first], higher[second]
        key = np.where(adj.rank[a] < adj.rank[b], a * n + b, b * n + a)
        # sorted needles make searchsorted's probes walk the keys in order
        order = np.argsort(key)
        key = key[order]
        at = np.searchsorted(keys, key)
        np.minimum(at, m - 1, out=at)
        hit = keys[at] == key
        closed = order[hit]
        np.add.at(counts, first[closed], 1)
        np.add.at(counts, second[closed], 1)
        np.add.at(counts, at[hit], 1)
        lo = hi
    return counts


def _entry_ends(adj, e):
    """Endpoints ``(v, u)`` of the packed prefix entries ``e``, as arrays."""
    v = np.searchsorted(adj.prefix_offsets, e, side="right") - 1
    return v, adj.nbr[adj.offsets[v] + e - adj.prefix_offsets[v]]


def _stats_and_marks(adj, counts, per_edge):
    """Stats and marks from the kernel's per-entry triangle counts: a triangle
    at v lies on two of v's edges and on three edges in all, and an entry is a
    triangle-neighbor pair iff its count is positive."""
    counts = np.asarray(counts, dtype=np.int64)
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
    counts = [0] * int(adj.prefix_offsets[-1])
    comparisons = _merge_counts(_prefix_lists(adj), adj.prefix_offsets.tolist(), counts)
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


def _hash_pair_scan(adj):
    """Test each pair of entries of one prefix once against a hash table of
    the edges.

    Every edge is one packed prefix entry; the table maps its key
    ``min * n + max`` to the entry's index. Prefixes ascend by id, so the
    entries u, w (i < j) of v's prefix give the key ``u * n + w`` directly, and
    a hit is one triangle, found once from v. It adds 1 at v, u, w and the
    total and marks all three entries. Σ p(p-1)/2 lookups in all, for prefix
    lengths p. Returns the stats and an iterator over the marked entries
    ``(v, u)``.
    """
    n = adj.n
    higher = _packed_prefixes(adj)
    lower = np.repeat(np.arange(n, dtype=np.int64), adj.prefix_len)
    keys = np.minimum(lower, higher) * n + np.maximum(lower, higher)
    get = dict(zip(keys.tolist(), range(keys.shape[0]))).get
    flat = higher.tolist()
    poff = adj.prefix_offsets.tolist()
    tri = [0] * n
    marks = [False] * len(flat)
    total = 0
    for v in range(n):
        end = poff[v + 1]
        for i in range(poff[v], end - 1):
            u = flat[i]
            un = u * n
            for j in range(i + 1, end):
                w = flat[j]
                e = get(un + w)
                if e is not None:
                    tri[v] += 1
                    tri[u] += 1
                    tri[w] += 1
                    total += 1
                    marks[i] = marks[j] = marks[e] = True
    stats = TriangleStats(per_vertex=np.array(tri, dtype=np.int64), total=total)
    return stats, compress(zip(lower.tolist(), flat), marks)


def hash_neighbor_pair_count(g, adj):
    """Triangle counts from the prefix-pair scan of
    :func:`hash_neighbor_pair_tri_neighbors`, without the lists."""
    return _hash_pair_scan(adj)[0]


def hash_neighbor_pair_tri_neighbors(g, adj):
    """Hash-based detection: each pair of higher-ordered neighbors is looked up
    once in a dict of the edges, and each triangle marks its three edges.

    The symmetric sorted lists come from the marked entries in one O(m) pass.
    ``g`` is not read: every edge of it is a prefix entry of ``adj``.
    """
    stats, marked = _hash_pair_scan(adj)
    lists = [[] for _ in range(adj.n)]
    for v, u in marked:
        lists[v].append(u)
        lists[u].append(v)
    for row in lists:
        row.sort()
    return stats, TriangleNeighborhood(lists)


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


def dump_neighborhood(nbh, file, g=None):
    """Write sorted `v: u1 u2 ...` lines, with labels when a graph is given."""
    name = (lambda v: g.labels[v]) if g is not None else (lambda v: v)
    for v in range(len(nbh.lists)):
        row = " ".join(str(name(u)) for u in nbh.lists[v])
        file.write(f"{name(v)}: {row}\n")
