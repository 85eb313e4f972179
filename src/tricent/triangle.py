"""Triangle counting and triangle-neighborhood identification.

The kernels read the abbreviated adjacency's packed prefix entries, one per
edge (``adj.lower[e]``, ``adj.higher[e]``), and find every triangle exactly
once, from its lowest-ordered vertex, as a pair of entries of one prefix
whose closing edge is an entry too. Each triangle counts on its three
entries; per-vertex and global counts and the triangle-neighbor marks are
derived from those per-entry counts. The production path is the vectorized
wedge check (`wedge_counts`): numpy looks up the closing edge of every pair
of entries of one prefix with `searchsorted` among the sorted entry keys.
The basic route's kernel (`_hash_counts`) tests the same pairs against a hash
table of the edges built in numpy. Both run one blocked pair loop
(`_pair_counts` over `_prefix_pairs`), so their memory stays O(m). The
pure-Python merge intersection (`triangle_neighbor`, over `_merge_counts`)
is their oracle, and it also serves the PRAM route of
:mod:`tricent.parallel` and the merge-comparison counts. A two-orientation variant, a set-intersection
variant and a cubic brute-force oracle are kept alongside as cross-checks.
All routines agree on per-vertex counts, the global count, and the
triangle-neighbor relation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import row_lists


@dataclass
class TriangleStats:
    """Per-vertex counts, the global count, and optional per-edge counts.

    ``per_edge`` holds one count per packed prefix entry, so the count of
    triangles on edge {u,v} sits at the lower-ordered endpoint's prefix entry
    for the other. Use :func:`edge_count_arrays` for the symmetric view.
    """

    per_vertex: np.ndarray
    total: int
    per_edge: np.ndarray | None = None


@dataclass
class MergeTally:
    """Instrumentation filled by triangle_neighbor when passed in."""

    merge_comparisons: int = 0
    triangles: int = 0


def _merge_counts(prefixes, poff, counts):
    """Merge-intersect every packed prefix entry, in order, into ``counts``.

    ``prefixes`` and ``poff`` are an OrderedAdjacency's prefixes and
    ``prefix_offsets`` as Python lists (see :func:`~tricent.graph.row_lists`).
    Entry ``poff[v] + i`` is the prefix edge (v, prefixes[v][i]), and
    ``counts`` is a list with one slot per entry: each triangle found adds 1
    at its three edges. One pass in one thread; returns the number of merge
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


# Entry pairs per block of _prefix_pairs. A block's index arrays are the
# kernels' only memory beyond their few length-m arrays; on clique(260), blocks
# four times as large took longer and traced three times the peak memory.
_WEDGE_BLOCK = 1 << 14


def _prefix_pairs(adj):
    """Every pair of entries (i < j) of one prefix, once each, in blocks.

    Yields ``(first, second)`` arrays of packed entry indices, about
    ``_WEDGE_BLOCK`` pairs per block (a block holds whole entries, so one
    entry that opens more pairs makes a larger one), Σ p(p-1)/2 pairs in all
    for prefix lengths p. Entry i of v's prefix pairs with every later entry
    of that prefix, so ``first`` ascends and ``second`` ascends within each
    run of equal ``first``.
    """
    poff, lower, m = adj.prefix_offsets, adj.lower, adj.m
    if m == 0:
        return
    # entry e opens one pair with each later entry of its row; a block ends
    # where the running pair count passes a multiple of the block size
    running = poff[lower + 1]
    running -= np.arange(1, m + 1)
    np.cumsum(running, out=running)
    cuts = np.searchsorted(running, np.arange(_WEDGE_BLOCK, running[-1], _WEDGE_BLOCK),
                           side="right").tolist()
    del running
    lo = 0
    for hi in cuts + [m]:
        e = np.arange(lo, hi)
        w = poff[lower[lo:hi] + 1] - e - 1
        first = np.repeat(e, w)
        # second runs over the entries after first in its row
        second = np.repeat(e + 1 + w - np.cumsum(w), w)
        second += np.arange(second.shape[0])
        yield first, second
        lo = hi


def _pair_counts(adj, find):
    """Per-entry triangle counts from every pair of entries of one prefix.

    Entries (v, a), (v, b) of one prefix, a < b by id, close a triangle iff
    {a, b} is an edge. ``find(a, b)`` takes one block of such pairs as
    arrays and returns ``(hit, at)``: an index of the pairs that close and,
    for each, the entry of its closing edge. Each triangle is found once,
    from its lowest-ordered vertex, and adds 1 at its three entries. The
    result is the int64 array of counts that ``_merge_counts`` writes, entry
    for entry. The pairs come from :func:`_prefix_pairs` in blocks, so
    memory stays O(m) however many pairs the graph has.
    """
    counts = np.zeros(adj.m, dtype=np.int64)
    higher = adj.higher
    for first, second in _prefix_pairs(adj):
        hit, at = find(higher[first], higher[second])
        np.add.at(counts, first[hit], 1)
        np.add.at(counts, second[hit], 1)
        np.add.at(counts, at, 1)
    return counts


def wedge_counts(adj):
    """Per-entry triangle counts by checking the wedges inside each prefix.

    A wedge's closing edge {a, b} is held by the lower-ordered of a and b as
    a prefix entry, so its packed key (lower * n + other) is looked up with
    ``searchsorted`` among the entries' keys ``lower * n + higher``, which
    are sorted. The pair loop is :func:`_pair_counts`.
    """
    n, rank = adj.n, adj.rank
    keys = adj.lower * n + adj.higher

    def find(a, b):
        key = np.where(rank[a] < rank[b], a * n + b, b * n + a)
        # sorted needles make searchsorted's probes walk the keys in order
        order = np.argsort(key)
        key = key[order]
        at = np.searchsorted(keys, key)
        np.minimum(at, adj.m - 1, out=at)
        hit = keys[at] == key
        return order[hit], at[hit]

    return _pair_counts(adj, find)


# Fibonacci hashing: a key's bucket is the top bits of key * ⌊2^64 / φ⌋ mod 2^64
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _hash_buckets(keys, shift):
    """Bucket of each non-negative int64 key: the top ``64 - shift`` bits of
    its multiplicative hash."""
    return ((keys.astype(np.uint64) * _HASH_MULTIPLIER) >> shift).astype(np.intp)


def _hash_table(keys):
    """Hash table of distinct non-negative int64 keys, as arrays.

    Buckets are the top b bits of each key's hash, with ``2^b`` > the number
    of keys. The table is the keys grouped by bucket (one ``argsort`` of the
    bucket ids), with each bucket's start offset. Returns ``(shift, starts,
    table_keys, order)``: bucket h holds ``table_keys[starts[h]:starts[h +
    1]]``, and ``order`` maps a table slot back to the key's index.
    """
    b = keys.shape[0].bit_length()
    shift = np.uint64(64 - b)
    bucket = _hash_buckets(keys, shift)
    # the keys are distinct, so their order inside a bucket changes no
    # lookup; a stable sort took six times as long on 10^5 keys
    order = np.argsort(bucket)
    starts = np.zeros((1 << b) + 1, dtype=np.int64)
    np.cumsum(np.bincount(bucket, minlength=1 << b), out=starts[1:])
    return shift, starts, keys[order], order


def _hash_find(table, needles):
    """Index of each needle among the table's keys, or -1 where it is absent.

    Each needle walks its bucket's chain; the still-unresolved needles take
    one step together per round, so a probe takes as many rounds as the
    longest chain it meets.
    """
    shift, starts, table_keys, order = table
    found = np.full(needles.shape[0], -1, dtype=np.int64)
    h = _hash_buckets(needles, shift)
    at, end = starts[h], starts[h + 1]
    live = np.flatnonzero(at < end)
    at, end = at[live], end[live]
    while live.shape[0]:
        hit = table_keys[at] == needles[live]
        found[live[hit]] = order[at[hit]]
        at += 1
        # keys are distinct, so a hit ends the needle's walk
        go = ~hit & (at < end)
        live, at, end = live[go], at[go], end[go]
    return found


def _hash_counts(adj):
    """Per-entry triangle counts by testing each prefix pair once in a hash
    table of the edges.

    Every edge is one packed prefix entry, keyed ``min * n + max`` in
    :func:`_hash_table`. Prefixes ascend by id, so entries a < b of one
    prefix give the key ``a * n + b`` of their closing edge directly. The
    pair loop is :func:`_pair_counts`: Σ p(p-1)/2 probes in all, for prefix
    lengths p.
    """
    n, lower, higher = adj.n, adj.lower, adj.higher
    table = _hash_table(np.minimum(lower, higher) * n + np.maximum(lower, higher))

    def find(a, b):
        at = _hash_find(table, a * n + b)
        hit = at >= 0
        return hit, at[hit]

    return _pair_counts(adj, find)


def _stats_and_marks(adj, counts, per_edge):
    """Stats and marks from the kernel's per-entry triangle counts: a triangle
    at v lies on two of v's edges and on three edges in all, and an entry is a
    triangle-neighbor pair iff its count is positive. The marks are a bool
    array over the m prefix entries."""
    counts = np.asarray(counts, dtype=np.int64)
    e = np.flatnonzero(counts)
    v, u = adj.lower[e], adj.higher[e]
    # float sums of integer counts, exact far beyond any count a graph reaches
    w = counts[e]
    halves = (np.bincount(v, weights=w, minlength=adj.n)
              + np.bincount(u, weights=w, minlength=adj.n))
    stats = TriangleStats(per_vertex=halves.astype(np.int64) // 2,
                          total=int(counts.sum()) // 3,
                          per_edge=counts if per_edge else None)
    return stats, counts > 0


def triangle_neighbor(adj, tally=None, per_edge=True):
    """Merge-intersect the sorted prefixes of v and u for every prefix edge.

    The kernel counts the triangles on every prefix edge; per-vertex and
    global counts, the marks and (by default) the per-edge counts are derived
    from those counts.
    """
    counts = [0] * adj.m
    poff = adj.prefix_offsets
    comparisons = _merge_counts(row_lists(adj.higher, poff), poff.tolist(), counts)
    stats, marks = _stats_and_marks(adj, counts, per_edge)
    if tally is not None:
        tally.merge_comparisons += comparisons
        tally.triangles += stats.total
    return stats, marks


def marked_pairs(adj, marks):
    """Arrays ``(src, dst)`` holding every prefix entry (v, u) that ``marks``
    selects (a bool array or an index over the entries) in both directions:
    one row per ordered pair of triangle neighbors."""
    v, u = adj.lower[marks], adj.higher[marks]
    return np.concatenate((v, u)), np.concatenate((u, v))


def materialize_triangle_neighbors(adj, marks):
    """Expand marks into symmetric triangle-neighbor lists, one sorted list
    per vertex."""
    src, dst = marked_pairs(adj, marks)
    offsets = np.zeros(adj.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=adj.n), out=offsets[1:])
    return row_lists(dst[np.argsort(src * adj.n + dst)], offsets)


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
    prefixes = row_lists(adj.higher, adj.prefix_offsets)
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
    return stats, lists


def hash_neighbor_pair_count(g, adj):
    """Triangle counts from the hash-based prefix-pair test of
    :func:`hash_neighbor_pair_tri_neighbors`, without the lists."""
    return _stats_and_marks(adj, _hash_counts(adj), per_edge=False)[0]


def hash_neighbor_pair_tri_neighbors(g, adj):
    """Hash-based detection: each pair of higher-ordered neighbors is looked up
    once in a hash table of the edges, and each triangle counts on its three
    edges (:func:`_hash_counts`).

    The symmetric sorted lists come from the marked entries. ``g`` is not
    read: every edge of it is a prefix entry of ``adj``.
    """
    stats, marks = _stats_and_marks(adj, _hash_counts(adj), per_edge=False)
    return stats, materialize_triangle_neighbors(adj, marks)


def hash_intersection_tri_neighbors(adj):
    """Set-intersection variant over hashed prefixes; probes the smaller set
    into the larger. Returns the triangle-neighbor lists only."""
    n = adj.n
    prefixes = row_lists(adj.higher, adj.prefix_offsets)
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
    return [sorted(s) for s in accum]


BRUTE_FORCE_LIMIT = 256  # the all-triple oracle refuses more vertices


def brute_force_triangles(g):
    """Exhaustive all-triple oracle; refuses graphs above the size guard."""
    if g.n > BRUTE_FORCE_LIMIT:
        raise InputError(f"brute-force oracle limited to {BRUTE_FORCE_LIMIT} vertices, got {g.n}")
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
    return stats, [sorted(s) for s in tri_nbrs]


def edge_count_arrays(adj, stats):
    """Symmetric per-edge triangle counts as ``(rows, cols, counts)`` int64
    arrays, both orientations of every edge in at least one triangle."""
    if stats.per_edge is None:
        raise InputError("stats carry no per-edge counts")
    e = np.flatnonzero(stats.per_edge)
    c = stats.per_edge[e]
    return *marked_pairs(adj, e), np.concatenate((c, c))
