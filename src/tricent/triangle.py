"""Triangle counting and triangle-neighborhood identification.

Every routine except the cubic brute-force oracle reads the abbreviated
adjacency's packed prefix entries, one per edge (``adj.lower[e]``,
``adj.higher[e]``), and reports one triangle count per entry: each triangle
counts on its three entries. The per-vertex and global counts and the
triangle-neighbor marks are assembled from those counts by the shared
`_stats_and_marks`; a neighbourhood is the int64 pairs ``(src, dst)`` of the
marked entries in both directions (`marked_pairs`). There is one public
routine per kernel. `count_triangles` is the production kernel, which the
main and PRAM routes call: the vectorized wedge check (`wedge_counts`) looks
up the closing edge of every pair of entries of one prefix by a branch-free
bisection inside the prefix that must hold it (`_prefix_search`), at most
⌈log₂(L + 1)⌉ gathers for L the longest prefix. Before the search, a one-word
signature of each prefix (bit ``w & 63`` for each member w) drops the pairs
whose closing edge cannot exist; once one block passes more than half of its
pairs the filter is switched off for the rest of the call, and graphs with
few pairs skip it. The basic route's
`hash_neighbor_pair_tri_neighbors` (`_hash_counts`) tests the same pairs,
unfiltered, against a hash table of the edges built in numpy; both run one
blocked pair loop (`_pair_counts` over `_prefix_pairs`), so their memory
stays O(m). The pure-Python merge intersection `triangle_neighbor` (over
`_merge_counts`) counts its comparisons as it runs; the PRAM route takes that
count in closed form from the prefix ends and a bisection of its own
(`merge_comparison_count`). The set-intersection variant
`hash_intersection_tri_neighbors` looks the prefixes up in dicts instead of
merging them. All four agree with the oracle on per-vertex counts, the
global count, and the triangle-neighbor relation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import radix_order, row_lists


@dataclass
class TriangleStats:
    """Per-vertex counts, the global count, and optional per-edge counts.

    ``per_edge``, set by :func:`triangle_neighbor` only, holds one count per
    packed prefix entry, so the count of triangles on edge {u,v} sits at the
    lower-ordered endpoint's prefix entry for the other. Pass it to
    :func:`edge_count_arrays` for the symmetric view.
    """

    per_vertex: np.ndarray
    total: int
    per_edge: np.ndarray | None = None


@dataclass
class MergeTally:
    """Merge-kernel work: filled by :func:`triangle_neighbor` when passed
    in, and by :func:`count_triangles` (the PRAM route's detect) without
    running the merge (:func:`merge_comparison_count`)."""

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


_KEY_SENTINEL = np.iinfo(np.int64).max  # above every packed key x * n + y


def _prefix_search(adj):
    """A lower-bound search of packed keys inside one prefix.

    Returns ``(keys, bound)``. ``keys`` holds the entry keys ``lower * n +
    higher``, which ascend, followed by L + 1 int64-max sentinels, for L the
    longest prefix. ``bound(x, needle)`` gives, for each needle in [x * n,
    (x + 1) * n], the first entry of P(x) whose key is not below it, or
    ``prefix_offsets[x + 1]`` if there is none; the needle is present iff
    ``keys`` holds it there. The search starts at ``prefix_offsets[x]`` and,
    for each power of two s <= L in descending order, steps s further where
    the key s - 1 ahead is below the needle: ⌈log₂(L + 1)⌉ rounds of one
    gather each (branch-free bisection, Khuong & Morin, ACM JEA 2017). It
    needs no test for the end of the prefix: the keys of later prefixes are
    at least (x + 1) * n, and the sentinels pad the last.
    """
    poff = adj.prefix_offsets
    longest = int(adj.prefix_len.max(initial=0))
    keys = np.full(adj.m + longest + 1, _KEY_SENTINEL, dtype=np.int64)
    head = keys[:adj.m]
    np.multiply(adj.lower, adj.n, out=head)
    head += adj.higher
    # keys[s - 1:] for each step s, so each round gathers without an offset
    ahead = [(1 << k, keys[(1 << k) - 1:]) for k in reversed(range(longest.bit_length()))]

    def bound(x, needle):
        pos = poff[x]
        for s, view in ahead:
            # in place, so pos stays int64; np.add(..., where=) took four times as long
            pos += (view[pos] < needle) * s
        return pos

    return keys, bound


def merge_comparison_count(adj, total):
    """The comparisons of :func:`_merge_counts` on ``adj``, without merging;
    ``total`` is the graph's triangle count.

    Take entry e = (v, u) with P(u), u's prefix, non-empty, and let t =
    min(last(v), last(u)) for last(x) the largest id in P(x). The merge of
    P(v) and P(u) stops at t, having stepped past every member <= t of both
    prefixes; each comparison steps one pointer and a match steps both, so e
    costs #{w in P(v) : w <= t} + #{w in P(u) : w <= t} - |P(v) ∩ P(u)|, and
    entries with P(u) empty cost 0. Each triangle is matched at exactly one
    entry, so the matches sum to ``total``. One of the two counts is a whole
    prefix length; the other is the lower bound of ``x * n + t + 1`` inside
    P(x) (:func:`_prefix_search`), less ``prefix_offsets[x]``.
    """
    n, plen, poff = adj.n, adj.prefix_len, adj.prefix_offsets
    e = np.flatnonzero(plen[adj.higher])
    v, u = adj.lower[e], adj.higher[e]
    del e
    last = np.zeros(n, dtype=np.int64)
    has = plen > 0
    last[has] = adj.higher[poff[1:][has] - 1]
    lv, lu = last[v], last[u]
    v_ends = lv <= lu
    # the prefix that ends first is counted whole, the other up to its end t
    whole = int(np.where(v_ends, plen[v], plen[u]).sum())
    x = np.where(v_ends, u, v)
    t = np.minimum(lv, lu)
    del v, u, lv, lu, v_ends
    _, bound = _prefix_search(adj)
    part = bound(x, x * n + t + 1)
    return whole + int(part.sum()) - int(poff[x].sum()) - total


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
    # entry e opens one pair with each later entry of its row, width[e] in
    # all (kept as int32 for the blocks); a block ends where the running
    # pair count passes a multiple of the block size
    running = poff[lower + 1]
    running -= np.arange(1, m + 1)
    width = running.astype(np.int32)
    np.cumsum(running, out=running)
    cuts = np.searchsorted(running, np.arange(_WEDGE_BLOCK, running[-1], _WEDGE_BLOCK),
                           side="right").tolist()
    del running
    lo = 0
    for hi in cuts + [m]:
        e = np.arange(lo, hi)
        w = width[lo:hi].astype(np.int64)
        first = np.repeat(e, w)
        # second runs over the entries after first in its row
        second = np.repeat(e + 1 + w - np.cumsum(w), w)
        second += np.arange(second.shape[0])
        yield first, second
        lo = hi


def _pair_counts(adj, find):
    """Per-entry triangle counts from every pair of entries of one prefix.

    Entries (v, a), (v, b) of one prefix, a < b by id, close a triangle iff
    {a, b} is an edge. ``find(first, second)`` takes one block of such pairs
    as arrays of their entries and returns ``(hit, at)``: an index of the
    pairs that close and, for each, the entry of its closing edge. Each
    triangle is found once, from its lowest-ordered vertex, and adds 1 at its
    three entries. The result is the int64 array of counts that
    ``_merge_counts`` writes, entry for entry. The pairs come from
    :func:`_prefix_pairs` in blocks, so memory stays O(m) however many pairs
    the graph has.
    """
    counts = np.zeros(adj.m, dtype=np.int64)
    for first, second in _prefix_pairs(adj):
        hit, at = find(first, second)
        np.add.at(counts, first[hit], 1)
        np.add.at(counts, second[hit], 1)
        np.add.at(counts, at, 1)
    return counts


# Prefix pairs below which wedge_counts searches without the filter: building
# the signatures and filtering take about twenty numpy calls, which cost more
# than they save on fewer pairs. Against the in-prefix bisection, the filter
# broke even near 3,000 pairs on sparse G(n, m) (2-core x86-64, numpy 2.4);
# half of the benchmark's small-batch graphs have fewer than 400.
_FILTER_MIN_PAIRS = 1 << 12


def _signatures(adj):
    """Each entry's one-word signature of its higher end's prefix, and the
    entry's bit position: ``(sig, shift)``.

    The signature of v is the OR of bit ``w & 63`` over the members w of P(v);
    ``sig[e]`` is that of ``higher[e]`` (uint64) and ``shift[e]`` is
    ``higher[e] & 63`` (uint8). If {a, b} is an edge, the lower-ordered of a and
    b holds the other in its prefix, so its signature holds the other's bit.
    """
    higher = adj.higher
    shift = higher.astype(np.uint8)  # wraps mod 256, so & 63 leaves the low six bits
    shift &= 63
    # entries run by lower, so each non-empty prefix is one run of the bits
    has = adj.prefix_len > 0
    bits = np.ones(adj.m, dtype=np.uint64)
    bits <<= shift
    sig = np.zeros(adj.n, dtype=np.uint64)
    sig[has] = np.bitwise_or.reduceat(bits, adj.prefix_offsets[:-1][has])
    return sig[higher], shift


def _wedge_filter(sig, shift, first, second):
    """Index of the pairs of entries (first, second) that may close: the
    signature of one end holds the other end's bit. No closed pair is left out."""
    return np.flatnonzero(((sig[first] >> shift[second]) | (sig[second] >> shift[first])) & 1)


def wedge_counts(adj):
    """Per-entry triangle counts by checking the wedges inside each prefix.

    A wedge's closing edge {a, b} is held by the lower-ordered of a and b,
    say x, as an entry of P(x), so its packed key (x * n + other) is looked
    up by a bisection inside P(x) alone (:func:`_prefix_search`), at most
    ⌈log₂(L + 1)⌉ gathers for L the longest prefix. The pair loop is
    :func:`_pair_counts`.

    Before the search, a one-word Bloom filter of each prefix
    (:func:`_signatures`, :func:`_wedge_filter`) drops most open wedges with a
    few gathers from arrays indexed by entry. The search still decides every
    pair that passes, so the counts are exact. Once the filter passes more
    than half of one block's pairs, as on triangle-dense inputs, the later
    blocks go to the search unfiltered; graphs with fewer than
    ``_FILTER_MIN_PAIRS`` pairs are searched unfiltered throughout. On the
    benchmark's sparse ``er-dirty`` graph 8.6% of the pairs pass, and the
    kernel (2-core x86-64) took 8.9 ms, against 11.9 ms without the filter.
    """
    n, rank, higher, plen = adj.n, adj.rank, adj.higher, adj.prefix_len
    keys, bound = _prefix_search(adj)
    filtering = int(plen @ (plen - 1)) // 2 >= _FILTER_MIN_PAIRS
    sig, shift = _signatures(adj) if filtering else (None, None)

    def search(first, second):
        a, b = higher[first], higher[second]
        x = np.where(rank[a] < rank[b], a, b)
        key = x * (n - 1)
        key += a
        key += b  # x * n + the other end
        at = bound(x, key)
        # a mask, not an index: on triangle-dense input most pairs that reach
        # the search close (all on ring-dense, whose wedge_counts took 5%
        # longer with an index)
        hit = keys[at] == key
        return hit, at[hit]

    def find(first, second):
        nonlocal filtering
        if not filtering:
            return search(first, second)
        keep = _wedge_filter(sig, shift, first, second)
        filtering = 2 * keep.shape[0] <= first.shape[0]
        hit, at = search(first[keep], second[keep])
        return keep[hit], at

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
    of keys. The table is the keys grouped by bucket, with each bucket's
    start offset; the bucket ids are below ``2^32``, so the grouping is at
    most two 16-bit radix passes (:func:`~tricent.graph.radix_order`).
    Returns ``(shift, starts, table_keys, order)``: bucket h holds
    ``table_keys[starts[h]:starts[h + 1]]``, and ``order`` maps a table slot
    back to the key's index.
    """
    b = keys.shape[0].bit_length()
    shift = np.uint64(64 - b)
    bucket = _hash_buckets(keys, shift)
    order = radix_order(bucket)
    starts = np.zeros((1 << b) + 1, dtype=np.int64)
    np.cumsum(np.bincount(bucket, minlength=1 << b), out=starts[1:])
    return shift, starts, keys[order], order


def _hash_find(table, needles):
    """Index of each needle among the table's keys, or -1 where it is absent.

    Each needle walks its bucket's chain; the still-unresolved needles take
    one step together per round, so a probe takes as many rounds as the
    longest chain it meets. Of a round's live needles about 30% stay live,
    and 39% (hk-rich) to 69% (ring-dense) hit, so each of those sets is made
    one index, taken from every array it selects: at such densities a
    boolean mask is several times as slow.
    """
    shift, starts, table_keys, order = table
    found = np.full(needles.shape[0], -1, dtype=np.int64)
    h = _hash_buckets(needles, shift)
    at, end = starts[h], starts[h + 1]
    live = np.flatnonzero(at < end)
    at, end = at.take(live), end.take(live)
    while live.shape[0]:
        hit = table_keys.take(at) == needles.take(live)
        i = np.flatnonzero(hit)
        found[live.take(i)] = order.take(at.take(i))
        at += 1
        # keys are distinct, so a hit ends the needle's walk
        go = np.flatnonzero(~hit & (at < end))
        live, at, end = live.take(go), at.take(go), end.take(go)
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

    def find(first, second):
        at = _hash_find(table, higher[first] * n + higher[second])
        hit = at >= 0
        return hit, at[hit]

    return _pair_counts(adj, find)


def _stats_and_marks(adj, counts):
    """Stats and marks from the kernel's per-entry triangle counts: a triangle
    at v lies on two of v's edges and on three edges in all, and an entry is a
    triangle-neighbor pair iff its count is positive. The marks are a bool
    array over the m prefix entries; ``counts`` is an int64 array."""
    e = np.flatnonzero(counts)
    v, u = adj.lower[e], adj.higher[e]
    # float sums of integer counts, exact far beyond any count a graph reaches
    w = counts[e]
    halves = (np.bincount(v, weights=w, minlength=adj.n)
              + np.bincount(u, weights=w, minlength=adj.n))
    stats = TriangleStats(per_vertex=halves.astype(np.int64) // 2,
                          total=int(counts.sum()) // 3)
    return stats, counts > 0


def count_triangles(adj, tally=None):
    """The production kernel: per-vertex and global counts and the marks from
    the per-entry counts of :func:`wedge_counts`. The stats carry no per-edge
    counts. A ``tally`` passed in gets the triangles and the comparisons that
    :func:`triangle_neighbor` would count (:func:`merge_comparison_count`)."""
    stats, marks = _stats_and_marks(adj, wedge_counts(adj))
    if tally is not None:
        tally.merge_comparisons += merge_comparison_count(adj, stats.total)
        tally.triangles += stats.total
    return stats, marks


def triangle_neighbor(adj, tally=None, per_edge=True):
    """Merge-intersect the sorted prefixes of v and u for every prefix edge.

    The kernel counts the triangles on every prefix edge; per-vertex and
    global counts, the marks and (by default) the per-edge counts are derived
    from those counts. It is the one routine whose stats carry ``per_edge``.
    """
    counts = [0] * adj.m
    poff = adj.prefix_offsets
    comparisons = _merge_counts(row_lists(adj.higher, poff), poff.tolist(), counts)
    counts = np.array(counts, dtype=np.int64)
    stats, marks = _stats_and_marks(adj, counts)
    if per_edge:
        stats.per_edge = counts
    if tally is not None:
        tally.merge_comparisons += comparisons
        tally.triangles += stats.total
    return stats, marks


def marked_pairs(adj, marks):
    """Arrays ``(src, dst)`` holding every prefix entry (v, u) that ``marks``
    selects (a bool array or an index over the entries) in both directions:
    one row per ordered pair of triangle neighbors. The rows are a relation
    in no promised order."""
    # a mask stays a mask: triangle-rich graphs mark most entries (94% on
    # hk-rich, all on ring-dense), where a mask is faster than an index
    v, u = adj.lower[marks], adj.higher[marks]
    return np.concatenate((v, u)), np.concatenate((u, v))


def hash_neighbor_pair_tri_neighbors(g, adj):
    """Hash-based detection: each pair of higher-ordered neighbors is looked up
    once in a hash table of the edges, and each triangle counts on its three
    edges (:func:`_hash_counts`).

    Returns the stats and the neighbourhood pairs of the marked entries
    (:func:`marked_pairs`). ``g`` is not read: every edge of it is a prefix
    entry of ``adj``.
    """
    stats, marks = _stats_and_marks(adj, _hash_counts(adj))
    return stats, marked_pairs(adj, marks)


def hash_intersection_tri_neighbors(adj):
    """Set-intersection variant over hashed prefixes: every entry (v, u)
    intersects the key views of v's and u's member-to-entry dicts (``&``
    probes the smaller into the larger), and each triangle counts on its
    three entries. Returns the neighbourhood pairs only (:func:`marked_pairs`)."""
    poff = adj.prefix_offsets.tolist()
    index = [dict(zip(p, range(lo, hi)))
             for p, lo, hi in zip(row_lists(adj.higher, adj.prefix_offsets), poff, poff[1:])]
    keys = [iv.keys() for iv in index]
    counts = [0] * adj.m
    for iv, kv in zip(index, keys):
        for u, e in iv.items():
            iu = index[u]
            for w in kv & keys[u]:
                counts[iv[w]] += 1  # {v,w}
                counts[iu[w]] += 1  # {u,w}
                counts[e] += 1  # {v,u}
    return marked_pairs(adj, np.array(counts) > 0)


BRUTE_FORCE_LIMIT = 256  # the all-triple oracle refuses more vertices


def brute_force_triangles(g):
    """Exhaustive all-triple oracle; refuses graphs above the size guard.

    Returns the stats and the neighbourhood as ``(src, dst)`` int64 arrays,
    in ascending ``(src, dst)`` order, from the oracle's own sets."""
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
    src = np.array([v for v, s in enumerate(tri_nbrs) for _ in s], dtype=np.int64)
    dst = np.array([u for s in tri_nbrs for u in sorted(s)], dtype=np.int64)
    return stats, (src, dst)


def edge_count_arrays(adj, counts):
    """Symmetric per-edge triangle counts as ``(rows, cols, counts)`` int64
    arrays, both orientations of every edge in at least one triangle, from a
    kernel's per-entry ``counts``."""
    e = np.flatnonzero(counts)
    c = counts[e]
    return *marked_pairs(adj, e), np.concatenate((c, c))
