"""Core graph representation, edge-list ingest and degree ordering.

Graphs are simple, undirected, and immutable after construction, stored in
compressed adjacency form (offsets + neighbor array, each undirected edge in
both directions). External labels may be ints or strings; internally vertices
are dense 0-based ids assigned in sorted label order, so label order and
internal id order always agree.

Edge-list text is tokenized and coded in numpy over its UTF-8 bytes (see
``_code_tokens``): Python creates one object per distinct label, not one per
token. ``build_graph`` codes Python labels with a dict; both routes share the
CSR step, ``_graph_from_ids``.

Ingest keeps its per-token arrays narrow and short-lived: token starts,
lengths and coded ids are int32 (int64 only for inputs of 2**31 bytes or
more), the packed arc keys of the CSR step are int64 (``n * n`` can pass
2**31), and each per-token temporary is dropped as soon as it has been used.
A Graph's ``offsets`` and ``neighbors`` are int64 whatever the ingest widths.
"""

import re
import sys

import numpy as np

from .errors import ConsistencyError, InputError


class Graph:
    """Immutable compressed-adjacency graph. Rows are sorted by internal id."""

    __slots__ = ("n", "m", "offsets", "neighbors", "degrees", "labels", "_index")

    def __init__(self, n, m, offsets, neighbors, labels):
        self.n = n
        self.m = m
        self.offsets = offsets
        self.neighbors = neighbors
        self.degrees = np.diff(offsets)
        self.labels = labels
        self._index = None  # label -> id, built on the first id_of call

    def neighbors_of(self, v):
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def id_of(self, label):
        if self._index is None:
            self._index = {lab: i for i, lab in enumerate(self.labels)}
        return self._index[label]

    def label_of(self, v):
        return self.labels[v]

    def _edge_ends(self):
        """Arrays ``(u, v)`` of every undirected edge once, u < v, by (u, v)."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        upper = rows < self.neighbors
        return rows[upper], self.neighbors[upper]

    def edges(self):
        """Each undirected edge once as an (u, v) internal-id pair, u < v."""
        return zip(*(a.tolist() for a in self._edge_ends()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# str.split()'s ASCII whitespace is \t \n \v \f \r, \x1c-\x1f and the space.
# Once any non-ASCII whitespace is replaced by a space, a byte of the UTF-8
# text is in a token iff this table maps it to 1.
_IN_TOKEN = bytes(0 if b in b"\t\n\v\f\r\x1c\x1d\x1e\x1f " else 1 for b in range(256))
_COMMENT = re.compile(r"^[^\S\n]*+#.*", re.MULTILINE)
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")
# tokens longer than this many 8-byte words are coded in Python instead:
# the key matrix holds that many words for every token
_MAX_KEY_WORDS = 8
# _KEEP[k, L] masks word k of a token of L bytes to the bytes of the token
_KEEP = np.array([[(1 << 64) - (1 << (64 - 8 * min(max(length - 8 * k, 0), 8)))
                   for length in range(8 * _MAX_KEY_WORDS + 1)]
                  for k in range(_MAX_KEY_WORDS)], dtype=np.uint64)


def _index_dtype(size):
    """int32 when every index below ``size`` fits in it, else int64."""
    return np.int32 if size < 2 ** 31 else np.int64


def _changes(a, before):
    """Where ``a`` differs from its previous element (``before`` for the first)."""
    out = np.empty(a.shape[0], dtype=bool)
    out[:1] = a[:1] != before
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def _raise_bad_line(text, source):
    """Raise InputError for the first line that is neither blank nor two
    tokens. Every caller has found tokens that do not pair up by line, so
    finding no such line is an internal fault: ConsistencyError."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if tokens and len(tokens) != 2:
            raise InputError(f"{source}:{lineno}: expected two tokens, "
                             f"got {len(tokens)}: {line.strip()!r}")
    raise ConsistencyError(f"{source}: the tokens do not pair up by line, "
                           "yet no line holds other than two tokens")


def _code_labels(ends):
    """Sorted distinct labels of ``ends`` and each end's index among them."""
    try:
        labels = sorted(set(ends))
    except TypeError as exc:
        raise InputError("edge labels must be mutually comparable "
                         "(all ints or all strings)") from exc
    index = dict(zip(labels, range(len(labels))))
    return labels, np.fromiter(map(index.__getitem__, ends),
                               dtype=_index_dtype(len(ends)), count=len(ends))


def _code_tokens(text, source):
    """Sorted distinct tokens of an edge-list text and each token's index
    among them, in text order.

    Every per-token step runs in numpy over the UTF-8 bytes; Python sees
    only the distinct tokens. A token is keyed by its bytes, read as
    big-endian 8-byte words with the bytes past its end masked to zero,
    plus its length when the text holds a NUL (without one, every zero
    byte of a key is masking). UTF-8 byte order is code point order, so the keys sort
    tokens as ``sorted()`` sorts strings. Tokens over ``8 * _MAX_KEY_WORDS``
    bytes are coded in Python.

    Token starts, lengths and the returned ids are int32, or int64 when the
    padded bytes reach 2**31; the key words are uint64. Each per-token
    temporary is dropped as soon as it has been used, so that the text, its
    bytes and a few narrow arrays make the peak.
    """
    spaced = text if text.isascii() else _WIDE_SPACE.sub(" ", text)
    # padded with spaces, so that every word read at a token start is in
    # bounds and the byte after every token is whitespace
    # encoded first: padding the str would copy it at up to 4 bytes a character
    data = spaced.encode("utf-8", "surrogatepass") + b" " * (8 * _MAX_KEY_WORDS)
    del spaced
    index = _index_dtype(len(data))
    raw = np.frombuffer(data, dtype=np.uint8)
    # tokens start and end where the in-token flag flips (from out of token
    # before byte 0), so the flips alternate start, end, start, end, ...
    flips = _changes(np.frombuffer(data.translate(_IN_TOKEN), dtype=bool), False)
    bounds = np.flatnonzero(flips)
    del flips
    if bounds.shape[0] == 0:
        return [], np.zeros(0, dtype=index)
    # every non-blank line holds two tokens: no newline in the gap after the
    # first token of a pair, one in the gap after the second (but the last)
    gaps = np.logical_or.reduceat(raw == 10, bounds)[1::2]
    if gaps.shape[0] % 2 or gaps[0::2].any() or not gaps[1:-1:2].all():
        _raise_bad_line(text, source)
    del gaps
    starts = bounds[0::2].astype(index)
    length = bounds[1::2].astype(index)
    del bounds
    length -= starts
    words = -(-int(length.max()) // 8)
    if words > _MAX_KEY_WORDS:
        return _code_labels(text.split())
    big = np.ndarray((raw.shape[0] - 7,), dtype=">u8", buffer=data, strides=(1,))
    keys = []
    for k in range(words):
        key = big[starts + 8 * k].astype(np.uint64)
        key &= _KEEP[k, length]
        keys.append(key)
    if "\0" in text:
        keys.append(length)
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    first = np.zeros(order.shape[0], dtype=bool)  # first of a distinct token, sorted
    first[0] = True
    while keys:
        key = keys.pop()[order]
        first[1:] |= key[1:] != key[:-1]
    del key
    ids = np.empty(order.shape[0], dtype=index)
    ids[order] = np.cumsum(first, dtype=index)
    ids -= 1
    at = order[first]
    del order, first
    # the distinct tokens, each with the whitespace byte after it, in one decode:
    # the byte index climbs by one inside a token and jumps to the next start
    size = length[at] + 1
    step = np.ones(size.sum(), dtype=np.int64)
    step[0] = starts[at[0]]
    step[np.cumsum(size[:-1])] = starts[at[1:]] - starts[at[:-1]] - length[at[:-1]]
    distinct = raw[np.cumsum(step)].tobytes().decode("utf-8", "surrogatepass")
    return distinct.split(), ids


def _code_text(text, source):
    """Labels and endpoint ids of an edge-list text: ``(labels, ids)``, with
    ``ids`` flat as ``[a1, b1, a2, b2, ...]``.

    One leading byte-order mark (U+FEFF) is dropped; any other stays part of
    its token. Comment lines (first non-blank character ``#``) and blank
    lines are ignored. The labels are ints when ``int()`` accepts every token
    (tokens of one value, such as ``007`` and ``7``, are one label), and
    strings otherwise.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    if "#" in text:
        text = _COMMENT.sub("", text)  # blanks each comment line, keeping line numbers
    distinct, ids = _code_tokens(text, source)
    try:
        values = list(map(int, distinct))
    except ValueError:
        return tuple(distinct), ids
    labels, remap = _code_labels(values)
    return tuple(labels), remap[ids]


def _graph_from_ids(labels, ids):
    """Graph from sorted distinct labels and flat endpoint ids of any integer
    width. The ids are widened to int64 only in the packed arc keys, since
    ``n * n`` can pass 2**31; the Graph's arrays are int64."""
    n = len(labels)
    a, b = ids[0::2], ids[1::2]
    keep = a != b
    a, b = a[keep], b[keep]
    # both orientations of every edge as packed (row, neighbor) keys, sorted
    # in place (rows by id, each row by neighbor id) and without duplicates;
    # a sort and a mask, since np.unique may hash first and is several times slower
    half = a.shape[0]
    arcs = np.concatenate((a, b), dtype=np.int64)
    arcs *= n
    arcs[:half] += b
    arcs[half:] += a
    del a, b
    arcs.sort()
    arcs = arcs[_changes(arcs, -1)]
    rows, neighbors = np.divmod(arcs, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return Graph(n, arcs.shape[0] // 2, offsets, neighbors, tuple(labels))


def build_graph(edge_list):
    """Build a simple undirected Graph from a possibly dirty edge list.

    Duplicate edges and both orientations collapse, self-loops are dropped,
    labels are densely re-mapped preserving their sort order. An empty edge
    list yields the empty graph.
    """
    return _graph_from_ids(*_code_labels([x for a, b in edge_list for x in (a, b)]))


def parse_edge_list(fh, source="<input>"):
    """Parse the edge-list text of the open text stream ``fh`` into a list of
    label pairs: two whitespace-separated tokens per line.

    Lines starting with ``#`` and blank lines are ignored. Integer tokens are
    used as int labels when every token in the input is integral; otherwise
    all labels stay strings.
    """
    labels, ids = _code_text(fh.read(), source)
    ends = np.array(labels, dtype=object)[ids]
    return list(zip(ends[0::2].tolist(), ends[1::2].tolist()))


def _read_text(path_or_file, source):
    """The whole text of a path, '-' for stdin, or an open file; input that is
    not UTF-8 raises OSError naming ``source``."""
    try:
        if hasattr(path_or_file, "read"):
            return path_or_file.read()
        if path_or_file != "-":
            with open(path_or_file, encoding="utf-8") as fh:
                return fh.read()
        if hasattr(sys.stdin, "buffer"):
            # decoded here, not by sys.stdin, whose error handler may pass
            # any byte through; newlines translated as in text mode
            text = sys.stdin.buffer.read().decode("utf-8")
            return text.replace("\r\n", "\n").replace("\r", "\n")
        return sys.stdin.read()  # stdin replaced by a text stream
    except UnicodeDecodeError as exc:
        raise OSError(f"{source}: not UTF-8 text: {exc}") from exc


def load_edge_list(path_or_file):
    """Read an edge-list file (path, '-' for stdin, or open file) into a Graph.

    Input that is not UTF-8 raises OSError naming the source.
    """
    if hasattr(path_or_file, "read"):
        source = getattr(path_or_file, "name", "<stream>")
    else:
        source = "<stdin>" if path_or_file == "-" else str(path_or_file)
    # the text is passed as a temporary, so _code_text holds its only
    # reference and frees it when blanking comments makes a new copy
    return _graph_from_ids(*_code_text(_read_text(path_or_file, source), source))


def dump_edge_list(g, file):
    """Write one `label label` line per undirected edge, in one write."""
    text = list(map(str, g.labels))
    heads = np.array([f"{label} " for label in text], dtype=object)
    tails = np.array([f"{label}\n" for label in text], dtype=object)
    u, v = g._edge_ends()
    # object gathers copy references, not strings, and make no int per edge
    words = np.empty(2 * g.m, dtype=object)
    words[0::2] = heads[u]
    words[1::2] = tails[v]
    file.write("".join(words.tolist()))


def row_lists(flat, offsets):
    """The rows of a compressed array pair as plain lists: row v is
    ``flat[offsets[v]:offsets[v + 1]]``. Plain ints index faster than numpy
    scalars in per-element loops."""
    flat, offsets = flat.tolist(), offsets.tolist()
    return [flat[a:b] for a, b in zip(offsets, offsets[1:])]


def degree_order(g):
    """Degree ordering as an int64 rank array: ``rank[v]`` is v's position
    in the order by ascending (degree, label); deterministic."""
    # internal ids are already in label-sorted order, so a stable sort on
    # degree alone realizes the (degree, label) tiebreak
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(g.n, dtype=np.int64)
    return rank


class OrderedAdjacency:
    """Every edge once, as a packed prefix entry oriented up the order.

    Entry e is the edge (``lower[e]``, ``higher[e]``), with ``higher[e]``
    ranked above ``lower[e]``. Entries run by ``lower``, so v's prefix (its
    neighbors ranked above v) is ``higher[prefix_offsets[v] :
    prefix_offsets[v + 1]]``, ``prefix_len[v]`` entries sorted ascending by
    internal id; the m entries index the per-entry counts and mark arrays.
    """

    __slots__ = ("n", "m", "lower", "higher", "prefix_len", "prefix_offsets", "rank")

    def __init__(self, g, lower, higher, rank):
        self.n = g.n
        self.m = g.m
        self.lower = lower
        self.higher = higher
        self.prefix_len = np.bincount(lower, minlength=g.n)
        self.prefix_offsets = np.zeros(g.n + 1, dtype=np.int64)
        np.cumsum(self.prefix_len, out=self.prefix_offsets[1:])
        self.rank = rank


def build_abbreviated_adjacency(g, rank):
    """Orient every edge of ``g`` toward its endpoint ranked higher in
    ``rank`` (from :func:`degree_order`).

    The graph's arcs (v, u) run by v and each row ascends by id, so the arcs
    with u ranked above v are exactly the packed prefixes, in entry order.
    """
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    up = rank[g.neighbors] > rank[src]
    return OrderedAdjacency(g, src[up], g.neighbors[up], rank)


def ordered_adjacency(g):
    """The order step of every triangle route: ``g`` oriented up its
    degree order."""
    return build_abbreviated_adjacency(g, degree_order(g))
