"""Core graph representation, edge-list ingest and degree ordering.

Graphs are simple, undirected, and immutable after construction, stored in
compressed adjacency form (offsets + neighbor array, each undirected edge in
both directions). External labels may be ints or strings; internally vertices
are dense 0-based ids assigned in sorted label order, so label order and
internal id order always agree.

An edge list is read as bytes into one bytearray padded with spaces
(``_read_data``), with newlines translated as text mode does; input that is
not ASCII is only checked to be UTF-8. Every later rule works on the token
bounds of ``_token_bounds``: the tokens of a line whose first token starts
with ``#`` are dropped, and the rest must pair up by line. Tokens of 1 to 8
ASCII digits are parsed in numpy (``digits.parse_digits``); others go to
the key sort (``_code_tokens``), and Python decodes and ``int()``-parses
only the distinct ones. Keys and integer values are coded by one sort
(``_sort_code``), or by a presence table when the values span fewer
integers than there are values. Integer labels that fit int64 stay one
int64 array (``Graph.label_array``) to the output. ``build_graph`` codes
Python labels with a dict; both share the CSR step, ``_graph_from_ids``.

Ingest keeps its per-token arrays narrow and short-lived: token starts,
lengths and coded ids are int32 (int64 only for inputs of 2**31 bytes or
more), the packed arc keys of the CSR step are int64 (``n * n`` can pass
2**31), and each per-token temporary is dropped as soon as it has been used.
A Graph's ``offsets`` and ``neighbors`` are int64 whatever the ingest widths.
"""

import os
import re
import sys

import numpy as np

from .digits import parse_digits
from .errors import ConsistencyError, InputError


class Graph:
    """Immutable compressed-adjacency graph. Rows are sorted by internal id.

    ``labels`` is the tuple of labels by id. Integer labels that the byte
    reader found to fit int64 are held as the sorted int64 array
    ``label_array`` instead, and the tuple is built from it on first access;
    ``label_array`` is None for any other labels.
    """

    __slots__ = ("n", "m", "offsets", "neighbors", "degrees", "label_array", "_labels",
                 "_index")

    def __init__(self, n, m, offsets, neighbors, labels):
        self.n = n
        self.m = m
        self.offsets = offsets
        self.neighbors = neighbors
        self.degrees = np.diff(offsets)
        if isinstance(labels, np.ndarray):
            self.label_array, self._labels = labels, None
        else:
            self.label_array, self._labels = None, tuple(labels)
        self._index = None  # label -> id, built on the first id_of call

    @property
    def labels(self):
        if self._labels is None:
            self._labels = tuple(self.label_array.tolist())
        return self._labels

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
        # half of the arcs: one index taken twice, not a mask applied twice
        upper = np.flatnonzero(rows < self.neighbors)
        return rows.take(upper), self.neighbors.take(upper)

    def edges(self):
        """Each undirected edge once as an (u, v) internal-id pair, u < v."""
        return zip(*(a.tolist() for a in self._edge_ends()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# str.split()'s ASCII whitespace is \t \n \v \f \r, \x1c-\x1f and the space.
# In a copy of the UTF-8 with each wide space below made as many spaces as it
# has bytes, a byte is in a token iff this table maps it to 1.
_IN_TOKEN = bytes(0 if b in b"\t\n\v\f\r\x1c\x1d\x1e\x1f " else 1 for b in range(256))
# The UTF-8 of the 19 non-ASCII characters that str.isspace() accepts, 2 or 3
# bytes each. Their lead bytes (C2, E1-E3) are never inside a character of valid
# UTF-8 or of surrogatepass output, so each match of them is one character.
_WIDE_SPACES = tuple(chr(c).encode() for c in (0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
                                               0x2028, 0x2029, 0x202F, 0x205F, 0x3000))
_WIDE_SUBS = [(re.compile(b"|".join(s for s in _WIDE_SPACES if len(s) == k)), b" " * k)
              for k in (2, 3)]  # a pattern per width, not a Python call per match
# tokens longer than this many 8-byte words are coded in Python instead:
# the key matrix holds that many words for every token
_MAX_KEY_WORDS = 8
# _KEEP[k, L] masks word k of a token of L bytes to the bytes of the token
_KEEP = np.array([[(1 << 64) - (1 << (64 - 8 * min(max(length - 8 * k, 0), 8)))
                   for length in range(8 * _MAX_KEY_WORDS + 1)]
                  for k in range(_MAX_KEY_WORDS)], dtype=np.uint64)
# the spaces after the data, so that every word read at a token start is in
# bounds and the byte after every token is whitespace
_PADDING = b" " * (8 * _MAX_KEY_WORDS)


def _index_dtype(size):
    """int32 when every index below ``size`` fits in it, else int64."""
    return np.int32 if size < 2 ** 31 else np.int64


def _changes(a, before):
    """Where ``a`` differs from its previous element (``before`` for the first)."""
    out = np.empty(a.shape[0], dtype=bool)
    out[:1] = a[:1] != before
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def _raise_bad_line(data, source):
    """Raise InputError for the first line of the UTF-8 ``data`` that is
    neither blank nor two tokens, skipping comment lines. Every caller has
    found tokens that do not pair up by line, so finding no such line is an
    internal fault: ConsistencyError."""
    for lineno, line in enumerate(data.decode("utf-8", "surrogatepass").split("\n"), start=1):
        tokens = line.split()
        if tokens and len(tokens) != 2 and not tokens[0].startswith("#"):
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


def _line_heads(raw, starts, length):
    """Whether each token at ``starts`` (of ``length`` bytes) of the padded
    bytes ``raw`` opens a line: the first does, and any after a newline."""
    head = np.ones(starts.shape[0], dtype=bool)
    end = starts[:-1] + length[:-1]
    newline = head[1:]  # a view: the flags after the first are written into head
    np.equal(raw[end], 10, out=newline)  # the gap's first byte, all of a one-byte gap
    # only wider gaps that open with other whitespace are searched
    wide = starts[1:] - end > 1
    wide &= ~newline
    wide = np.flatnonzero(wide)
    if wide.shape[0]:
        spans = np.stack((end[wide], starts[wide + 1]), axis=1).ravel()
        newline[wide] = np.logical_or.reduceat(raw == 10, spans)[0::2]
    return head


def _token_bounds(data, source):
    """Starts and lengths (int32, or int64 when the padded bytes reach
    2**31) of the tokens of padded edge-list data but those of comment
    lines, checked to pair up by line: InputError names the first line that
    does not. Wide spaces are spaces in a copy only."""
    index = _index_dtype(len(data))
    # tokens start and end where the in-token flag flips (from out of token
    # before byte 0), so the flips alternate start, end, start, end, ...
    spaced = data
    if not data.isascii():
        for wide, spaces in _WIDE_SUBS:
            spaced = wide.sub(spaces, spaced)
    flips = _changes(np.frombuffer(spaced.translate(_IN_TOKEN), dtype=bool), False)
    del spaced
    bounds = np.flatnonzero(flips)
    del flips
    starts = bounds[0::2].astype(index)
    length = bounds[1::2].astype(index)
    del bounds
    length -= starts
    raw = np.frombuffer(data, dtype=np.uint8)
    head = _line_heads(raw, starts, length)
    if b"#" in data:
        heads = np.flatnonzero(head)
        comment = raw[starts[heads]] == 35  # by line: its first token opens with "#"
        if comment.any():
            keep = np.repeat(~comment, np.diff(heads, append=head.shape[0]))
            starts, length, head = starts[keep], length[keep], head[keep]
    # a line of two tokens opens at every even token and at no odd one
    if head.shape[0] % 2 or not head[0::2].all() or head[1::2].any():
        _raise_bad_line(data, source)
    return starts, length


def _sort_code(keys, index):
    """``(at, ids)`` of the list ``keys`` of non-empty arrays, most
    significant first, popped as used: ``ids[i]`` is the index of key i
    among the distinct keys in sorted order, ``at`` a position of each
    distinct key in that order; both of dtype ``index``."""
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    order = order.astype(index, copy=False)  # held through every gather below
    first = np.zeros(order.shape[0], dtype=bool)  # first of a distinct key, sorted
    first[0] = True
    while keys:
        key = keys.pop()[order]
        first[1:] |= key[1:] != key[:-1]
    del key
    rank = first.astype(index)
    np.cumsum(rank, out=rank)  # in place: cumsum(first, dtype=) also makes a cast copy
    rank -= 1
    ids = np.empty(order.shape[0], dtype=index)
    ids[order] = rank
    return order[first], ids


def _code_values(values):
    """Sorted distinct labels of the int64 array ``values``, which it
    overwrites, and each value's index among them."""
    index = _index_dtype(values.shape[0])
    low, high = int(values.min()), int(values.max())
    if high - low >= values.shape[0]:
        at, ids = _sort_code([values], index)
        return values[at], ids
    values -= low
    present = np.zeros(high - low + 1, dtype=bool)
    present[values] = True
    ids = np.cumsum(present, dtype=index)[values]
    ids -= 1
    return np.flatnonzero(present) + low, ids


def _token_strings(data, starts, length):
    """The tokens of padded edge-list data at ``starts`` (of ``length``
    bytes) as a list of str, gathered 4,096 at a time with a space in place
    of the byte after each (which may open a wide space)."""
    raw = np.frombuffer(data, dtype=np.uint8)
    strings = []
    for first in range(0, starts.shape[0], 4096):  # bounds the gather's indices
        block = slice(first, first + 4096)
        size = length[block] + 1
        ends = np.cumsum(size, dtype=starts.dtype)
        at = np.repeat(starts[block] - (ends - size), size)
        at += np.arange(ends[-1], dtype=starts.dtype)
        chars = raw.take(at)  # faster than raw[at] with int32 indices
        chars[ends - 1] = 32
        strings += chars.tobytes().decode("utf-8", "surrogatepass").split(" ")[:-1]
    return strings


def _code_tokens(data, starts, length):
    """Sorted distinct tokens of padded edge-list data and each token's
    index among them, in data order, from the (non-empty) bounds of
    ``_token_bounds``.

    Python sees only the distinct tokens. A token is keyed by its bytes,
    read as big-endian 8-byte words with the bytes past its end masked to
    zero, plus its length when the data holds a NUL (without one, every
    zero byte of a key is masking). UTF-8 byte order is code point order, so
    the keys sort tokens as ``sorted()`` sorts strings; over ``8 *
    _MAX_KEY_WORDS`` bytes, all tokens are decoded and coded in Python. The
    ids are the width of ``starts``; each temporary is dropped once used."""
    words = -(-int(length.max()) // 8)
    if words > _MAX_KEY_WORDS:
        return _code_labels(_token_strings(data, starts, length))
    big = np.ndarray((len(data) - 7,), dtype=">u8", buffer=data, strides=(1,))
    keys = []
    for k in range(words):
        keys.append(big[starts + 8 * k].astype(np.uint64))
        keys[-1] &= _KEEP[k, length]
    if b"\0" in data:
        keys.append(length)
    at, ids = _sort_code(keys, starts.dtype)
    return _token_strings(data, starts[at], length[at]), ids


def _code_text(data, source):
    """Labels and endpoint ids of padded edge-list data (see ``_read_data``):
    ``(labels, ids)``, with ``ids`` flat as ``[a1, b1, a2, b2, ...]``.

    Comment lines (first non-blank character ``#``) and blank lines are
    ignored. The labels are ints when ``int()`` accepts every token (tokens
    of one value, such as ``007`` and ``7``, are one label), as a sorted
    int64 array when they fit it, and strings otherwise.
    """
    starts, length = _token_bounds(data, source)
    if not starts.shape[0]:
        return np.zeros(0, dtype=np.int64), starts
    values = parse_digits(data, starts, length)
    if values is not None:
        return _code_values(values)
    distinct, ids = _code_tokens(data, starts, length)
    del starts, length
    try:
        values = list(map(int, distinct))
    except ValueError:  # a token that int() rejects: string labels
        return tuple(distinct), ids
    try:
        labels, remap = _code_values(np.array(values, dtype=np.int64))
    except OverflowError:  # a value past int64
        labels, remap = _code_labels(values)
    return labels, remap[ids]


def _graph_from_ids(labels, ids):
    """Graph from sorted distinct labels (a sequence, or an int64 array kept
    as the Graph's ``label_array``) and flat endpoint ids of any integer
    width. The ids are widened to int64 only in the packed arc keys, since
    ``n * n`` can pass 2**31; the Graph's arrays are int64."""
    n = len(labels)
    a, b = ids[0::2], ids[1::2]
    keep = a != b  # a dense mask: self-loops are few, and a mask beats an index there
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
    first = _changes(arcs, -1)
    if not first.all():  # an edge list with one line per edge repeats no arc
        # listed both ways, about half of the arcs repeat; at that density
        # compress is several times as fast as a mask
        arcs = arcs.compress(first)
    del first
    rows, neighbors = np.divmod(arcs, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    if isinstance(labels, np.ndarray):
        # made while ingest's temporaries filled the heap, the kept labels
        # would split the space those free, and the route's largest arrays
        # would grow the heap instead (+7.7 MB of peak RSS at n = 10**5,
        # glibc); copied now, they sit beside the graph's other arrays
        labels = labels.copy()
    return Graph(n, arcs.shape[0] // 2, offsets, neighbors, labels)


def build_graph(edge_list):
    """Build a simple undirected Graph from a possibly dirty edge list.

    Duplicate edges and both orientations collapse, self-loops are dropped,
    labels are densely re-mapped preserving their sort order. An empty edge
    list yields the empty graph.
    """
    return _graph_from_ids(*_code_labels([x for a, b in edge_list for x in (a, b)]))


def parse_edge_list(fh, source="<input>"):
    """Parse the edge-list text of the open file ``fh`` (text or binary,
    read as :func:`load_edge_list` reads it) into a list of label pairs:
    two whitespace-separated tokens per line.

    Lines starting with ``#`` and blank lines are ignored. Integer tokens are
    used as int labels when every token in the input is integral; otherwise
    all labels stay strings.
    """
    labels, ids = _code_text(_read_data(fh, source), source)
    ends = np.array(labels, dtype=object)[ids]
    return list(zip(ends[0::2].tolist(), ends[1::2].tolist()))


def _read_padded(fh):
    """Every byte left in the binary file ``fh``, in a bytearray followed by
    ``_PADDING``. The bytes are read in place into a buffer of the file's
    size; what that read leaves (a pipe has no size, a file may grow) is
    read after it and inserted before the padding."""
    size = os.fstat(fh.fileno()).st_size
    data = bytearray(size + len(_PADDING))
    data[size:] = _PADDING
    got = fh.readinto(memoryview(data)[:size]) if size else 0
    data[got:size] = fh.read()
    return data


def _read_data(path_or_file, source):
    """The UTF-8 of a path, '-' for stdin, or an open text or binary file, in
    a bytearray followed by ``_PADDING``, with one leading byte-order mark
    (U+FEFF) dropped; any other byte-order mark stays part of its token.

    Bytes are read as text mode reads them: strictly as UTF-8, else OSError
    naming ``source``, and with ``\\r\\n`` and a lone ``\\r`` made ``\\n``; a
    text stream has done both itself. Bytes that are not ASCII are only
    checked: the str made to check them is dropped at once.
    """
    if path_or_file == "-":
        # read as bytes, not by sys.stdin, whose error handler may pass any byte through
        path_or_file = getattr(sys.stdin, "buffer", sys.stdin)
    checked = False  # a text stream has checked its bytes and translated newlines
    try:
        if not hasattr(path_or_file, "read"):
            with open(path_or_file, "rb") as fh:
                data = _read_padded(fh)
        else:
            data = path_or_file.read()
            checked = isinstance(data, str)
            data = bytearray(data.encode("utf-8", "surrogatepass") if checked else data)
            data += _PADDING
        if not checked and not data.isascii():
            # checked before the newlines are translated, so that an error
            # names the position in the file, as text mode does
            str(memoryview(data)[:-len(_PADDING)], "utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{source}: not UTF-8 text: {exc}") from exc
    if not checked and b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data.startswith(b"\xef\xbb\xbf"):
        del data[:3]
    return data


def load_edge_list(path_or_file):
    """Read an edge-list file (path, '-' for stdin, or open text or binary
    file) into a Graph.

    Input that is not UTF-8 raises OSError naming the source.
    """
    if hasattr(path_or_file, "read"):
        source = getattr(path_or_file, "name", "<stream>")
    else:
        source = "<stdin>" if path_or_file == "-" else str(path_or_file)
    return _graph_from_ids(*_code_text(_read_data(path_or_file, source), source))


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


def radix_order(keys):
    """Stable argsort of non-negative integer keys (any integer dtype), in
    O(len(keys)) per 16 bits of the largest key.

    numpy sorts keys of 16 bits or fewer stably by an LSD radix sort, so the
    keys are sorted one 16-bit digit at a time, lowest first; each stable
    pass keeps the order of the digits below it. A degree or a bucket id
    below 2**32 takes at most two passes.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the low digit: astype wraps
    for shift in range(16, int(keys.max(initial=0)).bit_length(), 16):
        digit = keys[order]
        digit >>= shift
        order = order[np.argsort(digit.astype(np.uint16), kind="stable")]
    return order


def degree_order(g):
    """Degree ordering as an int64 rank array: ``rank[v]`` is v's position
    in the order by ascending (degree, label); deterministic.

    Internal ids are already in label-sorted order, so a stable sort on
    degree alone realizes the (degree, label) tiebreak. The sort is
    :func:`radix_order`'s, O(n) for any degree below 2**32.
    """
    rank = np.empty(g.n, dtype=np.int64)
    rank[radix_order(g.degrees)] = np.arange(g.n, dtype=np.int64)
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
    They are m of the 2m arcs, so they are selected by one index of them,
    taken from both arc arrays: at that density a boolean mask is several
    times as slow. Each arc's row rank is repeated from ``rank``, not
    gathered, and the rows are made after the test: the step's traced peak
    is about 36 bytes an edge (52 with masks over gathered rows). O(n + m)
    with :func:`degree_order`.
    """
    up = np.flatnonzero(rank[g.neighbors] > np.repeat(rank, g.degrees))
    lower = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees).take(up)
    return OrderedAdjacency(g, lower, g.neighbors.take(up), rank)


def ordered_adjacency(g):
    """The order step of every triangle route: ``g`` oriented up its
    degree order."""
    return build_abbreviated_adjacency(g, degree_order(g))
