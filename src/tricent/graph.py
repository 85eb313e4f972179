"""Core graph representation, edge-list ingest and degree ordering.

Graphs are simple, undirected, and immutable after construction, stored in
compressed adjacency form (offsets + neighbor array, each undirected edge in
both directions). External labels may be ints or strings; internally vertices
are dense 0-based ids assigned in sorted label order, so label order and
internal id order always agree.

An edge list is read as bytes into one bytearray padded with spaces
(``_read_data``), with newlines translated as text mode does; only input that
is not ASCII is decoded, once, and encoded back. Comment lines are blanked in
that buffer, and it is tokenized and coded in numpy. When every token is 1
to 8 ASCII digits (``digits.code_digits``), each is parsed from one 8-byte word
(SWAR) and, when their range is below the token count, the values are
coded with a presence table; Python creates no object per label. Any other
token, or values spread wider, send the data to the key sort
(``_code_tokens``), where Python creates one object per distinct token and
``int()``-parses those. Integer labels that fit int64 stay one int64 array
(``Graph.label_array``) from either route to the output. ``build_graph`` codes
Python labels with a dict; both routes share the CSR step, ``_graph_from_ids``.

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

from .digits import code_digits
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
# a line of that whitespace but the newline, then "#"; a bytes \s lacks \x1c-\x1f
_COMMENT = re.compile(rb"^[\t\v\f\r\x1c-\x1f ]*+#.*", re.MULTILINE)
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")
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


def _raise_bad_line(text, source):
    """Raise InputError for the first line that is neither blank nor two
    tokens, skipping comment lines. Every caller has found tokens that do
    not pair up by line, so finding no such line is an internal fault:
    ConsistencyError."""
    for lineno, line in enumerate(text.split("\n"), start=1):
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


def _pairs_by_line(raw, starts, length):
    """Whether the tokens at ``starts`` (of ``length`` bytes) of the padded
    bytes ``raw`` pair up by line: no newline in the gap after the first
    token of a pair, one in the gap after the second (but the last)."""
    if starts.shape[0] % 2:
        return False
    end = starts + length
    newline = raw[end] == 10  # the gap's first byte, all of a one-byte gap
    # only wider gaps that open with other whitespace are searched
    wide = starts[1:] - end[:-1] > 1
    wide &= ~newline[:-1]
    wide = np.flatnonzero(wide)
    if wide.shape[0]:
        spans = np.stack((end[wide], starts[wide + 1]), axis=1).ravel()
        newline[wide] = np.logical_or.reduceat(raw == 10, spans)[0::2]
    return not newline[0::2].any() and newline[1:-1:2].all()


def _token_bounds(data, text, source):
    """Starts and lengths of the tokens of padded edge-list data (see
    ``_read_data`` for ``text``), checked to pair up by line: InputError
    naming the first line that does not. Comment lines (first non-blank
    character ``#``) are blanked in ``data`` first, keeping line numbers.

    Both arrays are int32, or int64 when the padded bytes reach 2**31.
    """
    if b"#" in data:
        # written back into ``data``, so that the text is held once
        body = len(data) - len(_PADDING)
        data[:body] = _COMMENT.sub(b"", memoryview(data)[:body])
    index = _index_dtype(len(data))
    # tokens start and end where the in-token flag flips (from out of token
    # before byte 0), so the flips alternate start, end, start, end, ...
    flips = _changes(np.frombuffer(data.translate(_IN_TOKEN), dtype=bool), False)
    bounds = np.flatnonzero(flips)
    del flips
    starts = bounds[0::2].astype(index)
    length = bounds[1::2].astype(index)
    del bounds
    length -= starts
    if not _pairs_by_line(np.frombuffer(data, dtype=np.uint8), starts, length):
        _raise_bad_line(text or data.decode("utf-8", "surrogatepass"), source)
    return starts, length


def _code_tokens(data, starts, length):
    """Sorted distinct tokens of padded edge-list data and each token's
    index among them, in data order, from the bounds of ``_token_bounds``.

    Every per-token step runs in numpy over the UTF-8 bytes; Python sees
    only the distinct tokens. A token is keyed by its bytes, read as
    big-endian 8-byte words with the bytes past its end masked to zero,
    plus its length when the data holds a NUL (without one, every zero
    byte of a key is masking). UTF-8 byte order is code point order, so the keys sort
    tokens as ``sorted()`` sorts strings. Tokens over ``8 * _MAX_KEY_WORDS``
    bytes are coded in Python.

    The returned ids are the width of ``starts``; the key words are uint64.
    Each per-token temporary is dropped as soon as it has been used, so that
    the bytes and a few narrow arrays make the peak.
    """
    index = starts.dtype
    if starts.shape[0] == 0:
        return [], np.zeros(0, dtype=index)
    words = -(-int(length.max()) // 8)
    if words > _MAX_KEY_WORDS:
        return _code_labels(data.decode("utf-8", "surrogatepass").split())
    raw = np.frombuffer(data, dtype=np.uint8)
    big = np.ndarray((raw.shape[0] - 7,), dtype=">u8", buffer=data, strides=(1,))
    keys = []
    for k in range(words):
        key = big[starts + 8 * k].astype(np.uint64)
        key &= _KEEP[k, length]
        keys.append(key)
    if b"\0" in data:
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


def _code_text(data, text, source):
    """Labels and endpoint ids of padded edge-list data and its text (see
    ``_read_data``): ``(labels, ids)``, with ``ids`` flat as
    ``[a1, b1, a2, b2, ...]``.

    Comment lines (first non-blank character ``#``) and blank lines are
    ignored. The labels are ints when ``int()`` accepts every token (tokens
    of one value, such as ``007`` and ``7``, are one label), as a sorted
    int64 array when they fit it, and strings otherwise.
    """
    starts, length = _token_bounds(data, text, source)
    coded = code_digits(data, starts, length)
    if coded is not None:
        return coded
    distinct, ids = _code_tokens(data, starts, length)
    del starts, length
    try:
        try:
            values = np.fromiter(map(int, distinct), dtype=np.int64, count=len(distinct))
            # a sort and a search, not np.unique's int64 argsort, which raised
            # the peak RSS of tc compute on 20k int labels by 1.5 MB
            labels = np.sort(values)
            keep = np.ones(labels.shape[0], dtype=bool)
            np.not_equal(labels[1:], labels[:-1], out=keep[1:])
            labels = labels[keep]
            remap = np.searchsorted(labels, values)
        except OverflowError:  # a value past int64
            labels, remap = _code_labels(list(map(int, distinct)))
    except ValueError:  # a token that int() rejects: string labels
        return tuple(distinct), ids
    return labels, remap.astype(ids.dtype, copy=False)[ids]


def _graph_from_ids(labels, ids):
    """Graph from sorted distinct labels (a sequence, or an int64 array kept
    as the Graph's ``label_array``) and flat endpoint ids of any integer
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
    labels, ids = _code_text(*_read_data(fh, source), source)
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


def _utf8(text):
    """``(data, text)``: the padded UTF-8 of an edge-list text, with one
    leading byte-order mark (U+FEFF) dropped and any non-ASCII whitespace
    made a space, and the text without that mark if a space was made, else
    None; any other byte-order mark stays part of its token."""
    text = text.removeprefix("\ufeff")
    spaced, wide = (text, 0) if text.isascii() else _WIDE_SPACE.subn(" ", text)
    data = bytearray(spaced.encode("utf-8", "surrogatepass"))
    data += _PADDING
    return data, text if wide else None


def _read_data(path_or_file, source):
    """``(data, text)`` of a path, '-' for stdin, or an open text or binary
    file: its UTF-8 in a bytearray followed by ``_PADDING``, and its text
    where that differs from the data's, for error messages (see ``_utf8``).

    Bytes are read as text mode reads them: strictly as UTF-8, else OSError
    naming ``source``, and with ``\\r\\n`` and a lone ``\\r`` made ``\\n``; a
    text stream has done both itself. Only data that is not ASCII is
    decoded.
    """
    if path_or_file == "-":
        # read as bytes, not by sys.stdin, whose error handler may pass any byte through
        path_or_file = getattr(sys.stdin, "buffer", sys.stdin)
    try:
        if not hasattr(path_or_file, "read"):
            with open(path_or_file, "rb") as fh:
                data = _read_padded(fh)
        else:
            data = path_or_file.read()
            if isinstance(data, str):
                return _utf8(data)
            data = bytearray(data)
            data += _PADDING
        if not data.isascii():
            # decoded before the newlines are translated, so that an error
            # names the position in the file, as text mode does
            text = str(memoryview(data)[:-len(_PADDING)], "utf-8")
            del data
            return _utf8(text.replace("\r\n", "\n").replace("\r", "\n"))
    except UnicodeDecodeError as exc:
        raise OSError(f"{source}: not UTF-8 text: {exc}") from exc
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data, None


def load_edge_list(path_or_file):
    """Read an edge-list file (path, '-' for stdin, or open text or binary
    file) into a Graph.

    Input that is not UTF-8 raises OSError naming the source.
    """
    if hasattr(path_or_file, "read"):
        source = getattr(path_or_file, "name", "<stream>")
    else:
        source = "<stdin>" if path_or_file == "-" else str(path_or_file)
    return _graph_from_ids(*_code_text(*_read_data(path_or_file, source), source))


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
