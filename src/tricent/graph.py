"""Core graph representation and degree ordering.

Graphs are simple, undirected, and immutable after construction, stored in
compressed adjacency form (offsets + neighbor array, each undirected edge in
both directions). External labels may be ints or strings; internally vertices
are dense 0-based ids assigned in sorted label order, so label order and
internal id order always agree.
"""

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError


class Graph:
    """Immutable compressed-adjacency graph. Rows are sorted by internal id."""

    __slots__ = ("n", "m", "offsets", "neighbors", "labels", "_index")

    def __init__(self, n, m, offsets, neighbors, labels):
        self.n = n
        self.m = m
        self.offsets = offsets
        self.neighbors = neighbors
        self.labels = labels
        self._index = None  # label -> id, built on the first id_of call

    @property
    def degrees(self):
        return np.diff(self.offsets)

    def degree(self, v):
        return int(self.offsets[v + 1] - self.offsets[v])

    def neighbors_of(self, v):
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def id_of(self, label):
        if self._index is None:
            self._index = {lab: i for i, lab in enumerate(self.labels)}
        return self._index[label]

    def label_of(self, v):
        return self.labels[v]

    def has_edge(self, u, v):
        row = self.neighbors_of(u)
        i = np.searchsorted(row, v)
        return bool(i < row.shape[0] and row[i] == v)

    def _edge_ends(self):
        """Arrays ``(u, v)`` of every undirected edge once, u < v, by (u, v)."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        upper = rows < self.neighbors
        return rows[upper], self.neighbors[upper]

    def edges(self):
        """Each undirected edge once as an (u, v) internal-id pair, u < v."""
        return zip(*(a.tolist() for a in self._edge_ends()))

    def to_edge_list(self):
        return [(self.labels[u], self.labels[v]) for u, v in self.edges()]

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# An edge-list line is blank or holds exactly two tokens. Whitespace is
# str.split()'s (the same set as \s), and lines end at "\n" only, as in a
# file read with universal newlines. Possessive quantifiers keep the match
# from storing a backtracking point per line. The pattern only screens the
# text: when it fails, a walk over the lines finds the bad one.
_LINE = r"[^\S\n]*+(?:\S++[^\S\n]++\S++[^\S\n]*+)?"
_EDGE_LINES = re.compile(rf"(?:{_LINE}\n)*+{_LINE}")
_COMMENT = re.compile(r"^[^\S\n]*+#.*", re.MULTILINE)


def _edge_tokens(text, source):
    """Endpoint labels of an edge-list text, flat: ``[a1, b1, a2, b2, ...]``.

    Comment lines (first non-blank character ``#``) and blank lines are
    ignored. The labels are ints when ``int()`` accepts every token, and
    strings otherwise.
    """
    if "#" in text:
        text = _COMMENT.sub("", text)  # blanks each comment line, keeping line numbers
    if _EDGE_LINES.fullmatch(text) is None:
        for lineno, line in enumerate(text.split("\n"), start=1):
            tokens = line.split()
            if tokens and len(tokens) != 2:
                raise InputError(f"{source}:{lineno}: expected two tokens, "
                                 f"got {len(tokens)}: {line.strip()!r}")
    tokens = text.split()
    try:
        return list(map(int, tokens))
    except ValueError:
        return tokens


def _graph_from_ends(ends):
    """Graph from flat endpoint labels ``[a1, b1, a2, b2, ...]``."""
    try:
        labels = sorted(set(ends))
    except TypeError as exc:
        raise InputError("edge labels must be mutually comparable "
                         "(all ints or all strings)") from exc
    n = len(labels)
    index = dict(zip(labels, range(n)))
    ids = np.fromiter(map(index.__getitem__, ends), dtype=np.int64, count=len(ends))
    a, b = ids[0::2], ids[1::2]
    loops = a == b
    a, b = a[~loops], b[~loops]
    # both orientations of every edge as packed (row, neighbor) keys, sorted
    # (rows by id, each row by neighbor id) and without duplicates; a sort
    # and a mask, since np.unique may hash first and is several times slower
    arcs = np.sort(np.concatenate((a * n + b, b * n + a)))
    arcs = arcs[np.diff(arcs, prepend=-1) != 0]
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
    return _graph_from_ends([x for a, b in edge_list for x in (a, b)])


def parse_edge_list(lines, source="<input>"):
    """Parse edge-list text: two whitespace-separated tokens per line.

    ``lines`` is an open text file or an iterable of lines, with or without
    their newlines. Lines starting with ``#`` and blank lines are ignored.
    Integer tokens are used as int labels when every token in the input is
    integral; otherwise all labels stay strings.
    """
    if hasattr(lines, "read"):
        text = lines.read()
    else:
        text = "".join(line if line.endswith("\n") else line + "\n" for line in lines)
    ends = iter(_edge_tokens(text, source))
    return list(zip(ends, ends))


def _read_text(path_or_file):
    """Whole text of an open file, of stdin ('-') or of a UTF-8 file path."""
    if hasattr(path_or_file, "read"):
        return path_or_file.read()
    if path_or_file != "-":
        with open(path_or_file, encoding="utf-8") as fh:
            return fh.read()
    if not hasattr(sys.stdin, "buffer"):  # stdin replaced by a text stream
        return sys.stdin.read()
    # decoded here, not by sys.stdin, whose error handler may pass any byte
    # through; newlines translated as in text mode
    text = sys.stdin.buffer.read().decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_edge_list(path_or_file):
    """Read an edge-list file (path, '-' for stdin, or open file) into a Graph.

    Input that is not UTF-8 raises OSError naming the source.
    """
    if hasattr(path_or_file, "read"):
        source = getattr(path_or_file, "name", "<stream>")
    else:
        source = "<stdin>" if path_or_file == "-" else str(path_or_file)
    try:
        text = _read_text(path_or_file)
    except UnicodeDecodeError as exc:
        raise OSError(f"{source}: not UTF-8 text: {exc}") from exc
    return _graph_from_ends(_edge_tokens(text, source))


def dump_edge_list(g, file):
    """Write one `label label` line per undirected edge."""
    for a, b in g.to_edge_list():
        file.write(f"{a} {b}\n")


@dataclass(frozen=True)
class VertexOrder:
    """Total order by ascending degree, ties by ascending label.

    ``rank[v]`` is v's position in the order; ``order[p]`` is the vertex at
    position p (the inverse permutation).
    """

    rank: np.ndarray
    order: np.ndarray

    def below(self, u, v):
        """True iff u precedes v in the order."""
        return self.rank[u] < self.rank[v]


def degree_order(g):
    """Degree ordering: position by (degree, label); deterministic."""
    deg = g.degrees
    # internal ids are already in label-sorted order, so a stable sort on
    # degree alone realizes the (degree, label) tiebreak
    order = np.argsort(deg, kind="stable").astype(np.int64)
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n, dtype=np.int64)
    return VertexOrder(rank=rank, order=order)


class OrderedAdjacency:
    """Per-vertex partition of N(v) with the higher-ordered prefix first.

    ``nbr`` mirrors the graph's neighbor array, reordered per vertex so that
    entries ``nbr[offsets[v] : offsets[v] + prefix_len[v]]`` are exactly the
    neighbors ranked above v, sorted ascending by internal id. The remaining
    entries of the row hold the lower-ordered neighbors (arbitrary order).
    ``prefix_offsets`` packs the prefixes into one index space of total size m
    (used by the mark arrays).
    """

    __slots__ = ("n", "m", "offsets", "nbr", "prefix_len", "prefix_offsets", "rank")

    def __init__(self, n, m, offsets, nbr, prefix_len, rank):
        self.n = n
        self.m = m
        self.offsets = offsets
        self.nbr = nbr
        self.prefix_len = prefix_len
        self.prefix_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(prefix_len, out=self.prefix_offsets[1:])
        self.rank = rank

    def prefix(self, v):
        base = self.offsets[v]
        return self.nbr[base:base + self.prefix_len[v]]

    def suffix(self, v):
        return self.nbr[self.offsets[v] + self.prefix_len[v]:self.offsets[v + 1]]

    def row(self, v):
        return self.nbr[self.offsets[v]:self.offsets[v + 1]]


def build_abbreviated_adjacency(g, order):
    """Partition each neighbor row into higher-/lower-ordered halves.

    One stable sort on (row, not-in-prefix): rows arrive sorted by id, so
    each prefix comes out sorted ascending and the rest keeps row order.
    """
    offsets = g.offsets
    rank = order.rank
    if g.m == 0:
        return OrderedAdjacency(g.n, 0, offsets, g.neighbors.copy(),
                                np.zeros(g.n, dtype=np.int64), rank)
    nbr = g.neighbors
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    in_prefix = rank[nbr] > rank[src]
    perm = np.argsort(src * 2 + ~in_prefix, kind="stable")
    prefix_len = np.bincount(src[in_prefix], minlength=g.n).astype(np.int64)
    return OrderedAdjacency(g.n, g.m, offsets, nbr[perm], prefix_len, rank)


def average_degeneracy(g):
    """Mean over edges of the smaller endpoint degree, as an exact rational."""
    if g.m == 0:
        raise InputError("average degeneracy is undefined for an edgeless graph")
    deg = g.degrees
    u, v = g._edge_ends()
    return Fraction(int(np.minimum(deg[u], deg[v]).sum()), g.m)
