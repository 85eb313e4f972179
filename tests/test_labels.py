"""Integer labels held as one int64 array, and the TSV rows written from it.

Labels that fit int64 stay a sorted int64 array from ingest to output
(``Graph.label_array``); ``labels`` is a tuple built on first access. The
TSV writer formats those labels in numpy (``digits.decimal_rows``), so each
output row is checked against a reference ``f"{label}\\t{score!r}\\n"`` join
for every source of labels.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_ingest import digits_path, dirty_string_text, integer_text, reference_load
from tricent.centrality import triangle_centrality
from tricent.cli import _NUMPY_ROWS_FROM, main
from tricent.compare import rank_vertices
from tricent.digits import decimal_rows
from tricent.graph import build_graph, load_edge_list

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1
# 0, every width of 1 to 19 digits at both of its ends, either sign, and int64's ends
EDGE_VALUES = sorted({0, INT64_MIN, INT64_MAX}
                     | {s * v for k in range(19) for v in (10 ** k, 10 ** (k + 1) - 1)
                        for s in (1, -1) if v <= INT64_MAX})


def row_texts(rows):
    """Each row of a ``decimal_rows`` matrix without its NUL padding."""
    return [row[row != 0].tobytes().decode("ascii") for row in rows]


def test_decimal_rows_of_every_width_and_sign():
    values = np.array(EDGE_VALUES, dtype=np.int64)
    rows = decimal_rows(values)
    assert rows.dtype == np.uint8 and rows.shape == (len(EDGE_VALUES), 20)
    assert row_texts(rows) == list(map(str, EDGE_VALUES))
    # right-aligned: the NULs come first, then the text
    assert all((row[:len(row) - len(text)] == 0).all() for row, text in
               zip(rows, map(str, EDGE_VALUES)))
    assert decimal_rows(np.zeros(3, dtype=np.int64)).tolist() == [[48]] * 3


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(INT64_MIN, INT64_MAX), st.sampled_from(EDGE_VALUES),
                          st.integers(-1000, 1000)), min_size=1, max_size=60))
def test_decimal_rows_are_str_of_each_value(values):
    rows = decimal_rows(np.array(values, dtype=np.int64))
    assert rows.shape[1] == max(map(len, map(str, values)))
    assert row_texts(rows) == list(map(str, values))


def reference_tsv(text):
    """``tc compute`` TSV of an edge-list text from the per-line reference's
    labels: one ``f"{label}\\t{score!r}\\n"`` row per vertex in rank order."""
    g = load_edge_list(io.StringIO(text))
    cv = triangle_centrality(g)
    labels = reference_load(text)[0]
    return "".join(f"{labels[v]}\t{float(cv.scores[v])!r}\n"
                   for v in rank_vertices(cv).order.tolist())


def compute_tsv(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["compute", "-"]) == 0
    return capsys.readouterr().out


def big_text():
    big, low = 2 ** 63, -(2 ** 63) - 1
    return f"{big} {low}\n{big} 5\n{low} 5\n5 {10 ** 21}\n{-10 ** 21} 5\n7 5\n"


# each source of labels: (text, held as an int64 array, coded by the digits path)
SOURCES = {
    "digits": ("1 2\n2 3\n3 1\n3 4\n4 5\n5 3\n10 4\n", True, True),
    "key sort": (integer_text(), True, False),
    "int64 ends": (f"{INT64_MIN} {INT64_MAX}\n{INT64_MAX} 0\n0 {INT64_MIN}\n-1 0\n", True,
                   False),
    "past int64": (big_text(), False, False),
    "strings": (dirty_string_text().replace("\r\n", "\n"), False, False),
    "no edges": ("", True, False),
    "one vertex": ("5 5\n", True, True),
    "one negative vertex": ("-5 -5\n", True, False),
}


@pytest.mark.parametrize("numpy_rows", [False, True])
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_tsv_is_the_reference_for_each_label_source(capsys, monkeypatch, source, numpy_rows):
    # these graphs are small enough to be joined; from 1 row, int64 labels
    # take the numpy rows
    if numpy_rows:
        monkeypatch.setattr("tricent.cli._NUMPY_ROWS_FROM", 1)
    text, held, digits = SOURCES[source]
    assert (digits_path(text) is not None) == digits
    assert (load_edge_list(io.StringIO(text)).label_array is not None) == held
    assert compute_tsv(capsys, monkeypatch, text) == reference_tsv(text)


def chain_text(n, label):
    """n vertices, each joined to the next two: triangles, and scores that
    differ at the ends."""
    return "".join(f"{label(v)} {label(w)}\n" for v in range(n) for w in (v + 1, v + 2)
                   if w < n)


# the digits path, and the key sort with signs and widths of 1 to 18 digits
LABELINGS = {"digits": lambda v: v, "key sort": lambda v: (-1) ** v * 13 ** v}


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17])
@pytest.mark.parametrize("labeling", sorted(LABELINGS))
def test_tsv_rows_at_the_block_edges(capsys, monkeypatch, n, labeling):
    # blocks of 8 rows: one short, one full and one over, then two blocks
    monkeypatch.setattr("tricent.cli._EMIT_ROWS", 8)
    monkeypatch.setattr("tricent.cli._NUMPY_ROWS_FROM", 1)
    text = chain_text(n, LABELINGS[labeling])
    g = load_edge_list(io.StringIO(text))
    assert g.n == n and g.label_array is not None
    assert compute_tsv(capsys, monkeypatch, text) == reference_tsv(text)


def test_array_held_labels_read_as_built_ones():
    text = integer_text() + f"{INT64_MIN} {INT64_MAX}\n"
    pairs = [tuple(map(int, line.split())) for line in text.splitlines()]
    held, built = load_edge_list(io.StringIO(text)), build_graph(pairs)
    assert held.label_array is not None and built.label_array is None
    assert held.label_array.dtype == np.int64
    assert held._labels is None  # until the first read
    ids = range(held.n)
    assert [held.label_of(v) for v in ids] == [built.label_of(v) for v in ids]
    assert all(type(held.label_of(v)) is int for v in ids)
    assert held.labels == built.labels
    assert all(type(x) is int for x in held.labels)
    assert [held.id_of(x) for x in built.labels] == list(ids)
    assert held.labels is held.labels  # built once


# the digits path, and the key sort with signs
TUPLE_FREE = {"digits": lambda v: v, "key sort": lambda v: 3 * v - 100}


# a graph small enough to be joined, and one written as numpy rows
@pytest.mark.parametrize("n", [40, _NUMPY_ROWS_FROM])
@pytest.mark.parametrize("labeling", sorted(TUPLE_FREE))
def test_tsv_compute_builds_no_label_tuple(capsys, monkeypatch, tmp_path, labeling, n):
    # integer labels go from the array to the output, so the labels tuple is
    # never built
    path = tmp_path / "ints.txt"
    path.write_text(chain_text(n, TUPLE_FREE[labeling]))
    loaded = []

    def load(source):
        loaded.append(load_edge_list(source))
        return loaded[-1]

    monkeypatch.setattr("tricent.cli.load_edge_list", load)
    assert main(["compute", str(path)]) == 0
    out = capsys.readouterr().out
    (g,) = loaded
    assert g.label_array is not None and g._labels is None
    assert out == reference_tsv(path.read_text())
