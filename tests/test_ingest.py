"""Ingest and emit pinned against fixed outputs and a per-line reference.

The golden digests are the SHA-256 of ``tc compute`` stdout (TSV and JSON)
as the per-line ingest and keyed-sort ranking produced it, so a bulk ingest
or a vectorized ranking must reproduce that output byte for byte.
"""

import hashlib
import io
import os
import random
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricent.centrality import triangle_centrality
from tricent.cli import main
from tricent.errors import ConsistencyError, InputError
from tricent.generators import FIXTURES, load_fixture
from tricent.digits import code_digits
from tricent.graph import (_WIDE_SPACES, _raise_bad_line, _read_data, _token_bounds,
                           build_graph, load_edge_list, parse_edge_list)

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "tricent" / "fixtures"


def dirty_string_text():
    """String labels with comments, blanks, tabs, both orientations,
    duplicates and self-loops; CRLF line ends and no final newline."""
    rng = random.Random(11)
    names = [f"v{i:03d}" for i in range(40)] + ["alpha", "Beta", "g#7", "Ωmega"]
    lines = ["# dirty edge list", ""]
    for _ in range(160):
        a, b = rng.choice(names), rng.choice(names)
        if rng.random() < 0.05:
            b = a
        sep = rng.choice([" ", "\t", "  ", " \t"])
        lines.append(f"{rng.choice(['', ' ', chr(9)])}{a}{sep}{b}{rng.choice(['', ' '])}")
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   # note", "#x y z"]))
    return "\r\n".join(lines)


def integer_text():
    """Integer labels, some written with a sign or leading zeros."""
    rng = random.Random(12)
    lines = []
    for _ in range(150):
        a, b = rng.randrange(-10, 40), rng.randrange(-10, 40)
        fa = rng.choice(["{}", "{:03d}", "+{}"]) if a >= 0 else "{}"
        lines.append(f"{fa.format(a)} {b}")
    return "\n".join(lines) + "\n"


GENERATED = {"dirty-strings": dirty_string_text, "integers": integer_text}

GOLDEN = {
    ('borgatti', 'tsv'): "48f3cd0ee36c0954442d7403b7367399f5ef839da4a64475534de0229259e996",
    ('borgatti', 'json'): "2d4deef8e87b3c74b76d575ff0677f4becb5230ebe345afdbded9a6c6bf94569",
    ('dolphins', 'tsv'): "0aa68272ac433af6fcd2c66424316e7ba3e073622d21db0d818637e7cbf3081b",
    ('dolphins', 'json'): "b648972d19da72c76353b89ed377ade17f3d412c6193d2cac84b40bfd7c142f2",
    ('hijackers', 'tsv'): "c6673591c6c86059ec1b414367b6165ab88a334aa957be0bc3ab9181386d7693",
    ('hijackers', 'json'): "2cecf552a231ebed14d7dcc88e441ef65654cd8d5e840ddf319842f36fbf881c",
    ('karate', 'tsv'): "e562decabe0c764933e87024baf8c63a8504734730a03ee32ec88a1a799a0024",
    ('karate', 'json'): "277e9bb0c0e450a6de5602edb959ff105030411209981d9bd1952381e1d7c43f",
    ('dirty-strings', 'tsv'): "7a31bc5559c3f559cc3c95d87bb3281dfe0d746792af33bc6be23bda1de44da2",
    ('dirty-strings', 'json'): "fcbb4b4a6e2ccefe4e8175c929fc792c44f670d0cbbc26d7cd3f44d00c895aa7",
    ('integers', 'tsv'): "18ba6b1e1eabfea3d81c30f92bd74117bfdf61cca7ed155053868d39bda97b01",
    ('integers', 'json'): "e3cd85a4e26415ce8bef8de90d246630f494fc4098457e5330631baa590be128",
}


def input_path(name, tmp_path):
    if name in GENERATED:
        path = tmp_path / f"{name}.txt"
        path.write_bytes(GENERATED[name]().encode("utf-8"))
        return str(path)
    return str(FIXTURE_DIR / f"{name}.txt")


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("name", sorted(FIXTURES) + sorted(GENERATED))
def test_compute_stdout_matches_golden(capsys, tmp_path, name, fmt):
    code = main(["compute", input_path(name, tmp_path), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[name, fmt]


def reference_load(text, source="<stream>"):
    """Per-line parse and pair-set build of an edge-list text:
    ``(labels, offsets, neighbors)``."""
    raw, all_int = [], True
    for lineno, line in enumerate(io.StringIO(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise InputError(
                f"{source}:{lineno}: expected two tokens, got {len(tokens)}: {stripped!r}")
        raw.append(tokens)
        for t in tokens:
            try:
                int(t)
            except ValueError:
                all_int = False
    edges = [(int(a), int(b)) for a, b in raw] if all_int else [tuple(e) for e in raw]
    labels = sorted({x for e in edges for x in e})
    index = {lab: i for i, lab in enumerate(labels)}
    rows = [set() for _ in labels]
    for a, b in edges:
        if a != b:
            rows[index[a]].add(index[b])
            rows[index[b]].add(index[a])
    offsets = [0]
    for row in rows:
        offsets.append(offsets[-1] + len(row))
    neighbors = [u for row in rows for u in sorted(row)]
    return tuple(labels), offsets, neighbors


TOKENS = st.one_of(
    st.sampled_from(["007", "+3", "-2", "1_0", "2**70", str(2 ** 70), "-0", "\u0661\u0662",
                     "#", "a#b", "#x", "x", "Ω", "1e3", "0x1f",
                     # 8, 9, 16 and 17 bytes, sharing their first 8
                     "abcdefgh", "abcdefghi", "abcdefghABCDEFGH", "abcdefghABCDEFGHI",
                     "12345678", "123456789", "1234567812345678", "12345678123456789",
                     # a prefix of a token that differs from it only by a NUL
                     "a", "a\x00", "x\x00y", "\x00",
                     # two-, three- and four-byte UTF-8
                     "é", "€", "𝔸",
                     # string order is not numeric order
                     "10", "9"]),
    st.integers(-5, 12).map(str),
)
# non-ASCII whitespace of two UTF-8 bytes and of three, over each lead byte
SPACE = st.text(alphabet=[" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
                          "\u1680", "\u2009", "\u2028", "\u3000", "\r"],
                min_size=1, max_size=3)


@st.composite
def edge_lines(draw, kinds=("edge", "edge", "edge", "blank", "comment", "bad")):
    kind = draw(st.sampled_from(kinds))
    lead = draw(st.one_of(st.just(""), SPACE))
    if kind == "blank":
        return lead
    if kind == "comment":
        return lead + "#" + draw(st.text(alphabet="ab #1 \t", max_size=6))
    count = 2 if kind == "edge" else draw(st.sampled_from([1, 3, 4]))
    parts = [draw(TOKENS) for _ in range(count)]
    body = parts[0]
    for tok in parts[1:]:
        body += draw(SPACE) + tok
    return lead + body + draw(st.one_of(st.just(""), SPACE))


@st.composite
def edge_texts(draw, lines=edge_lines()):
    lines = draw(st.lists(lines, max_size=25))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(edge_texts())
def test_load_edge_list_matches_per_line_reference(text):
    try:
        reference_load(text)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            load_edge_list(io.StringIO(text))
        assert str(got.value) == str(exc)
        return
    assert_loads_as_reference(text)


@settings(max_examples=300, deadline=None)
@given(edge_texts(edge_lines(kinds=("edge", "edge", "edge", "edge", "blank", "comment"))))
def test_well_formed_text_loads_as_reference(text):
    # most texts of the test above hold a bad line; these reach the coder
    assert_loads_as_reference(text)


@settings(max_examples=300, deadline=None)
@given(edge_texts())
def test_file_loads_as_reference_of_its_text_mode_text(text):
    # a path is read as bytes; text mode would have made "\r\n" and "\r" a "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        read = text.replace("\r\n", "\n").replace("\r", "\n")
        try:
            reference_load(read, source=path)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                load_edge_list(path)
            assert str(got.value) == str(exc)
            return
        assert_loads_as_reference(read, path)


def assert_loads_as_reference(text, path_or_file=None):
    labels, offsets, neighbors = reference_load(text)
    g = load_edge_list(io.StringIO(text) if path_or_file is None else path_or_file)
    assert g.labels == labels
    assert [type(x) for x in g.labels] == [type(x) for x in labels]
    assert g.offsets.tolist() == offsets
    assert g.neighbors.tolist() == neighbors
    assert g.m * 2 == len(neighbors)


def scale_text(kind, seed, lines=100_000):
    """Seeded edge list of ``lines`` lines whose labels mix lengths of 1 to
    24 bytes across the 8- and 16-byte word edges, many sharing a prefix."""
    rng = random.Random(seed)
    if kind == "strings":
        stems = ["", "n", "node_", "vertex__", "vertex__vertex__", "été_", "𝔸"]
        names = [f"{rng.choice(stems)}{rng.randrange(10 ** rng.randrange(1, 9))}"
                 for _ in range(30_000)]
    else:  # integers, some with leading zeros, a sign or many digits
        names = [rng.choice(["{}", "0{}", "+{}", "-{}", "{}000000000000000"]).format(
                 rng.randrange(10 ** rng.randrange(1, 6))) for _ in range(30_000)]
    seps = [" ", "\t", "  "]
    return "".join(f"{rng.choice(names)}{rng.choice(seps)}{rng.choice(names)}\n"
                   for _ in range(lines))


@pytest.mark.parametrize("kind", ["strings", "integers"])
def test_load_edge_list_matches_reference_at_scale(kind):
    assert_loads_as_reference(scale_text(kind, seed=13))


def load_peak(path):
    """The graph loaded from ``path`` and the peak bytes traced meanwhile."""
    tracemalloc.start()
    try:
        g = load_edge_list(str(path))
        return g, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_edge_list_peak_memory_is_bounded(tmp_path, bench_gen):
    # the benchmark's dirty G(n, m): string labels, both orientations,
    # duplicates and self-loops. Keeping int64 arrays for every token until
    # the end of the coding takes about 89 bytes a token; narrow arrays,
    # dropped as soon as used, about 49; the file read as bytes, held once
    # and not also as a decoded str, about 41; the sort order of the tokens
    # cast to the ids' width, about 37
    edges = bench_gen.dirty_er(12_000, 50_000, 1)
    path = tmp_path / "er.txt"
    edges.write(path)
    tokens = 2 * edges.a.shape[0]
    assert tokens >= 200_000
    g, peak = load_peak(path)
    assert g.m == 50_000
    assert peak < 42 * tokens, f"{peak / tokens:.1f} bytes a token"
    # blanking comment lines makes a second copy of the bytes for a moment;
    # it is written back into the first, or the peak holds one more copy
    # (about 8 bytes a token here)
    commented = tmp_path / "er-commented.txt"
    commented.write_text("# header\n" + path.read_text())
    g, commented_peak = load_peak(commented)
    assert g.m == 50_000
    assert commented_peak < peak + tokens, (
        f"{commented_peak / tokens:.1f} against {peak / tokens:.1f} bytes a token")


def test_non_ascii_text_peak_memory_is_bounded(tmp_path):
    # one astral character makes a decoded str 4 bytes a character. Decoding
    # the text whole and encoding it back took about 84.5 bytes a token, and
    # 127 with no-break spaces, when the text was also kept for error
    # messages; checked as UTF-8 and kept as its bytes, about 68 in both
    for wide_gaps in (0, 1_000):
        lines = scale_text("strings", 13).split("\n")
        for i in range(wide_gaps):
            lines[i] = "\xa0".join(lines[i].split())  # the line's gap made U+00A0
        text = "\n".join(lines)
        assert not text.isascii() and text.count("\xa0") == wide_gaps
        path = tmp_path / "strings.txt"
        path.write_text(text, encoding="utf-8")
        tokens = 2 * text.count("\n")
        g, peak = load_peak(path)
        assert g.m > 0
        assert peak < 75 * tokens, f"{wide_gaps}: {peak / tokens:.1f} bytes a token"


def test_wide_spaces_are_the_whitespace_past_ascii():
    assert set(_WIDE_SPACES) == {chr(c).encode() for c in range(0x80, 0x110000)
                                 if chr(c).isspace()}
    assert len(_WIDE_SPACES) == 19


def digits_path(text):
    """What the digits path makes of an edge-list text: ``(labels, ids)``,
    the labels as a tuple, or None where it leaves the text to the key sort."""
    data = _read_data(io.StringIO(text), "<stream>")
    coded = code_digits(data, *_token_bounds(data, "<stream>"))
    return coded and (tuple(coded[0].tolist()), coded[1])


@st.composite
def digit_texts(draw):
    """Edge lists of 1 to 10 digit tokens, some with leading zeros, over a
    value range dense or sparse against the token count, with comment and
    blank lines and "\n" or "\r\n" line ends."""
    low = draw(st.sampled_from([0, 1, 9_999_950, 99_999_990, 999_999_990]))
    span = draw(st.sampled_from([0, 5, 60, 10 ** 4, 10 ** 8]))
    widest = draw(st.sampled_from([8, 8, 8, 10]))  # most texts keep to 8 digits
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["comment", "blank"]))
        if kind == "comment":
            lines.append("# " + draw(st.text(alphabet="0123 #", max_size=5)))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        else:
            ends = [f"{draw(st.integers(low, low + span)):0{draw(st.integers(1, widest))}d}"
                    for _ in range(2)]
            lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(ends))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(digit_texts())
def test_digit_labels_load_as_reference(text):
    read = text.replace("\r\n", "\n")
    tokens = [t for line in read.split("\n") if not line.lstrip().startswith("#")
              for t in line.split()]
    # the digits path takes the text iff every token has at most 8 digits
    # and the values span fewer integers than there are tokens
    values = list(map(int, tokens))
    taken = (bool(tokens) and max(map(len, tokens)) <= 8
             and max(values) - min(values) < len(values))
    assert (digits_path(text) is not None) == taken
    assert_loads_as_reference(read)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("ascii"))
        assert_loads_as_reference(read, path)


def test_digit_tokens_whose_word_starts_before_the_data():
    # the words of the first tokens would start before byte 0
    for text in ("1 2\n", "1 2\n2 3\n3 1\n", "12 13\n13 11\n", "1234567 1234568\n", " 1 2\n"):
        labels, _ = digits_path(text)
        assert labels == reference_load(text)[0]
        assert_loads_as_reference(text)
    assert digits_path("1 2\n")[1].tolist() == [0, 1]
    assert digits_path("9 10\n8 9\n")[1].tolist() == [1, 2, 0, 1]


def test_digit_tokens_of_eight_digits_and_past_them():
    assert digits_path("00000000 1\n00000002 0\n")[0] == (0, 1, 2)
    assert digits_path("99999999 99999998\n99999997 99999999\n")[0] == (
        99_999_997, 99_999_998, 99_999_999)
    # values too spread for the presence table, then a ninth digit, leave the
    # text to the key sort, with the same labels
    text = "00000000 99999999\n99999999 5\n"
    assert digits_path(text) is None
    assert load_edge_list(io.StringIO(text)).labels == (0, 5, 99_999_999)
    assert_loads_as_reference(text)
    text += "123456789 00000000\n"
    assert digits_path(text) is None
    assert load_edge_list(io.StringIO(text)).labels == (0, 5, 99_999_999, 123_456_789)
    assert_loads_as_reference(text)


def test_digit_tokens_of_one_value_are_one_label():
    text = "007 7\n7 8\n0008 00000007\n"
    assert digits_path(text)[0] == (7, 8)
    g = load_edge_list(io.StringIO(text))
    assert g.labels == (7, 8) and g.m == 1
    assert_loads_as_reference(text)


@pytest.mark.parametrize("token", ["+5", "-5", "1_0", "\u0663", "5\x00", "5a", "a5", "/5", ":5"])
def test_tokens_that_are_not_ascii_digits_take_the_key_sort(token):
    text = f"1 2\n2 {token}\n"
    assert digits_path(text) is None
    assert_loads_as_reference(text)


@pytest.mark.parametrize("span", [-1, 0, 1])
def test_digit_values_on_each_side_of_the_dense_range(span):
    # a presence table when the values span fewer integers than there are
    # tokens, the key sort otherwise; both code as the reference does
    rng = random.Random(15)
    tokens = 200
    low = 4_000_000
    values = [low, low + tokens + span] + [rng.randrange(low, low + tokens + span + 1)
                                          for _ in range(tokens - 2)]
    rng.shuffle(values)
    text = "".join(f"{a} {b}\n" for a, b in zip(values[0::2], values[1::2]))
    coded = digits_path(text)
    if span < 0:
        assert coded[0] == tuple(sorted(set(values)))
    else:
        assert coded is None
    assert_loads_as_reference(text)


def test_integer_label_ingest_peak_memory_is_bounded(tmp_path, bench_gen):
    # the benchmark's Holme-Kim graph: 1 to 5 digit labels, all on the digits
    # path. About 37.5 bytes a token, against 38.5 when the key sort coded them
    edges = bench_gen.holme_kim(20_000, 5, 0.8, 1)
    path = tmp_path / "hk.txt"
    edges.write(path)
    tokens = 2 * edges.a.shape[0]
    g, peak = load_peak(path)
    assert g.n == 20_000
    assert peak < 40 * tokens, f"{peak / tokens:.1f} bytes a token"


def test_arc_keys_are_int64_when_n_squared_passes_int32():
    # 50,003 labels, so a * n + b passes 2**31 for the triangle at the end,
    # where int32 keys would wrap without a warning
    pairs = [(v, v + 1) for v in range(49_999)] + [(50_000, 50_001), (50_001, 50_002),
                                                   (50_002, 50_000)]
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    g = load_edge_list(io.StringIO(text))
    assert g.n ** 2 > 2 ** 31
    assert g.offsets.dtype == g.neighbors.dtype == np.int64
    built = build_graph(pairs)
    assert built.labels == g.labels
    assert built.offsets.tolist() == g.offsets.tolist()
    assert built.neighbors.tolist() == g.neighbors.tolist()
    # both builds share the CSR step; the per-line reference does not
    assert_loads_as_reference(text)
    assert triangle_centrality(g).tri_total == 1


def test_bad_line_search_that_finds_none_is_a_consistency_error():
    # the search runs only when the tokens do not pair up by line, so a
    # text whose every line is blank or two tokens means a fault in ingest
    with pytest.raises(ConsistencyError, match=r"^<x>: the tokens do not pair up by line"):
        _raise_bad_line(b"1 2\n\n3\t4\n", "<x>")


def test_nul_ties_are_broken_by_length():
    # "a" and "a\x00" read as the same zero-padded word
    assert_loads_as_reference("a a\x00\na\x00 \x00\n\x00\x00 b\nb a\n")
    assert_loads_as_reference("abcdefgh abcdefgh\x00\nabcdefgh\x00\x00 abcdefgh\n")


def test_tokens_longer_than_the_key_words_match_reference():
    # past 64 bytes the tokens are coded in Python; they still sort and
    # merge as the short ones do, and bad lines are still found
    rng = random.Random(14)
    names = ["short"] + ["L" * length + tail for length in range(60, 71)
                         for tail in ["", "a", "b", "\x00", "é"]]
    text = "".join(f"{rng.choice(names)} {rng.choice(names)}\n" for _ in range(100))
    assert_loads_as_reference(text)
    numbers = ["0" * 70 + "7", "7", str(10 ** 70), "-3", "12", "8", "0" * 64 + "12"]
    assert_loads_as_reference("".join(f"{rng.choice(numbers)} {rng.choice(numbers)}\n"
                                      for _ in range(12)))
    with pytest.raises(InputError, match=r"^<stream>:101: expected two tokens, got 3"):
        load_edge_list(io.StringIO(text + "short short x\n"))
    # separated by U+3000, a wide space that the Python coding splits on too
    assert_loads_as_reference(text.replace(" ", "\u3000"))


@pytest.mark.parametrize("name", sorted(FIXTURES) + sorted(GENERATED))
def test_build_of_parsed_pairs_equals_load(tmp_path, name):
    path = input_path(name, tmp_path)
    with open(path, encoding="utf-8") as fh:
        built = build_graph(parse_edge_list(fh))
    # load_fixture reads the bundled file through load_edge_list as well
    loads = [load_edge_list(path)] + ([load_fixture(name)] if name in FIXTURES else [])
    for loaded in loads:
        assert built.labels == loaded.labels
        assert built.offsets.tolist() == loaded.offsets.tolist()
        assert built.neighbors.tolist() == loaded.neighbors.tolist()


TRIANGLE = "1 2\n2 3\n3 1\n"


def test_leading_byte_order_mark_is_dropped(tmp_path, monkeypatch):
    plain = load_edge_list(io.StringIO(TRIANGLE))
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + TRIANGLE.encode())
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes()),
                                                      encoding="utf-8"))
    for g in (load_edge_list(str(path)), load_edge_list("-"),
              load_edge_list(io.StringIO("\ufeff" + TRIANGLE))):
        assert g.labels == plain.labels == (1, 2, 3)
        assert g.neighbors.tolist() == plain.neighbors.tolist()
    assert parse_edge_list(io.StringIO("\ufeff" + TRIANGLE)) == \
        parse_edge_list(io.StringIO(TRIANGLE))


def test_byte_order_mark_that_is_not_leading_stays_in_its_token():
    for text in ("1 2\n\ufeff2 3\n", "\ufeff\ufeff1 2\n", "1 2\ufeff\n"):
        want = [tuple(line.split()) for line in text.removeprefix("\ufeff").splitlines()]
        assert parse_edge_list(io.StringIO(text)) == want
        labels = tuple(sorted({x for pair in want for x in pair}))
        assert load_edge_list(io.StringIO(text)).labels == labels


def test_binary_streams_load_as_the_path_does(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"\xef\xbb\xbf1 2\r\n2 3\r\n3 1\r\n")
    want = load_edge_list(str(path))
    with open(path, "rb") as fh:
        loads = [load_edge_list(io.BytesIO(path.read_bytes())), load_edge_list(fh)]
    for g in loads:
        assert g.labels == want.labels == (1, 2, 3)
        assert g.neighbors.tolist() == want.neighbors.tolist()
    assert parse_edge_list(io.BytesIO(b"a b\n")) == [("a", "b")]
    with pytest.raises(OSError, match=r"^<stream>: not UTF-8 text"):
        load_edge_list(io.BytesIO(b"1 2\n2 \xff\n"))


def test_fifo_path_is_read_to_its_end(tmp_path):
    # a pipe has no size: everything is read after the sized read
    path = tmp_path / "edges.fifo"
    os.mkfifo(path)
    lines = "".join(f"{v} {v + 1}\n" for v in range(20_000))  # more than a pipe buffer

    def write():
        with open(path, "w") as fh:
            fh.write(lines)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        g = load_edge_list(str(path))
    finally:
        writer.join()
    assert g.n == 20_001 and g.m == 20_000


def test_lone_carriage_returns_end_lines(tmp_path):
    path = tmp_path / "cr.txt"
    path.write_bytes(b"1 2\r2 3\r\r# c\r3 1")
    g = load_edge_list(str(path))
    assert g.labels == (1, 2, 3) and g.m == 3
    path.write_bytes(b"1 2\r2 3 4\r")
    with pytest.raises(InputError, match=r":2: expected two tokens, got 3: '2 3 4'$"):
        load_edge_list(str(path))


def test_wide_gaps_between_tokens(tmp_path):
    text = "  1 \t 2   \n\t\n2\x1c\x1c3 \x1f\n   \n\x0b3\x0c  1\x1d\n"
    assert_loads_as_reference(text)
    path = tmp_path / "wide.txt"
    path.write_text(text)
    assert_loads_as_reference(text, str(path))
    # a bad line behind wide gaps, and a line break inside one
    for bad, lineno in ((text + "4 \x1c 5 \x1e 6\n", 6), ("1 2   \n  \n 3  \n2 4\n", 3)):
        path.write_text(bad)
        with pytest.raises(InputError, match=rf":{lineno}: expected two tokens"):
            load_edge_list(str(path))


def test_comment_after_separator_blanks():
    # \x1c-\x1f are str.split() whitespace, so "#" is the line's first non-blank
    assert_loads_as_reference("\x1c# x y z\n1 2\n\x1f\x1e # 3\n")
    assert load_edge_list(io.StringIO("\x1c# x y z\n1 2\n")).labels == (1, 2)


def test_integers_past_int64_keep_their_values():
    big, low = 2 ** 63, -(2 ** 63) - 1
    text = f"{big} {low}\n{big} 5\n{'0' * 30}5 {10 ** 21}\n{-10 ** 21} 5\n"
    assert_loads_as_reference(text)
    g = load_edge_list(io.StringIO(text))
    assert g.labels == (-10 ** 21, low, 5, big, 10 ** 21)
    assert all(type(x) is int for x in g.labels)
    # a token that int() rejects makes every label a string, past int64 or not
    assert load_edge_list(io.StringIO(f"{big} 1\nx 1\n")).labels == ("1", str(big), "x")
    # in int64 range, "0...05" and "5" are one label as well
    assert load_edge_list(io.StringIO(f"{'0' * 30}5 5\n5 6\n")).labels == (5, 6)
