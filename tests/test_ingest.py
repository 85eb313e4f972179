"""Ingest and emit pinned against fixed outputs and a per-line reference.

The golden digests are the SHA-256 of ``tc compute`` stdout (TSV and JSON)
as the per-line ingest and keyed-sort ranking produced it, so a bulk ingest
or a vectorized ranking must reproduce that output byte for byte.
"""

import hashlib
import io
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricent.cli import main
from tricent.errors import InputError
from tricent.generators import FIXTURES, load_fixture
from tricent.graph import build_graph, load_edge_list, parse_edge_list

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
SPACE = st.text(alphabet=[" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
                          "\u2028", "\r"], min_size=1, max_size=3)


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


def assert_loads_as_reference(text):
    labels, offsets, neighbors = reference_load(text)
    g = load_edge_list(io.StringIO(text))
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
