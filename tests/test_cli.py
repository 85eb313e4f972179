import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import tricent
from test_mapreduce import GOLDEN_ROUNDS
from tricent.centrality import triangle_centrality
from tricent import cli
from tricent.cli import _EMIT_ROWS, _ROUTES, main
from tricent.compare import rank_vertices
from tricent.errors import ConsistencyError
from tricent.generators import GEN_FAMILIES, load_fixture
from tricent.graph import (build_abbreviated_adjacency, degree_order, dump_edge_list,
                           load_edge_list)
from tricent.mapreduce import RECORD_LIMIT
from tricent.triangle import MergeTally, triangle_neighbor

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def karate_file(tmp_path):
    path = tmp_path / "karate.txt"
    with open(path, "w") as fh:
        dump_edge_list(load_fixture("karate"), fh)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stats_record(capsys, path, algo):
    """The run record that `compute --stats` writes: one JSON line on stderr."""
    code, _, err = run(capsys, "compute", path, "--algo", algo, "--stats")
    assert code == 0
    (line,) = err.splitlines()
    return json.loads(line)


def untimed(record):
    """A run record without its graph path, its timings and its peak RSS."""
    return {k: v for k, v in record.items()
            if k not in ("graph", "seconds", "phases", "peak_rss_mb")}


def test_compute_karate(capsys, karate_file):
    code, out, _ = run(capsys, "compute", karate_file)
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 34
    assert lines[0].split("\t")[0] == "14"


def test_compute_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n2 3\n1 3\n"))
    code, out, _ = run(capsys, "compute", "-")
    assert code == 0
    assert [line.split("\t") for line in out.strip().splitlines()] == [
        ["1", "1.0"], ["2", "1.0"], ["3", "1.0"]]


def test_gen_pipe_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "clique", "--k", "5")
    assert code == 0
    path = tmp_path / "c5.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "compute", str(path))
    scores = [line.split("\t")[1] for line in out.strip().splitlines()]
    assert scores == ["1.0"] * 5


def test_empty_input_is_ok(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    for command in ("compute", "compare"):
        code, out, _ = run(capsys, command, str(path))
        assert code == 0
        assert out == ""


def test_all_algorithms_agree(capsys, karate_file):
    outputs = {}
    for algo in _ROUTES:
        code, out, _ = run(capsys, "compute", karate_file, "--algo", algo)
        assert code == 0
        outputs[algo] = {
            line.split("\t")[0]: float(line.split("\t")[1])
            for line in out.strip().splitlines()
        }
    ref = outputs["main"]
    for algo, scores in outputs.items():
        assert scores.keys() == ref.keys()
        assert all(abs(scores[k] - ref[k]) <= 1e-12 for k in ref)


def test_output_determinism(capsys, karate_file):
    first = run(capsys, "compute", karate_file, "--algo", "parallel")
    second = run(capsys, "compute", karate_file, "--algo", "parallel")
    assert first == second


def test_tsv_rows_of_several_blocks_are_written_in_rank_order(capsys, tmp_path, bench_gen):
    # the TSV is formatted and written a block of rows at a time
    path = tmp_path / "hk.txt"
    bench_gen.holme_kim(2 * _EMIT_ROWS + 5, 3, 0.5, 2).write(path)
    code, out, _ = run(capsys, "compute", str(path))
    assert code == 0
    g = load_edge_list(str(path))
    assert g.n == 2 * _EMIT_ROWS + 5
    cv = triangle_centrality(g)
    assert out == "".join(f"{g.labels[v]}\t{float(cv.scores[v])!r}\n"
                          for v in rank_vertices(cv).order.tolist())


def test_json_format(capsys, karate_file):
    code, out, _ = run(capsys, "compute", karate_file, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["triangle_total"] == 45
    assert payload["scores"][0]["vertex"] == "14"
    assert payload["scores"][0]["rank"] == 1


@pytest.mark.parametrize("text", [
    "", "1 2\n", 'a"b Ωmega\nx\\y é\nΩmega x\\y\na"b x\\y\n',
])
def test_json_layout_is_json_dumps_indent_two(capsys, monkeypatch, text):
    # no edges, one edge without triangles, and labels that need escaping
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "compute", "-", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_mapreduce_round_table(capsys, karate_file):
    code, out, err = run(capsys, "compute", karate_file, "--algo", "mapreduce", "--stats")
    assert code == 0
    rounds = json.loads(err)["work"]
    assert [r["round_index"] for r in rounds] == [1, 2, 3, 4]
    assert all(list(r) == ["round_index", "map_records", "reduce_records", "est_bits"]
               for r in rounds)
    assert out.strip().splitlines()[0].startswith("14\t")


def test_compare_table(capsys, karate_file):
    code, out, _ = run(capsys, "compare", karate_file, "--k", "10")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split("\t")
    assert header[:2] == ["measure", "top"]
    tops = {line.split("\t")[0]: line.split("\t")[1] for line in lines[1:7]}
    assert tops["TC"] == "14"
    assert tops["DC"] == "34"


def test_compare_rejects_k_below_one(capsys, karate_file):
    for k in ("0", "-2"):
        code, out, err = run(capsys, "compare", karate_file, "--k", k)
        assert code == 1
        assert out == ""
        assert "k must be >= 1" in err


def test_compare_refuses_graphs_above_the_exact_limit(capsys, tmp_path,
                                                     edges_above_exact_limit):
    path = tmp_path / "long.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in edges_above_exact_limit))
    code, out, err = run(capsys, "compare", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: exact betweenness limited to n*m <= ")


def test_stats_flag(capsys, karate_file):
    for algo in _ROUTES:
        for fmt in ("tsv", "json"):
            argv = ("compute", karate_file, "--algo", algo, "--format", fmt)
            code, plain, err = run(capsys, *argv)
            assert code == 0 and err == "", argv
            code, out, err = run(capsys, *argv, "--stats")
            assert code == 0 and out == plain, argv
            assert json.loads(err)["triangles"] == 45, argv


@pytest.mark.parametrize("algo", list(_ROUTES))
def test_stats_record_on_karate(capsys, karate_file, algo):
    record = stats_record(capsys, karate_file, algo)
    assert list(record) == ["algo", "n", "m", "triangles", "seconds", "work", "phases",
                            "shape", "peak_rss_mb"]
    assert (record["algo"], record["n"], record["m"], record["triangles"]) == (algo, 34, 78, 45)
    assert record["seconds"] >= 0.0
    assert record["peak_rss_mb"] > 0.0
    phases = record["phases"]
    if algo == "mapreduce":
        assert list(phases) == ["load", "rank", "emit"]
    else:
        assert list(phases) == ["load", "order", "detect", "fold", "rank", "emit"]
        # the route's phases are parts of its seconds
        assert phases["order"] + phases["detect"] + phases["fold"] <= record["seconds"]
    assert all(s >= 0.0 for s in phases.values())
    g = load_fixture("karate")
    adj = build_abbreviated_adjacency(g, degree_order(g))
    p = adj.prefix_len.tolist()
    assert record["shape"] == {"max_degree": 17, "longest_prefix": max(p),
                               "sqrt_2m": math.sqrt(2 * 78),
                               "prefix_pairs": sum(x * (x - 1) // 2 for x in p)}
    assert record["shape"]["longest_prefix"] <= record["shape"]["sqrt_2m"]
    work = record["work"]
    if algo == "parallel":
        tally = MergeTally()
        triangle_neighbor(adj, tally)
        assert work == {"merge_comparisons": tally.merge_comparisons, "triangles": 45}
    elif algo == "mapreduce":
        assert [(r["map_records"], r["reduce_records"], r["est_bits"])
                for r in work] == GOLDEN_ROUNDS["karate"]
    else:
        assert work is None


def test_mapreduce_record_limit(capsys, monkeypatch, karate_file):
    code, out, _ = run(capsys, "compute", "--help")
    assert f"over {RECORD_LIMIT} (exit 1)" in " ".join(out.split())
    # karate needs m + 7 * 69 prefix pairs = 561 records
    monkeypatch.setattr("tricent.mapreduce.RECORD_LIMIT", 560)
    code, out, err = run(capsys, "compute", karate_file, "--algo", "mapreduce")
    assert code == 1 and out == ""
    assert err == ("error: mapreduce limited to m + 7 * prefix pairs <= 560 records; "
                   "this graph needs 561\n")


def test_readme_synopsis_lists_every_route():
    synopsis = [line for line in README.read_text().splitlines()
                if line.startswith(("tc compute ", "tc bench "))]
    assert len(synopsis) == 2
    for line in synopsis:
        (names,) = re.findall(r"\[--algo ([\w|]+)", line)
        assert names.split("|") == list(_ROUTES), line


@pytest.mark.parametrize("algo", list(_ROUTES))
def test_label_seen_only_in_a_self_loop(capsys, monkeypatch, algo):
    # 9 becomes the last vertex and has no neighbors
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n2 3\n1 3\n9 9\n"))
    code, out, _ = run(capsys, "compute", "-", "--algo", algo)
    assert code == 0
    assert out.splitlines() == ["1\t1.0", "2\t1.0", "3\t1.0", "9\t0.0"]


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "compute")[0] == 1
    assert run(capsys, "gen", "no-such-family")[0] == 1


def test_bad_generator_params_exit_one(capsys):
    assert run(capsys, "gen", "clique-chain", "--p", "1")[0] == 1


@pytest.mark.parametrize("argv,name", [
    (("triad-hub", "--k", "9"), "'k'"),
    (("karate", "--p", "40", "--pendants", "3"), "'p'"),
])
def test_gen_rejects_parameter_the_family_does_not_take(capsys, argv, name):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"no parameter {name}" in err


@pytest.mark.parametrize("argv", [
    ("clique", "--k", str(10**8)),
    ("lone-triangle", "--pendants", str(10**9)),
    ("clique-bridge-hub", "--k", str(10**5)),
])
def test_gen_refuses_oversized_families_before_building(capsys, monkeypatch, argv):
    def refuse(edges):
        raise AssertionError("tc gen started to build an oversized graph")

    # the generators stream their edges into build_graph, so nothing sized by
    # the parameters exists before it is called
    monkeypatch.setattr("tricent.generators.build_graph", refuse)
    code, out, err = run(capsys, "gen", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "the limit is 10000000" in err


@pytest.mark.parametrize("argv", [
    ("compute", "--threads", "2", "{f}"),
    ("bench", "--threads", "2", "{f}"),
    ("mapreduce", "{f}"),
    ("gen", "clique", "--n", "5"),
])
def test_removed_options_exit_one(capsys, karate_file, argv):
    code, out, _ = run(capsys, *(a.format(f=karate_file) for a in argv))
    assert code == 1 and out == ""


def test_consistency_error_exits_three(capsys, monkeypatch, karate_file):
    def corrupt(g):
        raise ConsistencyError("counts disagree")

    monkeypatch.setitem(_ROUTES, "main", corrupt)
    code, out, err = run(capsys, "compute", karate_file)
    assert code == 3
    assert out == ""
    assert err == "internal error: counts disagree\n"


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "compute", "/no/such/file")
    assert code == 2
    assert "error" in err


def test_bench_no_inputs(capsys):
    code, out, _ = run(capsys, "bench")
    assert code == 0
    assert out == ""


def test_bench_skips_missing_and_reports(capsys, karate_file):
    code, out, err = run(capsys, "bench", "/missing.txt", karate_file,
                         "--algo", "main", "--algo", "algebraic")
    assert code == 0
    assert "skipping /missing.txt" in err
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["graph"], r["algo"], r["triangles"]) for r in records] == [
        (karate_file, "main", 45), (karate_file, "algebraic", 45)]


@pytest.mark.parametrize("algo", list(_ROUTES))
def test_bench_runs_every_route(capsys, karate_file, algo):
    code, out, _ = run(capsys, "bench", karate_file, "--algo", algo)
    assert code == 0
    (line,) = out.splitlines()
    record = json.loads(line)
    assert list(record)[:2] == ["graph", "algo"] and record["graph"] == karate_file
    assert untimed(record) == untimed(stats_record(capsys, karate_file, algo))


def test_bench_goes_on_after_a_route_refuses_a_graph(capsys, monkeypatch, tmp_path,
                                                      karate_file):
    # m + 7 * prefix pairs is 1,566 on dolphins and 561 on karate
    monkeypatch.setattr("tricent.mapreduce.RECORD_LIMIT", 1_000)
    dolphins = tmp_path / "dolphins.txt"
    with open(dolphins, "w") as fh:
        dump_edge_list(load_fixture("dolphins"), fh)
    code, out, err = run(capsys, "bench", str(dolphins), karate_file,
                         "--algo", "mapreduce", "--algo", "main")
    assert code == 0
    assert err.startswith(f"warning: skipping {dolphins} for mapreduce: mapreduce limited")
    assert err.count("\n") == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["graph"], r["algo"], r["triangles"]) for r in records] == [
        (str(dolphins), "main", 95), (karate_file, "mapreduce", 45),
        (karate_file, "main", 45)]


def test_bench_skips_malformed_file(capsys, tmp_path, karate_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3\n")
    code, out, err = run(capsys, "bench", str(bad), karate_file)
    assert code == 0
    assert f"warning: skipping {bad}: " in err and ":2:" in err
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["graph"], r["algo"], r["triangles"]) for r in records] == [
        (karate_file, "main", 45)]


@pytest.mark.parametrize("family", sorted(GEN_FAMILIES))
def test_every_family_round_trips_through_compute(capsys, tmp_path, family):
    code, out, _ = run(capsys, "gen", family)
    assert code == 0 and out
    path = tmp_path / "g.txt"
    path.write_text(out)
    code, scores, _ = run(capsys, "compute", str(path), "--algo", "algebraic")
    assert code == 0
    assert len(scores.strip().splitlines()) == len(
        {tok for line in out.splitlines() for tok in line.split()})


def test_gen_fixture_matches_bundled(capsys):
    code, out, _ = run(capsys, "gen", "borgatti")
    assert code == 0
    assert len(out.strip().splitlines()) == 32
    assert out.startswith("a b\n")


def child_env():
    """The environment for a child interpreter that imports this tricent."""
    env = dict(os.environ)
    src = str(Path(tricent.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_compute_main_route_does_not_load_scipy(karate_file):
    code = ("import sys, io, contextlib\n"
            "import tricent.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert tricent.cli.main(['compute', {karate_file!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_closed_stdout_pipe_exits_two_quietly(karate_file):
    proc = subprocess.Popen([sys.executable, "-m", "tricent.cli", "compare", karate_file],
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # long before the child has imported tricent and written
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err == b""


def _vm_rss_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) / 1024


def test_stats_peak_rss_is_the_childs_own(karate_file):
    # ru_maxrss of a child started through fork or vfork and exec keeps the
    # parent's high-water mark; the record must give the child's own peak,
    # which the ballast held by this process does not reach
    ballast = bytes(range(256)) * (1 << 18)  # 64 MB, every page written
    parent = _vm_rss_mb()
    proc = subprocess.run([sys.executable, "-m", "tricent.cli", "compute", karate_file,
                           "--stats"], env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert len(ballast) == 64 << 20  # held until the child has exited
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr)["peak_rss_mb"] < parent - 32


@pytest.mark.parametrize("platform, maxrss", [("linux", 51_200), ("darwin", 50 << 20)])
def test_peak_rss_without_proc_reads_ru_maxrss_in_its_unit(monkeypatch, platform, maxrss):
    # with no /proc, the peak is ru_maxrss: KiB on Linux, bytes on macOS
    import resource

    def no_proc(*args, **kwargs):
        raise FileNotFoundError(args[0])

    monkeypatch.setattr("tricent.cli.open", no_proc, raising=False)
    monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=maxrss))
    monkeypatch.setattr("sys.platform", platform)
    assert cli._peak_rss_mb() == 50.0


def test_non_utf8_file_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 2\n2 \xff\n")
    code, out, err = run(capsys, "compute", str(path))
    assert code == 2 and out == ""
    assert err.startswith("i/o error: ") and str(path) in err


def test_non_utf8_stdin_exits_two(capsys, monkeypatch):
    # stdin's own error handler lets the byte through, as it does under a C locale
    stdin = io.TextIOWrapper(io.BytesIO(b"1 2\n2 \xff\n"), encoding="utf-8",
                             errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "compute", "-")
    assert code == 2 and out == ""
    assert err.startswith("i/o error: <stdin>")


def test_stdin_bytes_read_with_universal_newlines(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"1 2\r\n2 3\r1 3"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, _ = run(capsys, "compute", "-")
    assert code == 0
    assert out.splitlines() == ["1\t1.0", "2\t1.0", "3\t1.0"]


def test_byte_order_mark_on_stdin_is_not_a_vertex(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbf1 2\n2 3\n3 1\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, _ = run(capsys, "compute", "-")
    assert code == 0
    assert out.splitlines() == ["1\t1.0", "2\t1.0", "3\t1.0"]


def test_repeated_compute_calls_in_one_process(capsys, karate_file):
    first = run(capsys, "compute", karate_file)
    other = run(capsys, "compute", karate_file, "--algo", "basic", "--format", "json")
    second = run(capsys, "compute", karate_file)
    assert first[0] == other[0] == 0
    assert first == second
    assert first[1] != other[1]
