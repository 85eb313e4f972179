"""Tests of the benchmark's own code: generators, oracle, runner.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

tc = run.load_program()


def lines(pairs):
    a, b = zip(*pairs)
    return np.asarray(a), np.asarray(b)


# generators

@pytest.mark.parametrize("make", [
    lambda s: gen.holme_kim(300, 4, 0.8, s),
    lambda s: gen.dirty_er(300, 900, s),
    lambda s: gen.clique_ring(5, 7, s),
])
def test_generator_is_deterministic_per_seed(make):
    x, y, z = make(3), make(3), make(4)
    assert np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)
    assert not (np.array_equal(x.a, z.a) and np.array_equal(x.b, z.b))


def test_small_batch_is_deterministic_and_sequential():
    one, two = gen.small_batch(9, 5), gen.small_batch(9, 5)
    assert all(np.array_equal(p.a, q.a) and np.array_equal(p.b, q.b) for p, q in zip(one, two))
    head = gen.small_batch(4, 5)  # the workload's probe relies on this prefix property
    assert all(np.array_equal(p.a, q.a) for p, q in zip(head, one))


def test_dirty_er_is_dirty_but_simple_underneath():
    ef = gen.dirty_er(500, 2000, 1)
    assert ef.a.dtype.kind == "U"
    t = oracle.truth(ef.a, ef.b)
    assert t.m == 2000
    pairs = set(zip(ef.a.tolist(), ef.b.tolist()))
    loops = {x for x, y in pairs if x == y}
    assert loops and all(t.A[int(np.searchsorted(t.labels, x))].nnz for x in loops)
    assert all((y, x) in pairs for x, y in pairs)  # both orientations
    assert len(ef.a) > len(pairs)                    # repeated lines


def test_holme_kim_shape():
    ef = gen.holme_kim(2000, 5, 0.8, 1)
    t = oracle.truth(ef.a, ef.b)
    assert t.n == 2000 and 4 * 2000 < t.m <= 5 * 2000
    assert t.total > t.m / 2                         # triangle-rich
    assert t.A.getnnz(axis=1).max() > 10 * 2 * t.m / t.n  # skewed degrees


# oracle on graphs checked by hand

def test_oracle_k4():
    t = oracle.truth(*lines([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]))
    assert t.total == 4 and t.tri.tolist() == [3, 3, 3, 3]
    assert t.scores.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_oracle_lone_triangle_with_pendants():
    t = oracle.truth(*lines([(1, 2), (2, 3), (1, 3), (1, 4), (2, 5), (3, 6)]))
    assert t.total == 1 and t.tri.tolist() == [1, 1, 1, 0, 0, 0]
    # corners: core 3 -> 1; pendants: outer tri(corner) = 1 -> 1
    assert t.scores.tolist() == [1.0] * 6
    assert set(zip(*t.T.nonzero())) == {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)}


def test_oracle_bowtie():
    t = oracle.truth(*lines([(1, 2), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)]))
    assert t.total == 2 and t.tri.tolist() == [1, 1, 1, 1, 2]
    # leaf: core 1 + 1 + 2 = 4 -> (4/3) / 2; centre: core 2 + 4 = 6 -> 2 / 2
    want = [float(Fraction(2, 3))] * 4 + [1.0]
    assert oracle.score_error(t.scores, np.array(want)) is None


def test_oracle_matches_ring_closed_form():
    ef = gen.clique_ring(5, 6, 1)
    t = oracle.truth(ef.a, ef.b)
    assert oracle.score_error(t.scores, oracle.ring_scores(t, *ef.ring)) is None
    assert sorted(set(t.scores.tolist())) == [8 / 30, 14 / 30]


def test_oracle_label_ids():
    t = oracle.truth(*lines([(3, 1), (1, 2)]))
    assert oracle.label_ids([2, 3, 1], t).tolist() == [1, 2, 0]
    assert oracle.label_ids([1, 2], t) is None
    assert oracle.label_ids([1, 2, 2], t) is None
    assert oracle.label_ids([1, 2, 4], t) is None
    assert oracle.label_ids(["1", "2", "3"], t) is None


def test_oracle_rejects_a_perturbed_score_vector():
    t = oracle.truth(*lines([(1, 2), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)]))
    bad = t.scores.copy()
    bad[3] += 1e-9
    assert oracle.score_error(t.scores.copy(), t.scores) is None
    assert oracle.score_error(bad, t.scores) is not None
    assert oracle.score_error(t.scores[:-1], t.scores) is not None


def tsv_of(t):
    order = sorted(range(t.n), key=lambda v: (-t.scores[v], v))
    return "".join(f"{t.labels[v]}\t{float(t.scores[v])!r}\n" for v in order)


def test_oracle_tsv_checks():
    t = oracle.truth(*lines([(1, 2), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6)]))
    good = tsv_of(t)
    assert oracle.tsv_error(good, t) is None
    rows = good.splitlines(keepends=True)
    swapped = rows[:]
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert "out of order" in oracle.tsv_error("".join(swapped), t)
    assert oracle.tsv_error("".join(rows[:-1]), t) is not None
    assert oracle.tsv_error(good.replace("6\t", "7\t"), t) is not None
    assert oracle.tsv_error(good.replace("\t", "\tx", 1), t) is not None


def test_traced_pipeline_writes_what_tc_compute_writes(tmp_path):
    src = tmp_path / "g.txt"
    gen.dirty_er(300, 900, 1).write(src)
    plain, traced = child.run([(str(src), str(tmp_path / "plain.tsv"))], False), \
        child.run([(str(src), str(tmp_path / "traced.tsv"))], True)
    assert plain["codes"] == traced["codes"] == [0]
    assert (tmp_path / "plain.tsv").read_bytes() == (tmp_path / "traced.tsv").read_bytes()
    assert {s[0] for s in traced["spans"]} >= {"graph.parse", "cli.emit", "triangle.detect"}


# the runner

TINY = Workload("tiny", "test",
                lambda seed: [gen.holme_kim(150, 4, 0.8, seed), gen.clique_ring(4, 6, seed),
                              gen.dirty_er(120, 400, seed)],
                lambda seed: [gen.holme_kim(40, 3, 0.8, seed), gen.clique_ring(4, 5, seed)])


@pytest.mark.parametrize("traced", [False, True])
def test_run_reports_every_metric_and_no_failure(traced, tmp_path):
    res = run.run(TINY, 1, 0, traced, tmp_path)
    want = run.PER_LAYER if traced else run.END_TO_END
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == set(want)
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("traced", [False, True])
def test_a_perturbed_output_is_a_failed_operation(traced, tmp_path):
    res = run.run(TINY, 1, 0, traced, tmp_path, perturb=True)
    assert not res["correct"] and res["failed"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
