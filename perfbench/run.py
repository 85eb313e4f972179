"""Benchmark of `tc compute` and the four scoring routes of ``tricent``.

    python3 perfbench/run.py --workload hk-rich --seed 1 --seconds 24 --trace 0

Generates the workload's graphs from the seed, scores them with the program
through its public entry points, checks every output against the independent
oracle in ``oracle.py``, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

A run repeats whole rounds of the same calls while the next round is expected
to end within ``--seconds`` (at least one round) and reports each metric's
median over the rounds. Times are scaled to a reference machine speed
measured around every timed pass (see ``speed.py``). Untraced (``--trace 0``)
it reports the end-to-end metrics; traced (``--trace 1``) it splits the same
work into the program's layers, records a span around each call, reports the
per-layer metrics and writes the spans to ``.perfbench_out/``. Generated
inputs and outputs live in ``.perfbench_work/`` and are removed when the run
ends.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracle
from spans import Tracer
from speed import Speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 9  # fresh interpreters timed per run, after one untimed warm-up
CHILD_TIMEOUT = 150

END_TO_END = {
    "setup_s": "s",
    "compute_s": "s",
    "peak_rss_mb": "MB",
    "score.main_s": "s",
    "score.parallel_s": "s",
    "score.algebraic_s": "s",
    "score.basic_s": "s",
}

# per-layer metric -> the span whose summed duration it reports
SPAN_METRICS = {
    "graph.parse_s": "graph.parse",
    "graph.build_s": "graph.build",
    "graph.order_s": "graph.order",
    "triangle.detect_s": "triangle.detect",
    "centrality.fold_s": "centrality.fold",
    "compare.rank_s": "compare.rank",
    "cli.emit_s": "cli.emit",
    "parallel.w1_s": "parallel.w1",
    "algebraic.adjacency_s": "algebraic.adjacency",
    "algebraic.tmatrix_s": "algebraic.tmatrix",
    "algebraic.score_s": "algebraic.score",
    "triangle.hash_detect_s": "triangle.hash_detect",
    "centrality.list_fold_s": "centrality.list_fold",
    "mapreduce.total_s": "mapreduce.total",
    "compare.betweenness_s": "compare.betweenness",
    "compare.closeness_s": "compare.closeness",
    "compare.eigenvector_s": "compare.eigenvector",
    "compare.pagerank_s": "compare.pagerank",
    "trace.compute_s": "cli.compute",
}
PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    "machine.ref_s": "s",
    "triangle.merge_comparisons": "count",
    "triangle.triangles_per_comparison": "ratio",
    "mapreduce.bits": "bits",
}

SETUP_CODE = "import sys; from tricent.cli import main; sys.exit(main())"


def load_program():
    """Import ``tricent`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "tricent" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tricent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tricent
    if Path(tricent.__file__).resolve().parent != (SRC / "tricent").resolve():
        raise SystemExit(f"perfbench: imported tricent from {tricent.__file__}")
    return tricent


class Ops:
    """Operations attempted, failed (raised or answered wrongly) and wrong."""

    def __init__(self, perturb=False):
        self.attempted = self.failed = self.wrong = 0
        self.perturb = perturb

    def fail(self, what, why, wrong):
        self.failed += 1
        self.wrong += wrong
        print(f"perfbench: FAILED {what}: {why}", file=sys.stderr)

    def call(self, what, fn, check):
        """Run ``fn()`` once, timed, after a ``gc.collect()``; count it and
        check its result.

        Returns the seconds the call took. ``check`` maps the result to an
        error message or None; it runs outside the timed region.
        """
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a crash is one failed operation
            self.fail(what, f"raised {exc!r}", wrong=False)
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        err = check(out)
        if err:
            self.fail(what, err, wrong=True)
        return dt

    def scores(self, cv):
        """The scores a check sees; with ``perturb`` one is nudged by 1e-9,
        which every check must catch."""
        if not self.perturb:
            return cv.scores
        s = np.array(cv.scores, dtype=np.float64)
        s[0] += 1e-9
        return s


class Case:
    """One input graph: its file, the oracle's answer from the file's lines,
    and the program's Graph of the file, built untimed by its own ingest."""

    def __init__(self, tc, ef, path):
        self.path, self.out = path, path.with_suffix(".tsv")
        ef.write(path)
        self.ring = ef.ring
        self.truth = oracle.truth(ef.a, ef.b)
        self.graph = tc.load_edge_list(str(path))
        # the oracle's id of each of the program's vertices
        self.ids = oracle.label_ids(self.graph.labels, self.truth)

    def error(self, scores, check):
        """Why ``check(scores by oracle id, truth)`` rejects ``scores``, which
        are indexed by the program's vertex ids; None if it accepts them."""
        if self.ids is None:
            return "the program's graph has another label set than the input"
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != self.ids.shape:
            return f"{scores.shape[0]} scores for {self.ids.shape[0]} vertices"
        by_id = np.empty_like(scores)
        by_id[self.ids] = scores
        return check(by_id, self.truth)

    def tc_error(self, by_id, t):
        err = oracle.score_error(by_id, t.scores)
        if err is None and self.ring is not None:
            err = oracle.score_error(by_id, oracle.ring_scores(t, *self.ring))
            err = err and f"closed form: {err}"
        return err

    def tsv_error(self, text):
        by_id, err = oracle.tsv_scores(text, self.truth)
        return err or self.tc_error(by_id, self.truth)


def make_cases(tc, efs, work, tag):
    return [Case(tc, ef, work / f"{tag}{i}.txt") for i, ef in enumerate(efs)]


def child_env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def setup_seconds(ops, work, speed):
    """Wall times of fresh interpreters that import tricent and run the CLI
    parser, as every `tc` invocation does."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        ops.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, "--help"], cwd=work,
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)
        dt = time.perf_counter() - t0
        factor = speed.factor()
        if proc.returncode != 0:
            ops.fail("tc --help", f"exit {proc.returncode}", wrong=True)
        elif i:  # the first start warms the bytecode cache
            samples.append(dt * factor)
    return samples


def compute_pass(ops, cases, work, traced, tr):
    """`tc compute` on every case in one fresh process; checks each TSV."""
    jobs = work / "jobs.tsv"
    jobs.write_text("".join(f"{c.path}\t{c.out}\n" for c in cases))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(SRC), str(jobs),
                           "1" if traced else "0"], cwd=work, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        for _ in cases:
            ops.attempted += 1
            ops.fail("tc compute", f"child exit {proc.returncode}: {proc.stderr[-500:]}",
                     wrong=False)
        return None
    sys.stderr.write(proc.stderr)
    res = json.loads(proc.stdout.splitlines()[-1])
    for c, code in zip(cases, res["codes"], strict=True):
        ops.attempted += 1
        if code != 0:
            ops.fail(f"tc compute {c.path.name}", f"exit {code}", wrong=False)
            continue
        err = c.tsv_error(c.out.read_text())
        if err:
            ops.fail(f"tc compute {c.path.name}", err, wrong=True)
    if traced:
        tr.adopt(res["spans"])
    return res


def score_pass(ops, what, cases, fn):
    """Sum of the seconds ``fn(graph)`` takes over the cases."""
    return sum(ops.call(f"{what} {c.path.name}", lambda c=c: fn(c.graph),
                        lambda cv, c=c: c.error(ops.scores(cv), c.tc_error))
               for c in cases)


def untraced_round(tc, ops, cases, work, speed, samples):
    res = compute_pass(ops, cases, work, False, None)
    speed.factor()  # the child scaled its own time; this re-measures for the next pass
    if res is not None:
        samples["compute_s"].append(res["seconds"])
        samples["peak_rss_mb"].append(res["rss_mb"])
    routes = {
        "score.main_s": tc.triangle_centrality,
        "score.parallel_s": lambda g: tc.parallel_triangle_centrality(
            g, tc.ParallelConfig(workers=NPROC))[0],
        "score.algebraic_s": tc.triangle_centrality_algebraic,
        "score.basic_s": tc.triangle_centrality_basic,
    }
    for name, fn in routes.items():
        seconds = score_pass(ops, name, cases, fn)
        samples[name].append(seconds * speed.factor())


def traced_round(tc, ops, cases, probes, work, speed, tr, samples):
    mark = len(tr.spans)
    with tr.span("round"):
        res = compute_pass(ops, cases, work, True, tr)
        speed.factor()

        def basic(g):
            with tr.span("score.basic"):
                with tr.span("basic.order"):
                    adj = tc.build_abbreviated_adjacency(g, tc.degree_order(g))
                with tr.span("triangle.hash_detect"):
                    stats, nbh = tc.hash_neighbor_pair_tri_neighbors(g, adj)
                with tr.span("centrality.list_fold"):
                    return tc.tc_from_triangles(g, stats, neighborhood=nbh, method="basic")

        def algebraic(g):
            with tr.span("score.algebraic"):
                with tr.span("algebraic.adjacency"):
                    A = tc.adjacency_matrix(g)
                with tr.span("algebraic.tmatrix"):
                    T = tc.build_triangle_matrix(g)
                with tr.span("algebraic.score"):
                    return tc.tc_algebraic(A, T)

        def parallel_w1(g):
            with tr.span("parallel.w1"):
                return tc.parallel_triangle_centrality(g, tc.ParallelConfig(workers=1))[0]

        def mapreduce(g):
            with tr.span("mapreduce.total"):
                cv, rounds = tc.run_mapreduce_tc(g)
            samples_bits.append(sum(r.est_bits for r in rounds))
            return cv

        samples_bits = []
        for name, fn in (("basic", basic), ("algebraic", algebraic),
                         ("parallel w1", parallel_w1)):
            since = len(tr.spans)
            score_pass(ops, name, cases, fn)
            tr.rescale(since, speed.factor())
        since = len(tr.spans)
        score_pass(ops, "mapreduce", probes, mapreduce)
        classical_pass(tc, ops, probes, tr)
        tr.rescale(since, speed.factor())

    for metric, span in SPAN_METRICS.items():
        samples[metric].append(tr.seconds(span, mark))
    if res is not None:
        samples["triangle.merge_comparisons"].append(res["merge_comparisons"])
        samples["triangle.triangles_per_comparison"].append(
            res["triangles"] / res["merge_comparisons"])
    samples["mapreduce.bits"].append(sum(samples_bits))


def classical_pass(tc, ops, probes, tr):
    """The four classical measures, checked by properties of their output."""
    measures = (
        ("betweenness", tc.betweenness_centrality, oracle.betweenness_error, False),
        ("closeness", tc.closeness_centrality, oracle.closeness_error, False),
        ("eigenvector", tc.eigenvector_centrality, oracle.eigenvector_error, True),
        ("pagerank", tc.pagerank, lambda pr, t: oracle.pagerank_error(pr), True),
    )

    def checked(cv, c, check, iterative):
        if iterative and not cv.converged:
            return "did not converge"
        return c.error(ops.scores(cv), check)

    for name, fn, check, iterative in measures:
        for c in probes:
            def call(c=c, fn=fn, name=name):
                with tr.span(f"compare.{name}"):
                    return fn(c.graph)
            ops.call(f"{name} {c.path.name}", call,
                     lambda cv, c=c, check=check, it=iterative: checked(cv, c, check, it))


def run(workload, seed, seconds, traced, work, perturb=False):
    """One benchmark run; returns the result object printed as the last line."""
    tc = load_program()
    ops = Ops(perturb)
    samples = defaultdict(list)
    speed = Speed()
    if not traced:
        samples["setup_s"] = setup_seconds(ops, work, speed)
    cases = make_cases(tc, workload.make(seed), work, "g")
    probes = make_cases(tc, workload.probe(seed), work, "p") if traced else []
    tr = Tracer()
    # The benchmark's own objects (imports, inputs, oracle answers) are moved
    # out of the collector's reach: the gc.collect() before each timed call
    # then costs microseconds, and no collection inside a call scans them.
    gc.collect()
    gc.freeze()

    start, last, rounds = time.perf_counter(), 0.0, 0
    while rounds == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        if traced:
            traced_round(tc, ops, cases, probes, work, speed, tr, samples)
        else:
            untraced_round(tc, ops, cases, work, speed, samples)
        last = time.perf_counter() - t0
        rounds += 1
        print(f"perfbench: {workload.name} seed {seed} round {rounds}: {last:.2f} s",
              file=sys.stderr)

    if traced:
        samples["machine.ref_s"] = speed.refs
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tr.write(out / f"trace-{workload.name}-{seed}.json")
    gc.unfreeze()
    units = PER_LAYER if traced else END_TO_END
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items() if samples[name]}
    return {"correct": ops.wrong == 0 and len(metrics) == len(units),
            "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    load_program()  # fail before writing anything when the program is absent
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace == 1, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
