"""Steadiness check: repeat one workload and compare two sets of runs.

    python3 perfbench/steady.py --workload hk-rich --runs 10 --seconds 24

Runs ``run.py`` ``--runs`` times per set, each run with its own seed (set one
takes seeds 1..runs, set two the next ``runs`` seeds), then
prints for every metric each set's median and quartiles, each set's spread
(interquartile distance over the median) and the shift of the second median
from the first. A bound for a metric must exceed both its spread and its
shift. The raw results go to ``.perfbench_out/steady-<workload>-<trace>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sets = []
    for s in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            results.append(one_run(args.workload, seed, args.seconds, args.trace))
            print(f"set {s + 1} seed {seed}: attempted {results[-1]['attempted']} "
                  f"failed {results[-1]['failed']} correct {results[-1]['correct']}",
                  file=sys.stderr)
        sets.append(results)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}-{args.trace}.json").write_text(json.dumps(sets))

    print(f"workload {args.workload}, {args.runs} runs per set, --seconds {args.seconds}, "
          f"--trace {args.trace}")
    for i, results in enumerate(sets, 1):
        att = sum(r["attempted"] for r in results)
        bad = sum(r["failed"] for r in results)
        ok = all(r["correct"] for r in results)
        print(f"set {i}: failed {bad} of {att} attempted, all correct: {ok}")
    head = "metric | unit | " + " | ".join(
        f"set {i} median | q1 | q3 | spread" for i in range(1, len(sets) + 1))
    print(head + (" | shift" if len(sets) == 2 else ""))
    for name, m in sets[0][0]["metrics"].items():
        cells, meds = [], []
        for results in sets:
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in results])
            meds.append(med)
            cells.append(f"{med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.3f}")
        line = f"{name} | {m['unit']} | " + " | ".join(cells)
        if len(sets) == 2:
            line += f" | {meds[1] / meds[0] - 1:+.3f}" if meds[0] else " | nan"
        print(line)


if __name__ == "__main__":
    main()
