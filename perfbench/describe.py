"""Print each workload's make-up for one seed.

    python3 perfbench/describe.py --seed 1

For every workload: graphs, n, m, triangles, max degree, the longest
higher-ordered prefix against sqrt(2m), and the merge kernel's comparisons
over m*sqrt(2m). Batches report totals, and maxima over the batch.
"""

import argparse
import io
import math

import oracle
from run import load_program
from workloads import WORKLOADS


def make_up(tc, efs):
    n = m = tri = maxdeg = maxpre = cmp_ = 0
    budget = 0.0
    bound = 0.0
    for ef in efs:
        t = oracle.truth(ef.a, ef.b)
        g = tc.load_edge_list(io.StringIO(ef.text()))
        adj = tc.build_abbreviated_adjacency(g, tc.degree_order(g))
        tally = tc.MergeTally()
        tc.triangle_neighbor(adj, tally, per_edge=False)
        n, m, tri = n + t.n, m + t.m, tri + t.total
        maxdeg = max(maxdeg, int(g.degrees.max()))
        maxpre = max(maxpre, int(adj.prefix_len.max()))
        bound = max(bound, math.sqrt(2 * t.m))
        cmp_ += tally.merge_comparisons
        budget += t.m * math.sqrt(2 * t.m)
    return {"graphs": len(efs), "n": n, "m": m, "triangles": tri, "max degree": maxdeg,
            "max prefix": maxpre, "sqrt(2m)": round(bound, 1),
            "comparisons/(m*sqrt(2m))": round(cmp_ / budget, 4)}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    tc = load_program()
    rows = [(name, make_up(tc, w.make(args.seed))) for name, w in WORKLOADS.items()]
    keys = list(rows[0][1])
    print("workload | " + " | ".join(keys))
    for name, row in rows:
        print(f"{name} | " + " | ".join(str(row[k]) for k in keys))


if __name__ == "__main__":
    main()
