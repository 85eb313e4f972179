"""Fresh-process side of the benchmark: `tc compute` on a list of files.

    python3 perfbench/child.py <src-dir> <jobs-file> <trace 0|1>

``jobs-file`` holds one ``input<TAB>output`` line per graph. Each graph is
computed as ``tc compute input > output`` would compute it, in this process,
after importing ``tricent`` and a ``gc.collect()``. Untraced, the call is the
CLI entry point itself; traced, it is the same pipeline (argument parsing
included) split into its public calls, each wrapped in a span. One JSON line on stdout reports the summed
seconds (scaled to reference speed, see ``speed.py``), each call's exit code,
this process's peak RSS and, when traced, the spans and merge counters.
"""

import gc
import json
import sys
import time
import traceback


def compute(main, src, dst):
    """``tc compute src > dst``; returns the exit code."""
    saved = sys.stdout
    with open(dst, "w") as out:
        sys.stdout = out
        try:
            return main(["compute", src])
        finally:
            sys.stdout = saved


def traced_compute(tr, tally, src, dst):
    """The steps of ``tc compute --algo main`` as separate public calls,
    after the CLI's own argument parsing, as ``tricent.cli.main`` does it."""
    from tricent import (build_abbreviated_adjacency, build_graph, degree_order,
                         parse_edge_list, rank_vertices, tc_from_triangles,
                         triangle_neighbor)
    from tricent.cli import _build_parser

    with tr.span("cli.compute"):
        src = _build_parser().parse_args(["compute", src]).path
        with tr.span("graph.parse"), open(src) as fh:
            edges = parse_edge_list(fh, source=src)
        with tr.span("graph.build"):
            g = build_graph(edges)
        del edges  # as in load_edge_list, the tuple list dies with the build
        with tr.span("graph.order"):
            adj = build_abbreviated_adjacency(g, degree_order(g))
        with tr.span("triangle.detect"):
            stats, marks = triangle_neighbor(adj, tally, per_edge=False)
        with tr.span("centrality.fold"):
            cv = tc_from_triangles(g, stats, adj=adj, marks=marks, method="main")
        with tr.span("compare.rank"):
            ranking = rank_vertices(cv)
        # the TSV branch of tricent.cli._emit_scores; a test compares this
        # output byte for byte with the untraced `tc compute` output
        with tr.span("cli.emit"), open(dst, "w") as out:
            for v in ranking.order:
                out.write(f"{g.label_of(int(v))}\t{float(cv.scores[int(v)])!r}\n")
    return 0


def peak_rss_mb():
    """This process's peak resident set (VmHWM). Not ``ru_maxrss``: that
    also keeps the high-water mark of the parent's memory, which a child
    started through vfork shares until it execs."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(jobs, traced):
    from tricent import MergeTally
    from tricent.cli import main
    from spans import Tracer
    from speed import Speed

    tr, tally, speed = Tracer(), MergeTally(), Speed()
    seconds, codes = 0.0, []
    for src, dst in jobs:
        gc.collect()
        t0 = time.perf_counter()
        try:
            rc = traced_compute(tr, tally, src, dst) if traced else compute(main, src, dst)
        except Exception:  # a crash is one failed operation, not a dead run
            traceback.print_exc()
            rc = -1
        seconds += time.perf_counter() - t0
        codes.append(rc)
    factor = speed.factor()
    tr.rescale(0, factor)
    rss_mb = peak_rss_mb()
    return {"seconds": seconds * factor, "codes": codes, "rss_mb": rss_mb, "spans": tr.spans,
            "merge_comparisons": tally.merge_comparisons, "triangles": tally.triangles}


if __name__ == "__main__":
    src_dir, jobs_file, trace_flag = sys.argv[1:4]
    sys.path.insert(0, src_dir)
    with open(jobs_file) as fh:
        job_list = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    print(json.dumps(run(job_list, trace_flag == "1")))
