"""Command-line front end.

Subcommands: compute, compare, gen, bench. Scores stream to stdout as
`label<TAB>score` sorted by rank (ties by label). A run record is one JSON
line: route, n, m, triangle total, the route's seconds, its work tally, the
seconds of each phase, the shape of the degree order, and peak RSS.
`compute --stats` writes it to stderr, with the load, rank and emit phases
around the route's order, detect and fold; `bench` writes one per file and
route to stdout, with the route's phases only. The route table `_ROUTES` is
the one list of `--algo` names.
Exit codes: 0 ok, 1 usage, 2 I/O (silent when stdout is a pipe closed early),
3 internal consistency.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from .algebraic import triangle_centrality_algebraic
from .centrality import triangle_centrality, triangle_centrality_basic
from .compare import EXACT_PATH_LIMIT, compute_all, rank_vertices, top_k_jaccard
from .digits import decimal_rows
from .errors import ConsistencyError, InputError
from .generators import GEN_FAMILIES, generate_fixture
from .graph import dump_edge_list, load_edge_list
from .mapreduce import RECORD_LIMIT, run_mapreduce_tc
from .parallel import parallel_triangle_centrality

USAGE_EXIT, IO_EXIT, INTERNAL_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


@functools.cache
def _build_parser():
    p = _Parser(prog="tc", description="Triangle centrality toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute triangle centrality scores")
    pc.add_argument("path", help="edge-list file, or - for stdin")
    pc.add_argument("--algo", choices=list(_ROUTES), default="main",
                    help="mapreduce refuses graphs whose m + 7 * prefix pairs is over "
                    f"{RECORD_LIMIT} (exit 1)")
    pc.add_argument("--stats", action="store_true", help="write the run record to stderr")
    pc.add_argument("--format", choices=["tsv", "json"], default="tsv")

    pp = sub.add_parser("compare", help="compare against classical measures; exact "
                        "closeness and betweenness refuse graphs with n*m over "
                        f"{EXACT_PATH_LIMIT} (exit 1)")
    pp.add_argument("path")
    pp.add_argument("--k", type=int, default=10)

    pg = sub.add_parser("gen", help="emit a generated edge list")
    pg.add_argument("family", choices=sorted(GEN_FAMILIES))
    pg.add_argument("--k", type=int, default=None, help="clique size parameter")
    pg.add_argument("--p", type=int, default=None, help="copy count parameter")
    pg.add_argument("--pendants", type=int, default=None)

    pb = sub.add_parser("bench", help="write a run record per edge list and algorithm")
    pb.add_argument("paths", nargs="*")
    pb.add_argument("--algo", action="append", choices=list(_ROUTES))
    return p


# one element of the JSON "scores" list, laid out as json.dumps(..., indent=2)
# lays it out; vertex is already a quoted JSON string
_JSON_ROW = '    {{\n      "vertex": {},\n      "score": {},\n      "rank": {}\n    }}'


# TSV rows looked up, formatted and written at a time. Written whole, the
# output of tc compute on a 20k-vertex Holme-Kim graph set the run's peak RSS.
# In blocks of 2**10, 2**12 or 2**14 rows, the run peaked at 41.07, 41.04 and
# 41.02 MB (VmHWM, median of 5) with integer labels in numpy, and the dirty
# G(n, m) at 49.15, 49.20 and 49.19 MB, set by ingest, with string labels
# joined; 2**12 rows wrote the 20k rows in 3.7 ms, 2**10 in 4.1 (2-core x86-64)
_EMIT_ROWS = 1 << 12
# graphs with fewer vertices join their int64 labels too: up to about 300
# rows, a block's numpy calls cost more than the join (join against numpy,
# warm, Holme-Kim graphs: 139 against 142 us at n = 200, 217 against 193 at
# 400, 367 against 285 at 800), and the join pages in no numpy code (with
# numpy rows, the benchmark's 200 small-batch graphs of 30 to 300 vertices
# peaked 0.15 MB higher)
_NUMPY_ROWS_FROM = 1 << 9


def _emit_scores(g, cv, ranking, fmt, out):
    # scores take few values: repr each distinct one (distinct in its bits,
    # so -0.0 keeps its sign) and gather the strings back
    bits, inverse = np.unique(cv.scores[ranking.order].astype(float).view(np.int64),
                              return_inverse=True)
    text = list(map(repr, bits.view(np.float64).tolist()))
    if fmt == "json":
        scores = map(text.__getitem__, inverse.tolist())
        # the bytes of json.dumps(payload, indent=2), written row by row: with
        # an indent, json runs its pure-Python encoder, three times slower than C
        ranks = ranking.rank[ranking.order].tolist()
        labels = map(g.labels.__getitem__, ranking.order.tolist())
        vertices = map(json.encoder.encode_basestring_ascii, map(str, labels))
        rows = ",\n".join(map(_JSON_ROW.format, vertices, scores, ranks))
        listing = f"[\n{rows}\n  ]" if rows else "[]"
        out.write(f'{{\n  "method": {json.dumps(cv.method)},\n'
                  f'  "triangle_total": {json.dumps(cv.tri_total)},\n'
                  f'  "triangle_free": {json.dumps(cv.triangle_free)},\n'
                  f'  "scores": {listing}\n}}\n')
    elif g.label_array is None or g.n < _NUMPY_ROWS_FROM:
        # label, then the shared tail of its score, interleaved into one join
        # per block of rows; int64 labels are read from their array, so the
        # labels tuple is not built
        tails = [f"\t{score}\n" for score in text]
        for lo in range(0, g.n, _EMIT_ROWS):
            block = ranking.order[lo:lo + _EMIT_ROWS]
            if g.label_array is None:
                labels = map(g.labels.__getitem__, block.tolist())
            else:
                labels = g.label_array[block].tolist()
            words = [""] * (2 * block.shape[0])
            words[0::2] = map(str, labels)
            words[1::2] = map(tails.__getitem__, inverse[lo:lo + _EMIT_ROWS].tolist())
            out.write("".join(words))
    else:
        # int64 labels, no Python object per row: per block, a byte matrix of
        # each label's decimal text (NUL before it) and its score's tail (NUL
        # after it), written without the NULs
        tails = np.array([f"\t{score}\n".encode() for score in text])
        tails = tails.view(np.uint8).reshape(len(text), -1)
        for lo in range(0, g.n, _EMIT_ROWS):
            labels = g.label_array[ranking.order[lo:lo + _EMIT_ROWS]]
            rows = np.concatenate((decimal_rows(labels), tails[inverse[lo:lo + _EMIT_ROWS]]),
                                  axis=1).ravel()
            # a mask, not an index: over 90% of the bytes are kept
            out.write(rows[rows != 0].tobytes().decode("ascii"))


# --algo name -> route: Graph -> (scores, the route's work tally or None)
_ROUTES = {
    "main": lambda g: (triangle_centrality(g), None),
    "basic": lambda g: (triangle_centrality_basic(g), None),
    "algebraic": lambda g: (triangle_centrality_algebraic(g), None),
    "parallel": parallel_triangle_centrality,
    "mapreduce": run_mapreduce_tc,
}


def _run(g, algo):
    """Score ``g`` along one route, timed: the scores and the run record."""
    t0 = time.perf_counter()
    cv, work = _ROUTES[algo](g)
    seconds = time.perf_counter() - t0
    return cv, {"algo": algo, "n": g.n, "m": g.m, "triangles": cv.tri_total,
                "seconds": seconds, "work": work, "phases": cv.phases or {},
                "shape": cv.shape}


def _peak_rss_mb():
    """This process's peak resident set so far, in MB: VmHWM. Not
    ``ru_maxrss`` where VmHWM can be read, since after fork or vfork and exec
    that keeps the parent's high-water mark as well."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    except OSError:
        pass
    import resource  # here, not at start-up: only a written record reads it

    # ru_maxrss is in bytes on macOS, in KiB elsewhere
    unit = 1 << 20 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit


def _write_record(record, out):
    """Write ``record`` with the process's peak RSS so far, in MB."""
    out.write(json.dumps({**record, "peak_rss_mb": _peak_rss_mb()},
                         default=dataclasses.asdict) + "\n")


def _cmd_compute(args):
    t0 = time.perf_counter()
    g = load_edge_list(args.path)
    t1 = time.perf_counter()
    cv, record = _run(g, args.algo)
    t2 = time.perf_counter()
    ranking = rank_vertices(cv)
    t3 = time.perf_counter()
    _emit_scores(g, cv, ranking, args.format, sys.stdout)
    if args.stats:
        record["phases"] = {"load": t1 - t0, **record["phases"], "rank": t3 - t2,
                            "emit": time.perf_counter() - t3}
        _write_record(record, sys.stderr)
    return 0


def _cmd_compare(args):
    g = load_edge_list(args.path)
    if g.n == 0:
        return 0
    results = compute_all(g)
    rankings = {name: rank_vertices(cv) for name, cv in results.items()}
    k = min(args.k, g.n)
    names = list(rankings)
    # the Jaccard table first, so a bad k writes nothing
    table = []
    for a in names:
        row = [a] + ["1" if a == b else str(top_k_jaccard(rankings[a], rankings[b], k))
                     for b in names]
        table.append("\t".join(row) + "\n")
    out = sys.stdout
    out.write("measure\ttop\ttop-" + str(k) + "\n")
    for name, rk in rankings.items():
        top = " ".join(str(g.label_of(v)) for v in rk.top(k))
        out.write(f"{name}\t{g.label_of(int(rk.order[0]))}\t{top}\n")
    out.write("\npairwise top-%d Jaccard\n" % k)
    out.write("\t" + "\t".join(names) + "\n")
    out.writelines(table)
    return 0


def _cmd_gen(args):
    params = {name: getattr(args, name) for name in ("k", "p", "pendants")
              if getattr(args, name) is not None}
    g = generate_fixture(args.family, **params)
    dump_edge_list(g, sys.stdout)
    return 0


def _cmd_bench(args):
    for path in args.paths:
        try:
            g = load_edge_list(path)
        except (OSError, InputError) as exc:
            sys.stderr.write(f"warning: skipping {path}: {exc}\n")
            continue
        for algo in args.algo or ["main"]:
            try:
                record = _run(g, algo)[1]
            except InputError as exc:  # a route that refuses the graph, such as mapreduce's limit
                sys.stderr.write(f"warning: skipping {path} for {algo}: {exc}\n")
                continue
            _write_record({"graph": path, **record}, sys.stdout)
    return 0


_COMMANDS = {
    "compute": _cmd_compute,
    "compare": _cmd_compare,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped reading (`tc ... | head`): end quietly, and point
        # stdout at devnull so the flush at interpreter exit has a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return IO_EXIT
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except ConsistencyError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return INTERNAL_EXIT
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return IO_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
