"""Command-line front end.

Subcommands: compute, compare, gen, bench. Scores stream to stdout as
`label<TAB>score` sorted by rank (ties by label); stats go to stderr. The
route table `_ROUTES` is the one list of `--algo` names.
Exit codes: 0 ok, 1 usage, 2 I/O (silent when stdout is a pipe closed early),
3 internal consistency.
"""

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from .algebraic import triangle_centrality_algebraic
from .centrality import triangle_centrality, triangle_centrality_basic
from .compare import EXACT_PATH_LIMIT, compute_all, rank_vertices, top_k_jaccard
from .errors import ConsistencyError, InputError
from .generators import GEN_FAMILIES, generate_fixture
from .graph import dump_edge_list, load_edge_list
from .mapreduce import run_mapreduce_tc
from .parallel import parallel_triangle_centrality, work_report

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
    pc.add_argument("--algo", choices=list(_ROUTES), default="main")
    pc.add_argument("--stats", action="store_true", help="print work counters to stderr")
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

    pb = sub.add_parser("bench", help="time algorithms on user-supplied edge lists")
    pb.add_argument("paths", nargs="*")
    pb.add_argument("--algo", action="append", choices=list(_ROUTES))
    return p


# one element of the JSON "scores" list, laid out as json.dumps(..., indent=2)
# lays it out; vertex is already a quoted JSON string
_JSON_ROW = '    {{\n      "vertex": {},\n      "score": {},\n      "rank": {}\n    }}'


def _emit_scores(g, cv, fmt, out):
    ranking = rank_vertices(cv)
    labels = list(map(g.labels.__getitem__, ranking.order.tolist()))
    # scores take few values: repr each distinct one (distinct in its bits,
    # so -0.0 keeps its sign) and gather the strings back
    bits, inverse = np.unique(cv.scores[ranking.order].astype(float).view(np.int64),
                              return_inverse=True)
    text = list(map(repr, bits.view(np.float64).tolist()))
    scores = map(text.__getitem__, inverse.tolist())
    if fmt == "json":
        # the bytes of json.dumps(payload, indent=2), written row by row: with
        # an indent, json runs its pure-Python encoder, three times slower than C
        ranks = ranking.rank[ranking.order].tolist()
        vertices = map(json.encoder.encode_basestring_ascii, map(str, labels))
        rows = ",\n".join(map(_JSON_ROW.format, vertices, scores, ranks))
        listing = f"[\n{rows}\n  ]" if rows else "[]"
        out.write(f'{{\n  "method": {json.dumps(cv.method)},\n'
                  f'  "triangle_total": {json.dumps(cv.tri_total)},\n'
                  f'  "triangle_free": {json.dumps(cv.triangle_free)},\n'
                  f'  "scores": {listing}\n}}\n')
    else:
        out.write("".join(map("{}\t{}\n".format, labels, scores)))


def _counts_line(g, cv, _, out):
    out.write(f"n={g.n} m={g.m} triangles={cv.tri_total}\n")


def _work_line(g, _, counters, out):
    out.write(f"{work_report(counters, g)}\n")


def _round_table(g, _, round_stats, out):
    out.write("round\trecords-in\trecords-out\test-bits\n")
    for rs in round_stats:
        out.write(f"{rs.round_index}\t{rs.map_records}\t{rs.reduce_records}\t{rs.est_bits}\n")


def _without_record(route):
    return lambda g: (route(g), None)


# --algo name -> (route: Graph -> (scores, the route's work record),
#                 --stats writer of that record)
_ROUTES = {
    "main": (_without_record(triangle_centrality), _counts_line),
    "basic": (_without_record(triangle_centrality_basic), _counts_line),
    "algebraic": (_without_record(triangle_centrality_algebraic), _counts_line),
    "parallel": (parallel_triangle_centrality, _work_line),
    "mapreduce": (run_mapreduce_tc, _round_table),
}


def _cmd_compute(args):
    g = load_edge_list(args.path)
    route, write_stats = _ROUTES[args.algo]
    cv, record = route(g)
    _emit_scores(g, cv, args.format, sys.stdout)
    if args.stats:
        write_stats(g, cv, record, sys.stderr)
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
    algos = args.algo or ["main"]
    sys.stdout.write("graph\talgo\tn\tm\ttriangles\tseconds\n")
    for path in args.paths:
        try:
            g = load_edge_list(path)
        except (OSError, InputError) as exc:
            sys.stderr.write(f"warning: skipping {path}: {exc}\n")
            continue
        for algo in algos:
            t0 = time.perf_counter()
            cv, _ = _ROUTES[algo][0](g)
            dt = time.perf_counter() - t0
            sys.stdout.write(f"{path}\t{algo}\t{g.n}\t{g.m}\t{cv.tri_total}\t{dt:.3f}\n")
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
