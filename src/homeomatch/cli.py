"""Command line front end.

Subcommands:

    determine   decide containment for a pattern/data file pair
    enumerate   stream every witness mapping
    gen         write random or planted instance files
    verify      check a mapping file against an instance
    solve       list every witness by brute force (small instances only)
    bench       run an experiment spec and write CSV results

Exit codes: 0 for a positive answer (or plain success), 1 for a
negative answer or failed verification, 2 for any usage, parse or
parameter error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bench import ExperimentSpec, format_summary_table, iter_runs, summarize, write_runs_csv, write_summary_csv
from .graph import GraphFormatError, load_graph, plant_subdivision, random_labeled_graph, save_graph
from .mapping import Mapping
from .oracle import brute_force_solve, verify_mapping
from .search import STRATEGIES, SearchStats, enumerate_all, ndshd1, ndshd2

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_window_args(p):
    p.add_argument("--l", dest="l", type=int, required=True, help="minimum path length")
    p.add_argument("--h", dest="h", type=int, required=True, help="maximum path length")


def _add_search_args(p):
    p.add_argument("--algo", choices=STRATEGIES, default="ndshd2",
                   help="search strategy (default ndshd2)")
    p.add_argument("--stats", metavar="FILE", help="write search statistics as JSON")
    p.add_argument("--trace", action="store_true",
                   help="record a per-call recursion trace (requires --stats)")
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-clock fields from stats/CSV for byte-stable output")


def _search_stats(args) -> SearchStats:
    return SearchStats(trace=[] if args.trace else None)


def _write_stats(args, stats: SearchStats):
    payload = {"algo": args.algo, "l": args.l, "h": args.h}
    payload.update(stats.as_dict(include_timing=not args.no_timing))
    with open(args.stats, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_determine(args) -> int:
    g1 = load_graph(args.pattern)
    g2 = load_graph(args.data)
    fn = ndshd1 if args.algo == "ndshd1" else ndshd2
    stats = _search_stats(args)
    mapping = fn(g1, g2, args.l, args.h, stats=stats)
    print("true" if mapping is not None else "false")
    if mapping is not None and args.witness:
        sys.stdout.write(mapping.to_text())
    if args.stats:
        _write_stats(args, stats)
    return EXIT_TRUE if mapping is not None else EXIT_FALSE


def _print_mappings(mappings) -> int:
    """Print each mapping as it comes, a blank line between two; return the count."""
    count = 0
    for mapping in mappings:
        if count:
            print()
        sys.stdout.write(mapping.to_text())
        count += 1
    return count


def cmd_enumerate(args) -> int:
    g1 = load_graph(args.pattern)
    g2 = load_graph(args.data)
    stats = _search_stats(args)
    count = _print_mappings(enumerate_all(g1, g2, args.l, args.h, limit=args.limit,
                                          strategy=args.algo, stats=stats))
    if args.stats:
        _write_stats(args, stats)
    return EXIT_TRUE if count else EXIT_FALSE


def cmd_gen(args) -> int:
    if args.kind == "random":
        g = random_labeled_graph(args.n, args.avg_degree, args.labels, args.seed)
    else:
        pattern = load_graph(args.pattern)
        g = plant_subdivision(pattern, args.l, args.h, args.padding, args.seed)
    save_graph(args.out, g)
    return EXIT_TRUE


def cmd_verify(args) -> int:
    g1 = load_graph(args.pattern)
    g2 = load_graph(args.data)
    with open(args.mapping, "r", encoding="utf-8") as fh:
        mapping = Mapping.parse(fh.read())
    result = verify_mapping(g1, g2, args.l, args.h, mapping)
    if result:
        print("valid")
        return EXIT_TRUE
    print(f"invalid: {result.reason}")
    return EXIT_FALSE


def cmd_solve(args) -> int:
    g1 = load_graph(args.pattern)
    g2 = load_graph(args.data)
    mappings = brute_force_solve(g1, g2, args.l, args.h)[:args.limit]
    return EXIT_TRUE if _print_mappings(mappings) else EXIT_FALSE


def cmd_bench(args) -> int:
    spec = ExperimentSpec.load(args.spec)
    include_timing = not args.no_timing
    rows = []

    # Each row is written as its run ends, so a failing run keeps the rows before it.
    def finished():
        for row in iter_runs(spec):
            rows.append(row)
            yield row

    write_runs_csv(args.out, finished(), include_timing=include_timing)
    summary = summarize(spec.name, rows)
    summary_path = args.summary or (args.out + ".summary.csv")
    write_summary_csv(summary_path, summary, include_timing=include_timing)
    print(format_summary_table(summary, include_timing=include_timing))
    return EXIT_TRUE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homeomatch",
        description="Topological-minor (node-disjoint subgraph homeomorphism) matching")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("determine", help="decide whether the pattern embeds in the data graph")
    p.add_argument("pattern")
    p.add_argument("data")
    _add_window_args(p)
    _add_search_args(p)
    p.add_argument("--witness", action="store_true", help="print the found mapping")
    p.set_defaults(func=cmd_determine)

    p = sub.add_parser("enumerate", help="print every witness mapping")
    p.add_argument("pattern")
    p.add_argument("data")
    _add_window_args(p)
    _add_search_args(p)
    p.add_argument("--limit", type=_positive_int, help="stop after this many mappings")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("gen", help="generate instance files")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    pr = gen_sub.add_parser("random", help="seeded connected random graph")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--avg-degree", type=float, required=True)
    pr.add_argument("--labels", type=int, required=True)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_gen)
    pp = gen_sub.add_parser("planted", help="data graph with a planted subdivision of a pattern")
    pp.add_argument("--pattern", required=True)
    _add_window_args(pp)
    pp.add_argument("--padding", type=int, default=0)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check a mapping file against an instance")
    p.add_argument("pattern")
    p.add_argument("data")
    p.add_argument("mapping")
    _add_window_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="list all witnesses by brute force (small instances only)")
    p.add_argument("pattern")
    p.add_argument("data")
    _add_window_args(p)
    p.add_argument("--limit", type=_positive_int, help="print at most this many mappings")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run an experiment spec, write runs + summary CSVs")
    p.add_argument("spec")
    p.add_argument("--out", required=True, help="runs CSV path")
    p.add_argument("--summary", help="summary CSV path (default <out>.summary.csv)")
    p.add_argument("--no-timing", action="store_true",
                   help="blank the timing columns for byte-stable output")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace", False) and not getattr(args, "stats", None):
        parser.error("--trace requires --stats")
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
