"""Command line front end.

Subcommands: gen, list, verify, solve-zero-clique, bench, degeneracy.
Record lines are "T a b c", "C4 a b c d", "K<k> v1 ... vk"; counts print as
"COUNT <kind> <value>"; every listing run ends with
"STATS pre=<s> emit=<s> count=<t> steps=<c> load=<s>", where load is the
time to read the input file into a graph.  Exit codes: 0 success,
1 verification mismatch, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import partial
from time import perf_counter
from typing import Optional

import numpy as np

from . import graphio, oracle
from .core import degeneracy_ordering
from .errors import ArbolistError
from .generators import (
    polarity_graph,
    random_gnm,
    random_kpartite,
    random_weighted_kpartite,
    sparse_triangle_instance,
)
from .listing import (
    Collector,
    EnumerationStats,
    list_4cycles,
    list_kcliques,
    list_triangles,
)
from .zeroclique import choose_s, solve_zero_kclique

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# The names of arbolist.bench.SUITES, written out so that only the bench
# command imports that module.
BENCH_SUITES = ("c4-delay", "clique-scaling", "triangle-scaling",
                "zeroclique")


def _stats_line(stats: EnumerationStats, load: float) -> str:
    return (f"STATS pre={stats.preprocess_time:.6f} "
            f"emit={stats.emit_time:.6f} "
            f"count={stats.emitted_count} steps={stats.steps} "
            f"load={load:.6f}")


def _kind(kind: str, k: Optional[int], n: int):
    """The lister, the oracle and the record line format of one kind on
    a graph of n vertices.

    The listers are looked up here, when a command runs, not in a table
    built at import, so a lister rebound in this module (as a tracer
    does) is the one called.  A clique has at most n vertices, so a k
    above n lists nothing and sizes nothing.
    """
    if kind == "triangle":
        return list_triangles, oracle.brute_triangles, "T %d %d %d\n"
    if kind == "c4":
        return list_4cycles, oracle.brute_4cycles, "C4 %d %d %d %d\n"
    return (lambda g, sink, **kw: list_kcliques(g, k, sink, **kw),
            lambda g: oracle.brute_kcliques(g, k),
            f"K{k}" + " %d" * min(k, n) + "\n")


def _families() -> dict:
    """Each gen family: its generator and its options in call order.

    An option is (name, type, default), or (name, type) when it is
    required; a bool option is a flag.  Built when a command runs, as
    _kind is, so a generator rebound in this module is the one called.
    """
    seed = ("seed", int, 0)
    return {
        "polarity": (polarity_graph, [("q", int)]),
        "gnm": (random_gnm, [("n", int), ("m", int), seed]),
        "kpartite": (random_kpartite, [("k", int), ("n_part", int),
                                       ("edge_prob", float, 0.5), seed]),
        "sparse-triangle": (sparse_triangle_instance,
                            [("n_param", int), ("sigma", float), seed]),
        "zero-clique": (random_weighted_kpartite,
                        [("k", int), ("n_part", int),
                         ("edge_prob", float, 0.5), ("weight_bound", int, 50),
                         seed, ("planted", bool, False)]),
    }


def cmd_gen(args) -> int:
    generator, options = _families()[args.family]
    names = [name for name, *_ in options]
    values = [getattr(args, name) for name in names]
    g = generator(*values)
    comment = " ".join([args.family] + [f"{name}={value}" for name, value
                                        in zip(names, values)])
    if args.family == "zero-clique":
        graphio.write_weighted_kpartite(args.out, g, generator_comment=comment)
        g = g.base
    else:
        graphio.write_edge_list(args.out, g, generator_comment=comment)
    print(f"wrote {args.out} ({g.n} vertices, {g.m} edges)")
    return EXIT_OK


def cmd_list(args) -> int:
    t0 = perf_counter()
    g = graphio.read_edge_list(args.input)
    load = perf_counter() - t0
    lister, _, line = _kind(args.kind, args.k, g.n)
    if args.count_only:
        stats = lister(g, lambda rows: None, batches=True)
        print(f"COUNT {args.kind} {stats.emitted_count}")
    else:
        # Bound when the command runs, so a replaced sys.stdout is used.
        # write_rows returns None: a number would mean "stop at that row".
        sink = partial(graphio.write_rows, sys.stdout, line)
        stats = lister(g, sink, batches=True)
    print(_stats_line(stats, load))
    return EXIT_OK


def cmd_verify(args, lister=None) -> int:
    """Compare the fast lister against the brute-force oracle.

    ``lister`` is injectable so the harness can prove to itself that a
    wrong lister is flagged; the default is the real one.
    """
    g = graphio.read_edge_list(args.input)
    fast, brute, _ = _kind(args.kind, args.k, g.n)
    expected = brute(g)
    if lister is None:
        collector = Collector()
        fast(g, collector)
        got = set(collector.records)
    else:
        got = set(lister(g))
    if got == expected:
        print(f"verify {args.kind}: pass ({len(got)} records)")
        return EXIT_OK
    missing = len(expected - got)
    spurious = len(got - expected)
    print(f"verify {args.kind}: FAIL "
          f"({missing} missing, {spurious} spurious)")
    return EXIT_MISMATCH


def cmd_solve(args) -> int:
    wg = graphio.read_weighted_kpartite(args.input)
    if args.s is not None:
        s = args.s
    else:
        largest = int(np.bincount(wg.part, minlength=wg.k).max())
        s = choose_s(largest, args.k, args.epsilon)
    report = solve_zero_kclique(wg, args.k, s, args.seed)
    print(f"p={report.p}")
    print(f"s={report.s}")
    print(f"buckets_examined={report.buckets_examined}")
    print(f"cliques_listed_total={report.cliques_listed_total}")
    print(f"hash_s={report.hash_s:.6f}")
    print(f"extract_s={report.extract_s:.6f}")
    print(f"search_s={report.search_s:.6f}")
    print(f"found={report.found}")
    if report.witness is not None:
        print("ZK", *report.witness, "sum=0")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench

    rows = bench.run_suite(args.suite, small=args.small)
    bench.write_csv(args.output, rows)
    print(f"appended {len(rows)} rows to {args.output}")
    return EXIT_OK


def cmd_degeneracy(args) -> int:
    g = graphio.read_edge_list(args.input)
    print(f"COUNT degeneracy {degeneracy_ordering(g).degeneracy}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbolist",
        description="Subgraph listing, hard-instance generators, and a "
                    "zero-weight clique solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a generated graph to disk")
    p_gen.set_defaults(run=cmd_gen)
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    for family, (_, options) in _families().items():
        sp = gen_sub.add_parser(family)
        for name, kind, *default in options:
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                sp.add_argument(flag, action="store_true")
            elif default:
                sp.add_argument(flag, type=kind, default=default[0])
            else:
                sp.add_argument(flag, type=kind, required=True)
        sp.add_argument("--out", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # list and verify
    shared.add_argument("--input", required=True)
    shared.add_argument("--kind", choices=("triangle", "c4", "clique"),
                        required=True)
    shared.add_argument("--k", type=int)

    p_list = sub.add_parser("list", parents=[shared],
                            help="stream subgraph records")
    p_list.set_defaults(run=cmd_list)
    p_list.add_argument("--count-only", action="store_true")

    p_verify = sub.add_parser("verify", parents=[shared],
                              help="check a lister against the oracle")
    p_verify.set_defaults(run=cmd_verify)

    p_solve = sub.add_parser("solve-zero-clique",
                             help="search for a zero-weight clique")
    p_solve.set_defaults(run=cmd_solve)
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--k", type=int, required=True)
    group = p_solve.add_mutually_exclusive_group()
    group.add_argument("--s", type=int)
    group.add_argument("--epsilon", type=float, default=0.5)
    p_solve.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.set_defaults(run=cmd_bench)
    p_bench.add_argument("--suite", choices=BENCH_SUITES,
                         required=True)
    p_bench.add_argument("--output", required=True)
    p_bench.add_argument("--small", action="store_true")

    p_deg = sub.add_parser("degeneracy",
                           help="print the degeneracy of a graph")
    p_deg.set_defaults(run=cmd_degeneracy)
    p_deg.add_argument("--input", required=True)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "kind" in args and (args.kind == "clique") != (args.k is not None):
            parser.error("--k is required with --kind clique and not allowed "
                         "with other kinds")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (ArbolistError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Run :func:`main` on the command line and exit with its code: the
    ``arbolist`` script and ``python -m arbolist``.

    The GC is frozen before the exit to spare it the full collections
    over every object the imports made; output is still flushed and
    atexit handlers still run.  :func:`main` itself leaves the GC as it
    finds it.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
