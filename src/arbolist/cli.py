"""Command line front end.

Subcommands: gen, list, verify, solve-zero-clique, bench.  Record lines
are "T a b c", "C4 a b c d", "K<k> v1 ... vk"; counts print as
"COUNT <kind> <value>"; every listing run ends with
"STATS pre=<s> emit=<s> count=<t> steps=<c> load=<s>", where load is the
time to read the input file into a graph.  Exit codes: 0 success,
1 verification mismatch, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter
from typing import Optional

from . import bench as bench_mod
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
    return (lambda g, sink: list_kcliques(g, k, sink),
            lambda g: oracle.brute_kcliques(g, k),
            f"K{k}" + " %d" * min(k, n) + "\n")


def cmd_gen(args) -> int:
    if args.family == "polarity":
        g = polarity_graph(args.q)
        comment = f"polarity q={args.q}"
    elif args.family == "gnm":
        g = random_gnm(args.n, args.m, args.seed)
        comment = f"gnm n={args.n} m={args.m} seed={args.seed}"
    elif args.family == "kpartite":
        g = random_kpartite(args.k, args.n_part, args.edge_prob, args.seed)
        comment = (f"kpartite k={args.k} n_part={args.n_part} "
                   f"edge_prob={args.edge_prob} seed={args.seed}")
    elif args.family == "sparse-triangle":
        g = sparse_triangle_instance(args.n_param, args.sigma, args.seed)
        comment = (f"sparse-triangle n_param={args.n_param} "
                   f"sigma={args.sigma} seed={args.seed}")
    else:
        wg = random_weighted_kpartite(args.k, args.n_part, args.edge_prob,
                                      args.weight_bound, args.seed,
                                      planted=args.planted)
        comment = (f"zero-clique k={args.k} n_part={args.n_part} "
                   f"edge_prob={args.edge_prob} weight_bound={args.weight_bound} "
                   f"seed={args.seed} planted={args.planted}")
        graphio.write_weighted_kpartite(args.out, wg,
                                        generator_comment=comment)
        print(f"wrote {args.out} ({wg.base.n} vertices, {wg.base.m} edges)")
        return EXIT_OK
    graphio.write_edge_list(args.out, g, generator_comment=comment)
    print(f"wrote {args.out} ({g.n} vertices, {g.m} edges)")
    return EXIT_OK


def cmd_list(args) -> int:
    t0 = perf_counter()
    g = graphio.read_edge_list(args.input)
    load = perf_counter() - t0
    lister, _, line = _kind(args.kind, args.k, g.n)
    if args.count_only:
        stats = lister(g, lambda record: None)
        print(f"COUNT {args.kind} {stats.emitted_count}")
    else:
        # Bound when the command runs, so a replaced sys.stdout is used.
        write = sys.stdout.write

        def sink(record) -> None:
            # Returns None: write's character count would stop the lister.
            write(line % record)

        stats = lister(g, sink)
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
        epsilon = args.epsilon if args.epsilon is not None else 0.5
        largest = max(len(part) for part in wg.parts())
        s = choose_s(largest, args.k, epsilon)
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
    rows = bench_mod.run_suite(args.suite, small=args.small)
    bench_mod.write_csv(args.output, rows)
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
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_pol = gen_sub.add_parser("polarity")
    g_pol.add_argument("--q", type=int, required=True)
    g_gnm = gen_sub.add_parser("gnm")
    g_gnm.add_argument("--n", type=int, required=True)
    g_gnm.add_argument("--m", type=int, required=True)
    g_gnm.add_argument("--seed", type=int, default=0)
    g_kp = gen_sub.add_parser("kpartite")
    g_kp.add_argument("--k", type=int, required=True)
    g_kp.add_argument("--n-part", type=int, required=True)
    g_kp.add_argument("--edge-prob", type=float, default=0.5)
    g_kp.add_argument("--seed", type=int, default=0)
    g_sp = gen_sub.add_parser("sparse-triangle")
    g_sp.add_argument("--n-param", type=int, required=True)
    g_sp.add_argument("--sigma", type=float, required=True)
    g_sp.add_argument("--seed", type=int, default=0)
    g_zc = gen_sub.add_parser("zero-clique")
    g_zc.add_argument("--k", type=int, required=True)
    g_zc.add_argument("--n-part", type=int, required=True)
    g_zc.add_argument("--edge-prob", type=float, default=0.5)
    g_zc.add_argument("--weight-bound", type=int, default=50)
    g_zc.add_argument("--seed", type=int, default=0)
    g_zc.add_argument("--planted", action="store_true")
    for sp in (g_pol, g_gnm, g_kp, g_sp, g_zc):
        sp.add_argument("--out", required=True)

    p_list = sub.add_parser("list", help="stream subgraph records")
    p_list.add_argument("--input", required=True)
    p_list.add_argument("--kind", choices=("triangle", "c4", "clique"),
                        required=True)
    p_list.add_argument("--k", type=int)
    p_list.add_argument("--count-only", action="store_true")

    p_verify = sub.add_parser("verify",
                              help="check a lister against the oracle")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--kind", choices=("triangle", "c4", "clique"),
                          required=True)
    p_verify.add_argument("--k", type=int)

    p_solve = sub.add_parser("solve-zero-clique",
                             help="search for a zero-weight clique")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--k", type=int, required=True)
    group = p_solve.add_mutually_exclusive_group()
    group.add_argument("--s", type=int)
    group.add_argument("--epsilon", type=float)
    p_solve.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", choices=sorted(bench_mod.SUITES),
                         required=True)
    p_bench.add_argument("--output", required=True)
    p_bench.add_argument("--small", action="store_true")

    p_deg = sub.add_parser("degeneracy",
                           help="print the degeneracy of a graph")
    p_deg.add_argument("--input", required=True)
    return parser


_DISPATCH = {
    "gen": cmd_gen,
    "list": cmd_list,
    "verify": cmd_verify,
    "solve-zero-clique": cmd_solve,
    "bench": cmd_bench,
    "degeneracy": cmd_degeneracy,
}


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
        return _DISPATCH[args.command](args)
    except ArbolistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
