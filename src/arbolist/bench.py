"""Benchmark suites producing machine-independent scaling rows.

Each suite sweeps instance sizes geometrically, runs one lister per
instance, and emits rows holding both wall-time splits and the lister's
inner step counter.  The step counter, normalized by m times a power of
the degeneracy, is the scaling signal; wall time is informational.
Every suite hands its lister the per-record sink ``_drain``, not an
array sink, so ``emit_s`` keeps timing the per-record path (acceptance
8's 4-cycle "emit per item" measures it).
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Union

import numpy as np

from .core import Graph, degeneracy_ordering, from_edge_list
from .generators import polarity_graph, random_gnm, random_weighted_kpartite
from .primes import next_prime_above
from .listing import (
    EnumerationStats,
    list_4cycles,
    list_kcliques,
    list_triangles,
    orient,
)
from .zeroclique import (
    admissible_tuples,
    arc_table,
    extract_bucket,
    hash_edges,
    partition_intervals,
    sample_hash_params,
)

PathLike = Union[str, Path]

CSV_HEADER = "gen,n,m,alpha_proxy,algo,pre_s,emit_s,count,steps"

# The fixed instance parameters of the clique and zero-clique suites.
_CLIQUE_K, _CLIQUE_SEED = 4, 11
_ZC_EDGE_PROB, _ZC_WEIGHT_BOUND = 0.5, 50


@dataclass
class BenchRecord:
    """One benchmark row; field order matches the CSV header."""

    gen: str
    n: int
    m: int
    alpha_proxy: int
    algo: str
    pre_s: float
    emit_s: float
    count: int
    steps: int

    def __post_init__(self):
        if "," in self.gen or "," in self.algo:
            raise ValueError("gen and algo strings must not contain commas")
        if self.pre_s < 0 or self.emit_s < 0:
            raise ValueError("times must be nonnegative")


def _record(gen: str, g: Graph, algo: str,
            stats: EnumerationStats) -> BenchRecord:
    return BenchRecord(
        gen=gen, n=g.n, m=g.m,
        alpha_proxy=degeneracy_ordering(g).degeneracy,
        algo=algo,
        pre_s=stats.preprocess_time, emit_s=stats.emit_time,
        count=stats.emitted_count, steps=stats.steps,
    )


def write_csv(path: PathLike, records: Iterable[BenchRecord]) -> None:
    """Append rows, writing the header only when the file starts empty."""
    path = Path(path)
    fresh = not (path.exists() and path.stat().st_size > 0)
    with open(path, "a", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CSV_HEADER.split(","))
        for r in records:
            writer.writerow([getattr(r, f.name) for f in fields(BenchRecord)])


def read_csv(path: PathLike) -> list[BenchRecord]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER.split(","):
            raise ValueError(f"unexpected CSV header {header!r}")
        out = []
        for row in reader:
            gen, n, m, alpha, algo, pre_s, emit_s, count, steps = row
            out.append(BenchRecord(gen, int(n), int(m), int(alpha), algo,
                                   float(pre_s), float(emit_s), int(count),
                                   int(steps)))
        return out


def _drain(record) -> None:
    return None


def _sweep(lister, algo: str, graphs) -> list[BenchRecord]:
    """One row per (gen label, graph) pair, each graph listed by lister."""
    return [_record(gen, g, algo, lister(g, _drain)) for gen, g in graphs]


_C4_CORE_Q = 7


def c4_block_family(t: int, seed: int) -> Graph:
    """Disjoint union of t four-cycle blocks and one 4-cycle-free core.

    Each block is a complete bipartite graph on 2+2 vertices and holds
    exactly one 4-cycle, so the union has exactly t of them; the
    orthogonality-graph core adds bulk edges without any.  Block vertex
    ids are shuffled so emission order does not trivially follow id
    order.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    core = polarity_graph(_C4_CORE_Q)
    n = core.n + 4 * t
    ids = list(range(core.n, n))
    random.Random(seed).shuffle(ids)
    # Block (a0, a1, b0, b1) has the edges a0-b0, a0-b1, a1-b0 and a1-b1.
    blocks = np.array(ids, dtype=np.int64).reshape(t, 4)
    edges = blocks[:, [0, 2, 0, 3, 1, 2, 1, 3]].reshape(-1, 2)
    return from_edge_list(np.concatenate((core.edge_array(), edges)), n)


def suite_triangle_scaling(qs: tuple = (11, 23, 47)) -> list[BenchRecord]:
    return _sweep(list_triangles, "triangle",
                  ((f"polarity q={q}", polarity_graph(q)) for q in qs))


def suite_c4_delay(ts: tuple = (10 ** 3, 10 ** 4, 10 ** 5),
                   seed: int = 7) -> list[BenchRecord]:
    return _sweep(list_4cycles, "c4",
                  ((f"c4blocks t={t} q={_C4_CORE_Q} seed={seed}",
                    c4_block_family(t, seed)) for t in ts))


def suite_clique_scaling(ns: tuple = (300, 600, 1200),
                         avg_deg: int = 10) -> list[BenchRecord]:
    k, seed = _CLIQUE_K, _CLIQUE_SEED
    sizes = ((n, n * avg_deg // 2) for n in ns)
    return _sweep(lambda g, sink: list_kcliques(g, k, sink), f"clique k={k}",
                  ((f"gnm n={n} m={m} seed={seed}", random_gnm(n, m, seed))
                   for n, m in sizes))


def suite_zeroclique(n_part: int = 40, s: int = 4, instances: int = 2,
                     min_buckets: int = 20) -> list[BenchRecord]:
    """One row per admissible bucket: bucket shape plus a triangle pass.

    Runs the solver's pipeline on seeded k=3 instances and lists the
    triangles of every admissible bucket's orientation (``pre_s`` 0), so
    rows carry the bucket's edge count and degeneracy next to real
    listing work.
    """
    k = 3
    rows = []
    for seed in range(instances):
        wg = random_weighted_kpartite(k, n_part, _ZC_EDGE_PROB,
                                      _ZC_WEIGHT_BOUND, seed)
        p = next_prime_above(max(k * k * _ZC_WEIGHT_BOUND, wg.base.n))
        hashed = hash_edges(wg, sample_hash_params(wg, p, seed))
        partition = partition_intervals(p, s)
        oriented = orient(wg.base)
        arcs = arc_table(wg, hashed, partition, oriented)
        for key in admissible_tuples(partition, k):
            bucket = extract_bucket(oriented, arcs, key)
            stats = list_kcliques(bucket, 3, _drain)
            keytxt = "|".join(str(i) for i in key)
            rows.append(_record(
                f"zc-bucket n_part={n_part} s={partition.s} seed={seed} "
                f"key={keytxt}",
                from_edge_list(bucket.edge_array(), bucket.n), "clique k=3",
                stats))
    if len(rows) < min_buckets:
        raise ValueError(
            f"only {len(rows)} buckets produced, need {min_buckets}")
    return rows


# Each suite next to the arguments of its --small sweep.
SUITES: dict[str, tuple[Callable[..., list[BenchRecord]], dict]] = {
    "triangle-scaling": (suite_triangle_scaling, {"qs": (3, 5, 7)}),
    "c4-delay": (suite_c4_delay, {"ts": (10, 100), "seed": 7}),
    "clique-scaling": (suite_clique_scaling, {"ns": (30, 60), "avg_deg": 6}),
    "zeroclique": (suite_zeroclique,
                   {"n_part": 8, "instances": 2, "min_buckets": 1}),
}


def run_suite(name: str, small: bool = False) -> list[BenchRecord]:
    """Run one named suite; small=True shrinks sweeps for smoke tests."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    suite, small_args = SUITES[name]
    return suite(**small_args) if small else suite()
