"""Workloads of the arbolist benchmark: their inputs and their commands.

Every workload writes two files and runs the same four CLI commands on
them, so every end-to-end metric exists on every workload:

* ``graph.txt`` feeds ``list --kind triangle``, ``list --kind c4`` and
  ``list --kind clique --k 4``;
* ``weighted.txt`` feeds ``solve-zero-clique --k 3 --s 12``.

What differs is which file carries the weight.  A workload's focus input
stresses its layers; the other input is a smaller secondary one, so the
commands outside the focus still do real work but touch none of the
focus layers' hard cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GRAPH = "graph.txt"
WEIGHTED = "weighted.txt"

# Sizes keep one round of the four commands near 4 s, so a 40 s run holds
# seven to eleven samples of each command, and every command does at least
# a few tenths of a second of work.  On a shared 2-core machine interpreter
# start-up alone (about 0.2 s, most of it importing numpy) swings by up to
# 2x between runs, so a command made mostly of start-up cannot give a
# steady median.
#
# c4-stream: 4-cycle blocks around a polarity core (q=7, the default of
# arbolist.bench.c4_block_family).
C4_BLOCKS = 15_000
C4_CORE_N = 7 * 7 + 7 + 1
# dense-count: polarity graph of PG(2, 47), vertex ids shuffled by seed.
POLARITY_Q = 47
# zero-sweep: no-witness 3-partite instance; weights up to 10^12 make
# p about 9e12, so prime search is a visible share of the solve.  Its
# list input is a smaller shuffled polarity graph.
ZERO_PART = 80
ZERO_W = 10 ** 12
ZERO_LIST_Q = 37
# Secondary solver input of c4-stream and dense-count: weights up to 10^9
# keep prime search cheap and a zero triangle unlikely.
SECONDARY_PART = 45
SECONDARY_W = 10 ** 9
EDGE_PROB = 0.3

SOLVE_S = 12
SOLVE_SEED = 0
CLIQUE_K = 4


@dataclass(frozen=True)
class Workload:
    name: str
    count_only: bool  # whether the list commands pass --count-only


WORKLOADS = {
    w.name: w for w in (
        Workload("c4-stream", count_only=False),
        Workload("dense-count", count_only=True),
        Workload("zero-sweep", count_only=True),
    )
}

COMMANDS = ("triangle", "c4", "clique", "solve")


def command_args(w: Workload, run_dir: str) -> dict[str, list[str]]:
    """The CLI arguments of each command, keyed by command name."""
    graph = f"{run_dir}/{GRAPH}"
    flag = ["--count-only"] if w.count_only else []
    return {
        "triangle": ["list", "--input", graph, "--kind", "triangle", *flag],
        "c4": ["list", "--input", graph, "--kind", "c4", *flag],
        "clique": ["list", "--input", graph, "--kind", "clique",
                   "--k", str(CLIQUE_K), *flag],
        "solve": ["solve-zero-clique", "--input", f"{run_dir}/{WEIGHTED}",
                  "--k", "3", "--s", str(SOLVE_S), "--seed", str(SOLVE_SEED)],
    }


def weighted_instance(n_part: int, bound: int, seed: int):
    """``random_weighted_kpartite(3, ...)`` with one weight pinned to +bound.

    The solver takes p from the largest |weight| in the file, and the
    number of admissible buckets depends on p.  Pinning the first edge's
    weight to the bound makes p, and so the bucket count, the same for
    every seed.
    """
    from arbolist.generators import random_weighted_kpartite
    from arbolist.zeroclique import WeightedKPartiteGraph

    wg = random_weighted_kpartite(3, n_part, EDGE_PROB, bound, seed)
    first = next(wg.base.edges())
    return WeightedKPartiteGraph(wg.base, 3, {**wg.weights, first: bound},
                                 bound)


def shuffled_polarity(q: int, seed: int):
    """``polarity_graph(q)`` with vertex ids permuted by ``seed``."""
    from arbolist.core import from_edge_list
    from arbolist.generators import polarity_graph

    g = polarity_graph(q)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edge_list([(perm[u], perm[v]) for u, v in g.edges()], g.n)


def generate(name: str, seed: int):
    """Build (graph for the list commands, weighted instance for solve)."""
    from arbolist.bench import c4_block_family

    if name == "zero-sweep":
        return (shuffled_polarity(ZERO_LIST_Q, seed),
                weighted_instance(ZERO_PART, ZERO_W, seed))
    secondary = weighted_instance(SECONDARY_PART, SECONDARY_W, seed)
    if name == "c4-stream":
        return c4_block_family(C4_BLOCKS, seed), secondary
    return shuffled_polarity(POLARITY_Q, seed), secondary
