"""Time the degeneracy ordering and the three listers on a fixed sweep.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/order_sweep.py

Prints one line per graph: n, m, the degeneracy, the best of five
``degeneracy_ordering`` times, and for ``list_triangles``,
``list_4cycles`` and ``list_kcliques`` at k=4 the best of five whole
runs into an array sink (ordering and scan together) with the run's
steps, as ``<lister>=<ms>ms/<steps>``.  The graphs are
``random_gnm(n, 5n, 1)`` at n = 2e4, 5e4, 1e5 and 2e5, a path on 1e5
vertices, and ``polarity_graph(47)`` with its ids shuffled as the
benchmark's seed 1 shuffles them.  Point PYTHONPATH at another
checkout's ``src`` to measure that checkout on the same graphs.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

from arbolist import (degeneracy_ordering, from_edge_list, list_4cycles,
                      list_kcliques, list_triangles, polarity_graph,
                      random_gnm)

LISTERS = {
    "triangles": list_triangles,
    "c4": list_4cycles,
    "4cliques": lambda g, sink, **kw: list_kcliques(g, 4, sink, **kw),
}


def best(run, repeats: int):
    """The best wall time of ``repeats`` calls of ``run``, and its last
    result."""
    least = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        result = run()
        least = min(least, perf_counter() - t0)
    return least, result


def measure(g, repeats: int = 5) -> dict:
    """The ordering's best time of ``repeats``, and each lister's best
    time of ``repeats`` runs with its steps."""
    order_s, res = best(lambda: degeneracy_ordering(g), repeats)
    r = {"n": g.n, "m": g.m, "degeneracy": res.degeneracy,
         "order_ms": 1e3 * order_s}
    for name, lister in LISTERS.items():
        seconds, stats = best(
            lambda: lister(g, lambda batch: None, batches=True), repeats)
        r[f"{name}_ms"], r[f"{name}_steps"] = 1e3 * seconds, stats.steps
    return r


def shuffled_polarity(q: int, seed: int):
    g = polarity_graph(q)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edge_list(np.array(perm)[g.edge_array()], g.n)


def main() -> None:
    graphs = [(f"gnm n={n}", lambda n=n: random_gnm(n, 5 * n, 1))
              for n in (20000, 50000, 100000, 200000)]
    ids = np.arange(10**5)
    graphs += [("path n=100000",
                lambda: from_edge_list(np.stack((ids[:-1], ids[1:]), 1), 10**5)),
               ("polarity q=47 shuffled", lambda: shuffled_polarity(47, 1))]
    for name, make in graphs:
        r = measure(make())
        listed = " ".join(f"{lister}={r[lister + '_ms']:.1f}ms"
                          f"/{r[lister + '_steps']}" for lister in LISTERS)
        print(f"{name:24} n={r['n']} m={r['m']} d={r['degeneracy']} "
              f"order={r['order_ms']:.1f}ms {listed}", flush=True)


if __name__ == "__main__":
    main()
