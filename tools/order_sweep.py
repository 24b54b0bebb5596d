"""Time the degeneracy ordering and the three listers on a fixed sweep.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/order_sweep.py

Prints one line per graph: n, m, the degeneracy, the best of five
``read_edge_list`` times of the graph written once to a temporary file
with the read's ``tracemalloc`` peak, as ``read=<ms>ms/<MB>MB``, the best
of five ``degeneracy_ordering`` times, and for ``list_triangles``,
``list_4cycles`` and ``list_kcliques`` at k=4 the best of five whole
runs into an array sink (ordering and scan together) with the run's
steps, as ``<lister>=<ms>ms/<steps>``.  The graphs are
``random_gnm(n, 5n, 1)`` at n = 2e4, 5e4, 1e5 and 2e5, a path on 1e5
vertices, and ``polarity_graph(47)`` with its ids shuffled as the
benchmark's seed 1 shuffles them.  A last line gives the best of three
in-process times of ``random_kpartite(3, 600, 0.3, 0)``, of
``random_weighted_kpartite(3, 300, 0.3, 10**6, 0)`` and of
``read_weighted_kpartite`` on that instance written once to a
temporary file, with each instance's m.  Point PYTHONPATH at another
checkout's ``src`` to measure that checkout on the same graphs.
"""

from __future__ import annotations

import random
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

from arbolist import (degeneracy_ordering, from_edge_list, list_4cycles,
                      list_kcliques, list_triangles, polarity_graph,
                      random_gnm, random_kpartite, random_weighted_kpartite)
from arbolist.graphio import (read_edge_list, read_weighted_kpartite,
                              write_edge_list, write_weighted_kpartite)

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


def measure_read(g, repeats: int) -> tuple[float, float]:
    """The best time of ``repeats`` reads of ``g`` written to a temporary
    file, in ms, and the ``tracemalloc`` peak of one read, in MB."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        write_edge_list(path, g)
        seconds, _ = best(lambda: read_edge_list(path), repeats)
        tracemalloc.start()
        try:
            read_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return 1e3 * seconds, peak / 2**20


def measure(g, repeats: int = 5) -> dict:
    """The read's best time of ``repeats`` and its peak, the ordering's
    best time of ``repeats``, and each lister's best time of ``repeats``
    runs with its steps."""
    read_ms, read_peak_mb = measure_read(g, repeats)
    order_s, res = best(lambda: degeneracy_ordering(g), repeats)
    r = {"n": g.n, "m": g.m, "degeneracy": res.degeneracy,
         "read_ms": read_ms, "read_peak_mb": read_peak_mb,
         "order_ms": 1e3 * order_s}
    for name, lister in LISTERS.items():
        seconds, stats = best(
            lambda: lister(g, lambda batch: None, batches=True), repeats)
        r[f"{name}_ms"], r[f"{name}_steps"] = 1e3 * seconds, stats.steps
    return r


def measure_generation(kpartite: tuple, weighted: tuple,
                       repeats: int = 3) -> dict:
    """The best of ``repeats`` times, in ms, of
    ``random_kpartite(*kpartite)``, of ``random_weighted_kpartite(*weighted)``
    and of reading that weighted instance back from a temporary file,
    with each instance's m."""
    kp_s, g = best(lambda: random_kpartite(*kpartite), repeats)
    wkp_s, wg = best(lambda: random_weighted_kpartite(*weighted), repeats)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.txt"
        write_weighted_kpartite(path, wg)
        read_s, _ = best(lambda: read_weighted_kpartite(path), repeats)
    return {"kpartite_m": g.m, "kpartite_ms": 1e3 * kp_s,
            "weighted_m": wg.base.m, "weighted_ms": 1e3 * wkp_s,
            "read_weighted_ms": 1e3 * read_s}


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
              f"read={r['read_ms']:.1f}ms/{r['read_peak_mb']:.1f}MB "
              f"order={r['order_ms']:.1f}ms {listed}", flush=True)
    r = measure_generation((3, 600, 0.3, 0), (3, 300, 0.3, 10**6, 0))
    print(f"random_kpartite(3, 600, 0.3, 0) m={r['kpartite_m']} "
          f"{r['kpartite_ms']:.1f}ms "
          f"random_weighted_kpartite(3, 300, 0.3, 10**6, 0) "
          f"m={r['weighted_m']} {r['weighted_ms']:.1f}ms "
          f"read={r['read_weighted_ms']:.1f}ms", flush=True)


if __name__ == "__main__":
    main()
