"""Shared graph builders, hypothesis strategies, acceptance reporting."""

import random
from itertools import combinations

import hypothesis.strategies as st
import numpy as np

from arbolist import Graph, from_edge_list, listing, polarity_graph


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance pass/fail lines after the test summary."""
    try:
        from .test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(RESULTS):
        terminalreporter.write_line(line)


def use_batch(mp, batch: int) -> None:
    """Run the listers with batches of ``batch`` items, through the
    monkeypatch ``mp``: the records handed to a sink, the 4-cycle pair
    chunks, and the scans' batches of clique candidates and of wedges.
    ``listing._BATCH`` stands for the default sizes, left as they are."""
    if batch != listing._BATCH:
        mp.setattr(listing, "_BATCH", batch)
        mp.setattr(listing, "_SCAN_BATCH", batch)


def complete(n: int) -> Graph:
    return from_edge_list(list(combinations(range(n), 2)), n)


def cycle(n: int) -> Graph:
    return from_edge_list([(i, (i + 1) % n) for i in range(n)], n)


def path(n: int) -> Graph:
    return from_edge_list([(i, i + 1) for i in range(n - 1)], n)


def star(leaves: int) -> Graph:
    return from_edge_list([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edge_list([(i, a + j) for i in range(a) for j in range(b)],
                          a + b)


def wheel(rim: int) -> Graph:
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(rim, i) for i in range(rim)]
    return from_edge_list(edges, rim + 1)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(edges, 10)


def shuffled_polarity(q: int, seed: int) -> Graph:
    """``polarity_graph(q)`` with its ids permuted by
    ``random.Random(seed).shuffle``, as the benchmark's list graphs are."""
    g = polarity_graph(q)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edge_list(np.array(perm)[g.edge_array()], g.n)


def assert_same_graph(got: Graph, want: Graph) -> None:
    """The same CSR, entry for entry, and the same part labels."""
    assert got.n == want.n
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.part_label == want.part_label


def out_lists(oriented):
    """An Orientation's out-rows as per-vertex lists: entry v holds v's
    later neighbours as vertex ids, in the order of their arc keys."""
    order = oriented.order.tolist()
    out = [[] for _ in range(oriented.n)]
    for key in oriented.keys.tolist():
        source, target = divmod(key, oriented.n)
        out[order[source]].append(order[target])
    return out


def label_walk(order, out, k, sink, make):
    """The depth-first k-clique label walk over per-vertex out-lists,
    the reference the clique scan is checked against: ``out[v]`` lists
    v's later neighbours, and cliques start from the vertices in
    ``order``.  Returns (emitted, steps)."""
    label = {v: k for v in order}
    steps = emitted = 0

    def extend(l, candidates, prefix):
        nonlocal steps, emitted
        for u in candidates:
            later = out[u]
            steps += len(later)
            if l == 2:
                for w in later:
                    if label[w] == 2:
                        emitted += 1
                        if sink(make(prefix + (u, w))):
                            return True
                continue
            kept = [w for w in later if label[w] == l]
            if len(kept) < l - 1:
                continue
            for w in kept:
                label[w] = l - 1
            stopped = extend(l - 1, kept, prefix + (u,))
            for w in kept:
                label[w] = l
            if stopped:
                return True
        return False

    extend(k, order, ())
    return emitted, steps


@st.composite
def small_graphs(draw, max_n: int = 12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=len(pairs)))
    else:
        edges = []
    return from_edge_list(edges, n)
