"""Output-sensitive listing of triangles, 4-cycles and k-cliques.

All listers stream canonical records into a caller-supplied sink and run
in time proportional to m times a small power of the graph degeneracy,
plus the number of records emitted.  A sink is any callable taking one
record; returning a truthy value stops the enumeration before the next
record.  Every record is emitted exactly once, in a deterministic order
for a given graph.

Triangles and k-cliques share one walk over a single degeneracy
orientation (:func:`orient`): cliques are grouped by their earliest
vertex in the degeneracy order, and within a group they follow the rank
of their later vertices.  4-cycles are grouped by their first vertex in
decreasing-degree order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .core import Graph, degeneracy_ordering
from .errors import KTooSmallError


class TriangleRecord(NamedTuple):
    """Triangle as an ascending vertex triple a < b < c."""

    a: int
    b: int
    c: int


class FourCycleRecord(NamedTuple):
    """4-cycle a-b-c-d-a in cyclic order, with a minimal and b < d."""

    a: int
    b: int
    c: int
    d: int


# A k-clique is an ascending tuple of k vertex ids.
CliqueRecord = tuple

Sink = Callable[[Any], Any]


def triangle_record(x: int, y: int, z: int) -> TriangleRecord:
    a, b, c = sorted((x, y, z))
    return TriangleRecord(a, b, c)


def four_cycle_record(w0: int, w1: int, w2: int, w3: int) -> FourCycleRecord:
    """Canonicalize the cycle w0-w1-w2-w3-w0.

    Rotates so the smallest vertex comes first, then picks the traversal
    direction that puts the smaller of its two cycle neighbors second.
    """
    vs = (w0, w1, w2, w3)
    i = vs.index(min(vs))
    a = vs[i]
    nxt = vs[(i + 1) % 4]
    prv = vs[(i - 1) % 4]
    c = vs[(i + 2) % 4]
    b, d = (nxt, prv) if nxt < prv else (prv, nxt)
    return FourCycleRecord(a, b, c, d)


def clique_record(vertices) -> CliqueRecord:
    return tuple(sorted(vertices))


@dataclass
class EnumerationStats:
    """Instrumentation attached to one enumeration run.

    ``preprocess_time`` is the vertex ordering plus the adjacency built
    from it, 0 when a lister is handed an :class:`Orientation`;
    ``emit_time`` is everything after that, the scan together with the
    sink calls.  ``steps`` counts inner-loop iterations (adjacency
    entries scanned, plus vertex pairs assembled by the 4-cycle lister);
    it is the machine-independent work signal the benchmarks normalize
    against.
    """

    preprocess_time: float = 0.0
    emit_time: float = 0.0
    emitted_count: int = 0
    steps: int = 0


class Collector:
    """Sink that appends every record to a list, never stopping."""

    def __init__(self):
        self.records: list = []

    def __call__(self, record) -> None:
        self.records.append(record)


def _finish(t0: float, t1: float, emitted: int, steps: int) -> EnumerationStats:
    return EnumerationStats(preprocess_time=t1 - t0,
                            emit_time=perf_counter() - t1,
                            emitted_count=emitted, steps=steps)


class Orientation(NamedTuple):
    """A graph with each edge pointed at its later endpoint in ``order``.

    ``out[v]`` lists v's later neighbours; the walk needs nothing else.
    """

    n: int
    m: int
    order: tuple[int, ...]
    out: list[list[int]]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield every edge once as (u, v) with u < v."""
        for u, later in enumerate(self.out):
            for v in later:
                yield (u, v) if u < v else (v, u)


def orient(g: Graph) -> Orientation:
    """Degeneracy orientation: the out-lists built while peeling, as is."""
    ordering = degeneracy_ordering(g)
    return Orientation(g.n, g.m, ordering.order, ordering.later)


def _walk(g: Graph | Orientation, k: int, sink: Sink,
          make: Callable[[tuple], Any]) -> EnumerationStats:
    """The k-clique walk of :func:`list_kcliques`, k >= 2.

    Walks an :class:`Orientation` as it is and orients a :class:`Graph`
    once.  ``label[w] == l`` means w is still a candidate when l vertices
    remain to be chosen: choosing u keeps the candidates on u's out-list
    and relabels them l - 1, and the labels are restored on the way back.
    ``make`` turns the chosen vertices into a record.
    """
    t0 = t1 = perf_counter()
    if not isinstance(g, Orientation):
        g = orient(g)
        t1 = perf_counter()
    out = g.out
    label = [k] * g.n
    steps = 0
    emitted = 0

    def extend(l: int, candidates, prefix: tuple) -> bool:
        """Emit prefix plus every l-clique of candidates; True on stop."""
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

    extend(k, g.order, ())
    return _finish(t0, t1, emitted, steps)


def list_triangles(g: Graph | Orientation, sink: Sink) -> EnumerationStats:
    """List every triangle exactly once in O(m * degeneracy) time.

    The k=3 case of the k-clique walk (see :func:`list_kcliques`), with
    records as ascending :class:`TriangleRecord` triples.
    """
    return _walk(g, 3, sink, lambda vs: triangle_record(*vs))


def count_triangles(g: Graph) -> int:
    return list_triangles(g, lambda record: None).emitted_count


def all_edge_sparse_triangle(g: Graph) -> dict[tuple[int, int], bool]:
    """For every edge, decide whether it lies in at least one triangle.

    Runs one triangle enumeration and flags the three edges of each
    emitted triangle, so the cost is the same O(m * degeneracy).
    """
    answer: dict[tuple[int, int], bool] = {e: False for e in g.edges()}

    def flag(t: TriangleRecord) -> None:
        answer[(t.a, t.b)] = True
        answer[(t.a, t.c)] = True
        answer[(t.b, t.c)] = True

    list_triangles(g, flag)
    return answer


# Wedges per batch of the 4-cycle scan; a vertex with more is one batch.
_C4_BATCH = 4096


def list_4cycles(g: Graph, sink: Sink) -> EnumerationStats:
    """List every 4-cycle exactly once; two-hop scans cost O(m * degeneracy).

    Vertices are processed in order of decreasing degree (ties by id) with
    logical deletion.  For the current vertex v, a pass over the two-hop
    neighborhood groups the wedges v-u-w with u and w both later than v
    by their target w; every unordered pair {u1, u2} within one group is
    one 4-cycle v-u1-w-u2.

    Each cycle is found once, at whichever of its four vertices comes
    first in the order.  The degree-descending order is what bounds the
    two-hop work: every scanned path v-u-w charges the edge (u, w) through
    an endpoint of no larger degree, and the sum of min-endpoint degrees
    over edges is at most twice m times the arboricity.  Emission is O(1)
    amortized per cycle.

    ``preprocess_time`` is the ordering plus one CSR of the arcs in
    positions, sorted by (source, target), and for every forward arc v->u
    the offset where u's neighbours later than v start.  The scan then
    takes whole vertices in batches of about ``_C4_BATCH`` wedges, builds
    their wedges as arrays and groups them with one stable sort by (v, w),
    so it needs O(m + batch) memory beyond the graph.  Groups come out in
    the order of their first wedge and members in scan order, so records,
    their order and ``steps`` (wedges of every vertex reached, plus the
    pairs emitted) are those of a vertex-by-vertex dictionary scan.
    """
    t0 = perf_counter()
    n = g.n
    deg = np.diff(g.indptr)
    order = np.argsort(-deg, kind="stable")
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n)
    # Arc keys source * n + target in positions, sorted: one CSR.  Built
    # in place, and each temporary dropped once used, to bound the peak.
    keys = pos[np.repeat(np.arange(n), deg)] * n
    keys += pos[g.indices]
    keys.sort()
    del deg, pos
    col = keys % n
    ends = np.searchsorted(keys, np.arange(1, n + 1) * n)
    fwd = col > keys // n
    src, dst = keys[fwd] // n, col[fwd]
    del fwd
    start = np.searchsorted(keys, dst * n + src, side="right")
    del keys
    count = ends[dst] - start
    acum = np.concatenate(([0], np.cumsum(count)))
    # Wedge number i, on arc a, has its w at col[skip[a] + i].
    skip = start - acum[:-1]
    fptr = np.searchsorted(src, np.arange(n + 1))
    vcum = acum[fptr]
    del ends, start, acum
    t1 = perf_counter()
    emitted = 0
    lo = 0
    while lo < n:
        hi = max(int(np.searchsorted(vcum, vcum[lo] + _C4_BATCH, "right")) - 1,
                 lo + 1)
        # Wedges v-u-w of positions lo..hi-1 in scan order, as arrays.
        arc = np.repeat(np.arange(fptr[lo], fptr[hi]), count[fptr[lo]:fptr[hi]])
        v = src[arc]
        w = col[skip[arc] + np.arange(vcum[lo], vcum[hi])]
        key = v * n + w
        by = np.argsort(key, kind="stable")
        key = key[by]
        # Runs of equal keys in sorted order: the groups of two or more.
        same = np.diff((key[1:] == key[:-1]).astype(np.int8),
                       prepend=0, append=0)
        lo = hi
        first = np.flatnonzero(same == 1)
        if not len(first):
            continue
        size = np.flatnonzero(same == -1) + 1 - first
        # Groups in the order of their first wedge, members in scan order.
        head = np.argsort(by[first])
        first, size = first[head], size[head]
        lead = by[first]
        members = by[np.repeat(first - np.cumsum(size) + size, size)
                     + np.arange(int(size.sum()))]
        us = order[dst[arc[members]]].tolist()
        i = 0
        for pv, x, y, s in zip(v[lead].tolist(), order[v[lead]].tolist(),
                               order[w[lead]].tolist(), size.tolist()):
            for u1, u2 in combinations(us[i:i + s], 2):
                emitted += 1
                if sink(four_cycle_record(x, u1, y, u2)):
                    return _finish(t0, t1, emitted,
                                   int(vcum[pv + 1]) + emitted)
            i += s
    return _finish(t0, t1, emitted, int(vcum[n]) + emitted)


def count_4cycles(g: Graph) -> int:
    return list_4cycles(g, lambda record: None).emitted_count


def list_kcliques(g: Graph | Orientation, k: int,
                  sink: Sink) -> EnumerationStats:
    """List every k-clique exactly once, k >= 2, as an ascending tuple.

    A :class:`Graph` is oriented once by :func:`orient`, so each out-list
    holds at most degeneracy-many vertices; an :class:`Orientation` is
    walked as it is.  Each clique is then built once, from its earliest
    vertex, by intersecting out-lists (Chiba & Nishizeki 1985; kClist,
    Danisch, Balalau & Sozio 2018), in O(m * degeneracy^(k-2)) time plus
    the output size.  k=2 emits every edge.

    Emission order: cliques are grouped by their earliest vertex in the
    orientation's order; within a group they follow the out-lists, which
    :func:`orient` keeps sorted by the rank of the later vertices.
    """
    if k < 2:
        raise KTooSmallError(k)
    return _walk(g, k, sink, clique_record)


def count_kcliques(g: Graph, k: int) -> int:
    return list_kcliques(g, k, lambda record: None).emitted_count
