"""Output-sensitive listing of triangles, 4-cycles and k-cliques.

All listers stream canonical records into a caller-supplied sink and run
in time proportional to m times a small power of the graph degeneracy,
plus the number of records emitted.  A sink is any callable taking one
record; returning a truthy value stops the enumeration before the next
record.  Every record is emitted exactly once, in a deterministic order
for a given graph.

Triangles and k-cliques read one degeneracy orientation
(:func:`orient`): the ordering, then one sort of the arc keys into a CSR
in positions.  Triangles (and k-cliques for k=3) are a batched numpy
wedge scan over it, every other k a label walk over its rows.  Cliques
are grouped by their earliest vertex in the degeneracy order, and within
a group they follow the position of their later vertices.  4-cycles are
grouped by their first vertex in decreasing-degree order.
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

    ``preprocess_time`` is the vertex ordering plus the one-sort CSR
    built from it, 0 when a lister is handed an :class:`Orientation`;
    ``emit_time`` is everything after that, the scan or walk together
    with the sink calls.  ``steps`` counts inner-loop iterations
    (adjacency entries scanned: for triangles the arcs plus the wedges;
    plus vertex pairs assembled by the 4-cycle lister); it is the
    machine-independent work signal the benchmarks normalize against.
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

    Vertices are named by their positions in ``order``: row i of the
    read-only int64 CSR ``indptr``/``indices`` lists, ascending, the
    positions later than i adjacent to vertex ``order[i]``.  ``m`` is the
    number of arcs.
    """

    n: int
    m: int
    order: tuple[int, ...]
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_keys(cls, n: int, order: tuple[int, ...],
                  keys: np.ndarray) -> "Orientation":
        """The orientation whose arcs are the sorted keys source * n +
        target, in positions of ``order``."""
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        indices = keys % n
        indptr.flags.writeable = indices.flags.writeable = False
        return cls(n, len(keys), order, indptr, indices)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield every edge once as (u, v) with u < v."""
        ids = np.array(self.order, dtype=np.int64)
        u = ids[np.repeat(np.arange(self.n), np.diff(self.indptr))]
        v = ids[self.indices]
        return zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist())


def orient(g: Graph) -> Orientation:
    """Degeneracy orientation: every edge pointed from its earlier to its
    later endpoint in the degeneracy order, as one CSR in positions built
    with one sort of the arc keys."""
    order = degeneracy_ordering(g).order
    n = g.n
    pos = np.empty(n, np.int64)
    pos[np.array(order, dtype=np.int64)] = np.arange(n)
    src = pos[np.repeat(np.arange(n), np.diff(g.indptr))]
    dst = pos[g.indices]
    up = src < dst
    keys = src[up] * n + dst[up]
    keys.sort()
    return Orientation.from_keys(n, order, keys)


def _oriented(g: Graph | Orientation) -> tuple[Orientation, float, float]:
    """``g`` as an :class:`Orientation`, with the start time and the time
    the orientation was ready (the same when ``g`` already was one)."""
    t0 = perf_counter()
    if isinstance(g, Orientation):
        return g, t0, t0
    return orient(g), t0, perf_counter()


# Wedges per batch of the triangle and 4-cycle scans.
_BATCH = 4096


def _batches(cum: np.ndarray) -> Iterator[tuple[int, int]]:
    """Runs [lo, hi) of items holding about ``_BATCH`` wedges each, where
    ``cum[i]`` counts the wedges of the items before i; an item with more
    is a run of its own."""
    lo, end = 0, len(cum) - 1
    while lo < end:
        hi = max(int(np.searchsorted(cum, cum[lo] + _BATCH, "right")) - 1,
                 lo + 1)
        yield lo, hi
        lo = hi


def _scan_triangles(g: Graph | Orientation, sink: Sink,
                    make: Callable[[list], Any]) -> EnumerationStats:
    """Every triangle as a batched wedge scan over ``g``'s orientation.

    For every arc u->v of a u with two or more out-arcs, each w in out(v)
    is a wedge, and a triangle when the arc u->w exists: one
    ``searchsorted`` on the sorted arc keys decides a whole batch.  Hits
    come in (u, v, w) order of positions, and ``steps`` counts the arcs
    plus the wedges, so records, their order and ``steps`` are those of
    the k=3 label walk.  ``make`` turns an ascending id triple into a
    record.
    """
    o, t0, t1 = _oriented(g)
    n, ptr, col = o.n, o.indptr, o.indices
    out = np.diff(ptr)
    src = np.repeat(np.arange(n), out)
    keys = src * n + col
    # Wedges per arc u->v: |out(v)|, or none when |out(u)| < 2.
    count = np.where(out[src] >= 2, out[col], 0)
    acum = np.concatenate(([0], np.cumsum(count)))
    ids = np.array(o.order, dtype=np.int64)
    emitted = 0
    for lo, hi in _batches(acum):
        arc = np.repeat(np.arange(lo, hi), count[lo:hi])
        # Wedge i (counted from 0 over all arcs), on arc a, has its w at
        # col[ptr[col[a]] + i - acum[a]].
        w = col[ptr[col[arc]] - acum[arc] + np.arange(acum[lo], acum[hi])]
        want = src[arc] * n + w
        # Every wanted arc leaves a source in the batch: search only theirs.
        near = keys[ptr[src[lo]]:ptr[src[hi - 1] + 1]]
        hit = near[np.minimum(near.searchsorted(want), len(near) - 1)] == want
        arc, w = arc[hit], w[hit]
        triples = np.stack((ids[src[arc]], ids[col[arc]], ids[w]), 1)
        triples.sort(1)
        # The walk's steps once it reaches arc a: the arcs of every vertex
        # up to a's source, plus the wedges up to a.
        at = ptr[src[arc] + 1] + acum[arc + 1]
        for triple, steps in zip(triples.tolist(), at.tolist()):
            emitted += 1
            if sink(make(triple)):
                return _finish(t0, t1, emitted, steps)
    return _finish(t0, t1, emitted, o.m + int(acum[-1]))


def _walk(g: Graph | Orientation, k: int, sink: Sink) -> EnumerationStats:
    """The k-clique walk of :func:`list_kcliques` for k = 2 and k >= 4.

    ``label[w] == l`` means position w is still a candidate when l
    vertices remain to be chosen: choosing u keeps the candidates in u's
    row and relabels them l - 1, and the labels are restored on the way
    back.
    """
    o, t0, t1 = _oriented(g)
    order = o.order
    ptr, col = o.indptr.tolist(), o.indices.tolist()
    label = [k] * o.n
    steps = 0
    emitted = 0

    def extend(l: int, candidates, prefix: tuple) -> bool:
        """Emit prefix plus every l-clique of candidates; True on stop."""
        nonlocal steps, emitted
        for u in candidates:
            later = col[ptr[u]:ptr[u + 1]]
            steps += len(later)
            if l == 2:
                for w in later:
                    if label[w] == 2:
                        emitted += 1
                        if sink(clique_record(prefix + (order[u], order[w]))):
                            return True
                continue
            kept = [w for w in later if label[w] == l]
            if len(kept) < l - 1:
                continue
            for w in kept:
                label[w] = l - 1
            stopped = extend(l - 1, kept, prefix + (order[u],))
            for w in kept:
                label[w] = l
            if stopped:
                return True
        return False

    extend(k, range(o.n), ())
    return _finish(t0, t1, emitted, steps)


def list_triangles(g: Graph | Orientation, sink: Sink) -> EnumerationStats:
    """List every triangle exactly once in O(m * degeneracy) time.

    The k=3 case of :func:`list_kcliques`, with records as ascending
    :class:`TriangleRecord` triples.  ``preprocess_time`` is the ordering
    and the one-sort CSR of :func:`orient` (0 when handed an
    :class:`Orientation`), ``emit_time`` the batched wedge scan with the
    sink calls.
    """
    return _scan_triangles(g, sink, TriangleRecord._make)


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
    takes whole vertices in batches of about ``_BATCH`` wedges, builds
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
    for lo, hi in _batches(vcum):
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

    A :class:`Graph` is oriented once by :func:`orient`, so each out-row
    holds at most degeneracy-many vertices; an :class:`Orientation` is
    read as it is.  Each clique is then built once, from its earliest
    vertex, by intersecting out-rows (Chiba & Nishizeki 1985; kClist,
    Danisch, Balalau & Sozio 2018), in O(m * degeneracy^(k-2)) time plus
    the output size.  k=2 emits every edge.  k=3 is the batched wedge
    scan of :func:`list_triangles`; every other k is a label walk over
    the rows.  ``preprocess_time`` is :func:`orient`'s ordering and
    one-sort CSR, ``emit_time`` the scan or walk with the sink calls.

    Emission order: cliques are grouped by their earliest vertex in the
    orientation's order; within a group they follow the rows, which
    :func:`orient` keeps sorted by the position of the later vertices.
    """
    if k < 2:
        raise KTooSmallError(k)
    if k == 3:
        return _scan_triangles(g, sink, tuple)
    return _walk(g, k, sink)


def count_kcliques(g: Graph, k: int) -> int:
    return list_kcliques(g, k, lambda record: None).emitted_count
