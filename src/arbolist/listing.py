"""Output-sensitive listing of triangles, 4-cycles and k-cliques.

All listers stream canonical records into a caller-supplied sink and run
in time proportional to m times a small power of the graph degeneracy,
plus the number of records emitted.  Every record is emitted exactly
once, in a deterministic order for a given graph.  A sink takes one of
two forms:

* per record (the default): any callable taking one record, a
  :class:`TriangleRecord`, :class:`FourCycleRecord` or ascending tuple;
  a truthy return stops the enumeration before the next record;
* per batch (``batches=True``): a callable taking a batch of records as
  one (r, k) int64 array of ids, r >= 1, rows in record order and
  columns those of the records; it returns the index of the row it
  stopped at, or None to go on.  A stop at row i counts the rows up to
  i as emitted, with the same ``emitted_count`` and ``steps`` as a
  per-record sink stopping at that record.

The scans build every batch as an array; a per-record sink gets its
records through one adapter, :func:`_per_record`.

Triangles and k-cliques read one degeneracy orientation
(:func:`orient`): the ordering, then one sort of the arc keys into a CSR
in positions.  The ordering peels a graph in numpy rounds, through short
runs of thin frontiers, and hands what is left after a long run, or a
remainder too small for a round, to the Matula-Beck loop
(:func:`~arbolist.core.degeneracy_ordering`).  Every k, triangles
included, is one level-wise numpy scan over the orientation, batched by
``_BATCH``.  It tests whether a candidate's arcs exist by reading a
packed n * n bit table of the orientation when that table takes at most
``_BIT_TABLE_RATIO`` times the 8 * m bytes of the arc keys, so the scan's
memory stays O(m); on sparser orientations it searches the sorted arc
keys instead.  Cliques are grouped by their earliest vertex in the
degeneracy order, and within a group they follow the position of their
later vertices.  4-cycles are grouped by their first vertex in
decreasing-degree order; a batch of wedges is grouped by one default
sort of packed keys, and its pairs are built and canonicalised in
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .core import Graph, csr_from_keys, degeneracy_ordering
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
    ``emit_time`` is everything after that, the scan together with the
    sink calls.  ``steps`` counts inner-loop iterations (adjacency
    entries scanned: for cliques the row of every clique reached below
    k, so for triangles the arcs plus the wedges; plus vertex pairs
    assembled by the 4-cycle lister); it is the machine-independent
    work signal the benchmarks normalize against.
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

    Vertices are named by their positions in ``order``, a read-only
    int64 array: row i of the read-only int64 CSR ``indptr``/``indices``
    lists, ascending, the positions later than i adjacent to vertex
    ``order[i]``.  ``m`` is the number of arcs.
    """

    n: int
    m: int
    order: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_keys(cls, n: int, order: np.ndarray,
                  keys: np.ndarray) -> "Orientation":
        """The orientation whose arcs are the sorted keys source * n +
        target, in positions of ``order``."""
        return cls(n, len(keys), order, *csr_from_keys(keys, n))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield every edge once as (u, v) with u < v."""
        u = self.order[np.repeat(np.arange(self.n), np.diff(self.indptr))]
        v = self.order[self.indices]
        return zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist())


def orient(g: Graph) -> Orientation:
    """Degeneracy orientation: every edge pointed from its earlier to its
    later endpoint in the degeneracy order, as one CSR in positions built
    with one sort of the arc keys."""
    order = degeneracy_ordering(g).array
    n = g.n
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n)
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


# Candidates per batch of the clique scan, wedges and pairs of the
# 4-cycle scan.
_BATCH = 4096

# The clique scan tests arcs in a bit table of the orientation when its
# n * n bits take at most this many times the 8 * m bytes of the arc
# keys, so its memory stays O(m); else it searches the keys.
_BIT_TABLE_RATIO = 4


def _batches(cum: np.ndarray) -> Iterator[tuple[int, int]]:
    """Runs [lo, hi) of items holding about ``_BATCH`` candidates each,
    where ``cum[i]`` counts the candidates of the items before i; an item
    with more is a run of its own."""
    lo, end = 0, len(cum) - 1
    while lo < end:
        hi = max(int(cum.searchsorted(cum[lo] + _BATCH, "right")) - 1,
                 lo + 1)
        yield lo, hi
        lo = hi


def _arc_bits(n: int, keys: np.ndarray) -> np.ndarray | None:
    """The arcs of the sorted keys source * n + target as a packed bit
    table, bit key % 8 of byte key // 8 set for each, built in O(m) from
    the runs of keys sharing a byte; None, before any allocation, when
    its n * n / 8 bytes pass ``_BIT_TABLE_RATIO`` times ``keys.nbytes``."""
    size = (n * n + 7) // 8
    if size > _BIT_TABLE_RATIO * keys.nbytes:
        return None
    byte = keys >> 3
    first = np.flatnonzero(np.diff(byte, prepend=-1))
    bits = np.zeros(size, np.uint8)
    bits[byte[first]] = np.bitwise_or.reduceat(
        np.left_shift(1, keys & 7).astype(np.uint8), first)
    return bits


def scan_cliques(o: Orientation, k: int,
                 consume: Callable[[np.ndarray], int | None]
                 ) -> tuple[int, int]:
    """Every k-clique of ``o``, k >= 2, by a level-wise scan.

    A level holds j-cliques as rows of positions in lexicographic order,
    the first the arcs of rows with k - 1 or more arcs.  The extensions
    of row p1..pj are the w in out(pj) whose arcs pi->w all exist, each
    earlier column deciding a batch at once; a row with fewer than k - j
    of them is not extended.  The arcs are read from the packed bit
    table of :func:`_arc_bits` when its n * n / 8 bytes are at most
    ``_BIT_TABLE_RATIO`` times the 8 * m bytes of the arc keys, so
    memory stays O(m) (and the orientation is dense: m is at least
    n^2 / (64 * ``_BIT_TABLE_RATIO``)); else they are found with one
    ``searchsorted`` of the keys per earlier column.  The rule reads
    only n and m, and both ways give the same rows.  A batch's
    extensions are scanned before the next batch, so the k-cliques come
    in lexicographic order of their positions, handed to ``consume`` a
    batch of rows at a time.  ``consume`` returns the index of the row
    it stopped at, or None to go on.  Returns the rows handed over up
    to the stop (or all), and ``steps``: the row of every clique reached
    below level k.
    """
    n, ptr, col = o.n, o.indptr, o.indices
    out = ptr[1:] - ptr[:-1]
    if int(out.max(initial=0)) < k - 1:
        return 0, o.m
    src = np.repeat(np.arange(n), out)
    keys = src * n + col
    bits = _arc_bits(n, keys)
    # Level 1 reaches every vertex, so steps starts at the m arcs.
    steps, emitted = o.m, 0

    def scan(rows: np.ndarray) -> int | None:
        """List the j-cliques ``rows`` (j = k) or their extensions; on a
        stop, return the index of the row it came under."""
        nonlocal steps, emitted
        j = rows.shape[1]
        if j == k:
            at = consume(rows)
            emitted += len(rows) if at is None else at + 1
            return at
        cum = np.concatenate(([0], out[rows[:, -1]].cumsum()))
        steps += int(cum[-1])
        for lo, hi in _batches(cum):
            # Candidate i (counted over all rows), on row lo + r with
            # last position pj, is col[ptr[pj] + i - cum[lo + r]].
            last = rows[lo:hi, -1]
            r = np.arange(hi - lo).repeat(out[last])
            w = col[(ptr[last] - cum[lo:hi]).repeat(out[last])
                    + np.arange(cum[lo], cum[hi])]
            for c in range(j - 1):
                p = rows[lo:hi, c]
                want = p[r] * n + w
                if bits is not None:
                    hit = (bits[want >> 3] >> (want & 7) & 1).astype(bool)
                else:
                    # Every wanted arc leaves a position of column c in
                    # the batch: search only theirs.
                    near = keys[ptr[p.min()]:ptr[p.max() + 1]]
                    hit = near[np.minimum(near.searchsorted(want),
                                          len(near) - 1)] == want
                r, w = r[hit], w[hit]
            if j + 1 < k:
                keep = (np.bincount(r, minlength=hi - lo) >= k - j)[r]
                r, w = r[keep], w[keep]
            if not len(r):
                continue
            at = scan(np.concatenate((rows[lo:hi][r], w[:, None]), 1))
            if at is not None:
                # The rows after the one the stop came under were never
                # reached.
                at = lo + int(r[at])
                steps -= int(cum[-1] - cum[at + 1])
                return at
        return None

    first = out[src] >= k - 1
    rows = np.concatenate((src[first, None], col[first, None]), 1)
    at = scan(rows)
    if at is not None:
        steps -= o.m - int(ptr[rows[at, 0] + 1])
    return emitted, steps


def _per_record(sink: Sink, make: Callable[[tuple], Any]
                ) -> Callable[[np.ndarray], int | None]:
    """A batch sink handing ``sink`` the ``make`` of each row's ids in
    turn, that stops at the first record ``sink`` answers truthy."""
    def consume(rows: np.ndarray) -> int | None:
        # Rows as tuples zipped from the columns: cheaper than tolist's
        # one list per row.
        for at, record in enumerate(map(make, zip(*rows.T.tolist()))):
            if sink(record):
                return at
        return None
    return consume


def _ignore(rows: np.ndarray) -> None:
    """A batch sink that only lets the records be counted."""


def _list(g: Graph | Orientation, k: int, sink: Sink,
          make: Callable[[tuple], Any], batches: bool) -> EnumerationStats:
    """Every k-clique of ``g`` into ``sink``, in the order of
    :func:`scan_cliques`: as arrays of ascending ids of at most
    ``_BATCH`` rows with ``batches``, else as ``make`` of each id tuple."""
    o, t0, t1 = _oriented(g)
    consume = sink if batches else _per_record(sink, make)

    def emit(rows: np.ndarray) -> int | None:
        for lo in range(0, len(rows), _BATCH):
            cliques = o.order[rows[lo:lo + _BATCH]]
            cliques.sort(1)
            at = consume(cliques)
            if at is not None:
                return lo + at
        return None

    return _finish(t0, t1, *scan_cliques(o, k, emit))


def list_triangles(g: Graph | Orientation, sink: Sink, *,
                   batches: bool = False) -> EnumerationStats:
    """List every triangle exactly once in O(m * degeneracy) time.

    The k=3 case of :func:`list_kcliques`, with records as ascending
    :class:`TriangleRecord` triples (rows a, b, c with ``batches``).
    ``preprocess_time`` is the ordering and the one-sort CSR of
    :func:`orient` (0 when handed an :class:`Orientation`),
    ``emit_time`` the clique scan with the sink calls.
    """
    return _list(g, 3, sink, TriangleRecord._make, batches)


def count_triangles(g: Graph) -> int:
    return list_triangles(g, _ignore, batches=True).emitted_count


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


def _stable_sort(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``key`` sorted, and the permutation that sorts it stably, from one
    default (unstable, SIMD) sort of key * 2**b + index, b the bits of
    len(key) - 1.  The packed values are unique and below
    2 * (key.max() + 1) * len(key), which must fit in int64."""
    bits = max(len(key) - 1, 1).bit_length()
    packed = key << bits
    packed |= np.arange(len(key))
    packed.sort()
    return packed >> bits, packed & ((1 << bits) - 1)


def list_4cycles(g: Graph, sink: Sink, *,
                 batches: bool = False) -> EnumerationStats:
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
    their wedges as arrays and groups them by (v, w) with one sort of
    packed (rank of v, w, wedge index) keys.  Groups are taken in the
    order of their first wedge, members in scan order, and their pairs
    in ``combinations`` order are canonicalised in arrays, about
    ``_BATCH`` at a time, each such array one batch for the sink (rows
    a, b, c, d with ``batches``).  So it needs O(m + batch) memory
    beyond the graph, and records, their order and ``steps`` (wedges of
    every vertex reached, plus the pairs emitted) are those of a
    vertex-by-vertex dictionary scan.
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
    ends = np.cumsum(deg[order])
    del deg, pos
    col = keys % n
    fwd = col > keys // n
    src, dst = keys[fwd] // n, col[fwd]
    del keys
    # The m forward arcs in (target, source) order are the backward arcs
    # in CSR order, reversed; each reverse arc u->v ends where u's
    # neighbours later than v start.  The packed keys stay below
    # 2 * n * m, in int64 for n < graphio.ID_LIMIT = 2**31, m <= 2**31.
    start = np.empty(len(src), np.int64)
    start[_stable_sort(dst)[1]] = np.flatnonzero(~fwd) + 1
    del fwd
    count = ends[dst] - start
    acum = np.concatenate(([0], np.cumsum(count)))
    # Wedge number i, on arc a, has its w at col[skip[a] + i].
    skip = start - acum[:-1]
    fptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    vcum = acum[fptr]
    del ends, start, acum
    # Per arc, n times the number of vertices with wedges before its
    # source: a batch's wedges key v by their rank among its own.
    has = vcum[1:] > vcum[:-1]
    base = (np.cumsum(has) - has)[src] * n
    t1 = perf_counter()
    consume = sink if batches else _per_record(sink, FourCycleRecord._make)
    emitted = 0
    for lo, hi in _batches(vcum):
        # Wedges v-u-w of positions lo..hi-1 in scan order, as arrays.
        nw = int(vcum[hi] - vcum[lo])
        if nw < 2:
            continue
        a0, a1 = fptr[lo], fptr[hi]
        fan = count[a0:a1]
        w = col[np.repeat(skip[a0:a1], fan) + np.arange(vcum[lo], vcum[hi])]
        # v as its rank r among the batch's R vertices with wedges, so
        # the keys r * n + w and their packing stay below 2 * R * n * nw:
        # 2 * _BATCH**2 * n over several vertices (then nw <= _BATCH),
        # 2 * nw * n for one.  Both fit in int64 for n < graphio.ID_LIMIT
        # = 2**31, the second for nw < 2**31 wedges at one vertex.
        key = np.repeat(base[a0:a1] - base[a0], fan)
        key += w
        key, by = _stable_sort(key)
        same = key[1:] == key[:-1]
        if not same.any():
            continue
        # Runs of equal keys in sorted order: the groups of two or more.
        same = np.diff(same.astype(np.int8), prepend=0, append=0)
        first = np.flatnonzero(same == 1)
        size = np.flatnonzero(same == -1) + 1 - first
        # Groups in the order of their first wedge, members in scan order.
        head = np.argsort(by[first])
        first, size = first[head], size[head]
        end = np.cumsum(size)
        members = by[np.repeat(first - end + size, size)
                     + np.arange(int(end[-1]))]
        # Per member: its ids v, u, w and the position of v.
        arc = np.repeat(np.arange(a0, a1), fan)[members]
        pv = src[arc]
        vid, uid, wid = order[pv], order[dst[arc]], order[w[members]]
        # A member's pairs are with the later members of its group.
        later = np.repeat(end, size) - 1 - np.arange(len(members))
        pcum = np.concatenate(([0], np.cumsum(later)))
        for plo, phi in _batches(pcum):
            i = np.repeat(np.arange(plo, phi), later[plo:phi])
            j = np.arange(pcum[plo], pcum[phi]) - np.repeat(
                pcum[plo:phi] - np.arange(plo + 1, phi + 1), later[plo:phi])
            # Cycle v-u1-w-u2: the smallest id comes first, its opposite
            # third, the smaller of its two neighbours second.
            x, y = vid[i], wid[i]
            u1, u2 = uid[i], uid[j]
            p0, p1 = np.minimum(x, y), np.maximum(x, y)
            q0, q1 = np.minimum(u1, u2), np.maximum(u1, u2)
            vfirst = p0 < q0
            cycles = np.stack((np.where(vfirst, p0, q0),
                               np.where(vfirst, q0, p0),
                               np.where(vfirst, p1, q1),
                               np.where(vfirst, q1, p1)), 1)
            at = consume(cycles)
            if at is not None:
                emitted += at + 1
                return _finish(t0, t1, emitted,
                               int(vcum[pv[i[at]] + 1]) + emitted)
            emitted += len(i)
    return _finish(t0, t1, emitted, int(vcum[n]) + emitted)


def count_4cycles(g: Graph) -> int:
    return list_4cycles(g, _ignore, batches=True).emitted_count


def list_kcliques(g: Graph | Orientation, k: int, sink: Sink, *,
                  batches: bool = False) -> EnumerationStats:
    """List every k-clique exactly once, k >= 2, as an ascending tuple
    (with ``batches``, as ascending rows of at most ``_BATCH`` a batch).

    A :class:`Graph` is oriented once by :func:`orient`, so each out-row
    holds at most degeneracy-many vertices; an :class:`Orientation` is
    read as it is.  Each clique is then built once, from its earliest
    vertex, by intersecting out-rows (Chiba & Nishizeki 1985; kClist,
    Danisch, Balalau & Sozio 2018), in O(m * degeneracy^(k-2)) time plus
    the output size.  k=2 emits every edge.  Every k is one level-wise
    scan: the j-cliques of a level are extended by their last vertex's
    row, a batch at a time, and checked against the other rows: in a
    packed bit table of the arcs when its n * n / 8 bytes are at most
    ``_BIT_TABLE_RATIO`` times the 8 * m bytes of the arc keys, so
    memory stays O(m), else with ``searchsorted`` over the sorted keys
    (see :func:`scan_cliques`).  ``preprocess_time`` is :func:`orient`'s
    ordering and one-sort CSR, ``emit_time`` the scan with the sink
    calls.

    Emission order: cliques are grouped by their earliest vertex in the
    orientation's order; within a group they follow the rows, which
    :func:`orient` keeps sorted by the position of the later vertices.
    That order is :func:`~arbolist.core.degeneracy_ordering`'s: a
    peeling round places its vertices in ascending id, and the
    Matula-Beck loop, which orders what a long run of thin rounds or a
    graph under ``core._THIN`` vertices leaves, pops the highest id
    among equal degrees first.
    """
    if k < 2:
        raise KTooSmallError(k)
    return _list(g, k, sink, tuple, batches)


def count_kcliques(g: Graph, k: int) -> int:
    return list_kcliques(g, k, _ignore, batches=True).emitted_count
