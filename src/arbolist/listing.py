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

Every lister reads one degeneracy orientation (:func:`orient`): the
ordering, then one sort of the arc keys in positions.  The ordering
peels a graph in numpy rounds, through short runs of thin frontiers,
and hands what is left after a long run, or a remainder too small for
a round, to the Matula-Beck loop
(:func:`~arbolist.core.degeneracy_ordering`).  Every k, triangles
included, is one level-wise numpy scan over the orientation, in batches
of ``_SCAN_BATCH`` candidates.  It tests whether a candidate's arcs
exist by reading a packed n * n bit table of the orientation when that
table takes at most ``_BIT_TABLE_RATIO`` times the 8 * m bytes of the
arc keys, so the scan's memory stays O(m); on sparser orientations it
searches the sorted arc keys instead.  Cliques are grouped by their
earliest vertex in the degeneracy order, and within a group they follow
the position of their later vertices.  4-cycles are grouped by the
vertex opposite their latest one, in the degeneracy order; a batch of
``_SCAN_BATCH`` connectors (see :func:`list_4cycles`) is sorted once by
its keys, only a batch with a repeated key (one that closes a cycle) is
grouped by a second sort of packed keys, and its pairs are built and
canonicalised in arrays.  Records reach a sink in batches of about
``_BATCH``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .core import Graph, _ranges, degeneracy_ordering
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

    ``preprocess_time`` is the vertex ordering plus the one sort of the
    arc keys in its positions, 0 when a lister is handed an
    :class:`Orientation`; ``emit_time`` is everything after that, the
    scan (its row offsets included) together with the sink calls.
    ``steps`` counts inner-loop iterations (adjacency entries scanned:
    for cliques the row of every clique reached below k, so for
    triangles the arcs plus the wedges; for 4-cycles the connectors,
    plus the vertex pairs assembled); it is the machine-independent
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
    int64 array.  ``keys`` holds the arcs as ascending int64 keys
    source * n + target in positions, so the arcs of a source are one
    run, ascending by target; ``m`` is the number of arcs.
    """

    n: int
    order: np.ndarray
    keys: np.ndarray

    @property
    def m(self) -> int:
        return len(self.keys)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield every edge once as (u, v) with u < v."""
        ends = np.sort(self.order[np.array(np.divmod(self.keys, self.n))], 0)
        return zip(*ends.tolist())


def orient(g: Graph) -> Orientation:
    """Degeneracy orientation: every edge pointed from its earlier to its
    later endpoint in the degeneracy order, as the read-only sorted arc
    keys in positions, built with one sort."""
    order = degeneracy_ordering(g).array
    n = g.n
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n)
    src = pos[np.repeat(np.arange(n), np.diff(g.indptr))]
    dst = pos[g.indices]
    up = src < dst
    keys = src[up] * n + dst[up]
    keys.sort()
    keys.flags.writeable = False
    return Orientation(n, order, keys)


def _oriented(g: Graph | Orientation) -> tuple[Orientation, float, float]:
    """``g`` as an :class:`Orientation`, with the start time and the time
    the orientation was ready (the same when ``g`` already was one)."""
    t0 = perf_counter()
    if isinstance(g, Orientation):
        return g, t0, t0
    return orient(g), t0, perf_counter()


# Rows per batch of records handed to a sink, and pairs per chunk of the
# 4-cycle scan (graphio.write_rows writes as many lines in one call).
# Kept small so that a printing command's first record leaves early.
_BATCH = 4096

# Candidates per batch of the clique scan, connectors per batch of the
# 4-cycle scan.  Larger batches spread numpy's per-call cost over more
# items.  Of 8192, 16384 and 32768, timed on polarity q=47 in process,
# 16384 was faster than 8192 and as fast as 32768, at half its memory.
# The 4-cycle scan's first batch holds at most _BATCH connectors, so
# that a printing command's first record does not wait for a whole
# _SCAN_BATCH.  The 4-cycle scan's packed keys stay below
# 2 * _SCAN_BATCH**2 * n = 2**60 for n < graphio.ID_LIMIT = 2**31.
_SCAN_BATCH = 4 * _BATCH

# The clique scan tests arcs in a bit table of the orientation when its
# n * n bits take at most this many times the 8 * m bytes of the arc
# keys, so its memory stays O(m); else it searches the keys.
_BIT_TABLE_RATIO = 4


def _batches(cum: np.ndarray, size: int,
             first: int = 0) -> Iterator[tuple[int, int]]:
    """Runs [lo, hi) of items holding at most ``size`` candidates each,
    the first run at most ``first`` if given, where ``cum[i]`` counts the
    candidates of the items before i; an item with more is a run of its
    own."""
    lo, end = 0, len(cum) - 1
    step = first or size
    while lo < end:
        hi = max(int(cum.searchsorted(cum[lo] + step, "right")) - 1,
                 lo + 1)
        yield lo, hi
        lo, step = hi, size


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

    The scan first counts each position's arcs in ``o.keys``, whose
    runs by source are the out-rows, ascending.  A level holds j-cliques
    as rows of positions in lexicographic order, the first the arcs of
    rows with k - 1 or more arcs.  The extensions of row p1..pj are the
    w in out(pj) whose arcs pi->w all exist, each earlier column
    deciding a batch at once; a row with fewer than k - j of them is not
    extended.  The arcs are read from the packed bit table of
    :func:`_arc_bits` when its n * n / 8 bytes are at most
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
    n, keys = o.n, o.keys
    src, col = np.divmod(keys, n)
    out = np.bincount(src, minlength=n)
    if int(out.max(initial=0)) < k - 1:
        return 0, o.m
    ptr = np.concatenate(([0], out.cumsum()))
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
        for lo, hi in _batches(cum, _SCAN_BATCH):
            last = rows[lo:hi, -1]
            r = np.arange(hi - lo).repeat(out[last])
            w = col[_ranges(ptr[last], out[last])]
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
    ``preprocess_time`` is the ordering and the one key sort of
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


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """The permutation that sorts ``key`` stably, from one default
    (unstable, SIMD) sort of key * 2**b + index, b the bits of
    len(key) - 1.  The packed values are unique and below
    2 * (key.max() + 1) * len(key), which must fit in int64."""
    bits = max(len(key) - 1, 1).bit_length()
    packed = key << bits
    packed |= np.arange(len(key))
    packed.sort()
    return packed & ((1 << bits) - 1)


def list_4cycles(g: Graph | Orientation, sink: Sink, *,
                 batches: bool = False) -> EnumerationStats:
    """List every 4-cycle exactly once in O(m * degeneracy) time plus the
    number of cycles.

    A :class:`Graph` is oriented once by :func:`orient`, as for cliques;
    an :class:`Orientation` is read as it is.  Take a cycle's latest
    vertex y in the orientation's order, and x the vertex opposite it:
    both other vertices c1, c2 have an arc to y, so the cycle is
    x-c1-y-c2 and is found once, from x.  For every x the scan lists
    its *connectors*, the neighbours c of x with an arc c->y to a y
    later than x, and every pair of connectors to one y is a cycle.
    For an in-arc c->x those y are what follows x in c's out-row; for
    an out-arc x->c, all of c's out-row.  So a vertex is a connector
    once per pair of its out-neighbours and once per pair of an in- and
    an out-neighbour: at most 2 * m * degeneracy connectors.

    ``preprocess_time`` is :func:`orient`'s ordering and one key sort (0
    when handed an :class:`Orientation`), ``emit_time`` the scan with the
    sink calls.  The scan counts the out-rows from the keys and orders
    the arcs with connectors by x with one sort of packed keys.  It
    takes the vertices x in order, in batches of at most
    ``_SCAN_BATCH`` connectors, the first at most ``_BATCH`` (a vertex
    with more is a batch of its own), builds their connectors as arrays
    and sorts their (rank of x, y) keys once.  A batch with no repeated
    key closes no cycle and ends there; one with a repeat groups its
    connectors by (x, y) with one sort of packed (rank of x, y,
    connector index) keys.  Groups come in key order, by x and then y,
    members by c, and their pairs in ``combinations`` order are
    canonicalised in arrays, about ``_BATCH`` at a time, each such array
    one batch for the sink (rows a, b, c, d with ``batches``).  So it
    needs O(m + batch) memory beyond the graph, and ``steps`` counts the
    connectors of every x reached plus the pairs emitted.
    """
    o, t0, t1 = _oriented(g)
    n, m, order = o.n, o.m, o.order
    src, col = np.divmod(o.keys, n)
    out = np.bincount(src, minlength=n)
    ptr = np.concatenate(([0], out.cumsum()))
    # The arcs with connectors, each giving a run of col from a start s
    # to the end of c's row: an in-arc a = c->x not last in c's row, s =
    # a + 1; an out-arc x->c to a c with arcs, s = ptr[c].  By (x, s)
    # they come by x and then c, since an in-arc's s is below ptr[x] and
    # an out-arc's is not.  Packed as x * 2**b + s, b the bits of m, they
    # stay below 2 * n * m: in int64 for n, m < 2**31.
    ia = np.flatnonzero(src[1:] == src[:-1])
    oa = np.flatnonzero(out[col])
    xin, xout = col[ia], src[oa]
    b = m.bit_length()
    arcs = np.concatenate(((xin << b) | (ia + 1),
                           (xout << b) | ptr[col[oa]]))
    arcs.sort()
    s = arcs & ((1 << b) - 1)
    # The scan takes the vertices with connectors, xs, by rank: arcs
    # start[r]:start[r + 1] and connectors vcum[r]:vcum[r + 1] are
    # xs[r]'s.
    per = np.bincount(xin, minlength=n) + np.bincount(xout, minlength=n)
    xs = np.flatnonzero(per)
    start = np.concatenate(([0], per[xs].cumsum()))
    del ia, oa, xin, xout, arcs, per
    fan = ptr[src[s] + 1] - s
    vcum = np.concatenate(([0], fan.cumsum()))[start]
    consume = sink if batches else _per_record(sink, FourCycleRecord._make)
    emitted = 0
    for lo, hi in _batches(vcum, _SCAN_BATCH, _BATCH):
        nw = int(vcum[hi] - vcum[lo])
        if nw < 2:
            continue
        # The batch's connectors y = col[at], in scan order.
        a0, a1 = start[lo], start[hi]
        at = _ranges(s[a0:a1], fan[a0:a1])
        y = col[at]
        # Keys r * n + y, r the rank of x in the batch: they and their
        # packing stay below 2 * R * n * nw for the batch's R vertices,
        # so 2 * _SCAN_BATCH**2 * n over several vertices (then
        # nw <= _SCAN_BATCH), 2 * nw * n for one.  Both fit in int64 for
        # n < graphio.ID_LIMIT = 2**31, the second for nw < 2**31
        # connectors of one vertex.
        key = np.repeat(np.arange(0, (hi - lo) * n, n),
                        np.diff(vcum[lo:hi + 1]))
        key += y
        # Most batches close no cycle, and one plain sort of the keys
        # shows it; only a batch with a repeated key needs the stable
        # order of its connectors.  Keys below 2**31 are sorted as int32,
        # which numpy sorts about twice as fast.
        ordered = np.sort(key.astype(np.int32) if (hi - lo) * n <= 2**31
                          else key)
        same = ordered[1:] == ordered[:-1]
        if not same.any():
            continue
        by = _stable_argsort(key)
        # Runs of equal keys in sorted order: the groups of two or more,
        # in key order, members in scan order.
        same = np.diff(same.astype(np.int8), prepend=0, append=0)
        first = np.flatnonzero(same == 1)
        size = np.flatnonzero(same == -1) + 1 - first
        end = np.cumsum(size)
        members = by[_ranges(first, size)]
        # Per member: the rank of x and the ids x, c, y.
        rx = key[members] // n + lo
        xid, cid = order[xs[rx]], order[src[at[members]]]
        yid = order[y[members]]
        # A member's pairs are with the later members of its group.
        later = np.repeat(end, size) - 1 - np.arange(len(members))
        pcum = np.concatenate(([0], np.cumsum(later)))
        for plo, phi in _batches(pcum, _BATCH):
            i = np.repeat(np.arange(plo, phi), later[plo:phi])
            j = _ranges(np.arange(plo + 1, phi + 1), later[plo:phi])
            # Cycle x-c1-y-c2: the smallest id comes first, its opposite
            # third, the smaller of its two neighbours second.
            x, y = xid[i], yid[i]
            c1, c2 = cid[i], cid[j]
            p0, p1 = np.minimum(x, y), np.maximum(x, y)
            q0, q1 = np.minimum(c1, c2), np.maximum(c1, c2)
            xfirst = p0 < q0
            cycles = np.stack((np.where(xfirst, p0, q0),
                               np.where(xfirst, q0, p0),
                               np.where(xfirst, p1, q1),
                               np.where(xfirst, q1, p1)), 1)
            stop = consume(cycles)
            if stop is not None:
                emitted += stop + 1
                return _finish(t0, t1, emitted,
                               int(vcum[rx[i[stop]] + 1]) + emitted)
            emitted += len(i)
    return _finish(t0, t1, emitted, int(vcum[-1]) + emitted)


def count_4cycles(g: Graph | Orientation) -> int:
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
    ordering and one key sort, ``emit_time`` the scan with the sink
    calls.

    Emission order: cliques are grouped by their earliest vertex in the
    orientation's order; within a group they follow the position of the
    later vertices, by which :func:`orient` sorts the arc keys.
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
