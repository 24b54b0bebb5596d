"""Immutable simple graphs, elimination orderings, and arboricity brackets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil
from numbers import Integral
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .errors import (
    ArbolistError,
    DuplicateEdgeError,
    MissingLabelsError,
    SelfLoopError,
    VertexOutOfRangeError,
)


class Graph:
    """Undirected simple graph on dense integer vertices 0..n-1.

    The adjacency is one read-only int64 CSR, v's neighbours sorted
    ascending in ``indices[indptr[v]:indptr[v + 1]]``, so iteration order
    is reproducible and ``has_edge`` uses ``searchsorted``.  Instances
    never mutate after construction, so they are safe to share between
    threads.

    ``part_label`` optionally maps every vertex to a part index.  The label
    map is carried along verbatim; use :func:`validate_kpartite` to check
    that it is a proper k-partition of the edge set.
    """

    __slots__ = ("n", "m", "part_label", "indptr", "indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 part_label: Optional[dict[int, int]] = None):
        # Trusted constructor: the CSR must already be sorted, symmetric,
        # loop-free and read-only; everyone else goes through from_edge_list().
        self.n = n
        self.m = len(indices) // 2
        self.indptr, self.indices = indptr, indices
        self.part_label = part_label

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def _row(self, v: int) -> np.ndarray:
        if not 0 <= v < self.n:
            raise VertexOutOfRangeError(v, self.n)
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._row(v).tolist())

    def degree(self, v: int) -> int:
        return len(self._row(v))

    def max_degree(self) -> int:
        return int(np.diff(self.indptr).max(initial=0))

    def has_edge(self, u: int, v: int) -> bool:
        row = self._row(u)
        if not 0 <= v < self.n:
            raise VertexOutOfRangeError(v, self.n)
        i = row.searchsorted(v)
        return bool(i < len(row) and row[i] == v)

    def edge_array(self) -> np.ndarray:
        """Every edge once as a row (u, v), u < v, of an (m, 2) int64
        array in sorted order."""
        source = np.repeat(np.arange(self.n), np.diff(self.indptr))
        up = self.indices > source
        return np.stack((source[up], self.indices[up]), 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield every edge once as (u, v) with u < v, in sorted order."""
        return zip(*self.edge_array().T.tolist())

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())


def from_edge_list(pairs: Union[Iterable[tuple[int, int]], np.ndarray], n: int,
                   part_label: Optional[dict[int, int]] = None) -> Graph:
    """Build a Graph from (u, v) pairs: any iterable of them, or an (m, 2)
    integer array.

    Rejects out-of-range endpoints, self loops and duplicate pairs in
    either orientation, checking all pairs at once.  The error names the
    first offending pair in input order and is the one a pair-by-pair
    check raises: u in range, then v in range, then u != v, then the pair
    unseen so far, so a duplicate comes in the orientation of its second
    occurrence.  The error's ``index`` is that pair's input position.
    """
    if n < 0:
        raise ValueError(f"n={n} must be nonnegative")
    given = pairs if isinstance(pairs, np.ndarray) else list(pairs)
    e = _id_array(given, n)
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    # Duplicates share a canonical key; each bad pair gets its own below 0.
    key = np.where(bad, -1 - np.arange(len(e)), lo * n + hi)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    bad[order[1:][ranked[1:] == ranked[:-1]]] = True
    if bad.any():
        i = int(bad.argmax())
        raise _pair_error(given[i], n, i)
    # CSR: both orientations of every edge, sorted by (source, target).
    arcs = np.sort(np.concatenate((key, hi * n + lo)))
    return Graph(n, *csr_from_keys(arcs, n), part_label)


def csr_from_keys(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only CSR of the ascending arc keys source * n + target."""
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    indices = keys % n
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


def _id_array(given, n: int) -> np.ndarray:
    """``given`` as an int64 (m, 2) array, ids outside [0, n) clipped to
    -1 or n, so ids beyond int64 stay out of range without overflow."""
    a = np.asarray(given)
    if a.dtype.kind == "f" and not isinstance(given, np.ndarray):
        # Python ints on both sides of the int64 range promote to float.
        a = np.array(given, dtype=object)
    if a.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"expected (u, v) pairs, got shape {a.shape}")
    if a.dtype.kind not in "iub" and not (
            a.dtype.kind == "O" and all(isinstance(x, Integral) for x in a.flat)):
        raise TypeError("vertex ids must be integers")
    if a.dtype.kind != "i":
        a = np.where(a < 0, -1, np.where(a >= n, n, a))
    return a.astype(np.int64, copy=False)


def _pair_error(pair, n: int, index: int) -> ArbolistError:
    """The error a pair-by-pair check raises for the pair at ``index``."""
    u, v = (int(x) for x in pair)
    if not 0 <= u < n:
        return VertexOutOfRangeError(u, n, index)
    if not 0 <= v < n:
        return VertexOutOfRangeError(v, n, index)
    if u == v:
        return SelfLoopError(u, index)
    return DuplicateEdgeError(u, v, index)


@dataclass(frozen=True, eq=False)
class OrderingResult:
    """An elimination order and the degeneracy.

    ``array`` is the order as a read-only int64 array; ``order`` is the
    same order as a tuple, built on first read.
    """

    array: np.ndarray
    degeneracy: int

    @cached_property
    def order(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())


# A peeling frontier of fewer vertices than this is thin: a numpy round
# on it costs more than a Python step per vertex, but a short run of such
# rounds is cheap, so the rounds end only after _THIN_RUN in a row.
_THIN = 64
_THIN_RUN = 16


def degeneracy_ordering(g: Graph) -> OrderingResult:
    """An elimination order in which every vertex has at most
    degeneracy-many later neighbours, and the degeneracy.

    Isolated vertices come first, in descending id.  The rest is peeled
    level by level (Batagelj & Zaversnik 2003): at level d, one numpy
    round removes every remaining vertex of residual degree at most d,
    in ascending id, and the next round's frontier is the neighbours it
    left at degree d or less.  d rises to the minimum remaining degree
    only when a round leaves no frontier, and the largest d reached is
    the degeneracy.  The Matula-Beck loop (:func:`_matula_beck`) orders
    the remaining vertices, relabelled in ascending id, with its own tie
    rule, once ``_THIN_RUN`` thin frontiers (fewer than ``_THIN``
    vertices) in a row are followed by one more, as on a long path, or
    once fewer than ``_THIN`` vertices are left.  So only a graph with
    fewer than ``_THIN`` non-isolated vertices gets exactly the
    Matula-Beck order.  Each round sorts the rows it removed, so the
    rounds cost O(m log m) in numpy, plus O(n) per rise of d.
    """
    indptr, indices = g.indptr, g.indices
    size = np.diff(indptr)
    deg = size.copy()
    alive = deg > 0
    placed = [np.flatnonzero(~alive)[::-1]]
    left = g.n - len(placed[0])
    level = degeneracy = run = 0
    frontier = np.empty(0, np.int64)
    while left >= _THIN:
        if not len(frontier):
            rest = np.flatnonzero(alive)
            level = int(deg[rest].min())
            frontier = rest[deg[rest] == level]
        run = run + 1 if len(frontier) < _THIN else 0
        if run > _THIN_RUN:
            break
        degeneracy = level
        alive[frontier] = False
        placed.append(frontier)
        left -= len(frontier)
        touched = indices[_ranges(indptr[frontier], size[frontier])]
        touched, drop = np.unique(touched[alive[touched]], return_counts=True)
        deg[touched] -= drop
        frontier = touched[deg[touched] <= level]
    rest = np.flatnonzero(alive)
    if len(rest):
        indptr, indices = _residual(indptr, indices, rest)
        tail, d = _matula_beck(indptr, indices)
        placed.append(rest[tail])
        degeneracy = max(degeneracy, d)
    order = np.concatenate(placed)
    order.flags.writeable = False
    return OrderingResult(order, degeneracy)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs starts[i], ..., starts[i] + lengths[i] - 1, concatenated,
    as int64: with a CSR's row starts and lengths, the positions of the
    rows' entries."""
    at = (starts - lengths.cumsum() + lengths).repeat(lengths)
    at += np.arange(len(at))
    return at


def _residual(indptr: np.ndarray, indices: np.ndarray,
              rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR induced on the ascending ids ``rest``, relabelled to
    0..len(rest)-1."""
    n = len(rest)
    new_id = np.full(len(indptr) - 1, -1)
    new_id[rest] = np.arange(n)
    size = indptr[rest + 1] - indptr[rest]
    targets = new_id[indices[_ranges(indptr[rest], size)]]
    sources = np.repeat(np.arange(n), size)
    return csr_from_keys((sources * n + targets)[targets >= 0], n)


def _matula_beck(indptr: np.ndarray,
                 indices: np.ndarray) -> tuple[np.ndarray, int]:
    """Greedy minimum-residual-degree order of a CSR, and the degeneracy.

    Repeatedly removes a vertex of smallest remaining degree and records
    the largest degree seen at removal time.  Uses the Matula-Beck bucket
    queue: one bucket per degree, a vertex is pushed again whenever its
    degree drops and stale entries are skipped on pop, so the cost is
    O(n + m).  Ties are broken deterministically: each bucket is a stack
    filled in ascending id.  Isolated vertices are what bucket 0 pops
    first, in descending id, so they are placed in one numpy step and
    only the other vertices pass through the buckets.
    """
    degrees = np.diff(indptr)
    n = len(degrees)
    indptr, indices = indptr.tolist(), indices.tolist()
    order = np.flatnonzero(degrees == 0)[::-1].tolist()
    # A removed vertex's degree is set to -1, so its stale entries never
    # match the bucket they sit in.
    deg = degrees.tolist()
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v in np.flatnonzero(degrees).tolist():
        buckets[deg[v]].append(v)
    degeneracy = 0
    d = 0
    while len(order) < n:
        bucket = buckets[d]
        if not bucket:
            d += 1
            continue
        v = bucket.pop()
        if deg[v] != d:
            continue
        deg[v] = -1
        order.append(v)
        if d > degeneracy:
            degeneracy = d
        for u in indices[indptr[v]:indptr[v + 1]]:
            if deg[u] > 0:
                deg[u] -= 1
                buckets[deg[u]].append(u)
        # Removing v lowers each remaining degree by at most one.
        if d:
            d -= 1
    return np.fromiter(order, np.int64, len(order)), degeneracy


@dataclass(frozen=True)
class ArboricityBounds:
    """Provable bracket [lower, upper] around the arboricity."""

    lower: int
    upper: int


def arboricity_bounds(g: Graph) -> ArboricityBounds:
    """Cheap two-sided arboricity estimate.

    The density bound ceil(m / (n - 1)) is a lower bound because a forest
    on n vertices holds at most n - 1 edges.  The degeneracy is an upper
    bound because peeling minimum-degree vertices yields an acyclic
    orientation with out-degree at most the degeneracy, which splits the
    edges into that many forests.
    """
    if g.n < 2:
        raise ValueError("arboricity bounds need at least 2 vertices")
    lower = ceil(g.m / (g.n - 1)) if g.m else 0
    upper = degeneracy_ordering(g).degeneracy
    return ArboricityBounds(lower, upper)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabelled to 0..len-1.

    Vertices are relabelled in ascending order of their original ids.
    Returns the new graph together with the relabelling map: a tuple where
    entry i is the original id of new vertex i.
    """
    old_ids = sorted(set(vertices))
    for v in old_ids:
        if not 0 <= v < g.n:
            raise VertexOutOfRangeError(v, g.n)
    labels = None
    if g.part_label is not None:
        labels = {i: g.part_label[old]
                  for i, old in enumerate(old_ids) if old in g.part_label}
    csr = _residual(g.indptr, g.indices, np.array(old_ids, np.int64))
    return Graph(len(old_ids), *csr, labels), tuple(old_ids)


def validate_kpartite(g: Graph, k: int) -> bool:
    """True iff the stored labels form a proper k-partition.

    Every vertex must carry a label (otherwise MissingLabelsError); the
    check then passes iff all labels are in 0..k-1 and no edge joins two
    vertices of the same part.
    """
    part = label_array(g)
    if not ((0 <= part) & (part < k)).all():
        return False
    part = part.astype(np.int64)
    return not (part[g.indices] == np.repeat(part, np.diff(g.indptr))).any()


def label_array(g: Graph) -> np.ndarray:
    """Every vertex's part label as an exact int, in an object array;
    MissingLabelsError if the graph or one of its vertices has none."""
    if g.part_label is None:
        raise MissingLabelsError("graph has no part labels")
    part = np.fromiter(map(g.part_label.get, range(g.n)), object, g.n)
    missing = np.equal(part, None)
    if missing.any():
        raise MissingLabelsError(f"vertex {missing.argmax()} has no part label")
    return part
