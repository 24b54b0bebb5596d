"""Immutable simple graphs, elimination orderings, and arboricity brackets."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import ceil
from numbers import Integral
from typing import Iterable, Iterator, Optional, Sequence, Union

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

    Adjacency lists are kept sorted ascending, which makes iteration order
    reproducible and lets ``has_edge`` use binary search.  Instances never
    mutate after construction, so they are safe to share between threads.

    ``part_label`` optionally maps every vertex to a part index.  The label
    map is carried along verbatim; use :func:`validate_kpartite` to check
    that it is a proper k-partition of the edge set.
    """

    __slots__ = ("n", "m", "part_label", "_adj")

    def __init__(self, n: int, adj: Sequence[Sequence[int]],
                 part_label: Optional[dict[int, int]] = None):
        # Trusted constructor: adj must already be sorted, symmetric and
        # loop-free.  Everyone else goes through from_edge_list().
        self.n = n
        self._adj = tuple(map(tuple, adj))
        self.m = sum(map(len, self._adj)) // 2
        self.part_label = part_label

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise VertexOutOfRangeError(u if not 0 <= u < self.n else v, self.n)
        nbrs = self._adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield every edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if v > u:
                    yield (u, v)

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
    targets = tuple((arcs % n).tolist())
    ends = np.bincount(arcs // n, minlength=n).cumsum().tolist()
    adj = [targets[a:b] for a, b in zip([0] + ends, ends)]
    return Graph(n, adj, part_label)


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


@dataclass(frozen=True)
class OrderingResult:
    """An elimination order, its inverse, the degeneracy and the out-lists."""

    order: tuple[int, ...]
    position: tuple[int, ...]
    degeneracy: int
    later: list[list[int]]


def degeneracy_ordering(g: Graph) -> OrderingResult:
    """Greedy minimum-residual-degree elimination order.

    Repeatedly removes a vertex of smallest remaining degree and records
    the largest degree seen at removal time (the degeneracy).  Uses the
    Matula-Beck bucket queue: one bucket per degree, a vertex is pushed
    again whenever its degree drops and stale entries are skipped on pop,
    so the cost is O(n + m).  Ties are broken deterministically.  Peeling v
    appends it to ``later[u]`` of each earlier neighbour u, so the out-lists
    come out sorted by position, with no sort.
    """
    n = g.n
    deg = [g.degree(v) for v in range(n)]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    position = [-1] * n
    order: list[int] = []
    later: list[list[int]] = [[] for _ in range(n)]
    degeneracy = 0
    d = 0
    while len(order) < n:
        if not buckets[d]:
            d += 1
            continue
        v = buckets[d].pop()
        if deg[v] != d:
            continue
        position[v] = len(order)
        order.append(v)
        degeneracy = max(degeneracy, d)
        for u in g.neighbors(v):
            if position[u] < 0:
                deg[u] -= 1
                buckets[deg[u]].append(u)
            else:
                later[u].append(v)
        # Removing v lowers each remaining degree by at most one.
        d = max(d - 1, 0)
    return OrderingResult(tuple(order), tuple(position), degeneracy, later)


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
    new_id = {old: i for i, old in enumerate(old_ids)}
    adj: list[list[int]] = []
    for old in old_ids:
        adj.append([new_id[w] for w in g.neighbors(old) if w in new_id])
    labels = None
    if g.part_label is not None:
        labels = {new_id[old]: g.part_label[old]
                  for old in old_ids if old in g.part_label}
    return Graph(len(old_ids), adj, labels), tuple(old_ids)


def validate_kpartite(g: Graph, k: int) -> bool:
    """True iff the stored labels form a proper k-partition.

    Every vertex must carry a label (otherwise MissingLabelsError); the
    check then passes iff all labels are in 0..k-1 and no edge joins two
    vertices of the same part.
    """
    if g.part_label is None:
        raise MissingLabelsError("graph has no part labels")
    labels = g.part_label
    for v in range(g.n):
        if v not in labels:
            raise MissingLabelsError(f"vertex {v} has no part label")
    for v in range(g.n):
        if not 0 <= labels[v] < k:
            return False
    for u, v in g.edges():
        if labels[u] == labels[v]:
            return False
    return True
