"""Immutable simple graphs, elimination orderings, and arboricity brackets."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import ceil
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
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
        self._adj = tuple(tuple(nbrs) for nbrs in adj)
        self.m = sum(len(nbrs) for nbrs in self._adj) // 2
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


def from_edge_list(pairs: Iterable[tuple[int, int]], n: int,
                   part_label: Optional[dict[int, int]] = None) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Rejects self loops, out-of-range endpoints, and duplicate pairs in
    either orientation.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if not 0 <= u < n:
            raise VertexOutOfRangeError(u, n)
        if not 0 <= v < n:
            raise VertexOutOfRangeError(v, n)
        if u == v:
            raise SelfLoopError(u)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(u, v)
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        nbrs.sort()
    return Graph(n, adj, part_label)


@dataclass(frozen=True)
class OrderingResult:
    """A vertex elimination order with its inverse and the degeneracy."""

    order: tuple[int, ...]
    position: tuple[int, ...]
    degeneracy: int


def degeneracy_ordering(g: Graph) -> OrderingResult:
    """Greedy minimum-residual-degree elimination order.

    Repeatedly removes a vertex of smallest remaining degree and records
    the largest degree seen at removal time (the degeneracy).  Uses the
    Matula-Beck bucket queue: one bucket per degree, a vertex is pushed
    again whenever its degree drops and stale entries are skipped on pop,
    so the cost is O(n + m).  Ties are broken deterministically.
    """
    n = g.n
    deg = [g.degree(v) for v in range(n)]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    position = [-1] * n
    order: list[int] = []
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
        # Removing v lowers each remaining degree by at most one.
        d = max(d - 1, 0)
    return OrderingResult(tuple(order), tuple(position), degeneracy)


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
