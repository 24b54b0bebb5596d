"""Graph families and reductions used as corpus inputs and hard cases.

Everything here is deterministic given its parameters and seed, so the
same call always produces the same graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import ceil, comb
from typing import Optional

import numpy as np

from .core import (Graph, csr_from_keys, from_edge_list, label_array,
                   validate_kpartite)
from .errors import (
    BadSigmaError,
    MissingLabelsError,
    NotPrimeError,
    NotTripartiteError,
    TooManyEdgesError,
)
from .listing import (
    FourCycleRecord,
    count_4cycles,
    count_triangles,
    four_cycle_record,
    triangle_record,
)
from .primes import is_prime
from .zeroclique import WeightedKPartiteGraph


@dataclass(frozen=True)
class PolaritySpec:
    """Expected shape of the orthogonality graph for a prime q."""

    q: int
    n: int
    expected_max_degree: int


def polarity_spec(q: int) -> PolaritySpec:
    if not is_prime(q):
        raise NotPrimeError(q)
    return PolaritySpec(q=q, n=q * q + q + 1, expected_max_degree=q + 1)


def polarity_graph(q: int) -> Graph:
    """Orthogonality graph of the projective plane over GF(q), q prime.

    Vertices are the q^2+q+1 projective points; two distinct points are
    adjacent iff their dot product vanishes mod q.  Any two points have
    at most one common neighbor (two distinct lines meet in one point),
    so the graph contains no 4-cycle, while its edge count q(q+1)^2/2 is
    about n^(3/2).  Self-orthogonal points keep degree q, the rest q+1.

    Each point's neighbours are the q+1 points of its polar line, solved
    for directly in ascending id, so the lines are the CSR's rows and
    time and memory are O(m).  Points are canonical
    (first nonzero coordinate 1), with ids (1, a, b) -> a*q + b,
    (0, 1, b) -> q^2 + b and (0, 0, 1) -> q^2 + q.
    """
    n = polarity_spec(q).n
    t = np.arange(q)
    c0 = (np.arange(n) < q * q).astype(np.int64)
    c1 = np.concatenate((np.repeat(t, q), np.ones(q, np.int64), [0]))
    c2 = np.concatenate((np.tile(t, q), t, [1]))
    inv = np.array([0] + [pow(x, -1, q) for x in range(1, q)], dtype=np.int64)
    line = np.empty((n, q + 1), dtype=np.int64)
    # c2 != 0: c0 + c1*a + c2*b = 0 fixes b for every a, and c1 + c2*b = 0
    # fixes the one (0, 1, b).
    u = np.flatnonzero(c2)
    r = inv[c2[u]]
    line[u, :q] = t * q + (-(c0[u, None] + c1[u, None] * t) * r[:, None]) % q
    line[u, q] = q * q + (-c1[u] * r) % q
    # c2 == 0: (0, 0, 1) and either every (1, a, b) with a = -c0/c1, or,
    # for (1, 0, 0), every (0, 1, b).
    w = np.flatnonzero(c2 == 0)
    a = (-c0[w] * inv[c1[w]]) % q
    line[w, :q] = np.where(c1[w] != 0, a * q, q * q)[:, None] + t
    line[w, q] = q * q + q
    # Each row of line ascends, so the arc keys v * n + line[v], less the
    # self-orthogonal points' own, come out in CSR order.
    v = np.arange(n)[:, None]
    return Graph(n, *csr_from_keys((v * n + line)[line != v], n))


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with exactly m distinct edges."""
    total = comb(n, 2)
    if m > total:
        raise TooManyEdgesError(m, total)
    rng = random.Random(seed)
    picked = np.array(sorted(rng.sample(range(total), m)), dtype=np.int64)
    # Pair index idx is (u, v) with idx - row_start[u] = v - u - 1.
    row_start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    u = np.searchsorted(row_start, picked, side="right") - 1
    v = u + 1 + picked - row_start[u]
    return from_edge_list(np.column_stack((u, v)), n)


def apply_part_labels(g: Graph, labels: list[int]) -> Graph:
    """Attach the given labels and drop every intra-part edge."""
    if len(labels) != g.n:
        raise ValueError(f"got {len(labels)} labels for {g.n} vertices")
    part = np.asarray(labels)
    negative = np.flatnonzero(part < 0)
    if len(negative):
        v = int(negative[0])
        raise ValueError(f"negative label {labels[v]} at vertex {v}")
    e = g.edge_array()
    return from_edge_list(e[part[e[:, 0]] != part[e[:, 1]]], g.n,
                          dict(enumerate(labels)))


def color_code(g: Graph, k: int, seed: int) -> Graph:
    """Random k-coloring of the vertices, keeping only inter-color edges.

    A fixed subgraph on k vertices survives with constant probability
    (k!/k^k when its vertices must take distinct colors), which is the
    usual amplification trick for turning colorful search into general
    search.  Each edge survives with probability (k-1)/k.
    """
    if k < 2:
        raise ValueError(f"k={k} must be at least 2")
    rng = random.Random(seed)
    labels = [rng.randrange(k) for _ in range(g.n)]
    return apply_part_labels(g, labels)


def random_kpartite(k: int, n_part: int, edge_prob: float, seed: int) -> Graph:
    """Random k-partite graph, parts of equal size in contiguous id blocks,
    built from the edge array of ``_cross_part_edges``."""
    _check_kpartite(k, n_part, edge_prob)
    edges = _cross_part_edges(random.Random(seed), k, n_part, edge_prob)
    return from_edge_list(edges, k * n_part, _block_labels(k, n_part))


def _check_kpartite(k: int, n_part: int, edge_prob: float) -> None:
    """Check the shape both k-partite generators take, before any draw."""
    if k < 2:
        raise ValueError(f"k={k} must be at least 2")
    if n_part < 1:
        raise ValueError(f"n_part={n_part} must be positive")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob={edge_prob} outside [0, 1]")


def _block_labels(k: int, size: int) -> dict[int, int]:
    """Labels of k parts of ``size`` vertices in contiguous id blocks."""
    return {v: v // size for v in range(k * size)}


def _cross_part_edges(rng: random.Random, k: int, n_part: int,
                      edge_prob: float) -> np.ndarray:
    """Each pair of vertices in different parts (see ``_block_labels``)
    kept with probability ``edge_prob``, as the rows (u, v), u < v, of an
    (m, 2) int64 array in draw order.

    One ``rng.random()`` per pair, part pairs (i, j) in order, then u,
    then v: this draw order defines every seeded k-partite instance.
    """
    parts = np.array(list(combinations(range(k), 2)), np.int64)
    block = n_part * n_part
    draws = np.fromiter(iter(rng.random, None), np.float64, len(parts) * block)
    pair, at = np.divmod(np.flatnonzero(draws < edge_prob), block)
    return parts[pair] * n_part + np.stack(np.divmod(at, n_part), 1)


@dataclass(frozen=True)
class ReductionInstance:
    """Output of the triangle-to-4-cycle rewrite, with provenance hooks.

    ``graph`` is 4-partite on parts A, B, C and the fresh copy part C'.
    ``matching`` holds the C-to-C' identity matching edges; a 4-cycle of
    the output uses exactly one matching edge iff it encodes a triangle
    of the source graph.  ``copy_to_source`` maps each C' vertex back to
    the C vertex it copies.  ``source`` is the input graph; its
    triangle and 4-cycle counts are computed on first read.
    """

    graph: Graph
    matching: frozenset
    copy_to_source: dict[int, int]
    source: Graph

    @cached_property
    def source_triangle_count(self) -> int:
        return count_triangles(self.source)

    @cached_property
    def source_4cycle_count(self) -> int:
        return count_4cycles(self.source)

    def origin_of(self, cycle: FourCycleRecord) -> str:
        """Classify an output 4-cycle as 'triangle' or '4cycle' provenance."""
        a, b, c, d = cycle
        hits = sum(1 for e in ((a, b), (b, c), (c, d), (a, d))
                   if (min(e), max(e)) in self.matching)
        if hits == 0:
            return "4cycle"
        if hits == 1:
            return "triangle"
        raise AssertionError(f"cycle {cycle} uses {hits} matching edges")

    def source_of(self, cycle: FourCycleRecord):
        """Map an output 4-cycle to its source record in the input graph."""
        if self.origin_of(cycle) == "triangle":
            ring = list(cycle)
            for x, y in ((cycle.a, cycle.b), (cycle.b, cycle.c),
                         (cycle.c, cycle.d), (cycle.a, cycle.d)):
                key = (min(x, y), max(x, y))
                if key in self.matching:
                    copy = max(x, y)
                    c_vertex = self.copy_to_source[copy]
                    rest = [v for v in ring if v not in (x, y)]
                    return ("triangle",
                            triangle_record(rest[0], rest[1], c_vertex))
            raise AssertionError("unreachable")
        mapped = [self.copy_to_source.get(v, v) for v in cycle]
        return ("4cycle", four_cycle_record(*mapped))


def triangle_to_4cycle_transform(g: Graph) -> ReductionInstance:
    """Rewrite a tripartite graph so its triangles become 4-cycles.

    Parts A, B, C are read from the labels (0, 1, 2).  A-B and B-C edges
    are kept; every A-C edge is redirected to a fresh copy part C' (one
    copy per C vertex); the identity matching C-C' is added.  A triangle
    (a, b, c) of the input then corresponds one-to-one to the output
    4-cycle a-b-c-c', the unique kind of 4-cycle that crosses the
    matching.  Every matching-free 4-cycle of the output arises from a
    4-cycle of the input (with any C' vertex read back as its C source).
    """
    try:
        proper = validate_kpartite(g, 3)
    except MissingLabelsError:
        proper = False
    if not proper:
        raise NotTripartiteError("labels are not a proper tripartition")
    part = label_array(g).astype(np.int64)
    c_ids = np.flatnonzero(part == 2)
    n_out = g.n + len(c_ids)
    # copy[v] is v's C' vertex for a C vertex v, else v itself.
    copy = np.arange(g.n)
    copy[c_ids] = np.arange(g.n, n_out)
    e = g.edge_array()
    # The partition is proper, so an edge's labels sum to 2 iff it is A-C.
    ac = part[e].sum(1) == 2
    e[ac] = copy[e[ac]]
    matching = np.stack((c_ids, copy[c_ids]), 1)
    sources, copies = matching.T.tolist()
    out_labels = dict(g.part_label)
    out_labels.update(dict.fromkeys(copies, 3))
    out = from_edge_list(np.concatenate((e, matching)), n_out, out_labels)
    return ReductionInstance(
        graph=out,
        matching=frozenset(zip(sources, copies)),
        copy_to_source=dict(zip(copies, sources)),
        source=g,
    )


def pad_with_c4free(g: Graph, copies: int, q: int) -> Graph:
    """Disjoint union of g with ``copies`` orthogonality-graph components.

    Padding inflates the vertex and edge counts without adding triangles
    or 4-cycles that touch g; the fresh components occupy the id range
    above g.n, so provenance is a simple threshold test.  Part labels of
    g, if any, are kept; padding vertices stay unlabelled.
    """
    if copies < 0:
        raise ValueError("copies must be nonnegative")
    if copies == 0:
        return g
    pad = polarity_graph(q)
    offsets = g.n + pad.n * np.arange(copies)
    padding = pad.edge_array() + offsets[:, None, None]
    labels = dict(g.part_label) if g.part_label is not None else None
    return from_edge_list(
        np.concatenate((g.edge_array(), padding.reshape(-1, 2))),
        g.n + copies * pad.n, labels)


def sparse_triangle_instance(n_param: int, sigma: float, seed: int) -> Graph:
    """Tripartite instance mimicking the shape of padded hard inputs.

    Produces about n_param^(1-sigma) vertices split evenly into three
    parts, with maximum degree capped at ceil(n_param^(0.5-sigma)).
    Edges come from layered random bipartite matchings between each pair
    of parts; an edge is dropped rather than let an endpoint exceed the
    cap, so the cap always holds.
    """
    if not 0.0 < sigma < 0.5:
        raise BadSigmaError(sigma)
    part = round(n_param ** (1.0 - sigma) / 3.0)
    cap = ceil(n_param ** (0.5 - sigma))
    if part < 1 or cap < 1:
        raise ValueError(
            f"n_param={n_param} too small: derived sizes part={part} cap={cap}")
    rng = random.Random(seed)
    n = 3 * part
    parts = [list(range(i * part, (i + 1) * part)) for i in range(3)]
    deg = [0] * n
    edges: set[tuple[int, int]] = set()
    for xs, ys in ((parts[0], parts[1]), (parts[1], parts[2]),
                   (parts[0], parts[2])):
        for _ in range(cap):
            perm = rng.sample(ys, len(ys))
            for x, y in zip(xs, perm):
                if deg[x] >= cap or deg[y] >= cap:
                    continue
                e = (x, y) if x < y else (y, x)
                if e in edges:
                    continue
                edges.add(e)
                deg[x] += 1
                deg[y] += 1
    return from_edge_list(edges, n, _block_labels(3, part))


def random_weighted_kpartite(k: int, n_part: int, edge_prob: float,
                             weight_bound: int, seed: int,
                             planted: bool = False) -> WeightedKPartiteGraph:
    """Random k-partite instance with integer edge weights in [-W, W].

    Parts are contiguous id blocks of size n_part.  With planted=True one
    vertex per part is picked, the clique on those vertices is forced to
    exist, and its edge weights are resampled to sum to exactly zero
    while staying within the bound.  Planting guarantees at least one
    zero-weight clique; it says nothing about uniqueness, and unplanted
    instances may contain one by chance.

    The draws come in this order: the edges (``_cross_part_edges``), the
    planted vertices, part by part, then one weight per edge in sorted
    (u, v) order, then the planted clique's weights but its last, until
    their sum is within the bound.  Edges are carried as sorted int64 keys
    u * n + v and the weights as a list in that order, which is the
    instance's edge order.
    """
    _check_kpartite(k, n_part, edge_prob)
    if weight_bound < 1:
        raise ValueError(f"weight_bound={weight_bound} must be at least 1")
    rng = random.Random(seed)
    n = k * n_part
    cross = _cross_part_edges(rng, k, n_part, edge_prob)
    keys = cross[:, 0] * n + cross[:, 1]
    if planted:
        chosen = [rng.randrange(i * n_part, (i + 1) * n_part)
                  for i in range(k)]
        # chosen ascends, so the clique's keys come in sorted order.
        clique = np.array([u * n + v for u, v in combinations(chosen, 2)],
                          np.int64)
        keys = np.concatenate((keys, clique))
    keys.sort()
    # A clique edge that was also drawn is kept once.
    keys = keys[np.diff(keys, prepend=-1) != 0]
    weights = [rng.randint(-weight_bound, weight_bound)
               for _ in range(len(keys))]
    if planted:
        while True:
            head = [rng.randint(-weight_bound, weight_bound)
                    for _ in range(len(clique) - 1)]
            if abs(sum(head)) <= weight_bound:
                break
        for i, w in zip(keys.searchsorted(clique).tolist(),
                        head + [-sum(head)]):
            weights[i] = w
    base = from_edge_list(np.stack(np.divmod(keys, n), 1), n,
                          _block_labels(k, n_part))
    return WeightedKPartiteGraph(base, k, weights, weight_bound)
