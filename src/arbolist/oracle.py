"""Brute-force reference enumerators.

These deliberately naive routines are the ground truth the fast listers
are verified against.  They share nothing with the fast paths except the
record canonicalization helpers, and they refuse inputs large enough to
make the exhaustive scan explode.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import Optional

from .core import Graph
from .errors import TooLargeError
from .listing import (
    CliqueRecord,
    FourCycleRecord,
    TriangleRecord,
    clique_record,
    four_cycle_record,
    triangle_record,
)

MAX_TRIANGLE_N = 512
MAX_FOURCYCLE_N = 256
MAX_CLIQUE_SUBSETS = 10 ** 8
MAX_ZERO_PART = 16


def _bitmask_adjacency(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u in range(g.n):
        m = 0
        for v in g.neighbors(u):
            m |= 1 << v
        masks[u] = m
    return masks


def brute_triangles(g: Graph) -> set[TriangleRecord]:
    """All triangles by scanning every vertex triple."""
    if g.n > MAX_TRIANGLE_N:
        raise TooLargeError(f"n={g.n} exceeds the {MAX_TRIANGLE_N}-vertex guard")
    masks = _bitmask_adjacency(g)
    out: set[TriangleRecord] = set()
    for a, b, c in combinations(range(g.n), 3):
        if (masks[a] >> b) & 1 and (masks[a] >> c) & 1 and (masks[b] >> c) & 1:
            out.add(triangle_record(a, b, c))
    return out


def brute_4cycles(g: Graph) -> set[FourCycleRecord]:
    """All 4-cycles by scanning every vertex quadruple.

    For each quadruple a < b < c < d there are three ways to pair it into
    a cycle: a-b-c-d, a-b-d-c and a-c-b-d.  A quadruple is skipped early
    unless at least one pairing is still possible given the edges among
    the first three vertices.
    """
    if g.n > MAX_FOURCYCLE_N:
        raise TooLargeError(f"n={g.n} exceeds the {MAX_FOURCYCLE_N}-vertex guard")
    masks = _bitmask_adjacency(g)
    out: set[FourCycleRecord] = set()
    n = g.n
    for a in range(n - 3):
        ma = masks[a]
        for b in range(a + 1, n - 2):
            ab = (ma >> b) & 1
            mb = masks[b]
            for c in range(b + 1, n - 1):
                ac = (ma >> c) & 1
                bc = (mb >> c) & 1
                if not ((ab and bc) or (ab and ac) or (ac and bc)):
                    continue
                mc = masks[c]
                for d in range(c + 1, n):
                    ad = (ma >> d) & 1
                    bd = (mb >> d) & 1
                    cd = (mc >> d) & 1
                    if ab and bc and cd and ad:
                        out.add(four_cycle_record(a, b, c, d))
                    if ab and bd and cd and ac:
                        out.add(four_cycle_record(a, b, d, c))
                    if ac and bc and bd and ad:
                        out.add(four_cycle_record(a, c, b, d))
    return out


def brute_kcliques(g: Graph, k: int) -> set[CliqueRecord]:
    """All k-cliques by monotone extension of smaller cliques.

    Every (j+1)-clique is a j-clique plus one vertex adjacent to all of
    it and larger than its maximum, so extending level by level visits
    each clique exactly once, with no ordering machinery involved.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > g.n:
        return set()
    if comb(g.n, k) > MAX_CLIQUE_SUBSETS:
        raise TooLargeError(
            f"C({g.n}, {k}) exceeds the {MAX_CLIQUE_SUBSETS} subset guard")
    masks = _bitmask_adjacency(g)
    level: list[tuple[tuple, int]] = [((v,), masks[v]) for v in range(g.n)]
    for _ in range(k - 1):
        nxt: list[tuple[tuple, int]] = []
        for vs, common in level:
            cands = common >> (vs[-1] + 1)
            base = vs[-1] + 1
            while cands:
                low = cands & -cands
                w = base + low.bit_length() - 1
                nxt.append((vs + (w,), common & masks[w]))
                cands ^= low
        level = nxt
    return {clique_record(vs) for vs, _ in level}


def brute_zero_kclique(wg, k: int) -> Optional[CliqueRecord]:
    """First k-clique (one vertex per part) whose weights sum to zero.

    Scans the full cartesian product of the parts in ascending id order
    and returns the first qualifying clique, or None.  ``wg`` is a
    WeightedKPartiteGraph.
    """
    parts = wg.parts()
    if len(parts) != k:
        raise ValueError(f"instance has {len(parts)} parts, expected {k}")
    for part in parts:
        if len(part) > MAX_ZERO_PART:
            raise TooLargeError(
                f"part of size {len(part)} exceeds the {MAX_ZERO_PART} guard")
    g = wg.base
    masks = _bitmask_adjacency(g)
    for tup in product(*parts):
        ok = True
        total = 0
        for i, j in combinations(range(k), 2):
            u, v = tup[i], tup[j]
            if not (masks[u] >> v) & 1:
                ok = False
                break
            total += wg.weight(u, v)
        if ok and total == 0:
            return clique_record(tup)
    return None
