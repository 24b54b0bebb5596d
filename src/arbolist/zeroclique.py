"""Exact zero-weight k-clique search via modular hashing and bucketing.

The pipeline takes a k-partite edge-weighted graph, rehashes the weights
so that the sum over any one-vertex-per-part clique is a fixed multiple
of the original sum mod a prime p, partitions the residue range [0, p)
into s intervals, and then only searches the few "admissible" interval
combinations (keys) whose sumset can reach 0 mod p, built once as one
int64 table.  The solver scans growing groups of consecutive keys, each
over the base orientation restricted to the arcs its keys select, and
stops in the first group that holds a zero clique.  Every clique of an
admissible key is checked against the original weights, so the answer
is exact regardless of hash collisions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from time import perf_counter
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .core import Graph, label_array, validate_kpartite
from .errors import BadEpsilonError, BadModulusError, BadSError
from .listing import CliqueRecord, Orientation, orient, scan_cliques
from .primes import EXACT_BELOW, is_prime, next_prime_above

Edge = tuple  # (u, v) with u < v


def pair_order(k: int) -> list[tuple[int, int]]:
    """Canonical order of part pairs: (0,1), (0,2), ..., (k-2,k-1)."""
    return list(combinations(range(k), 2))


def _dtype(bound: int):
    """int64 when every magnitude is below ``bound`` <= 2**63, else object
    (exact Python ints)."""
    return np.int64 if bound <= 2 ** 63 else object


class WeightedKPartiteGraph:
    """A k-partite graph with an integer weight on every edge.

    The base graph must carry labels forming a proper k-partition, every
    edge must have a weight, and weights stay within [-weight_bound,
    weight_bound].  ``weights`` is either a Mapping keyed by (u, v) with
    u < v, or a sequence of the edges' weights in ``base.edges()``
    order, into which a Mapping is turned first.  The instance keeps
    arrays in that order, which the solver reads: ``ends``, the (m, 2)
    int64 edges, and ``w``, their weights (int64 while C(k,2) weights sum
    below 2**63, exact ints above); ``part`` holds every vertex's part as
    int64.  The ``weights`` property is the dict keyed by (u, v) with
    u < v, built from ``ends`` and ``w`` on first read.
    """

    __slots__ = ("base", "k", "weight_bound", "ends", "w", "part",
                 "_weights")

    def __init__(self, base: Graph, k: int,
                 weights: Union[Mapping[Edge, int], Sequence[int]],
                 weight_bound: int):
        if not validate_kpartite(base, k):
            raise ValueError("base graph labels are not a proper k-partition")
        if weight_bound < 0:
            raise ValueError("weight_bound must be nonnegative")
        ends = base.edge_array()
        values = weights
        if isinstance(weights, Mapping):
            values = list(map(weights.get, zip(*ends.T.tolist())))
            if None in values:
                raise ValueError(f"{values.count(None)} edges have no weight")
            if len(weights) > base.m:
                raise ValueError(f"{len(weights) - base.m} weighted pairs "
                                 "are not edges")
        elif len(values) != base.m:
            raise ValueError(f"{len(values)} weights for {base.m} edges")
        if max(map(abs, values), default=0) > weight_bound:
            # The first weight beyond the bound, in the order given.
            named = (weights.items() if isinstance(weights, Mapping)
                     else zip(base.edges(), values))
            e, w = next((e, w) for e, w in named if abs(w) > weight_bound)
            raise ValueError(f"|w{e}| = {abs(w)} exceeds bound {weight_bound}")
        self.base = base
        self.k = k
        self.weight_bound = weight_bound
        self.ends = ends
        self.w = np.array(values, _dtype(k * (k - 1) // 2 * weight_bound + 1))
        self.part = label_array(base).astype(np.int64)
        self._weights: Optional[dict[Edge, int]] = None

    @property
    def weights(self) -> dict[Edge, int]:
        if self._weights is None:
            self._weights = dict(zip(zip(*self.ends.T.tolist()),
                                     self.w.tolist()))
        return self._weights

    def parts(self) -> list[list[int]]:
        return [np.flatnonzero(self.part == j).tolist() for j in range(self.k)]

    def weight(self, u: int, v: int) -> int:
        return self.weights[(u, v) if u < v else (v, u)]


def max_weight(k: int) -> int:
    """Largest |weight| the solver takes on k parts.

    Its prime p, the next one above k^2 * W, is at most 2 * k^2 * W
    (Bertrand's postulate), which must stay in ``is_prime``'s exact range.
    """
    return (EXACT_BELOW // 2 - 1) // max(k * k, 1)


@dataclass(frozen=True)
class HashParams:
    """Multiplier x and per-vertex offset table y of one hashing round.

    ``y[v][j]`` is vertex v's offset toward part j; the row entries over
    all parts other than v's own sum to 0 mod p, which is what makes the
    offsets cancel over any one-vertex-per-part clique.
    """

    p: int
    x: int
    y: tuple[tuple[int, ...], ...]


def sample_hash_params(g: WeightedKPartiteGraph, p: int, seed: int) -> HashParams:
    """Draw hashing parameters: x uniform in [1, p), zero-sum offset rows.

    Requires p prime and p > k^2 * weight_bound, so a nonzero original
    clique sum can never alias to 0 mod p.
    """
    if not is_prime(p):
        raise BadModulusError(f"p={p} is not prime")
    if p <= g.k * g.k * g.weight_bound:
        raise BadModulusError(
            f"p={p} not above k^2*W = {g.k * g.k * g.weight_bound}")
    rng = random.Random(seed)
    x = rng.randrange(1, p)
    labels = g.base.part_label
    assert labels is not None
    rows: list[tuple[int, ...]] = []
    for v in range(g.base.n):
        own = labels[v]
        row = [0] * g.k
        others = [j for j in range(g.k) if j != own]
        acc = 0
        for j in others[:-1]:
            val = rng.randrange(p)
            row[j] = val
            acc += val
        row[others[-1]] = (-acc) % p
        rows.append(tuple(row))
    return HashParams(p=p, x=x, y=tuple(rows))


def hash_edges(g: WeightedKPartiteGraph, params: HashParams) -> np.ndarray:
    """x*w(u,v) + y[u][part(v)] + y[v][part(u)] mod p for every edge, in
    ``g.base.edges()`` order: int64 while the terms stay below p *
    (weight_bound + 2) <= 2**63, exact ints above, as at p ~ 9e12 with
    weights up to 1e12.

    For any clique with one vertex per part, the hashed weights sum to
    x times the original sum mod p: the y offsets pair up by vertex and
    each vertex's row cancels by construction.
    """
    dtype = _dtype(params.p * (g.weight_bound + 2))
    y = np.array(params.y, dtype).reshape(-1, g.k)
    offsets = y[g.ends, g.part[g.ends[:, ::-1]]].sum(1)
    return (params.x * g.w.astype(dtype) + offsets) % params.p


@dataclass(frozen=True)
class IntervalPartition:
    """[0, p) split into s half-open intervals of length ceil(p/s).

    The last interval may be shorter.  When the requested s would leave
    empty trailing intervals (possible since lengths round up), s is
    reduced to the number of nonempty intervals; the reduced s is this
    ``s``, which ``SolveReport.s`` and the CLI's ``s=`` field show.
    """

    p: int
    s: int
    length: int
    bounds: tuple[tuple[int, int], ...]

    def interval_of(self, values: np.ndarray) -> np.ndarray:
        """The interval index of each of ``values``; a ValueError names
        the first value outside [0, p)."""
        outside = (values < 0) | (values >= self.p)
        if np.any(outside):
            first = np.asarray(values)[outside][0]
            raise ValueError(f"value {first} outside [0, {self.p})")
        return values // self.length


def partition_intervals(p: int, s: int) -> IntervalPartition:
    if s < 1 or s > p:
        raise BadSError(f"s={s} outside the valid range 1..{p}")
    length = -(-p // s)
    actual = -(-p // length)
    bounds = tuple((i * length, min((i + 1) * length, p))
                   for i in range(actual))
    return IntervalPartition(p=p, s=actual, length=length, bounds=bounds)


BucketKey = tuple  # one interval index per part pair, in pair_order() order

# The most keys (rows of C(k,2) int64s) admissible_keys builds: a reduced
# s whose bound (C(k,2)+1) * s**(C(k,2)-1) passes it is refused before any
# allocation or hashing (k=3: s <= 1024, k=4: 14, k=5: 4).
MAX_KEYS = 2 ** 22


def _check_key_bound(partition: IntervalPartition, k: int, s: int) -> None:
    """BadSError naming ``s`` if ``partition`` bounds over MAX_KEYS keys."""
    pairs = len(pair_order(k))
    bound = (pairs + 1) * partition.s ** (pairs - 1)
    if bound > MAX_KEYS:
        raise BadSError(f"s={s} gives up to {bound} admissible keys at "
                        f"k={k}, above the limit {MAX_KEYS}")


def admissible_keys(partition: IntervalPartition, k: int) -> np.ndarray:
    """Keys whose interval sumset contains 0 mod p: a (keys, C(k,2))
    int64 array in lexicographic order.

    A key assigns one interval to each of the C(k,2) part pairs; the sums
    of one value per interval form a contiguous integer range, so the key
    is admissible iff that range contains a multiple of p.  Each of the
    s^(C(k,2)-1) prefixes leaves at most C(k,2)+1 candidates for the last
    index, so the table has O(s^(C(k,2)-1)) rows.  Sums are exact (Python
    ints once C(k,2) * p passes 2**63).  Raises :class:`BadSError` before
    allocating when the key bound passes ``MAX_KEYS``.
    """
    _check_key_bound(partition, k, partition.s)
    pairs, p, s = len(pair_order(k)), partition.p, partition.s
    low, high = (np.array(partition.bounds, _dtype(pairs * p)) - [0, 1]).T
    # Prefixes as base-s digits of their rank; np.indices allows 64 axes.
    prefix = (np.arange(s ** (pairs - 1))[:, None]
              // s ** np.arange(pairs - 2, -1, -1) % s)
    lo, hi = low[prefix].sum(1), high[prefix].sum(1)
    # The last index must meet [M-hi, M-lo], M a multiple of p: mod p, a run
    # from (-hi) mod p over at most C(k,2) intervals, +1 where it wraps.
    first = ((-hi) % p // partition.length).astype(np.int64)
    last = np.sort((first[:, None] + np.arange(min(pairs + 1, s))) % s, 1)
    ok = (hi[:, None] + high[last]) // p * p >= lo[:, None] + low[last]
    return np.column_stack((prefix.repeat(ok.sum(1), 0), last[ok]))


def admissible_tuples(partition: IntervalPartition, k: int) -> Iterator[BucketKey]:
    """The rows of :func:`admissible_keys`, in order, as tuples of ints."""
    return map(tuple, admissible_keys(partition, k).tolist())


def arc_table(g: WeightedKPartiteGraph, hashed: np.ndarray,
              partition: IntervalPartition, oriented: Orientation) -> tuple:
    """The arcs of ``oriented = orient(g.base)``, aligned to its
    ``keys``, as arrays read from the instance's: their part-pair slots,
    the intervals of their ``hashed`` weights (from :func:`hash_edges`,
    in edge order) and their original weights ``g.w``; then the number
    of part pairs, C(k,2), which counts pairs that have no edge too.
    """
    n, k = oriented.n, g.k
    pos = np.empty(n, np.int64)
    pos[oriented.order] = np.arange(n)
    src, dst = np.sort(pos[g.ends], 1).T
    by = (src * n + dst).argsort()
    # The index of the edge's part pair (a, b), a < b, in pair_order(k).
    a, b = np.sort(g.part[g.ends], 1).T
    slot = a * (2 * k - a - 1) // 2 + b - a - 1
    interval = partition.interval_of(hashed)
    return slot[by], interval[by].astype(np.int64), g.w[by], len(pair_order(k))


def extract_bucket(oriented: Orientation, arcs: tuple,
                   key: BucketKey) -> Orientation:
    """Bucket keeping, per part pair, the edges hashed into the keyed interval.

    ``arcs`` comes from :func:`arc_table` with the same ``oriented``.
    The bucket keeps the arc keys whose interval is the key's entry at
    their slot, one mask over the arc table, which is aligned to the
    keys; no validation or :class:`Graph`.  Vertex ids are kept,
    so its cliques are cliques of the original graph.
    """
    slot, interval, _, pairs = arcs
    if len(key) != pairs:
        raise ValueError(f"key has {len(key)} entries, expected {pairs}")
    kept = np.asarray(key, np.int64)[slot] == interval
    return Orientation(oriented.n, oriented.order, oriented.keys[kept])


def choose_s(n: int, k: int, epsilon: float) -> int:
    """Bucket count balancing bucket size against the number of buckets.

    Evaluates round(n^(2*epsilon / (k^2 - 3k + 2))), at least 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise BadEpsilonError(epsilon)
    if k < 3:
        raise ValueError(f"k={k} must be at least 3")
    if n < 1:
        raise ValueError(f"n={n} must be at least 1")
    exponent = 2.0 * epsilon / (k * k - 3 * k + 2)
    return max(1, round(n ** exponent))


@dataclass
class SolveReport:
    """Outcome and accounting of one zero-clique search."""

    witness: Optional[CliqueRecord]
    p: int
    s: int
    buckets_examined: int = 0
    cliques_listed_total: int = 0
    hash_s: float = 0.0
    extract_s: float = 0.0
    search_s: float = 0.0

    @property
    def found(self) -> bool:
        return self.witness is not None


# Keys per scan of the solve grow by this factor: 1, 8, 64, ...
_GROWTH = 8


def solve_zero_kclique(g: WeightedKPartiteGraph, k: int, s: int,
                       seed: int) -> SolveReport:
    """Find some one-vertex-per-part k-clique of total weight zero, if any.

    Chooses p as the smallest prime above max(k^2 * weight_bound, n),
    splits [0, p) into s intervals, raising :class:`BadSError` when the
    reduced s bounds more than ``MAX_KEYS`` admissible keys, hashes the
    weights and orients the base graph once (:func:`orient`).
    One pass over the arcs gives each its part-pair slot, hashed
    interval and original weight, as arrays in arc-key order.  The
    :func:`admissible_keys` table is then sliced, in order, into groups of
    1, ``_GROWTH``, ``_GROWTH``**2, ... keys.  A group's orientation
    keeps the base arcs whose (slot, interval) occurs in one of its
    keys; once that is every arc, the group takes all remaining keys and
    scans the base orientation itself.  Per scanned batch, the arcs of
    each clique give its key, and the cliques whose key is in the group
    have their weight sums checked exactly on the original weights.

    The witness is the zero clique of the lowest key rank, and within
    that key the first in scan order: grouped by its earliest vertex in
    the base order, then by the positions of its later vertices.  That
    is the clique a walk of one bucket per key in lexicographic order
    finds first, and ``buckets_examined`` and ``cliques_listed_total``
    are what that walk reports: the witness's rank + 1 (all keys without
    a witness), and the cliques of lower-ranked keys plus those of the
    witness's key up to it.  A group's scan stops at the first zero
    clique of its first key; otherwise the first group with a zero
    clique is scanned to its end.  A zero-sum clique always carries the
    key of its own hashed edge weights, and that key is admissible, so
    an existing witness cannot be missed.

    ``extract_s`` counts the orientation, the arc pass, the key table
    and every group's arc selection and orientation; ``search_s`` the
    group scans with their checks.
    """
    if k < 3:
        raise ValueError(f"k={k} must be at least 3")
    if g.k != k:
        raise ValueError(f"instance has {g.k} parts, expected {k}")
    if not np.bincount(g.part, minlength=k).all():
        raise ValueError("every part must be nonempty")
    t0 = perf_counter()
    p = next_prime_above(max(k * k * g.weight_bound, g.base.n))
    partition = partition_intervals(p, s)
    _check_key_bound(partition, k, s)
    hashed = hash_edges(g, sample_hash_params(g, p, seed))
    n, s = g.base.n, partition.s
    report = SolveReport(witness=None, p=p, s=s)
    t1 = perf_counter()
    report.hash_s = t1 - t0

    oriented = orient(g.base)
    slot, interval, weight, pairs = arc_table(g, hashed, partition, oriented)
    table = admissible_keys(partition, k)
    # Mixed-radix codes keep key order; s**C(k,2) <= 2**30 fits int64.
    radix = s ** np.arange(pairs - 1, -1, -1)
    table_codes = table @ radix
    place = interval * radix[slot]
    # Column pairs of a clique's position row, whose arcs it holds.
    first, second = np.array(pair_order(k)).T
    report.extract_s = perf_counter() - t1

    start, size, listed = 0, 1, 0
    while start < len(table):
        b0 = perf_counter()
        stop = start + size
        allowed = np.zeros((pairs, s), bool)
        allowed[np.arange(pairs), table[start:stop]] = True
        kept = allowed[slot, interval]
        if kept.all():
            stop = len(table)
            selected = oriented
        else:
            selected = Orientation(n, oriented.order, oriented.keys[kept])
        codes = table_codes[start:stop]
        counts = np.zeros(len(codes), np.int64)
        # (rank in the group, its key's cliques up to it, its positions)
        best: Optional[tuple[int, int, np.ndarray]] = None

        def consume(rows: np.ndarray) -> Optional[int]:
            nonlocal best, counts
            arcs = oriented.keys.searchsorted(rows[:, first] * n
                                              + rows[:, second])
            code = place[arcs].sum(1)
            rank = np.minimum(codes.searchsorted(code), len(codes) - 1)
            at = np.flatnonzero(codes[rank] == code)
            rank, arcs = rank[at], arcs[at]
            zero = np.flatnonzero(weight[arcs].sum(1) == 0)
            if len(zero):
                i = zero[rank[zero].argmin()]
                r = int(rank[i])
                if best is None or r < best[0]:
                    upto = int(counts[r]) + int((rank[:i + 1] == r).sum())
                    best = r, upto, rows[at[i]]
                    if r == 0:
                        return int(at[i])
            counts += np.bincount(rank, minlength=len(codes))
            return None

        b1 = perf_counter()
        report.extract_s += b1 - b0
        scan_cliques(selected, k, consume)
        report.search_s += perf_counter() - b1
        if best is not None:
            r, upto, row = best
            report.witness = tuple(sorted(oriented.order[row].tolist()))
            report.buckets_examined += r + 1
            report.cliques_listed_total = (listed + int(counts[:r].sum())
                                           + upto)
            return report
        report.buckets_examined += len(codes)
        listed += int(counts.sum())
        start, size = stop, size * _GROWTH
    report.cliques_listed_total = listed
    return report
