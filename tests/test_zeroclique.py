import random
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest

from arbolist import (
    BadEpsilonError,
    BadModulusError,
    BadSError,
    HashParams,
    IntervalPartition,
    WeightedKPartiteGraph,
    admissible_keys,
    admissible_tuples,
    arc_table,
    brute_kcliques,
    brute_zero_kclique,
    choose_s,
    extract_bucket,
    from_edge_list,
    hash_edges,
    list_kcliques,
    orient,
    partition_intervals,
    random_weighted_kpartite,
    sample_hash_params,
    solve_zero_kclique,
)
from arbolist import core, listing, zeroclique
from arbolist.primes import next_prime_above
from arbolist.zeroclique import max_weight

from .conftest import label_walk, out_lists, use_batch


def _triangle_instance(weights=(5, 5, 5), bound=None):
    base = from_edge_list([(0, 1), (0, 2), (1, 2)], 3, {0: 0, 1: 1, 2: 2})
    w = {(0, 1): weights[0], (0, 2): weights[1], (1, 2): weights[2]}
    if bound is None:
        bound = max(abs(x) for x in weights)
    return WeightedKPartiteGraph(base, 3, w, bound)


def _hash(wg, p, seed):
    """Every edge's hashed weight, in edge order, and the parameters,
    as the solver samples them."""
    params = sample_hash_params(wg, p, seed)
    return hash_edges(wg, params), params


def test_solver_takes_weights_up_to_max_weight():
    top = max_weight(3)
    g = _triangle_instance((top, -top + 1, -1))
    report = solve_zero_kclique(g, 3, 2, seed=0)
    assert report.found and report.p > 9 * top
    with pytest.raises(ValueError):
        solve_zero_kclique(_triangle_instance((3 * top,) * 3), 3, 2, seed=0)


def test_hash_formula_worked_example():
    """k=3, p=13, x=2, all offsets 0, w=5 everywhere gives w'=10."""
    wg = _triangle_instance()
    params = HashParams(p=13, x=2, y=((0, 0, 0),) * 3)
    assert hash_edges(wg, params).tolist() == [10, 10, 10]


def test_sample_hash_params_rows_cancel():
    wg = random_weighted_kpartite(4, 3, 0.6, 10, seed=0)
    params = sample_hash_params(wg, 1009, seed=5)
    labels = wg.base.part_label
    for v in range(wg.base.n):
        own = labels[v]
        total = sum(params.y[v][j] for j in range(4) if j != own)
        assert total % params.p == 0
        assert params.y[v][own] == 0
    assert 1 <= params.x < params.p


def test_hash_weights_in_range_and_deterministic():
    wg = random_weighted_kpartite(3, 5, 0.5, 20, seed=1)
    h1, p1 = _hash(wg, 457, seed=3)
    h2, p2 = _hash(wg, 457, seed=3)
    assert h1.tolist() == h2.tolist() and p1 == p2
    assert all(0 <= v < 457 for v in h1.tolist())
    assert len(h1) == wg.base.m


def test_weighted_instance_rejects_bad_weights():
    base = from_edge_list([(0, 1), (0, 2), (1, 2)], 3, {0: 0, 1: 1, 2: 2})
    w = {(0, 1): 1, (0, 2): 2, (1, 2): 3}
    cases = [
        (2, w, 3, "base graph labels are not a proper k-partition"),
        (3, w, -1, "weight_bound must be nonnegative"),
        (3, {(0, 1): 1}, 3, "2 edges have no weight"),
        (3, {(1, 0): 1, (0, 2): 2, (1, 2): 3}, 3, "1 edges have no weight"),
        (3, {**w, (1, 0): 1, (0, 5): 1}, 3, "2 weighted pairs are not edges"),
        # the first weight beyond the bound in the mapping's order
        (3, {(1, 2): 3, (0, 1): -7, (0, 2): 9}, 5,
         "|w(0, 1)| = 7 exceeds bound 5"),
    ]
    for k, weights, bound, message in cases:
        with pytest.raises(ValueError) as err:
            WeightedKPartiteGraph(base, k, weights, bound)
        assert str(err.value) == message


@pytest.mark.parametrize("bound", [10 ** 6, 10 ** 12, 2 * 10 ** 18,
                                   4 * 10 ** 18])
def test_hash_edges_is_the_per_edge_formula(bound):
    """The hash array, in edge order, equals the formula edge by edge.

    W = 1e6 hashes in int64; at W = 1e12 (p about 9e12) x*w passes
    2**63; at W = 2e18 p itself is above 2**63; at W = 4e18 the weights
    are exact ints too, since three of them can sum past 2**63.
    """
    wg = random_weighted_kpartite(3, 8, 0.6, bound, seed=3)
    edges = list(wg.base.edges())
    wg = WeightedKPartiteGraph(wg.base, 3, {**wg.weights, edges[0]: -bound},
                               bound)
    assert wg.ends.tolist() == [list(e) for e in edges]
    assert wg.w.tolist() == [wg.weights[e] for e in edges]
    assert set(wg.weights) == set(edges)
    assert wg.w.dtype == (object if bound > 2 ** 63 // 3 else np.int64)
    p = next_prime_above(9 * bound)
    labels = wg.base.part_label
    for seed in range(3):
        params = sample_hash_params(wg, p, seed)
        x, y = params.x, params.y
        want = [(x * wg.weights[u, v] + y[u][labels[v]] + y[v][labels[u]]) % p
                for u, v in edges]
        got = zeroclique.hash_edges(wg, params).tolist()
        assert got == want
        assert all(type(h) is int for h in got)
        if bound >= 10 ** 12:
            assert x * bound >= 2 ** 63
    assert (p > 2 ** 63) == (bound > 10 ** 12)


def test_sample_hash_params_reads_only_the_documented_fields():
    """A stand-in with k, weight_bound, base.n and a label list draws the
    same parameters as the instance, with Python ints in nested tuples."""
    wg = random_weighted_kpartite(4, 5, 0.5, 10 ** 12, seed=4)
    labels = [wg.base.part_label[v] for v in range(wg.base.n)]
    stand_in = SimpleNamespace(k=4, weight_bound=wg.weight_bound,
                               base=SimpleNamespace(n=wg.base.n,
                                                    part_label=labels))
    p = next_prime_above(16 * wg.weight_bound)
    params = sample_hash_params(stand_in, p, seed=5)
    assert params == sample_hash_params(wg, p, seed=5)
    assert type(params.y) is tuple
    assert all(type(row) is tuple for row in params.y)
    assert all(type(params.y[v][j]) is int
               for v in range(wg.base.n) for j in range(4))


def test_hash_rejects_bad_modulus():
    wg = _triangle_instance()
    with pytest.raises(BadModulusError):
        sample_hash_params(wg, 44, seed=0)  # not prime
    with pytest.raises(BadModulusError):
        sample_hash_params(wg, 43, seed=0)  # not above k^2 * W = 45


def test_cancellation_identity_over_cliques():
    """Hashed clique sums equal x times the original sum mod p."""
    for seed in range(8):
        wg = random_weighted_kpartite(3, 5, 0.8, 20, seed)
        h, params = _hash(wg, 457, seed + 100)
        hashed = dict(zip(wg.base.edges(), h.tolist()))
        parts = wg.parts()
        for trip in product(*parts):
            pairs = list(combinations(sorted(trip), 2))
            if not all(wg.base.has_edge(u, v) for u, v in pairs):
                continue
            original = sum(wg.weight(u, v) for u, v in pairs)
            hashed_sum = sum(hashed[(u, v)] for u, v in pairs)
            assert hashed_sum % params.p == (params.x * original) % params.p


def test_zero_sum_clique_hashes_to_zero():
    wg = _triangle_instance((7, -9, 2))
    for seed in range(20):
        hashed, params = _hash(wg, 101, seed)
        assert sum(hashed.tolist()) % params.p == 0


def test_partition_examples():
    part = partition_intervals(13, 4)
    assert part.bounds == ((0, 4), (4, 8), (8, 12), (12, 13))
    assert partition_intervals(10, 1).bounds == ((0, 10),)
    sevens = partition_intervals(7, 7)
    assert sevens.s == 7
    assert all(b - a == 1 for a, b in sevens.bounds)


def test_partition_reduces_s_when_trailing_empty():
    part = partition_intervals(10, 7)
    assert part.s == 5
    assert part.bounds[-1] == (8, 10)


def test_partition_covers_disjointly():
    for p, s in ((13, 4), (101, 9), (457, 6), (7, 3)):
        part = partition_intervals(p, s)
        seen = []
        for a, b in part.bounds:
            seen.extend(range(a, b))
        assert seen == list(range(p))
        for val in range(p):
            i = part.interval_of(val)
            a, b = part.bounds[i]
            assert a <= val < b


def test_partition_tiles_p_above_float_precision():
    # p is far above 2**53, where a float ceil(p / s) falls short of p.
    p = next_prime_above(9 * max_weight(3))
    for s in (2, 3, 12, 1000):
        part = partition_intervals(p, s)
        assert part.bounds[0][0] == 0 and part.bounds[-1][1] == p
        assert all(a[1] == b[0] for a, b in zip(part.bounds,
                                                part.bounds[1:]))
        assert part.interval_of(p - 1) == part.s - 1 == s - 1


def test_partition_rejects_bad_s():
    with pytest.raises(BadSError):
        partition_intervals(13, 0)
    with pytest.raises(BadSError) as err:
        partition_intervals(13, 14)
    assert str(err.value) == "s=14 outside the valid range 1..13"


def test_interval_of_names_the_first_value_outside():
    part = partition_intervals(13, 4)
    assert part.interval_of(np.array([0, 4, 12])).tolist() == [0, 1, 3]
    for values, first in (([1, 2, 13, 5], 13), ([3, -1, 20], -1),
                          (np.array([5, 2 ** 70, -1], object), 2 ** 70)):
        with pytest.raises(ValueError) as err:
            part.interval_of(np.asarray(values))
        assert str(err.value) == f"value {first} outside [0, 13)"


def _brute_admissible(part, k):
    n_pairs = k * (k - 1) // 2
    keys = set()
    for key in product(range(part.s), repeat=n_pairs):
        lo = sum(part.bounds[i][0] for i in key)
        hi = sum(part.bounds[i][1] - 1 for i in key)
        if any(lo <= mult <= hi for mult in range(0, hi + 1, part.p)):
            keys.add(key)
    return keys


def test_admissible_single_bucket_always_all_zeros():
    part = partition_intervals(101, 1)
    assert list(admissible_tuples(part, 3)) == [(0, 0, 0)]
    assert list(admissible_tuples(part, 4)) == [(0,) * 6]
    # 66 part pairs: more than numpy's 64 array dimensions
    assert list(admissible_tuples(part, 12)) == [(0,) * 66]


def test_admissible_matches_brute_filter():
    """The keys are the brute filter's, in lexicographic order: also for
    a p above 2**63 (exact ints), k=2, k=5, an s at most C(k,2) (the
    candidate window wraps onto itself) and short last intervals
    (13 = 3*4 + 1, 101 = 5*17 + 16)."""
    big = 2 ** 63 + 29  # prime
    for p, s, k in ((13, 4, 3), (13, 2, 3), (31, 5, 3), (101, 2, 4),
                    (big, 5, 3), (big, 3, 4), (10 ** 19 + 51, 7, 3),
                    (13, 6, 2), (101, 7, 2), (13, 2, 5), (101, 2, 5),
                    (13, 3, 3), (101, 3, 4), (101, 6, 3)):
        part = partition_intervals(p, s)
        assert (list(admissible_tuples(part, k))
                == sorted(_brute_admissible(part, k))), (p, s, k)


def test_admissible_keys_at_the_limit_and_past_it(monkeypatch):
    """At the key limit (k=3, s=1024) the table holds 3,145,728 int64
    rows in strictly increasing mixed-radix order; a partition whose key
    bound passes the limit is refused before any array is made."""
    table = admissible_keys(partition_intervals(9_000_000_001, 1024), 3)
    assert table.dtype == np.int64 and table.shape == (3_145_728, 3)
    assert (np.diff(table @ [1024 ** 2, 1024, 1]) > 0).all()
    monkeypatch.setattr(zeroclique, "MAX_KEYS", 4 * 6 ** 2)
    # p = 101: s = 6 keeps 6 intervals (bound 144), s = 7 keeps 7 (196)
    assert len(admissible_keys(partition_intervals(101, 6), 3)) <= 144
    monkeypatch.setattr(zeroclique, "np", None)
    with pytest.raises(BadSError) as err:
        admissible_keys(partition_intervals(101, 7), 3)
    assert str(err.value) == ("s=7 gives up to 196 admissible keys at k=3, "
                              "above the limit 144")


def test_admissible_count_bound():
    for p, s, k in ((13, 4, 3), (457, 6, 3), (101, 3, 4), (809, 3, 4)):
        part = partition_intervals(p, s)
        n_pairs = k * (k - 1) // 2
        bound = (n_pairs + 1) * part.s ** (n_pairs - 1)
        assert sum(1 for _ in admissible_tuples(part, k)) <= bound


def _indexed(wg, hashed, part):
    """The base orientation and its arc table, as the zeroclique bench
    suite builds them."""
    oriented = orient(wg.base)
    return oriented, arc_table(wg, hashed, part, oriented)


def _as_graph(bucket):
    """A validated Graph on a bucket's edges."""
    return from_edge_list(bucket.edges(), bucket.n)


def test_extract_bucket_s1_is_whole_graph():
    wg = random_weighted_kpartite(3, 4, 0.7, 10, seed=2)
    hashed, _ = _hash(wg, 101, seed=0)
    part = partition_intervals(101, 1)
    bucket = extract_bucket(*_indexed(wg, hashed, part), (0, 0, 0))
    assert _as_graph(bucket).edge_set() == wg.base.edge_set()


def test_buckets_partition_each_pair_class():
    wg = random_weighted_kpartite(3, 4, 0.7, 10, seed=3)
    hashed, _ = _hash(wg, 101, seed=1)
    part = partition_intervals(101, 4)
    oriented, index = _indexed(wg, hashed, part)
    union = set()
    total = 0
    for key in product(range(part.s), repeat=3):
        b = extract_bucket(oriented, index, key)
        edges = _as_graph(b).edge_set()
        total += len(edges)
        union |= edges
    assert union == wg.base.edge_set()
    # each edge lands in s^2 keys: its own interval for its pair class,
    # anything for the other two classes
    assert total == wg.base.m * part.s ** 2


def test_bucket_degree_mostly_bounded():
    """Per-vertex bucket degree <= 4*(deg/s)+8 for 99% of vertices."""
    wg = random_weighted_kpartite(3, 40, 0.5, 50, seed=0)
    hashed, _ = _hash(wg, 457, seed=0)
    part = partition_intervals(457, 4)
    oriented, index = _indexed(wg, hashed, part)
    rng = random.Random(5)
    keys = list(admissible_tuples(part, 3))
    for key in rng.sample(keys, 8):
        bucket = _as_graph(extract_bucket(oriented, index, key))
        ok = sum(1 for v in range(bucket.n)
                 if bucket.degree(v) <= 4 * (wg.base.degree(v) / part.s) + 8)
        assert ok / bucket.n >= 0.99


def test_bucket_equals_direct_filter():
    """Every admissible bucket holds exactly the edges its key selects."""
    for k, seed in ((3, 4), (4, 5)):
        wg = random_weighted_kpartite(k, 6, 0.6, 20, seed)
        p = 1009
        h, _ = _hash(wg, p, seed)
        hashed = dict(zip(wg.base.edges(), h.tolist()))
        part = partition_intervals(p, 3)
        slot = {pq: i for i, pq in enumerate(combinations(range(k), 2))}
        labels = wg.base.part_label
        oriented, index = _indexed(wg, h, part)
        position = {v: i for i, v in enumerate(oriented.order)}
        for key in admissible_tuples(part, k):
            want = set()
            for u, v in wg.base.edges():
                pair = tuple(sorted((labels[u], labels[v])))
                if part.interval_of(hashed[u, v]) == key[slot[pair]]:
                    want.add((u, v))
            bucket = extract_bucket(oriented, index, key)
            assert _as_graph(bucket).edge_set() == want
            assert bucket.n == wg.base.n
            assert bucket.m == len(want)
            assert bucket.order is oriented.order
            for u, later in enumerate(out_lists(bucket)):
                for v in later:
                    # pointed from the earlier to the later endpoint
                    assert position[u] < position[v]
                    # joins the two parts of the slot its interval is read at
                    pair = tuple(sorted((labels[u], labels[v])))
                    edge = (min(u, v), max(u, v))
                    assert part.interval_of(hashed[edge]) == key[slot[pair]]


def test_extract_bucket_rejects_wrong_key_length():
    wg = random_weighted_kpartite(3, 4, 0.7, 10, seed=2)
    hashed, _ = _hash(wg, 101, seed=0)
    oriented, index = _indexed(wg, hashed, partition_intervals(101, 2))
    with pytest.raises(ValueError):
        extract_bucket(oriented, index, (0, 0))


def test_extract_bucket_key_length_counts_pairs_without_edges():
    """The index carries C(k,2) even when a part pair has no edge."""
    base = from_edge_list([(0, 1), (0, 2)], 3, {0: 0, 1: 1, 2: 2})
    wg = WeightedKPartiteGraph(base, 3, {(0, 1): 1, (0, 2): -1}, 1)
    hashed, _ = _hash(wg, 11, seed=0)
    oriented, index = _indexed(wg, hashed, partition_intervals(11, 1))
    bucket = extract_bucket(oriented, index, (0, 0, 0))
    assert _as_graph(bucket).edge_set() == base.edge_set()
    for key in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(ValueError):
            extract_bucket(oriented, index, key)
    empty = WeightedKPartiteGraph(from_edge_list([], 4, dict(enumerate(
        range(4)))), 4, {}, 0)
    hashed, _ = _hash(empty, 17, seed=0)
    oriented, index = _indexed(empty, hashed, partition_intervals(17, 2))
    assert extract_bucket(oriented, index, (1,) * 6).m == 0
    with pytest.raises(ValueError):
        extract_bucket(oriented, index, (1,) * 5)


def _reference_solve(wg, k, s, seed):
    """The solve with each admissible bucket built edge by edge as
    per-vertex out-lists, sorted by position in the base order, and
    listed by the label walk: (witness, buckets_examined,
    cliques_listed_total)."""
    p = next_prime_above(max(k * k * wg.weight_bound, wg.base.n))
    h, _ = _hash(wg, p, seed)
    hashed = dict(zip(wg.base.edges(), h.tolist()))
    part = partition_intervals(p, s)
    order = core.degeneracy_ordering(wg.base).order
    position = {v: i for i, v in enumerate(order)}
    slot = {pq: i for i, pq in enumerate(combinations(range(k), 2))}
    labels = wg.base.part_label
    examined = listed = 0
    for key in admissible_tuples(part, k):
        examined += 1
        out = {v: [] for v in order}
        for u, v in wg.base.edges():
            pair = tuple(sorted((labels[u], labels[v])))
            if part.interval_of(hashed[u, v]) == key[slot[pair]]:
                a, b = sorted((u, v), key=position.__getitem__)
                out[a].append(b)
        for row in out.values():
            row.sort(key=position.__getitem__)
        hit = []

        def check(record):
            if sum(wg.weight(u, v) for u, v in combinations(record, 2)) == 0:
                hit.append(record)
                return True
            return None

        emitted, _ = label_walk(order, out, k, check,
                                lambda vs: tuple(sorted(vs)))
        listed += emitted
        if hit:
            return hit[0], examined, listed
    return None, examined, listed


@pytest.mark.parametrize("k, n_part, s", [(3, 10, 3), (3, 16, 4), (4, 6, 2)])
def test_solver_matches_the_bucket_walk(k, n_part, s):
    """Witness, buckets examined and cliques listed equal the label walk's
    on every bucket, with and without a planted zero clique."""
    outcomes = set()
    for seed in range(6):
        for planted in (False, True):
            wg = random_weighted_kpartite(k, n_part, 0.6, 1000, seed,
                                          planted=planted)
            report = solve_zero_kclique(wg, k, s=s, seed=seed)
            assert ((report.witness, report.buckets_examined,
                     report.cliques_listed_total)
                    == _reference_solve(wg, k, s, seed))
            outcomes.add(report.found)
    assert outcomes == {False, True}


def _group_starts(keys):
    """Rank of the first key of each of the solver's groups of keys."""
    starts, size = [0], 1
    while starts[-1] + size < keys:
        starts.append(starts[-1] + size)
        size *= zeroclique._GROWTH
    return starts


@pytest.mark.parametrize("batch", [listing._BATCH, 3])
@pytest.mark.parametrize("k, n_part, bound, planted, s, seed, case", [
    # weights at max_weight(k): the weight sums are exact Python ints
    (5, 3, max_weight(5), True, 2, 0, "full"),
    (5, 3, max_weight(5), True, 2, 8, "past second"),
    (5, 3, 5, False, 2, 0, "none"),
    (3, 6, max_weight(3), True, 3, 5, "first key"),
    (3, 8, 5, True, 4, 11, "first key"),
    (3, 10, 5, False, 12, 6, "past second"),
    # more zero cliques share the witness's key, in later batches
    (3, 10, 3, False, 12, 8, "past second"),
    (4, 5, 5, True, 2, 0, "full"),
])
def test_grouped_scans_match_the_bucket_walk(monkeypatch, k, n_part, bound,
                                             planted, s, seed, case, batch):
    """Each seeded instance pins one case of the grouped scans: a witness
    past the second group boundary, one in a group whose arcs are every
    arc, a stop on the first key of a group of several keys, or no
    witness at all; the report equals the bucket walk's, also when the
    scan hands its cliques over a few at a time."""
    scans = []  # per scan: its arcs, and the row it stopped at

    def spy(o, k, consume):
        scans.append([o.m, None])

        def watched(rows):
            scans[-1][1] = consume(rows)
            return scans[-1][1]

        return listing.scan_cliques(o, k, watched)

    monkeypatch.setattr(zeroclique, "scan_cliques", spy)
    use_batch(monkeypatch, batch)
    wg = random_weighted_kpartite(k, n_part, 0.6, bound, seed,
                                  planted=planted)
    report = solve_zero_kclique(wg, k, s=s, seed=seed)
    assert ((report.witness, report.buckets_examined,
             report.cliques_listed_total)
            == _reference_solve(wg, k, s, seed))
    keys = sum(1 for _ in admissible_tuples(partition_intervals(report.p, s),
                                            k))
    starts = _group_starts(keys)
    rank = report.buckets_examined - 1
    arcs, stop = scans[-1]
    assert (stop is not None) == (case == "first key")
    if case == "none":
        assert not report.found and report.buckets_examined == keys
        assert arcs == wg.base.m
    elif case == "full":
        assert arcs == wg.base.m and rank >= starts[2]
    elif case == "past second":
        assert rank >= starts[2] and arcs < wg.base.m
    else:
        assert rank in starts[1:]


def test_bucket_cliques_match_validated_graphs():
    """Cliques listed on a bucket's Orientation match a validated rebuild.

    For every admissible bucket, the walk on the Orientation, the walk on
    ``from_edge_list`` of the same edges and brute force on that graph list
    the same cliques; a no-witness solve lists their total.
    """
    checked = 0
    for k, n_part, s in ((3, 7, 3), (4, 5, 2)):
        for seed in range(4):
            wg = random_weighted_kpartite(k, n_part, 0.7, 40, seed)
            if brute_zero_kclique(wg, k) is not None:
                continue
            p = next_prime_above(max(k * k * wg.weight_bound, wg.base.n))
            hashed, _ = _hash(wg, p, seed)
            part = partition_intervals(p, s)
            oriented, index = _indexed(wg, hashed, part)
            total = 0
            for key in admissible_tuples(part, k):
                bucket = extract_bucket(oriented, index, key)
                graph = _as_graph(bucket)
                listed = []
                stats = list_kcliques(bucket, k, listed.append)
                assert stats.preprocess_time == 0
                rebuilt = []
                list_kcliques(graph, k, rebuilt.append)
                assert len(listed) == len(set(listed))
                assert set(listed) == set(rebuilt) == brute_kcliques(graph, k)
                total += len(listed)
            report = solve_zero_kclique(wg, k, s=s, seed=seed)
            assert not report.found
            assert report.cliques_listed_total == total
            checked += 1
    assert checked >= 4


def test_solver_hashes_each_edge_into_an_interval_once(monkeypatch):
    """The solve puts each edge in its interval once, not once per bucket."""
    wg = random_weighted_kpartite(3, 10, 0.5, 50, seed=5)
    assert brute_zero_kclique(wg, 3) is None
    calls = 0
    interval_of = IntervalPartition.interval_of

    def counted(self, value):
        nonlocal calls
        calls += np.size(value)
        return interval_of(self, value)

    monkeypatch.setattr(IntervalPartition, "interval_of", counted)
    report = solve_zero_kclique(wg, 3, s=4, seed=3)
    assert not report.found
    assert report.buckets_examined == 48
    assert calls == wg.base.m


def test_hash_uniformity_smoke():
    """Difference of two vertex-disjoint edges' hashed weights looks uniform.

    The two edges would belong to different cliques, so their y offsets
    are independent; no residue class should be hit more than 3 times the
    uniform rate over many re-hashes.
    """
    base = from_edge_list([(0, 2), (1, 3)], 6,
                          {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})
    wg = WeightedKPartiteGraph(base, 3, {(0, 2): 3, (1, 3): 1}, 3)
    p = 47
    counts = [0] * p
    trials = 10_000
    for seed in range(trials):
        hashed, _ = _hash(wg, p, seed)
        counts[(hashed[0] - hashed[1]) % p] += 1
    assert max(counts) <= 3 * trials / p


def test_solver_planted_and_absent():
    planted = random_weighted_kpartite(3, 8, 0.5, 50, seed=7, planted=True)
    report = solve_zero_kclique(planted, 3, s=3, seed=0)
    assert report.found
    oracle = brute_zero_kclique(planted, 3)
    assert oracle is not None

    all_ones = _triangle_instance((1, 1, 1))
    report = solve_zero_kclique(all_ones, 3, s=2, seed=0)
    assert not report.found
    assert report.witness is None


def test_solver_witness_reverifies():
    for seed in range(15):
        wg = random_weighted_kpartite(4, 6, 0.6, 50, seed, planted=True)
        report = solve_zero_kclique(wg, 4, s=2, seed=seed)
        assert report.found
        total = sum(wg.weight(u, v)
                    for u, v in combinations(report.witness, 2))
        assert total == 0


def test_solver_flag_matches_oracle():
    outcomes = set()
    for k, n_part, bound in ((3, 6, 30), (4, 4, 4)):
        for seed in range(25):
            wg = random_weighted_kpartite(k, n_part, 0.5, bound, seed)
            report = solve_zero_kclique(wg, k, s=1 + seed % 4, seed=seed)
            assert report.found == (brute_zero_kclique(wg, k) is not None)
            outcomes.add((k, report.found))
            if report.found:
                labels = wg.base.part_label
                assert sorted(labels[v] for v in report.witness) == list(
                    range(k))
                assert sum(wg.weight(u, v) for u, v in
                           combinations(report.witness, 2)) == 0
    assert outcomes == {(3, False), (3, True), (4, False), (4, True)}


def test_solver_orients_once(monkeypatch):
    """One solve orders the base graph once and builds no Graph at all."""
    wg = random_weighted_kpartite(3, 10, 0.5, 50, seed=5)
    orderings = []

    def counted(g):
        orderings.append(g)
        return core.degeneracy_ordering(g)

    def no_graph(*args, **kwargs):
        raise AssertionError("the solve built a Graph")

    monkeypatch.setattr(listing, "degeneracy_ordering", counted)
    # from_edge_list and every other builder construct through Graph.__init__
    monkeypatch.setattr(core.Graph, "__init__", no_graph)
    report = solve_zero_kclique(wg, 3, s=4, seed=3)
    assert report.buckets_examined == 48
    assert orderings == [wg.base]


def test_solver_deterministic():
    wg = random_weighted_kpartite(3, 8, 0.5, 50, seed=11, planted=True)
    r1 = solve_zero_kclique(wg, 3, s=4, seed=2)
    r2 = solve_zero_kclique(wg, 3, s=4, seed=2)
    assert r1.witness == r2.witness
    assert r1.buckets_examined == r2.buckets_examined


def test_solver_report_accounting():
    wg = random_weighted_kpartite(3, 5, 0.6, 20, seed=3)
    report = solve_zero_kclique(wg, 3, s=2, seed=1)
    assert report.p > max(9 * 20, wg.base.n)
    assert report.buckets_examined >= 1
    assert report.hash_s >= 0 and report.extract_s >= 0 and report.search_s >= 0


def test_solver_rejects_small_k():
    wg = _triangle_instance()
    with pytest.raises(ValueError):
        solve_zero_kclique(wg, 2, s=1, seed=0)


def test_solver_refuses_an_s_with_too_many_keys(monkeypatch):
    """The key bound of the reduced s is checked against MAX_KEYS before
    anything is hashed; an s at the limit solves."""
    wg = random_weighted_kpartite(3, 6, 0.6, 10 ** 6, seed=1)
    with pytest.raises(BadSError) as err:
        solve_zero_kclique(wg, 3, 100000, seed=0)
    # p = 9000011 reduces s = 100000 to 98902 intervals
    assert str(err.value) == ("s=100000 gives up to 39126422416 admissible "
                              "keys at k=3, above the limit 4194304")
    assert zeroclique.MAX_KEYS == 2 ** 22
    monkeypatch.setattr(zeroclique, "MAX_KEYS", 4 * 6 ** 2)
    # p = 11: s = 7 reduces to 6 intervals, s = 11 keeps 11
    assert solve_zero_kclique(_triangle_instance((1, 1, 1)), 3, 7, 0).s == 6

    def no_hash(*args):
        raise AssertionError("hashed before the s check")

    monkeypatch.setattr(zeroclique, "hash_edges", no_hash)
    with pytest.raises(BadSError) as err:
        solve_zero_kclique(_triangle_instance((1, 1, 1)), 3, 11, seed=0)
    assert str(err.value) == ("s=11 gives up to 484 admissible keys at k=3, "
                              "above the limit 144")


def test_choose_s_examples():
    assert choose_s(10 ** 4, 3, 0.2) == 6
    assert choose_s(256, 4, 0.3) == 2
    assert choose_s(10 ** 4, 3, 0.01) == 1
    assert choose_s(1, 3, 0.5) == 1


def test_choose_s_rejects_empty_parts():
    with pytest.raises(ValueError):
        choose_s(0, 3, 0.5)


def test_choose_s_rejects_bad_epsilon():
    with pytest.raises(BadEpsilonError):
        choose_s(100, 3, 0.0)
    with pytest.raises(BadEpsilonError):
        choose_s(100, 3, 1.0)
    with pytest.raises(BadEpsilonError):
        choose_s(100, 3, -0.5)
