"""Acceptance gate: nine checks, each printing one pass/fail line.

Each test prints "ACCEPTANCE <n> PASS|FAIL: <detail>" and then asserts.
The lines are also replayed in the terminal summary by a conftest hook,
so they are visible even for passing tests under plain pytest -v.
"""

import random
import time
from itertools import combinations, product
from math import comb

import pytest

from arbolist import (
    admissible_tuples,
    brute_4cycles,
    brute_kcliques,
    brute_triangles,
    brute_zero_kclique,
    color_code,
    count_4cycles,
    count_kcliques,
    count_triangles,
    hash_edges,
    list_4cycles,
    list_kcliques,
    list_triangles,
    partition_intervals,
    polarity_graph,
    random_gnm,
    random_kpartite,
    random_weighted_kpartite,
    sample_hash_params,
    solve_zero_kclique,
    triangle_to_4cycle_transform,
)
from arbolist.bench import (
    suite_c4_delay,
    suite_clique_scaling,
    suite_triangle_scaling,
    suite_zeroclique,
)
from arbolist.primes import next_prime_above

from .conftest import complete, complete_bipartite

RESULTS: list = []


def report(num: int, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    RESULTS.append(line)
    print(line)
    return ok


def _corpus():
    """200 seeded graphs, all within oracle guards (n <= 64)."""
    graphs = []
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(4, 64)
        m = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
        graphs.append(random_gnm(n, m, seed))
    for q in (2, 3, 5, 7):
        graphs.append(polarity_graph(q))
    tripartite = []
    for seed in range(50):
        n_part = 2 + seed % 7
        g = random_kpartite(3, n_part, 0.5, seed)
        tripartite.append(g)
        graphs.append(g)
    for g in tripartite:
        graphs.append(triangle_to_4cycle_transform(g).graph)
    for seed in range(36):
        rng = random.Random(1000 + seed)
        n = rng.randint(6, 48)
        base = random_gnm(n, min(2 * n, n * (n - 1) // 2), 1000 + seed)
        graphs.append(color_code(base, 3, seed))
    assert len(graphs) == 200
    return graphs


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _listed(lister, g, *args):
    records = set()
    lister(g, *args, lambda r: records.add(r))
    return records


def test_acceptance_1_oracle_equivalence(corpus):
    """Criterion 1: fast listers equal brute force on the 200-graph corpus."""
    t0 = time.perf_counter()
    mismatches = 0
    for g in corpus:
        if _listed(list_triangles, g) != brute_triangles(g):
            mismatches += 1
        if _listed(list_4cycles, g) != brute_4cycles(g):
            mismatches += 1
        for k in (3, 4, 5):
            if _listed(list_kcliques, g, k) != brute_kcliques(g, k):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120
    assert report(
        1, ok,
        f"oracle equivalence on 200 graphs x 5 listings, "
        f"{mismatches} mismatches, {elapsed:.1f}s (limit 120s)")


def test_acceptance_2_counting_identities():
    """Criterion 2: closed-form counts on complete and bipartite graphs."""
    bad = 0
    for n in range(1, 13):
        if count_triangles(complete(n)) != comb(n, 3):
            bad += 1
        for k in range(2, 7):
            if count_kcliques(complete(n), k) != comb(n, k):
                bad += 1
    for a in range(1, 9):
        for b in range(1, 9):
            if count_4cycles(complete_bipartite(a, b)) != comb(a, 2) * comb(b, 2):
                bad += 1
    assert report(2, bad == 0,
                  f"counting identities, {bad} deviations across "
                  f"12 complete + 64 bipartite shapes")


def test_acceptance_3_c4_free_construction():
    """Criterion 3: the extremal construction has no 4-cycles."""
    bad = []
    for q in (2, 3, 5, 7, 11, 13):
        g = polarity_graph(q)
        if count_4cycles(g) != 0:
            bad.append(q)
        if q <= 5 and brute_4cycles(g) != set():
            bad.append(q)
    assert report(3, not bad,
                  f"4-cycle-free construction for q in (2,3,5,7,11,13), "
                  f"violations: {bad or 'none'}")


def test_acceptance_4_transform_count_identity():
    """Criterion 4: output 4-cycle count equals input triangles + 4-cycles.

    Stated as an unconditional equality over 50 seeded tripartite graphs.
    The rewiring stretches one family of input 4-cycles (both part-2
    vertices opposite each other, with one part-0 and one part-1 common
    neighbor) into 6-cycles, so the equality fails on graphs containing
    that pattern; see the matching-provenance tests in test_generators
    for the exact count law this construction does satisfy.
    """
    holds = 0
    first_bad = None
    for seed in range(50):
        n_part = 2 + seed % 14
        g = random_kpartite(3, n_part, 0.5, seed)
        inst = triangle_to_4cycle_transform(g)
        out = count_4cycles(inst.graph)
        expected = inst.source_triangle_count + inst.source_4cycle_count
        if out == expected:
            holds += 1
        elif first_bad is None:
            first_bad = (seed, out, expected)
    ok = holds == 50
    detail = f"transform count identity holds on {holds}/50 tripartite graphs"
    if first_bad:
        detail += (f"; first failure seed={first_bad[0]} "
                   f"output={first_bad[1]} expected={first_bad[2]}")
    assert report(4, ok, detail)


def test_acceptance_5_hash_cancellation():
    """Criterion 5: hashed clique sums equal x times original sums mod p."""
    checks = 0
    bad = 0
    instances = []
    for seed in range(80):
        instances.append(random_weighted_kpartite(3, 10, 1.0, 50, seed))
    for seed in range(40):
        instances.append(random_weighted_kpartite(4, 5, 1.0, 50, 500 + seed))
    for idx, wg in enumerate(instances):
        k = wg.k
        p = next_prime_above(max(k * k * wg.weight_bound, wg.base.n))
        params = sample_hash_params(wg, p, idx)
        hashed = dict(zip(wg.base.edges(), hash_edges(wg, params).tolist()))
        for clique in product(*wg.parts()):
            pairs = list(combinations(sorted(clique), 2))
            original = sum(wg.weight(u, v) for u, v in pairs)
            total = sum(hashed[(u, v)] for u, v in pairs)
            checks += 1
            if total % p != (params.x * original) % p:
                bad += 1
    ok = bad == 0 and checks >= 10 ** 5
    assert report(5, ok,
                  f"hash cancellation identity on {checks} clique checks "
                  f"({bad} violations, minimum 100000 checks)")


def test_acceptance_6_solver_against_oracle():
    """Criterion 6: solver found/absent flag matches brute force, 200 instances."""
    t0 = time.perf_counter()
    flag_bad = 0
    witness_bad = 0
    planted_count = 0
    for seed in range(200):
        if seed < 120:
            k, n_part = 3, 4 + seed % 5
        else:
            k, n_part = 4, 3 + seed % 4
        planted = seed % 2 == 0
        planted_count += planted
        wg = random_weighted_kpartite(k, n_part, 0.5, 50, seed,
                                      planted=planted)
        rep = solve_zero_kclique(wg, k, 1 + seed % 3, seed + 7)
        oracle = brute_zero_kclique(wg, k)
        if rep.found != (oracle is not None):
            flag_bad += 1
        if rep.found:
            total = sum(wg.weight(u, v)
                        for u, v in combinations(rep.witness, 2))
            labels = sorted(wg.base.part_label[v] for v in rep.witness)
            if total != 0 or labels != list(range(k)):
                witness_bad += 1
    elapsed = time.perf_counter() - t0
    ok = flag_bad == 0 and witness_bad == 0 and elapsed < 300
    assert report(
        6, ok,
        f"solver vs oracle on 200 instances ({planted_count} planted), "
        f"{flag_bad} flag mismatches, {witness_bad} bad witnesses, "
        f"{elapsed:.1f}s (limit 300s)")


def test_acceptance_7_admissible_tuple_bound():
    """Criterion 7: emitted keys equal the brute filter and obey the bound."""
    bad = []
    for k, p, s_values in ((3, 13, range(1, 7)), (3, 457, range(1, 7)),
                           (4, 101, range(1, 4)), (4, 809, range(1, 4))):
        n_pairs = k * (k - 1) // 2
        for s in s_values:
            part = partition_intervals(p, s)
            fast = list(admissible_tuples(part, k))
            brute = set()
            for key in product(range(part.s), repeat=n_pairs):
                lo = sum(part.bounds[i][0] for i in key)
                hi = sum(part.bounds[i][1] - 1 for i in key)
                if any(lo <= mult <= hi
                       for mult in range(0, hi + 1, p)):
                    brute.add(key)
            bound = (n_pairs + 1) * part.s ** (n_pairs - 1)
            if set(fast) != brute or len(fast) > bound:
                bad.append((k, p, s))
    assert report(7, not bad,
                  f"admissible keys match brute filter and count bound "
                  f"for k=3 s<=6 and k=4 s<=3, violations: {bad or 'none'}")


def test_acceptance_8_scaling_shadows():
    """Criterion 8: normalized step ratios stay within 4x across sweeps."""
    t0 = time.perf_counter()
    tri = suite_triangle_scaling(qs=(11, 23, 47))
    tri_ratios = [r.steps / (r.m * r.alpha_proxy) for r in tri]
    tri_spread = max(tri_ratios) / min(tri_ratios)

    c4 = suite_c4_delay(ts=(10 ** 3, 10 ** 4, 10 ** 5))
    c4_per = [r.emit_s / r.count for r in c4]
    c4_spread = max(c4_per) / min(c4_per)

    cli = suite_clique_scaling()
    cli_ratios = [r.steps / (r.m * r.alpha_proxy ** 2) for r in cli]
    cli_spread = max(cli_ratios) / min(cli_ratios)

    elapsed = time.perf_counter() - t0
    ok = (tri_spread <= 4 and c4_spread <= 4 and cli_spread <= 4
          and elapsed < 600)
    assert report(
        8, ok,
        f"scaling spreads: triangle {tri_spread:.2f}x, "
        f"4-cycle emit-per-item {c4_spread:.2f}x, "
        f"4-clique {cli_spread:.2f}x (all limits 4x), "
        f"{elapsed:.1f}s (limit 600s)")


def test_acceptance_9_bucket_degree_statistic():
    """Criterion 9: mean bucket degree tracks n_part/s within 4x."""
    n_part, s = 40, 4
    rows = suite_zeroclique(n_part=n_part, s=s, min_buckets=20)
    means = [2 * r.m / r.n for r in rows]
    overall = sum(means) / len(means)
    target = n_part / s
    ok = len(rows) >= 20 and target / 4 <= overall <= target * 4
    assert report(
        9, ok,
        f"mean per-vertex bucket degree {overall:.2f} vs target "
        f"{target:.1f} over {len(rows)} buckets (4x window)")
