import hashlib
import math
import random
from bisect import bisect_right

import numpy as np
import pytest

from arbolist import (
    BadSigmaError,
    NotPrimeError,
    NotTripartiteError,
    TooManyEdgesError,
    WeightedKPartiteGraph,
    all_edge_sparse_triangle,
    apply_part_labels,
    brute_4cycles,
    brute_triangles,
    brute_zero_kclique,
    color_code,
    count_4cycles,
    count_triangles,
    from_edge_list,
    list_4cycles,
    pad_with_c4free,
    polarity_graph,
    polarity_spec,
    random_gnm,
    random_kpartite,
    random_weighted_kpartite,
    sparse_triangle_instance,
    triangle_to_4cycle_transform,
    validate_kpartite,
)

from arbolist import generators
from arbolist.core import label_array
from arbolist.primes import is_prime

from .conftest import assert_same_graph, complete


def test_polarity_small_shapes():
    g2 = polarity_graph(2)
    assert (g2.n, g2.m) == (7, 9)
    g3 = polarity_graph(3)
    assert (g3.n, g3.m) == (13, 24)
    assert count_4cycles(g3) == 0


def _polarity_oracle(q):
    """CSR of the dense definition: distinct canonical points (first
    nonzero coordinate 1) whose dot product vanishes mod q."""
    pts = [(1, a, b) for a in range(q) for b in range(q)]
    pts += [(0, 1, b) for b in range(q)] + [(0, 0, 1)]
    p = np.array(pts, dtype=np.int32)
    adj = (p @ p.T) % q == 0
    np.fill_diagonal(adj, False)
    indptr = np.concatenate(([0], np.cumsum(adj.sum(axis=1))))
    return indptr, np.nonzero(adj)[1]


@pytest.mark.parametrize("q", [q for q in range(2, 54) if is_prime(q)])
def test_polarity_matches_dense_oracle(q):
    indptr, indices = _polarity_oracle(q)
    g = polarity_graph(q)
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)


def test_polarity_spec_matches_construction():
    for q in (2, 3, 5, 7, 11, 47, 101):
        spec = polarity_spec(q)
        g = polarity_graph(q)
        assert g.n == spec.n == q * q + q + 1
        assert g.m == q * (q + 1) ** 2 // 2
        assert g.max_degree() == spec.expected_max_degree == q + 1
        degrees = np.diff(g.indptr)
        assert np.count_nonzero(degrees == q) == q + 1
        assert np.count_nonzero(degrees == q + 1) == g.n - (q + 1)


def test_polarity_c4_free_oracle_small_fast_large():
    for q in (2, 3, 5):
        assert brute_4cycles(polarity_graph(q)) == set()
    for q in (7, 11, 13):
        assert count_4cycles(polarity_graph(q)) == 0


def test_polarity_rejects_nonprime(monkeypatch):
    # The check comes first: with numpy gone, only NotPrimeError can escape.
    monkeypatch.setattr(generators, "np", None)
    for q in (1, 4, 6):
        with pytest.raises(NotPrimeError, match=f"^q={q} is not prime$"):
            polarity_graph(q)


def test_gnm_shapes_and_determinism():
    g = random_gnm(5, 10, 1)
    assert g.edge_set() == complete(5).edge_set()
    assert random_gnm(6, 0, 3).m == 0
    a = random_gnm(100, 300, 7)
    b = random_gnm(100, 300, 7)
    assert a.edge_set() == b.edge_set()
    assert random_gnm(100, 300, 8).edge_set() != a.edge_set()


def _gnm_by_bisect(n, m, seed):
    """random_gnm's edges as a per-edge bisect over the row starts finds
    them, for comparison."""
    picked = sorted(random.Random(seed).sample(range(math.comb(n, 2)), m))
    row_start = [0] * n
    for u in range(1, n):
        row_start[u] = row_start[u - 1] + (n - u)
    edges = []
    for idx in picked:
        u = bisect_right(row_start, idx) - 1
        edges.append((u, u + 1 + idx - row_start[u]))
    return edges


@pytest.mark.parametrize("n, m, seed", [(0, 0, 0), (1, 0, 5), (2, 1, 1),
                                        (7, 21, 2), (40, 100, 3),
                                        (300, 2000, 4)])
def test_gnm_matches_a_per_edge_bisect(n, m, seed):
    g = random_gnm(n, m, seed)
    assert g.n == n
    assert list(g.edges()) == _gnm_by_bisect(n, m, seed)


def test_gnm_rejects_overfull():
    with pytest.raises(TooManyEdgesError):
        random_gnm(4, 7, 0)


def test_apply_part_labels_drops_intra_part_edges():
    g = complete(4)
    labeled = apply_part_labels(g, [0, 0, 1, 1])
    assert labeled.m == 4
    assert validate_kpartite(labeled, 2)


@pytest.mark.parametrize("n, m, k, seed", [(0, 0, 2, 0), (3, 3, 3, 1),
                                           (30, 120, 3, 2), (60, 400, 4, 3)])
def test_apply_part_labels_matches_a_per_edge_filter(n, m, k, seed):
    g = random_gnm(n, m, seed)
    rng = random.Random(seed)
    labels = [rng.randrange(k) for _ in range(n)]
    kept = [(u, v) for u, v in g.edges() if labels[u] != labels[v]]
    want = from_edge_list(kept, n, {v: labels[v] for v in range(n)})
    assert_same_graph(apply_part_labels(g, labels), want)


def test_apply_part_labels_names_the_first_negative_label():
    with pytest.raises(ValueError, match=r"^negative label -2 at vertex 3$"):
        apply_part_labels(complete(5), [0, 1, 0, -2, -1])


def test_color_code_forced_label_cases():
    # with k parts and 3 vertices, seeds realize every label pattern;
    # check the two canonical outcomes through apply_part_labels instead
    tri = complete(3)
    all_distinct = apply_part_labels(tri, [0, 1, 2])
    assert all_distinct.m == 3
    merged = apply_part_labels(tri, [0, 0, 1])
    assert merged.m == 2


def test_color_code_is_kpartite_and_deterministic():
    g = random_gnm(30, 120, 5)
    a = color_code(g, 3, seed=9)
    b = color_code(g, 3, seed=9)
    assert validate_kpartite(a, 3)
    assert a.edge_set() == b.edge_set()
    assert a.part_label == b.part_label


def test_color_code_triangle_retention_rate():
    """A fixed triangle survives 3-coloring with probability 6/27."""
    tri = complete(3)
    trials = 10_000
    kept = sum(count_triangles(color_code(tri, 3, seed)) for seed in range(trials))
    p0 = 6 / 27
    se = math.sqrt(p0 * (1 - p0) / trials)
    assert abs(kept / trials - p0) <= 3 * se


def test_color_code_edge_survival_rate():
    g = random_gnm(40, 200, 1)
    for k in (2, 3, 5):
        trials = 60
        total = sum(color_code(g, k, seed).m for seed in range(trials))
        frac = total / (trials * g.m)
        assert abs(frac - (k - 1) / k) <= 0.05


def test_transform_single_triangle():
    g = from_edge_list([(0, 1), (0, 2), (1, 2)], 3, {0: 0, 1: 1, 2: 2})
    inst = triangle_to_4cycle_transform(g)
    assert count_4cycles(inst.graph) == 1
    assert inst.source_triangle_count == 1
    assert inst.source_4cycle_count == 0
    assert validate_kpartite(inst.graph, 4)


def test_transform_counts_its_source_only_when_read(monkeypatch):
    def unwanted(g):
        raise AssertionError("source counted")

    monkeypatch.setattr(generators, "count_triangles", unwanted)
    monkeypatch.setattr(generators, "count_4cycles", unwanted)
    g = from_edge_list([(0, 1), (0, 2), (1, 2)], 3, {0: 0, 1: 1, 2: 2})
    inst = triangle_to_4cycle_transform(g)
    assert count_4cycles(inst.graph) == 1
    with pytest.raises(AssertionError, match="source counted"):
        inst.source_triangle_count
    with pytest.raises(AssertionError, match="source counted"):
        inst.source_4cycle_count
    monkeypatch.undo()
    assert (inst.source_triangle_count, inst.source_4cycle_count) == (1, 0)


def test_transform_empty_sources():
    g = from_edge_list([(0, 1), (1, 2)], 3, {0: 0, 1: 1, 2: 2})
    inst = triangle_to_4cycle_transform(g)
    assert count_4cycles(inst.graph) == 0


def test_transform_rejects_unlabeled():
    with pytest.raises(NotTripartiteError):
        triangle_to_4cycle_transform(complete(3))


def test_transform_matching_is_perfect_on_copies():
    g = random_kpartite(3, 4, 0.7, 2)
    inst = triangle_to_4cycle_transform(g)
    c_vertices = [v for v in range(g.n) if g.part_label[v] == 2]
    assert len(inst.matching) == len(c_vertices)
    matched = {u for e in inst.matching for u in e}
    assert set(c_vertices) <= matched


def _transform_per_edge(g):
    """The rewrite edge by edge: (graph, matching, copy_to_source)."""
    labels = g.part_label
    c_ids = sorted(v for v in range(g.n) if labels[v] == 2)
    copy_of = {c: g.n + i for i, c in enumerate(c_ids)}
    edges = []
    for u, v in g.edges():
        lu, lv = labels[u], labels[v]
        if {lu, lv} == {0, 2}:
            a, c = (u, v) if lu == 0 else (v, u)
            edges.append((a, copy_of[c]))
        else:
            edges.append((u, v))
    matching = [(c, copy_of[c]) for c in c_ids]
    out_labels = dict(labels)
    out_labels.update((copy_of[c], 3) for c in c_ids)
    graph = from_edge_list(edges + matching, g.n + len(c_ids), out_labels)
    return graph, frozenset(matching), {copy_of[c]: c for c in c_ids}


def _tripartite_cases():
    # Block parts (every A id below every C id) and colour-coded parts
    # (A and C ids interleaved), then no part-2 vertex, then n = 0.
    for seed in range(6):
        yield random_kpartite(3, 2 + seed, 0.5, seed)
        yield color_code(random_gnm(40, 150, seed), 3, seed)
    yield from_edge_list([(0, 1), (1, 2)], 3, {0: 0, 1: 1, 2: 0})
    yield from_edge_list([], 0, {})


@pytest.mark.parametrize("g", list(_tripartite_cases()))
def test_transform_matches_a_per_edge_rewrite(g):
    inst = triangle_to_4cycle_transform(g)
    graph, matching, copy_to_source = _transform_per_edge(g)
    assert_same_graph(inst.graph, graph)
    assert inst.matching == matching
    assert inst.copy_to_source == copy_to_source
    assert all(type(x) is int for pair in inst.matching for x in pair)
    assert all(type(x) is int for item in inst.copy_to_source.items()
               for x in item)


def _lost_cycles(g):
    """Input 4-cycles broken by the rewiring: the part-2 pair sits on one
    diagonal and the other diagonal spans parts 0 and 1."""
    lab = g.part_label
    lost = set()
    for rec in brute_4cycles(g):
        a, b, c, d = rec
        for pair, other in (((a, c), (b, d)), ((b, d), (a, c))):
            if lab[pair[0]] == lab[pair[1]] == 2 and \
                    {lab[other[0]], lab[other[1]]} == {0, 1}:
                lost.add(rec)
    return lost


def test_transform_count_identity_with_loss_term():
    """Output 4-cycles = input triangles + input 4-cycles that survive.

    A 4-cycle whose part-2 diagonal pair has one part-0 and one part-1
    common neighbor stretches into a 6-cycle through the copies, so the
    headline triangles-plus-4-cycles count must subtract those.
    """
    for seed in range(25):
        g = random_kpartite(3, random.Random(seed).randint(2, 5), 0.55, seed)
        inst = triangle_to_4cycle_transform(g)
        expected = (inst.source_triangle_count + inst.source_4cycle_count
                    - len(_lost_cycles(g)))
        assert count_4cycles(inst.graph) == expected


def test_transform_provenance_bijection():
    for seed in range(12):
        g = random_kpartite(3, 4, 0.5, seed)
        inst = triangle_to_4cycle_transform(g)
        out = set()
        list_4cycles(inst.graph, lambda r: out.add(r))
        tri_src, c4_src = set(), set()
        for cyc in out:
            kind, rec = inst.source_of(cyc)
            (tri_src if kind == "triangle" else c4_src).add(rec)
        assert tri_src == brute_triangles(g)
        assert c4_src == brute_4cycles(g) - _lost_cycles(g)
        assert len(tri_src) + len(c4_src) == len(out)


def test_transform_minimal_lost_cycle():
    # one part-0 vertex, one part-1 vertex, two part-2 vertices: the only
    # 4-cycle threads both copies and is destroyed
    g = from_edge_list([(0, 2), (0, 3), (1, 2), (1, 3)], 4,
                       {0: 0, 1: 1, 2: 2, 3: 2})
    inst = triangle_to_4cycle_transform(g)
    assert inst.source_4cycle_count == 1
    assert count_4cycles(inst.graph) == 0


def test_pad_with_c4free_shapes():
    empty = from_edge_list([], 0)
    padded = pad_with_c4free(empty, 2, 2)
    assert (padded.n, padded.m) == (14, 18)
    assert count_4cycles(padded) == 0

    k3 = complete(3)
    grown = pad_with_c4free(k3, 1, 3)
    assert count_triangles(grown) == 1 + count_triangles(polarity_graph(3))


def _pad_per_edge(g, copies, q):
    pad = polarity_graph(q)
    edges = list(g.edges())
    for i in range(copies):
        offset = g.n + i * pad.n
        edges.extend((offset + u, offset + v) for u, v in pad.edges())
    labels = dict(g.part_label) if g.part_label is not None else None
    return from_edge_list(edges, g.n + copies * pad.n, labels)


@pytest.mark.parametrize("g", [random_gnm(12, 30, 1),
                               random_kpartite(3, 4, 0.5, 2),
                               from_edge_list([], 0)],
                         ids=["unlabelled", "labelled", "empty"])
@pytest.mark.parametrize("copies", [1, 2, 3])
def test_pad_matches_per_edge_copies(g, copies):
    assert_same_graph(pad_with_c4free(g, copies, 3), _pad_per_edge(g, copies, 3))


def test_pad_zero_copies_returns_input():
    g = complete(4)
    assert pad_with_c4free(g, 0, 99) is g


def test_pad_preserves_sparse_triangle_answers():
    g = random_gnm(25, 70, 4)
    before = all_edge_sparse_triangle(g)
    padded = pad_with_c4free(g, 2, 5)
    after = all_edge_sparse_triangle(padded)
    for e, flag in before.items():
        assert after[e] == flag


def test_sparse_triangle_instance_shape():
    g = sparse_triangle_instance(10 ** 4, 0.25, 3)
    assert abs(g.n - 10 ** 3) <= 3
    cap = math.ceil((10 ** 4) ** 0.25)
    assert g.max_degree() <= cap
    assert validate_kpartite(g, 3)


def test_sparse_triangle_cap_honored_across_seeds():
    for seed in range(6):
        g = sparse_triangle_instance(2000, 0.3, seed)
        cap = math.ceil(2000 ** 0.2)
        assert g.max_degree() <= cap


def test_sparse_triangle_rejects_bad_sigma():
    with pytest.raises(BadSigmaError):
        sparse_triangle_instance(1000, 0.6, 0)
    with pytest.raises(BadSigmaError):
        sparse_triangle_instance(1000, 0.0, 0)


def test_random_weighted_kpartite_shape():
    wg = random_weighted_kpartite(3, 5, 0.5, 30, seed=4)
    assert wg.k == 3
    assert wg.base.n == 15
    assert all(abs(w) <= 30 for w in wg.weights.values())
    assert validate_kpartite(wg.base, 3)
    again = random_weighted_kpartite(3, 5, 0.5, 30, seed=4)
    assert again.weights == wg.weights


@pytest.mark.parametrize("k, n_part, edge_prob", [(2, 4, 0.5), (3, 5, 0.3),
                                                   (4, 3, 0.7)])
def test_weighted_and_plain_kpartite_draw_the_same_edges(k, n_part, edge_prob):
    """Both generators draw the edges first, one draw per pair in order."""
    for seed in range(4):
        plain = random_kpartite(k, n_part, edge_prob, seed)
        wg = random_weighted_kpartite(k, n_part, edge_prob, 9, seed)
        assert wg.base.edge_set() == plain.edge_set()
        assert wg.base.part_label == plain.part_label


@pytest.mark.parametrize("k, n_part, edge_prob", [(1, 4, 0.5), (3, 0, 0.5),
                                                   (3, -1, 0.5), (3, 4, 1.5),
                                                   (3, 4, -0.1)])
def test_kpartite_generators_reject_the_same_bad_shapes(k, n_part, edge_prob):
    with pytest.raises(ValueError) as plain:
        random_kpartite(k, n_part, edge_prob, 0)
    with pytest.raises(ValueError) as weighted:
        random_weighted_kpartite(k, n_part, edge_prob, 9, 0)
    assert str(plain.value) == str(weighted.value)


def _instance_digest(g, weights=None) -> str:
    """sha256 of a graph's n, edges (in order), labels and, when given,
    the weights in edge order, written as text."""
    text = f"{g.n} {g.edge_array().tolist()} {label_array(g).tolist()}"
    if weights is not None:
        text += f" {list(weights)}"
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of seeded instances taken before the generators drew into
# arrays: every draw, and the order of the draws, must stay as it was.
KPARTITE_DIGESTS = {
    (3, 20, 0.3, 0): "9580572621c021865a70cfaabd33f289"
                     "9d08880c7b62aa3414b2ec14498c9883",
    (4, 10, 0.5, 1): "e3cbf2dd2f2b3d8d3d9f753ab25ca042"
                     "408d49440fb63ae0af56afb97bc60e5f",
    (5, 6, 0.4, 2): "d8f80ab269bac10e57851dd810951e69"
                    "616f6012147db79caefed068a4e58793",
    (3, 5, 0.0, 3): "be5bd2b7db2a198c23e96817b19b3f49"
                    "731fa2ad79f75f3654d982cb32d8c88a",
    (4, 4, 1.0, 4): "aff55a9875a091f59e2c27212d65297b"
                    "1e9c5ff59b05077e5f56f588cc293d5a",
    (3, 1, 0.5, 5): "a24a9fedcfb45fd1c94203ba302096a9"
                    "aff3037515e59f455ce8ed931f299967",
    (5, 1, 1.0, 6): "2201723b8612c5b439cb77b8ff22d648"
                    "b6cf29cef3c2245d5b611ee9bf9b05bf",
    (2, 7, 0.5, 7): "da03d706b57729ce0ac005c8f0e35a42"
                    "824601eb9b3f452cb318dc8d513a00e4",
}

WEIGHTED_DIGESTS = {
    (3, 20, 0.3, 1000, 0, False): "130123885a0f9204d032ed8a2b2c7273"
                                  "2097e4e38a6bd944ad95154357b9f68c",
    (3, 20, 0.3, 1000, 0, True): "8f1b46cb8637c1d76ee5557418653bf3"
                                 "6a86287757bc1dc885873837ceac6477",
    (4, 8, 0.5, 10 ** 6, 1, False): "bfb8a7dbfd5f2a17f8aef68ab387cffc"
                                    "accabed6fac7d80756f35c8e2e612137",
    (4, 8, 0.5, 10 ** 6, 1, True): "f12019dc47957230d8319287248b5b22"
                                   "66c65230b4ebd2f105b4001a9dc6d69b",
    (5, 5, 0.5, 50, 2, False): "8c0a88305a228685303b725f0d114ecb"
                               "68a9caea551f3e94b98efae884ac6752",
    (5, 5, 0.5, 50, 2, True): "aa5e5ee73692318e9685ef043f698372"
                              "d6831affece71a92e03caec1000534ec",
    (3, 6, 0.0, 10, 3, False): "d85d887e1977c8cfb72f7ab118c8b621"
                               "0281fd6cdcab238cf6315262e94fdb91",
    (3, 6, 0.0, 10, 3, True): "c7bcafd83033d67ad98795166892aa32"
                              "aa7ab2f70b948d6d241459332b25324f",
    (4, 5, 1.0, 7, 4, False): "28d7651b97ddb3b24146bbc09660e4b4"
                              "f4263018ba89db76b359832da636ed7e",
    (4, 5, 1.0, 7, 4, True): "1e0719072064a4b286b51bd03ff81010"
                             "f63be872e9a955a49e03371dcab0e38f",
    (3, 1, 0.5, 5, 5, True): "e454f61237fa62d777ca0758df3fa856"
                             "fd156050e49ac97159c263c76f6ff3f3",
    (5, 1, 1.0, 10 ** 20, 6, True): "6c07f48d257b66b2e26cfcf0d33f2ea4"
                                    "bf1cd8863ba2c05d5efdee27cb04fbe2",
    (3, 12, 0.4, 10 ** 20, 8, False): "636dc4fbc91c0e565ff2c43fb5503061"
                                      "80ff02b40ec2c605f3bea03a2c1aa2f4",
}


@pytest.mark.parametrize("args", KPARTITE_DIGESTS)
def test_random_kpartite_instances_are_pinned(args):
    assert _instance_digest(random_kpartite(*args)) == KPARTITE_DIGESTS[args]


@pytest.mark.parametrize("args", WEIGHTED_DIGESTS)
def test_random_weighted_kpartite_instances_are_pinned(args):
    wg = random_weighted_kpartite(*args)
    assert (_instance_digest(wg.base, wg.w.tolist())
            == WEIGHTED_DIGESTS[args])
    assert wg.weights == dict(zip(wg.base.edges(), wg.w.tolist()))
    # Weights past int64 stay exact ints.
    assert all(type(w) is int for w in wg.weights.values())


def test_random_weighted_kpartite_planting():
    for seed in range(10):
        wg = random_weighted_kpartite(3, 6, 0.3, 40, seed, planted=True)
        assert brute_zero_kclique(wg, 3) is not None


def test_planted_clique_weights_stay_in_bound():
    for seed in range(10):
        wg = random_weighted_kpartite(4, 5, 0.2, 10, seed, planted=True)
        assert all(abs(w) <= 10 for w in wg.weights.values())


def test_weighted_kpartite_validation():
    base = from_edge_list([(0, 1)], 2, {0: 0, 1: 1})
    with pytest.raises(ValueError):
        WeightedKPartiteGraph(base, 2, {}, 5)  # missing weight
