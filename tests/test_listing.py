import math
import random
from bisect import bisect_right
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings

from arbolist import listing
from arbolist import (
    Collector,
    KTooSmallError,
    all_edge_sparse_triangle,
    brute_4cycles,
    brute_kcliques,
    brute_triangles,
    clique_record,
    count_4cycles,
    count_kcliques,
    count_triangles,
    degeneracy_ordering,
    four_cycle_record,
    from_edge_list,
    list_4cycles,
    list_kcliques,
    list_triangles,
    orient,
    polarity_graph,
    random_gnm,
    triangle_record,
)
from arbolist.bench import c4_block_family
from arbolist.graphio import ID_LIMIT
from arbolist.oracle import MAX_TRIANGLE_N

from .conftest import (
    complete,
    complete_bipartite,
    cycle,
    label_walk,
    out_lists,
    petersen,
    small_graphs,
    star,
    wheel,
)


def collect(lister, *args):
    sink = Collector()
    stats = lister(*args, sink)
    return set(sink.records), stats


def test_triangle_record_canonical():
    assert triangle_record(2, 0, 1) == (0, 1, 2)


def test_four_cycle_record_canonical():
    # rotations and reflections of the same cycle collapse to one record
    variants = [(0, 1, 2, 3), (1, 2, 3, 0), (3, 2, 1, 0), (0, 3, 2, 1)]
    records = {four_cycle_record(*v) for v in variants}
    assert records == {(0, 1, 2, 3)}
    assert four_cycle_record(2, 1, 0, 3) == (0, 1, 2, 3)
    assert four_cycle_record(0, 3, 1, 2)[0] == 0


def test_triangles_on_known_graphs():
    assert count_triangles(complete(4)) == 4
    assert count_triangles(wheel(5)) == 5
    assert count_triangles(petersen()) == 0
    chord = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], 4)
    assert count_triangles(chord) == 2


def test_triangles_counting_identity_complete():
    for n in range(1, 13):
        assert count_triangles(complete(n)) == comb(n, 3)


def test_4cycles_on_known_graphs():
    assert count_4cycles(complete(4)) == 3
    assert count_4cycles(complete(5)) == 15
    assert count_4cycles(complete_bipartite(2, 2)) == 1
    assert count_4cycles(complete_bipartite(2, 3)) == 3
    assert count_4cycles(petersen()) == 0
    assert count_4cycles(cycle(4)) == 1
    assert count_4cycles(cycle(5)) == 0


def test_4cycles_counting_identity_bipartite():
    for a in range(1, 9):
        for b in range(1, 9):
            expected = comb(a, 2) * comb(b, 2)
            assert count_4cycles(complete_bipartite(a, b)) == expected


def test_kcliques_counting_identity_complete():
    for n in range(1, 13):
        for k in range(2, 7):
            assert count_kcliques(complete(n), k) == comb(n, k)


def test_kcliques_known_values():
    assert count_kcliques(complete(6), 3) == 20
    assert count_kcliques(complete(6), 4) == 15
    assert count_kcliques(complete_bipartite(3, 3), 3) == 0


def test_kcliques_k2_is_edges():
    g = wheel(6)
    records, _ = collect(list_kcliques, g, 2)
    assert records == set(g.edges())


def test_kcliques_rejects_small_k():
    with pytest.raises(KTooSmallError):
        list_kcliques(complete(3), 1, lambda r: None)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_triangles_match_oracle(g):
    records, stats = collect(list_triangles, g)
    assert records == brute_triangles(g)
    assert stats.emitted_count == len(records)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_4cycles_match_oracle(g):
    records, stats = collect(list_4cycles, g)
    assert records == brute_4cycles(g)
    assert stats.emitted_count == len(records)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_kcliques_match_oracle(g):
    for k in (3, 4, 5):
        records, stats = collect(list_kcliques, g, k)
        assert records == brute_kcliques(g, k)
        assert stats.emitted_count == len(records)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_kcliques_3_equals_triangles(g):
    tri, _ = collect(list_triangles, g)
    cli, _ = collect(list_kcliques, g, 3)
    assert cli == tri


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_each_record_emitted_exactly_once(g):
    seen = []
    list_triangles(g, seen.append)
    assert len(seen) == len(set(seen))
    seen = []
    list_4cycles(g, seen.append)
    assert len(seen) == len(set(seen))
    seen = []
    list_kcliques(g, 4, seen.append)
    assert len(seen) == len(set(seen))


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_triangle_steps_within_degeneracy_budget(g):
    """Inner-loop work stays within 2 * m * degeneracy."""
    _, stats = collect(list_triangles, g)
    d = degeneracy_ordering(g).degeneracy
    assert stats.steps <= 2 * g.m * max(d, 1) + g.n


def test_triangle_steps_budget_on_structured_graphs():
    for g in (complete(12), star(200), wheel(20), petersen()):
        _, stats = collect(list_triangles, g)
        d = degeneracy_ordering(g).degeneracy
        assert stats.steps <= 2 * g.m * max(d, 1) + g.n


def test_star_4cycle_work_stays_linear():
    """A high-degree hub must not force quadratic pair scans."""
    g = star(3000)
    _, stats = collect(list_4cycles, g)
    assert stats.emitted_count == 0
    assert stats.steps <= 10 * g.m + g.n


def test_early_stop_triangle():
    g = complete(10)
    seen = []

    def sink(record):
        seen.append(record)
        return len(seen) == 5

    stats = list_triangles(g, sink)
    assert len(seen) == 5
    assert stats.emitted_count == 5


def test_early_stop_4cycles():
    g = complete(8)
    seen = []
    list_4cycles(g, lambda r: seen.append(r) or len(seen) == 3)
    assert len(seen) == 3


def test_early_stop_kcliques():
    g = complete(9)
    seen = []
    list_kcliques(g, 4, lambda r: seen.append(r) or True)
    assert len(seen) == 1


def list_4cliques(g, sink, **kw):
    return list_kcliques(g, 4, sink, **kw)


@settings(max_examples=30, deadline=None)
@given(small_graphs(max_n=9))
def test_stop_at_every_record_yields_a_prefix(g):
    for lister in (list_triangles, list_4cycles, list_4cliques):
        full = []
        lister(g, full.append)
        for j in range(1, len(full) + 1):
            seen = []
            stats = lister(g, lambda r: seen.append(r) or len(seen) == j)
            assert seen == full[:j]
            assert stats.emitted_count == j


def reference_4cycles(g, sink):
    """The vertex-by-vertex 4-cycle lister: degree-descending order,
    rank-sorted lists cut with bisect, and a dict of intermediate
    vertices per target.  Returns (emitted, steps)."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    position = [0] * g.n
    for i, v in enumerate(order):
        position[v] = i
    by_rank = [sorted(g.neighbors(v), key=position.__getitem__)
               for v in range(g.n)]
    rank_of = [[position[w] for w in nbrs] for nbrs in by_rank]
    steps = emitted = 0
    for v in order:
        pv = position[v]
        u_lists = {}
        for u in by_rank[v][bisect_right(rank_of[v], pv):]:
            for w in by_rank[u][bisect_right(rank_of[u], pv):]:
                steps += 1
                u_lists.setdefault(w, []).append(u)
        for w, us in u_lists.items():
            for i in range(len(us) - 1):
                for j in range(i + 1, len(us)):
                    steps += 1
                    emitted += 1
                    if sink(four_cycle_record(v, us[i], w, us[j])):
                        return emitted, steps
    return emitted, steps


def assert_4cycles_match_reference(g, stops=True):
    """Same records, order, count and steps, run to the end and stopped
    after record j for every j in ``stops`` (every record when True)."""
    want = []
    want_emitted, want_steps = reference_4cycles(g, want.append)
    got = []
    stats = list_4cycles(g, got.append)
    assert got == want
    assert (stats.emitted_count, stats.steps) == (want_emitted, want_steps)
    if stops is True:
        stops = range(1, len(want) + 1)
    for j in stops or ():
        seen, ref = [], []
        stats = list_4cycles(g, lambda r: seen.append(r) or len(seen) == j)
        expected = reference_4cycles(g, lambda r: ref.append(r)
                                     or len(ref) == j)
        assert seen == ref == want[:j]
        assert (stats.emitted_count, stats.steps) == expected


@pytest.mark.parametrize("batch", [1, 2, 7, 4096])
@settings(max_examples=40, deadline=None)
@given(g=small_graphs(max_n=10))
def test_4cycles_match_the_vertex_by_vertex_lister(batch, g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(listing, "_BATCH", batch)
        assert_4cycles_match_reference(g)


@pytest.mark.parametrize("batch", [1, 2, 7, 4096])
def test_4cycles_match_the_vertex_by_vertex_lister_at_the_edges(
        monkeypatch, batch):
    monkeypatch.setattr(listing, "_BATCH", batch)
    isolated = from_edge_list([(3, 900), (900, 4000), (4000, 17), (17, 3)],
                              5000)
    for g in (from_edge_list([], 0), from_edge_list([], 7), isolated,
              complete(6), complete_bipartite(3, 4)):
        assert_4cycles_match_reference(g)
    assert_4cycles_match_reference(random_gnm(60, 400, 3), stops=False)
    assert count_4cycles(isolated) == 1


def spider(legs, shared):
    """Hub 0 joined to legs 1..legs, leg i also to its own foot legs + i,
    and legs 1..shared also to vertex 2 * legs + 1.  The hub comes first
    in degree order with legs + shared wedges, and its group of ``shared``
    wedges through that vertex gives every 4-cycle."""
    edges = [(0, i) for i in range(1, legs + 1)]
    edges += [(i, legs + i) for i in range(1, legs + 1)]
    edges += [(i, 2 * legs + 1) for i in range(1, shared + 1)]
    return from_edge_list(edges, 2 * legs + 2)


@pytest.mark.parametrize("batch", [7, 4096])
def test_4cycles_of_a_vertex_with_more_wedges_than_a_batch(monkeypatch,
                                                           batch):
    """The hub's wedges overflow a batch, so it is a batch of its own (the
    single-vertex case of the packed-key bound), and its group of 10
    yields more pairs per member than a batch at size 7."""
    monkeypatch.setattr(listing, "_BATCH", batch)
    g = spider(batch + 10, 10)
    assert count_4cycles(g) == comb(10, 2)
    assert_4cycles_match_reference(g)


def bipartite_blocks_and_stars():
    """Two K_{2,3} with parts {0, 2} and {3, 5}, the star hub 1 between
    them in the degree order, the star hub 15 before all three, and a
    C4."""
    edges = [(x, y) for small, big in (((0, 2), (6, 7, 8)),
                                       ((3, 5), (12, 13, 14)))
             for x in small for y in big]
    edges += [(1, 9), (1, 10), (1, 11)] + [(15, i) for i in range(16, 22)]
    edges += [(22, 23), (23, 24), (24, 25), (25, 22)]
    return from_edge_list(edges, 26)


@pytest.mark.parametrize("batch", [1, 2, 7, 4096])
def test_4cycles_with_batches_holding_vertices_without_wedges(monkeypatch,
                                                              batch):
    """Vertices with no wedges, some with arcs to later vertices (star
    hubs), lie before and between the ones with wedges; graphs with no
    wedge, or one, make batches with nothing to group."""
    monkeypatch.setattr(listing, "_BATCH", batch)
    g = bipartite_blocks_and_stars()
    assert count_4cycles(g) == 7
    for g in (g, star(5), from_edge_list([(0, 1), (1, 2), (2, 3)], 4)):
        assert_4cycles_match_reference(g)


@pytest.mark.parametrize("batch", [7, 4096])
@pytest.mark.parametrize("make", [
    lambda: c4_block_family(2000, 1),
    lambda: polarity_graph(23),
    lambda: random_gnm(5000, 25000, 3),
], ids=["c4-blocks-2000", "polarity-23", "gnm-5000-25000"])
def test_4cycles_match_the_vertex_by_vertex_lister_on_larger_graphs(
        monkeypatch, make, batch):
    monkeypatch.setattr(listing, "_BATCH", batch)
    assert_4cycles_match_reference(make(), stops=(1, 7, 1000))


def fixed_graphs():
    """The fixed graphs of the 4-cycle tests, with records of every kind
    (complete(6)), records of some (the bipartite and random ones) and
    none at all; and whether stopping at each of their records is cheap."""
    isolated = from_edge_list([(3, 900), (900, 4000), (4000, 17), (17, 3)],
                              5000)
    return [(g, True) for g in (
        from_edge_list([], 0), from_edge_list([], 7), isolated, complete(6),
        complete_bipartite(3, 4), spider(17, 10), bipartite_blocks_and_stars(),
        star(5), from_edge_list([(0, 1), (1, 2), (2, 3)], 4))
    ] + [(random_gnm(60, 400, 3), False)]


LISTERS = {"triangles": list_triangles, "4cycles": list_4cycles,
           "4cliques": list_4cliques,
           # Every arc is a row of the first level, cut into batches.
           "2cliques": lambda g, sink, **kw: list_kcliques(g, 2, sink, **kw)}


def per_record(lister, g, take=None):
    """Records, ``emitted_count`` and ``steps`` of a per-record sink that
    stops at record number ``take`` (counted from 1), or never."""
    records = []
    stats = lister(g, lambda r: records.append(tuple(r))
                   or len(records) == take)
    return records, stats.emitted_count, stats.steps


def per_batch(lister, g, take=None):
    """The same through an array sink that stops at the row of record
    number ``take``; every batch must be a nonempty (r, k) int64 array."""
    records = []

    def sink(rows):
        assert isinstance(rows, np.ndarray) and rows.dtype == np.int64
        assert rows.ndim == 2 and len(rows) > 0
        if take is not None and take - len(records) <= len(rows):
            at = take - len(records) - 1
            records.extend(map(tuple, rows[:at + 1].tolist()))
            return at
        records.extend(map(tuple, rows.tolist()))
        return None

    stats = lister(g, sink, batches=True)
    return records, stats.emitted_count, stats.steps


@pytest.mark.parametrize("batch", [7, 4096])
@pytest.mark.parametrize("name", LISTERS)
def test_batch_sinks_see_what_record_sinks_see(monkeypatch, batch, name):
    """Same records, order, emitted_count and steps from the array form
    as from the per-record form, run to the end and stopped at every
    row (on the random graph at a few)."""
    monkeypatch.setattr(listing, "_BATCH", batch)
    lister = LISTERS[name]
    for g, every in fixed_graphs():
        want = per_record(lister, g)
        assert per_batch(lister, g) == want
        stops = range(1, len(want[0]) + 1) if every else (1, 7, 8, 100)
        for take in stops:
            assert per_batch(lister, g, take) == per_record(lister, g, take)


@pytest.mark.parametrize("name", LISTERS)
def test_a_wrapped_batch_sink_still_gets_arrays(name):
    """A tracer hands the lister a plain function forwarding to the
    sink, and ``batches`` by keyword; the batches still arrive."""
    lister = LISTERS[name]
    g = complete(7)
    got = []
    inner = got.append
    stats = lister(g, lambda rows: inner(rows), batches=True)
    assert got and all(isinstance(rows, np.ndarray) for rows in got)
    assert sum(len(rows) for rows in got) == stats.emitted_count
    assert [tuple(r) for rows in got for r in rows.tolist()] == \
        per_record(lister, g)[0]


@pytest.mark.parametrize("name", LISTERS)
def test_no_empty_batch_is_handed_over(name):
    """A graph without the lister's records never calls its sink (the
    sink in ``per_batch`` checks the same for every batch it gets)."""
    lister = LISTERS[name]
    graphs = [from_edge_list([], 0), from_edge_list([], 7)]
    if name != "2cliques":
        graphs += [petersen(), star(5), cycle(5)]
    calls = []
    for g in graphs:
        assert lister(g, calls.append, batches=True).emitted_count == 0
    assert calls == []


def test_packed_wedge_keys_fit_in_int64():
    """A batch's wedge keys r * n + w, packed with the wedge index, stay
    below 2 * _BATCH**2 * n over several vertices and 2 * nw * n for one
    vertex's nw wedges; both fit in int64 for every n the reader takes,
    the second up to 2**31 wedges.  At the largest multi-vertex keys the
    packed sort still equals numpy's stable sort."""
    n = ID_LIMIT - 1
    assert 2 * listing._BATCH ** 2 * n < 2 ** 63
    assert 2 * 2 ** 31 * n < 2 ** 63
    rng = np.random.default_rng(5)
    key = rng.integers(listing._BATCH * n - 40, listing._BATCH * n,
                       listing._BATCH)
    got, by = listing._stable_sort(key)
    want = np.argsort(key, kind="stable")
    assert (by == want).all() and (got == key[want]).all()


def test_kcliques_orient_the_graph_once(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return degeneracy_ordering(g)

    def no_graph(*args, **kwargs):
        raise AssertionError("list_kcliques built a Graph")

    monkeypatch.setattr(listing, "degeneracy_ordering", counted)
    monkeypatch.setattr(listing, "Graph", no_graph)
    assert count_kcliques(complete(8), 5) == comb(8, 5)
    assert len(calls) == 1


def _assert_orient_matches_reference(g):
    """Out-lists are the later neighbours, sorted by position."""
    ordering = degeneracy_ordering(g)
    oriented = orient(g)
    assert (oriented.n, oriented.m) == (g.n, g.m)
    assert tuple(oriented.order) == ordering.order
    position = [0] * g.n
    for i, v in enumerate(ordering.order):
        position[v] = i
    later = [sorted((w for w in g.neighbors(v) if position[w] > position[v]),
                    key=position.__getitem__) for v in range(g.n)]
    assert later == out_lists(oriented)
    assert sorted(oriented.edges()) == sorted(g.edges())


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_orient_out_lists_are_rank_sorted_suffixes(g):
    _assert_orient_matches_reference(g)


@pytest.mark.parametrize("make", [
    lambda: c4_block_family(2000, 1),
    lambda: polarity_graph(23),
    lambda: random_gnm(5000, 25000, 3),
    lambda: from_edge_list([], 0),
    lambda: from_edge_list([(0, 5), (5, 9), (0, 9), (2, 3)], 12),
], ids=["c4-blocks-2000", "polarity-23", "gnm-5000", "empty", "isolated"])
def test_orient_out_lists_on_fixed_graphs(make):
    """The same reference on graphs above hypothesis's sizes and on edge
    cases: no vertex, and isolated vertices among the edges."""
    _assert_orient_matches_reference(make())


def reference_kcliques(g, k, sink, make):
    """The k-clique label walk on out-lists of later neighbours sorted by
    position in the degeneracy order.  Returns (emitted, steps)."""
    order = degeneracy_ordering(g).order
    position = {v: i for i, v in enumerate(order)}
    out = {v: sorted((w for w in g.neighbors(v) if position[w] > position[v]),
                     key=position.__getitem__) for v in order}
    return label_walk(order, out, k, sink, make)


def with_arc_tests(values, ids=None):
    """Each value paired with the ``_BIT_TABLE_RATIO`` that makes the
    clique scan search the arc keys, under its own id (by default the
    value), and with the one that makes it read the bit table, under its
    id plus "-bits"."""
    ids = list(map(str, values)) if ids is None else ids
    return ([pytest.param(v, 0, id=i) for v, i in zip(values, ids)]
            + [pytest.param(v, math.inf, id=f"{i}-bits")
               for v, i in zip(values, ids)])


# Each scan to check against the walk: its k, the lister and the record
# the walk should make of an ascending id tuple.
SCANS = {
    "triangles": (3, list_triangles, lambda vs: triangle_record(*vs)),
    "oriented": (3, lambda g, sink: list_triangles(orient(g), sink),
                 lambda vs: triangle_record(*vs)),
    **{f"kcliques-{k}": (k, lambda g, sink, k=k: list_kcliques(g, k, sink),
                         clique_record) for k in (2, 3, 4, 5)},
}


def assert_scan_matches_the_walk(g, k, lister, make, every_stop=False):
    """Same records, order, count and steps as the label walk, run to
    the end and stopped after the first, a middle and the last record
    (with ``every_stop``, after every record)."""
    want = []
    expected = reference_kcliques(g, k, want.append, make)
    got = []
    stats = lister(g, got.append)
    assert got == want
    assert (stats.emitted_count, stats.steps) == expected
    total = len(want)
    if every_stop:
        stops = range(1, total + 1)
    else:
        stops = sorted({1, (total + 1) // 2, total}) if total else []
    for j in stops:
        seen, ref = [], []
        stats = lister(g, lambda r: seen.append(r) or len(seen) == j)
        expected = reference_kcliques(
            g, k, lambda r: ref.append(r) or len(ref) == j, make)
        assert seen == ref == want[:j]
        assert (stats.emitted_count, stats.steps) == expected


@pytest.mark.parametrize("lister", sorted(SCANS))
@pytest.mark.parametrize("batch, ratio", with_arc_tests([1, 7, 4096]))
@settings(max_examples=30, deadline=None)
@given(g=small_graphs(max_n=10))
def test_k3_scan_matches_the_label_walk(lister, batch, ratio, g):
    """Every scan, k = 2 to 5, against the walk at every stop, with the
    arcs searched and read from the bit table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(listing, "_BATCH", batch)
        mp.setattr(listing, "_BIT_TABLE_RATIO", ratio)
        assert_scan_matches_the_walk(g, *SCANS[lister], every_stop=True)


@pytest.mark.parametrize("lister", sorted(SCANS))
@pytest.mark.parametrize("batch, ratio", with_arc_tests([64, 4096]))
@pytest.mark.parametrize("make", [
    lambda: c4_block_family(2000, 1),
    lambda: polarity_graph(23),
    lambda: random_gnm(5000, 25000, 3),
    lambda: from_edge_list([], 0),
    lambda: from_edge_list([], 9),
    lambda: from_edge_list([(3, 900), (900, 4000), (4000, 3), (17, 3)], 5000),
    lambda: complete(9),
], ids=["c4-blocks-2000", "polarity-23", "gnm-5000", "empty", "edgeless",
        "isolated", "k9"])
def test_k3_scan_matches_the_label_walk_on_fixed_graphs(monkeypatch, make,
                                                        batch, ratio, lister):
    """Every scan, k = 2 to 5, against the walk on graphs above
    hypothesis's sizes and on edge cases, with the arcs searched and
    read from the bit table."""
    monkeypatch.setattr(listing, "_BATCH", batch)
    monkeypatch.setattr(listing, "_BIT_TABLE_RATIO", ratio)
    assert_scan_matches_the_walk(make(), *SCANS[lister])


@pytest.mark.parametrize("make, ratio", with_arc_tests([
    lambda: polarity_graph(31),
    lambda: polarity_graph(47),
    lambda: random_gnm(1500, 30000, 8),
    lambda: c4_block_family(300, 2),
], ["polarity-31", "polarity-47", "gnm-1500", "c4-blocks-300"]))
def test_triangle_count_matches_numpy_trace(monkeypatch, make, ratio):
    """Above the triangle oracle's guard: the scan's count, with the
    arcs searched and read from the bit table, is trace(A^3) / 6, and
    the orientation's largest out-degree is the degeneracy."""
    monkeypatch.setattr(listing, "_BIT_TABLE_RATIO", ratio)
    g = make()
    assert g.n > MAX_TRIANGLE_N
    a = np.zeros((g.n, g.n), dtype=np.float32)
    u, v = np.array(list(g.edges())).T
    a[u, v] = a[v, u] = 1
    # float32 is exact: every entry of A^2 is a count below 2^24.
    trace = float(((a @ a) * a).sum(dtype=np.float64))
    got = count_triangles(g)
    assert got > 0 and 6 * got == trace
    assert count_kcliques(g, 3) == got
    out = np.diff(orient(g).indptr)
    assert out.max() == degeneracy_ordering(g).degeneracy


@pytest.mark.parametrize("make, table", [
    (lambda: polarity_graph(37), True),
    (lambda: polarity_graph(47), True),
    (lambda: polarity_graph(23), True),
    (lambda: complete(9), True),
    (lambda: random_gnm(2000, 16000, 1), True),
    (lambda: random_gnm(2000, 12500, 1), False),
    (lambda: c4_block_family(15000, 1), False),
    (lambda: random_gnm(5000, 25000, 3), False),
], ids=["polarity-37", "polarity-47", "polarity-23", "k9", "gnm-2000-16000",
        "gnm-2000-12500", "c4-blocks-15000", "gnm-5000"])
def test_scan_takes_the_bit_table_only_within_its_memory_bound(monkeypatch,
                                                               make, table):
    """The scan reads a bit table for the benchmark's dense list graphs,
    polarity q=37 and 47, and searches the keys of c4_block_family(15000);
    a table holds exactly the arcs and takes at most ``_BIT_TABLE_RATIO``
    times the 8 * m bytes of their keys.  The two gnm-2000 graphs sit
    either side of that bound: their tables would take 3.9 and 5 times."""
    arc_bits, seen = listing._arc_bits, []

    def spy(n, keys):
        bits = arc_bits(n, keys)
        seen.append((n, keys, bits))
        return bits

    monkeypatch.setattr(listing, "_arc_bits", spy)
    g = make()
    count_triangles(g)
    [(n, keys, bits)] = seen
    assert (n, len(keys)) == (g.n, g.m)
    assert (bits is not None) == table
    if table:
        assert bits.nbytes <= listing._BIT_TABLE_RATIO * 8 * g.m
        assert np.array_equal(
            np.flatnonzero(np.unpackbits(bits, bitorder="little")), keys)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_orientation_out_degree_is_the_degeneracy(g):
    out = np.diff(orient(g).indptr)
    assert out.max(initial=0) == degeneracy_ordering(g).degeneracy


def test_listers_walk_an_orientation_as_it_is():
    """An Orientation gives the same records in the same order, pre 0."""
    g = random_gnm(40, 300, 1)
    oriented = orient(g)
    for lister, args in ((list_triangles, ()), (list_kcliques, (3,)),
                         (list_kcliques, (4,))):
        from_graph, from_view = [], []
        s1 = lister(g, *args, from_graph.append)
        s2 = lister(oriented, *args, from_view.append)
        assert from_graph == from_view and from_graph
        assert (s1.steps, s1.emitted_count) == (s2.steps, s2.emitted_count)
        assert s2.preprocess_time == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_cliques_and_degeneracy_match_networkx(seed):
    """Cross-check above the oracle guards: sparse gnm plus a dense gnm core."""
    nx = pytest.importorskip("networkx")
    n = 3000
    sparse = random_gnm(n, 15000, seed)
    core = random_gnm(60, 900, seed)
    hub = random.Random(seed).sample(range(n), core.n)
    edges = sparse.edge_set() | {tuple(sorted((hub[u], hub[v])))
                                 for u, v in core.edges()}
    g = from_edge_list(sorted(edges), n)
    ng = nx.Graph()
    ng.add_nodes_from(range(n))
    ng.add_edges_from(g.edges())
    expected = Counter()
    for clique in nx.enumerate_all_cliques(ng):
        if len(clique) > 5:
            break
        expected[len(clique)] += 1
    assert expected[5] > 0
    for k in (3, 4, 5):
        assert count_kcliques(g, k) == expected[k], k
    assert (degeneracy_ordering(g).degeneracy
            == max(nx.core_number(ng).values()))


@pytest.mark.parametrize("n, m, seed", [(3000, 15000, 3), (2000, 40000, 4)])
def test_triangle_count_matches_networkx_and_trace(n, m, seed):
    """Triangle counts above the oracle guard, checked two independent ways."""
    nx = pytest.importorskip("networkx")
    sparse = pytest.importorskip("scipy.sparse")
    g = random_gnm(n, m, seed)
    got = count_triangles(g)
    assert got > 0
    ng = nx.Graph()
    ng.add_nodes_from(range(n))
    ng.add_edges_from(g.edges())
    assert got == sum(nx.triangles(ng).values()) // 3
    u, v = (list(x) for x in zip(*g.edges()))
    a = sparse.csr_array(([1] * (2 * m), (u + v, v + u)), shape=(n, n),
                         dtype="int64")
    assert got == (a @ a @ a).trace() // 6


@pytest.mark.parametrize("n, m, seed", [(3000, 15000, 5), (2000, 20000, 6),
                                         (4000, 12000, 7)])
def test_4cycle_count_matches_trace(n, m, seed):
    """4-cycle counts above the oracle's n=256 guard, against linear
    algebra: for a simple graph with degrees d and m edges,
    trace(A^4) = 8 * 4-cycles + 2 * sum(d^2) - 2m."""
    sparse = pytest.importorskip("scipy.sparse")
    g = random_gnm(n, m, seed)
    got = count_4cycles(g)
    assert got > 0
    u, v = (list(x) for x in zip(*g.edges()))
    a = sparse.csr_array(([1] * (2 * m), (u + v, v + u)), shape=(n, n),
                         dtype="int64")
    a2 = a @ a
    squares = sum(g.degree(x) ** 2 for x in range(n))
    assert 8 * got == (a2 @ a2).trace() - 2 * squares + 2 * m


def test_stats_fields_populated():
    _, stats = collect(list_triangles, complete(8))
    assert stats.preprocess_time >= 0
    assert stats.emit_time >= 0
    assert stats.steps > 0
    assert stats.emitted_count == comb(8, 3)


def test_all_edge_sparse_triangle():
    chord = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], 4)
    answers = all_edge_sparse_triangle(chord)
    assert answers[(0, 1)] and answers[(0, 2)] and answers[(2, 3)]
    assert set(answers) == set(chord.edges())

    p = petersen()
    assert not any(all_edge_sparse_triangle(p).values())


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_all_edge_sparse_triangle_matches_membership(g):
    tris = brute_triangles(g)
    in_tri = set()
    for a, b, c in tris:
        in_tri |= {(a, b), (a, c), (b, c)}
    answers = all_edge_sparse_triangle(g)
    for e, flag in answers.items():
        assert flag == (e in in_tri)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_record_vertices_form_claimed_subgraph(g):
    records, _ = collect(list_4cycles, g)
    for a, b, c, d in records:
        assert a == min(a, b, c, d) and b < d
        for u, v in ((a, b), (b, c), (c, d), (d, a)):
            assert g.has_edge(u, v)
    cliques, _ = collect(list_kcliques, g, 4)
    for rec in cliques:
        assert list(rec) == sorted(rec)
        for u, v in combinations(rec, 2):
            assert g.has_edge(u, v)
