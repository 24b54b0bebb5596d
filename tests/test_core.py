from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from arbolist import (
    core,
    ArbolistError,
    DuplicateEdgeError,
    SelfLoopError,
    VertexOutOfRangeError,
    MissingLabelsError,
    ParseError,
    arboricity_bounds,
    degeneracy_ordering,
    from_edge_list,
    induced_subgraph,
    orient,
    polarity_graph,
    random_gnm,
    validate_kpartite,
)
from arbolist.bench import c4_block_family
from arbolist.graphio import ID_LIMIT, _load, read_edge_list

from .conftest import complete, cycle, out_lists, path, small_graphs, star


def test_from_edge_list_basic():
    g = from_edge_list([(0, 1), (1, 2)], 3)
    assert g.n == 3 and g.m == 2
    assert g.neighbors(1) == (0, 2)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        from_edge_list([(2, 2)], 3)


def test_from_edge_list_rejects_duplicates_either_orientation():
    with pytest.raises(DuplicateEdgeError):
        from_edge_list([(0, 1), (0, 1)], 2)
    with pytest.raises(DuplicateEdgeError):
        from_edge_list([(0, 1), (1, 0)], 2)


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        from_edge_list([(0, 5)], 3)
    with pytest.raises(VertexOutOfRangeError):
        from_edge_list([(-1, 0)], 3)


def test_from_edge_list_rejects_a_negative_vertex_count():
    with pytest.raises(ValueError, match="n=-3 must be nonnegative"):
        from_edge_list([], -3)


def test_from_edge_list_takes_an_array():
    g = from_edge_list(np.array([[2, 0], [1, 2]]), 4)
    assert g.neighbors(2) == (0, 1) and g.m == 2
    with pytest.raises(DuplicateEdgeError) as err:
        from_edge_list(np.array([[0, 1], [1, 2], [1, 0]]), 3)
    assert (err.value.u, err.value.v, err.value.index) == (1, 0, 2)


def test_from_edge_list_reports_ids_beyond_int64_as_out_of_range():
    with pytest.raises(VertexOutOfRangeError) as err:
        from_edge_list([(0, 1), (1, 2 ** 70)], 3)
    assert (err.value.v, err.value.index) == (2 ** 70, 1)


def _numpy_message(pairs) -> str:
    """The message of the ValueError numpy raises converting ``pairs``."""
    with pytest.raises(ValueError) as err:
        np.asarray(pairs)
    return str(err.value)


_INTEGERS = (TypeError, "vertex ids must be integers", None)


def _shape(shape):
    return ValueError, f"expected (u, v) pairs, got shape {shape}", None


def _out_of_range(v, index):
    return VertexOutOfRangeError, f"vertex {v} out of range for n=3", index


# (input, n, the graph's edges or the error's type, message and index),
# each as the build gave before lists of pairs converted as flat lists.
FROM_EDGE_LIST_INPUTS = {
    "integral floats": (lambda: [(0.0, 1.0), (1.0, 2.0)], 3, _INTEGERS),
    "float array": (lambda: np.array([[0.0, 1.0]]), 3, _INTEGERS),
    "strings": (lambda: [("0", "1")], 3, _INTEGERS),
    "two-char strings": (lambda: ["01", "12"], 3, _shape((2,))),
    "None": (lambda: [(None, 1)], 3, _INTEGERS),
    "complex": (lambda: [(1j, 1)], 3, _INTEGERS),
    "bools": (lambda: [(True, False)], 2, [[0, 1]]),
    "bool loop": (lambda: [(True, True)], 2,
                  (SelfLoopError, "self loop at vertex 1", 0)),
    "numpy ints": (lambda: [(np.int64(0), np.int32(1)),
                            (np.uint8(1), np.int16(2))], 3, [[0, 1], [1, 2]]),
    "numpy uint64": (lambda: [(np.uint64(2 ** 63), 1)], 3,
                     _out_of_range(2 ** 63, 0)),
    "past int64": (lambda: [(0, 1), (1, 2 ** 70)], 3,
                   _out_of_range(2 ** 70, 1)),
    "below int64": (lambda: [(0, 1), (-2 ** 63 - 1, 1)], 3,
                    _out_of_range(-2 ** 63 - 1, 1)),
    "uint64 range": (lambda: [(0, 1), (2, 2 ** 64 - 1)], 3,
                     _out_of_range(2 ** 64 - 1, 1)),
    "both sides of int64": (lambda: [(0, 1), (-1, 2 ** 64 - 1)], 3,
                            _out_of_range(-1, 1)),
    "object array": (lambda: np.array([[0, 2 ** 70]], dtype=object), 3,
                     _out_of_range(2 ** 70, 0)),
    "ragged pairs": (lambda: [(0, 1), (1, 2, 3)], 4, "numpy"),
    "triples": (lambda: [(0, 1, 2), (1, 2, 3)], 4, _shape((2, 3))),
    "singles": (lambda: [(0,), (1,)], 4, _shape((2, 1))),
    "scalars": (lambda: [0, 1], 4, _shape((2,))),
    "pairs of lists": (lambda: [([0], [1])], 4, _shape((1, 2, 1))),
    "pairs of ragged lists": (lambda: [([0], [1, 2])], 4, "numpy"),
    "a set of pairs": (lambda: {(0, 1), (1, 2)}, 3, [[0, 1], [1, 2]]),
    "a pair as a set": (lambda: [{0, 1}], 3, _shape((1,))),
    "a pair as a dict": (lambda: [{0: 1, 1: 2}], 3, _shape((1,))),
    "a pair as a range": (lambda: [range(2)], 3, [[0, 1]]),
    "lists": (lambda: [[0, 1], [1, 2]], 3, [[0, 1], [1, 2]]),
    "lists and tuples": (lambda: [[0, 1], (1, 2), (1, 0)], 3,
                         (DuplicateEdgeError, "duplicate edge (1, 0)", 2)),
    "array rows": (lambda: [np.array([0, 1]), np.array([1, 0])], 3,
                   (DuplicateEdgeError, "duplicate edge (1, 0)", 1)),
    "generator": (lambda: ((u, u + 1) for u in range(3)), 4,
                  [[0, 1], [1, 2], [2, 3]]),
    "generator of repeats": (lambda: ((0, 1) for _ in range(3)), 4,
                             (DuplicateEdgeError, "duplicate edge (0, 1)", 1)),
    "late duplicate": (lambda: [(0, 1), (1, 2), (2, 0), (2, 1)], 3,
                       (DuplicateEdgeError, "duplicate edge (2, 1)", 3)),
    "late loop": (lambda: [(0, 1), (2, 2)], 3,
                  (SelfLoopError, "self loop at vertex 2", 1)),
    "empty list": (lambda: [], 3, []),
    "an empty pair": (lambda: [()], 3, []),
    "empty array": (lambda: np.empty((0, 2)), 3, []),
}


@pytest.mark.parametrize("name", FROM_EDGE_LIST_INPUTS)
def test_from_edge_list_input_matrix(name):
    make, n, expected = FROM_EDGE_LIST_INPUTS[name]
    if isinstance(expected, list):
        assert from_edge_list(make(), n).edge_array().tolist() == expected
        return
    if expected == "numpy":
        expected = ValueError, _numpy_message(make()), None
    kind, message, index = expected
    with pytest.raises(Exception) as err:
        from_edge_list(make(), n)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert getattr(err.value, "index", None) == index


def _pair_by_pair(pairs, n):
    """The pair-by-pair build ``from_edge_list`` replaced: (adjacency,
    None) for good input, else (None, (error, position of its pair))."""
    adj = [[] for _ in range(n)]
    seen = set()
    at = 0
    try:
        for at, (u, v) in enumerate(pairs):
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
    except ArbolistError as exc:
        return None, (exc, at)
    return tuple(tuple(sorted(nbrs)) for nbrs in adj), None


@st.composite
def planted_pair_lists(draw):
    """Distinct edges in random orientations, with up to four faults
    planted at random positions: duplicates in either orientation, self
    loops, and negative, out-of-range or beyond-int64 ids."""
    n = draw(st.integers(1, 10))
    candidates = list(combinations(range(n), 2))
    edges = (draw(st.lists(st.sampled_from(candidates), unique=True))
             if candidates else [])
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    ids = st.one_of(st.integers(0, n - 1), st.integers(-3, -1),
                    st.integers(n, n + 3),
                    st.sampled_from([2 ** 63, 2 ** 70, -2 ** 63 - 1]))
    for _ in range(draw(st.integers(0, 4))):
        fault = draw(st.sampled_from(("duplicate", "loop", "ids")))
        if fault == "duplicate" and pairs:
            u, v = draw(st.sampled_from(pairs))
            planted = (v, u) if draw(st.booleans()) else (u, v)
        elif fault == "loop":
            x = draw(ids)
            planted = (x, x)
        else:
            planted = (draw(ids), draw(ids))
        pairs.insert(draw(st.integers(0, len(pairs))), planted)
    return n, pairs


@settings(max_examples=300, deadline=None)
@given(planted_pair_lists())
def test_from_edge_list_matches_the_pair_by_pair_build(case):
    n, pairs = case
    adj, failure = _pair_by_pair(pairs, n)
    fits = all(-2 ** 63 <= x < 2 ** 63 for pair in pairs for x in pair)
    array = np.array(pairs, dtype=np.int64 if fits else object)
    for given_pairs in (pairs, iter(pairs), array):
        if failure is None:
            g = from_edge_list(given_pairs, n)
            assert tuple(map(g.neighbors, range(n))) == adj
            continue
        expected, at = failure
        with pytest.raises(ArbolistError) as err:
            from_edge_list(given_pairs, n)
        got = err.value
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        assert got.index == at
        assert ({k: v for k, v in vars(got).items() if k != "index"}
                == {k: v for k, v in vars(expected).items() if k != "index"})


def test_has_edge_rejects_out_of_range():
    g = from_edge_list([(0, 1)], 2)
    with pytest.raises(VertexOutOfRangeError):
        g.has_edge(0, 2)


@pytest.mark.parametrize("v", [-1, 3])
def test_per_vertex_accessors_reject_out_of_range(v):
    """-1 must not wrap around to the last row, nor read past the CSR."""
    g = from_edge_list([(0, 1), (1, 2)], 3)
    for accessor in (g.neighbors, g.degree):
        with pytest.raises(VertexOutOfRangeError) as err:
            accessor(v)
        assert (err.value.v, err.value.n) == (v, 3)


def test_graph_csr_is_read_only():
    g = from_edge_list([(0, 1), (1, 2)], 3)
    assert g.indptr.dtype == g.indices.dtype == np.int64
    with pytest.raises(ValueError):
        g.indptr[1] = 0
    with pytest.raises(ValueError):
        g.indices[0] = 2
    assert g.neighbors(0) == (1,) and g.m == 2


def _assert_fresh_read_only_csr(indptr, indices, *inputs):
    for a in (indptr, indices):
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, x) for x in inputs)


@pytest.mark.parametrize("pairs", [
    np.array([[2, 0], [1, 2], [3, 1]]),
    np.array([[2, 0, 7], [1, 2, 8], [3, 1, 9]])[:, :2],
    np.array([[2, 0], [1, 2], [3, 1]], dtype=np.int32),
    np.array([[2, 0], [1, 2], [3, 1]]).T.copy().T,
], ids=["int64", "column-slice", "int32", "fortran-order"])
def test_from_edge_list_leaves_its_input_alone(pairs):
    before = pairs.copy()
    g = from_edge_list(pairs, 4)
    assert np.array_equal(pairs, before)
    _assert_fresh_read_only_csr(g.indptr, g.indices, pairs)
    assert g.edge_set() == {(0, 2), (1, 2), (1, 3)}


def test_residual_leaves_the_csr_it_reads_alone():
    g = random_gnm(60, 300, 2)
    indptr, indices = g.indptr.copy(), g.indices.copy()
    rest = np.arange(0, 60, 3)
    sub_ptr, sub_idx = core._residual(indptr, indices, rest)
    assert np.array_equal(indptr, g.indptr)
    assert np.array_equal(indices, g.indices)
    _assert_fresh_read_only_csr(sub_ptr, sub_idx, indptr, indices, rest)
    sub, _ = induced_subgraph(g, rest.tolist())
    assert np.array_equal(sub_ptr, sub.indptr)
    assert np.array_equal(sub_idx, sub.indices)


def test_csr_from_keys_turns_its_keys_into_the_indices():
    keys = np.array([0 * 3 + 1, 1 * 3 + 0, 1 * 3 + 2, 2 * 3 + 1])
    indptr, indices = core.csr_from_keys(keys, 3)
    assert indptr.tolist() == [0, 1, 3, 4]
    assert indices.tolist() == [1, 0, 2, 1]
    assert np.shares_memory(indices, keys)


def test_a_comment_after_the_data_takes_the_line_tier(tmp_path):
    """A '#' after the first data row: numpy's reader refuses the file,
    and the line tier reads the same graph, or names the faulty pair's
    line counting the comment lines."""
    p = tmp_path / "g.txt"
    p.write_text("# n=5\n0 1\n# late\n\n1 2\n2 3\n  # trailing\n")
    assert _load(p, 2, ID_LIMIT) == (None, None)
    g = read_edge_list(p)
    assert (g.n, g.edge_set()) == (5, {(0, 1), (1, 2), (2, 3)})
    assert np.array_equal(g.indices, from_edge_list(
        [(0, 1), (1, 2), (2, 3)], 5).indices)
    p.write_text("# n=5\n0 1\n# late\n\n1 2\n2 1\n")
    assert _load(p, 2, ID_LIMIT) == (None, None)
    with pytest.raises(ParseError) as err:
        read_edge_list(p)
    assert (err.value.lineno, str(err.value)) == (
        6, f"{p}:6: duplicate edge (2, 1)")


def _tuple_edges(adj):
    """``Graph.edges`` over tuple-of-tuples adjacency, as it was."""
    for u in range(len(adj)):
        for v in adj[u]:
            if v > u:
                yield (u, v)


def _tuple_ordering(adj):
    """The Matula-Beck loop over tuple-of-tuples adjacency, as it was:
    (order, degeneracy, later)."""
    n = len(adj)
    deg = [len(nbrs) for nbrs in adj]
    buckets = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    position = [-1] * n
    order = []
    later = [[] for _ in range(n)]
    degeneracy = d = 0
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
        for u in adj[v]:
            if position[u] < 0:
                deg[u] -= 1
                buckets[deg[u]].append(u)
            else:
                later[u].append(v)
        d = max(d - 1, 0)
    return tuple(order), degeneracy, later


def _peel_ordering(adj):
    """The ordering rule over tuple-of-tuples adjacency: isolated
    vertices in descending id, then level rounds, each taking every
    remaining vertex of residual degree at most the level in ascending
    id, until one more thin frontier follows 16 thin ones in a row (the
    run ``core._THIN_RUN``, pinned here) or fewer than ``core._THIN``
    vertices remain; the rest in :func:`_tuple_ordering`'s order,
    relabelled in ascending id."""
    deg = [len(nbrs) for nbrs in adj]
    order = [v for v in reversed(range(len(adj))) if not deg[v]]
    alive = {v for v in range(len(adj)) if deg[v]}
    level = run = 0
    frontier = []
    while len(alive) >= core._THIN:
        if not frontier:
            level = min(deg[v] for v in alive)
            frontier = sorted(v for v in alive if deg[v] == level)
        run = run + 1 if len(frontier) < core._THIN else 0
        if run > 16:
            break
        alive.difference_update(frontier)
        order += frontier
        touched = set()
        for v in frontier:
            for u in adj[v]:
                if u in alive:
                    deg[u] -= 1
                    touched.add(u)
        frontier = sorted(u for u in touched if deg[u] <= level)
    rest = sorted(alive)
    new_id = {v: i for i, v in enumerate(rest)}
    tail, _, _ = _tuple_ordering(tuple(
        tuple(new_id[u] for u in adj[v] if u in new_id) for v in rest))
    return tuple(order) + tuple(rest[i] for i in tail)


def _shuffled(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n)
    return from_edge_list(perm[np.array(list(g.edges())).reshape(-1, 2)], g.n)


@pytest.mark.parametrize("make", [
    lambda: polarity_graph(7),
    lambda: c4_block_family(50, 1),
    lambda: random_gnm(300, 1500, 2),
    lambda: complete(6),
    lambda: from_edge_list([], 0),
    lambda: from_edge_list([(0, 5), (5, 9), (0, 9), (2, 3)], 12),
    lambda: from_edge_list([(7, 3), (3, 9), (9, 7), (9, 19998)], 20000),
    lambda: path(10**4),
    lambda: _shuffled(polarity_graph(47), 1),
    lambda: random_gnm(20000, 10**5, 2),
], ids=["polarity-7", "c4-blocks-50", "gnm-300", "k6", "empty", "isolated",
        "mostly-isolated", "path-10000", "polarity-47-shuffled", "gnm-20000"])
def test_csr_graph_orders_and_lists_edges_as_the_tuple_graph(make):
    g = make()
    _assert_core_ordering(g)
    adj = tuple(map(g.neighbors, range(g.n)))
    assert list(g.edges()) == list(_tuple_edges(adj))


def _assert_core_ordering(g):
    """The ordering's contract: a permutation in which no vertex has more
    than degeneracy-many later neighbours, the degeneracy of the
    Matula-Beck reference and of networkx, the orientation built from
    that order, and exactly the order of :func:`_peel_ordering`."""
    nx = pytest.importorskip("networkx")
    adj = tuple(map(g.neighbors, range(g.n)))
    _, ref_degeneracy, _ = _tuple_ordering(adj)
    res = degeneracy_ordering(g)
    assert res.array.dtype == np.int64 and tuple(res.array) == res.order
    assert sorted(res.order) == list(range(g.n))
    position = [0] * g.n
    for i, v in enumerate(res.order):
        position[v] = i
    later = [sorted((u for u in adj[v] if position[u] > position[v]),
                    key=position.__getitem__) for v in range(g.n)]
    assert max(map(len, later), default=0) == res.degeneracy
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    assert (res.degeneracy == ref_degeneracy
            == max(nx.core_number(ng).values(), default=0))
    assert out_lists(orient(g)) == later
    assert res.order == _peel_ordering(adj)


def test_a_path_hands_over_after_a_run_of_thin_rounds():
    # Each round takes the two ends of what is left of the path.
    n, run = 10**4, 16
    order = degeneracy_ordering(path(n)).order
    assert order[:2 * run] == sum(((i, n - 1 - i) for i in range(run)), ())
    middle = path(n - 2 * run)
    tail, _, _ = _tuple_ordering(tuple(map(middle.neighbors, range(middle.n))))
    assert order[2 * run:] == tuple(run + v for v in tail)


def test_fewer_than_thin_vertices_get_the_matula_beck_order():
    # 60 non-isolated vertices: one clique of 12 and 16 triangles, under
    # shuffled ids, with isolated vertices around them.
    edges = list(combinations(range(12), 2))
    edges += [(a + i, a + j) for a in range(12, 60, 3)
              for i, j in ((0, 1), (1, 2), (0, 2))]
    g = _shuffled(from_edge_list(edges, 90), 3)
    assert sum(d > 0 for d in np.diff(g.indptr)) < core._THIN
    adj = tuple(map(g.neighbors, range(g.n)))
    assert degeneracy_ordering(g).order == _tuple_ordering(adj)[0]


@st.composite
def threshold_graphs(draw):
    """Disjoint unions of equal paths (each vertex with a pendant leaf,
    if drawn), a star, a clique and isolated vertices under shuffled
    ids, sized so the peel's frontiers fall on both sides of the
    Matula-Beck threshold, n=0 included."""
    size = st.integers(min_value=0, max_value=2 * core._THIN)
    paths, length = draw(size), draw(st.integers(min_value=1, max_value=6))
    hairy, leaves, isolated = draw(st.booleans()), draw(size), draw(size)
    clique = draw(st.integers(min_value=0, max_value=12))
    edges, n = [], 0
    for _ in range(paths):
        edges += [(n + i, n + i + 1) for i in range(length)]
        if hairy:
            edges += [(n + i, n + length + 1 + i) for i in range(length + 1)]
        n += (length + 1) * (1 + hairy)
    if leaves:
        edges += [(n, n + i) for i in range(1, leaves + 1)]
        n += leaves + 1
    edges += [(n + i, n + j) for i, j in combinations(range(clique), 2)]
    n += clique + isolated
    ids = list(range(n))
    draw(st.randoms(use_true_random=False)).shuffle(ids)
    return from_edge_list([(ids[u], ids[v]) for u, v in edges], n)


@settings(max_examples=60, deadline=None)
@given(threshold_graphs())
def test_core_ordering_across_the_matula_beck_threshold(g):
    _assert_core_ordering(g)


@given(runs=st.lists(st.tuples(st.one_of(st.integers(0, 50),
                                         st.integers(2**32 - 3, 2**40)),
                               st.integers(0, 6)), max_size=12))
def test_ranges_concatenates_the_runs(runs):
    starts = np.array([s for s, _ in runs], np.int64)
    lengths = np.array([n for _, n in runs], np.int64)
    got = core._ranges(starts, lengths)
    assert got.dtype == np.int64
    assert got.tolist() == [s + i for s, n in runs for i in range(n)]


def test_ranges_of_no_runs_or_only_empty_runs_is_empty():
    for lengths in ([], [0, 0, 0]):
        starts = np.arange(len(lengths), dtype=np.int64) + 2**33
        got = core._ranges(starts, np.array(lengths, np.int64))
        assert got.dtype == np.int64 and got.shape == (0,)


def test_degeneracy_known_values():
    assert degeneracy_ordering(path(10)).degeneracy == 1
    assert degeneracy_ordering(cycle(10)).degeneracy == 2
    assert degeneracy_ordering(star(50)).degeneracy == 1
    for n in (3, 5, 8):
        assert degeneracy_ordering(complete(n)).degeneracy == n - 1


def test_degeneracy_ordering_is_permutation_with_positions():
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], 5)
    res = degeneracy_ordering(g)
    assert sorted(res.order) == list(range(5))
    position = [0] * 5
    for i, v in enumerate(res.order):
        position[v] = i
    assert all(position[res.order[i]] == i for i in range(5))


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_degeneracy_is_max_residual_min_degree(g):
    """Replaying the elimination must never see a residual degree above it."""
    res = degeneracy_ordering(g)
    alive = set(range(g.n))
    worst = 0
    for v in res.order:
        resid = sum(1 for u in g.neighbors(v) if u in alive)
        worst = max(worst, resid)
        alive.remove(v)
    assert worst == res.degeneracy


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_degeneracy_greedy_picks_minimum(g):
    # Only the Matula-Beck loop places a vertex of minimum residual
    # degree every time, and it orders every graph under _THIN vertices.
    assert g.n < core._THIN
    res = degeneracy_ordering(g)
    alive = set(range(g.n))
    for v in res.order:
        deg_v = sum(1 for u in g.neighbors(v) if u in alive)
        best = min(sum(1 for w in g.neighbors(u) if w in alive)
                   for u in alive)
        assert deg_v == best
        alive.remove(v)


def test_arboricity_bounds_examples():
    tree = path(10)
    b = arboricity_bounds(tree)
    assert (b.lower, b.upper) == (1, 1)
    for n in (4, 6, 9):
        b = arboricity_bounds(complete(n))
        assert (b.lower, b.upper) == ((n + 1) // 2, n - 1)


def test_arboricity_bounds_tiny_graph_rejected():
    with pytest.raises(ValueError):
        arboricity_bounds(from_edge_list([], 1))


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_arboricity_lower_never_exceeds_upper(g):
    if g.n < 2:
        return
    b = arboricity_bounds(g)
    assert 0 <= b.lower <= b.upper


def test_induced_subgraph_c5_example():
    g = cycle(5)
    sub, ids = induced_subgraph(g, [0, 1, 3])
    assert ids == (0, 1, 3)
    assert sub.n == 3 and sub.m == 1
    assert sub.has_edge(0, 1)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False),
       st.sampled_from(["unlabelled", "labelled", "partly labelled"]))
def test_induced_subgraph_preserves_adjacency(g, rnd, labelling):
    if labelling != "unlabelled":
        labels = {v: rnd.randrange(3) for v in range(g.n)
                  if labelling == "labelled" or rnd.random() < 0.5}
        g = from_edge_list(g.edges(), g.n, labels)
    verts = rnd.sample(range(g.n), rnd.randint(0, g.n))
    sub, ids = induced_subgraph(g, verts)
    assert ids == tuple(sorted(verts))
    assert sub.n == len(verts)
    for i, j in combinations(range(sub.n), 2):
        assert sub.has_edge(i, j) == g.has_edge(ids[i], ids[j])
    # The CSR is the one built from the kept pairs: rows sorted ascending.
    new = {old: i for i, old in enumerate(ids)}
    want = from_edge_list([(new[u], new[v]) for u, v in g.edges()
                           if u in new and v in new], sub.n)
    assert np.array_equal(sub.indptr, want.indptr)
    assert np.array_equal(sub.indices, want.indices)
    if g.part_label is None:
        assert sub.part_label is None
    else:
        assert sub.part_label == {new[v]: label for v, label
                                  in g.part_label.items() if v in new}


def test_validate_kpartite():
    g = from_edge_list([(0, 1), (1, 2)], 3, {0: 0, 1: 1, 2: 0})
    assert validate_kpartite(g, 2)
    assert not validate_kpartite(g, 1)

    bad = from_edge_list([(0, 1)], 2, {0: 0, 1: 0})
    assert not validate_kpartite(bad, 2)

    unlabeled = from_edge_list([(0, 1)], 2)
    with pytest.raises(MissingLabelsError, match="graph has no part labels"):
        validate_kpartite(unlabeled, 2)

    partial = from_edge_list([(0, 1)], 3, {0: 0, 2: 1})
    with pytest.raises(MissingLabelsError, match="vertex 1 has no part label"):
        validate_kpartite(partial, 2)

    huge = from_edge_list([(0, 1)], 2, {0: 0, 1: 2 ** 64 + 1})
    assert not validate_kpartite(huge, 2)
