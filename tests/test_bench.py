import random

import pytest

from arbolist import count_4cycles, from_edge_list, polarity_graph
from arbolist.bench import (
    _C4_CORE_Q,
    CSV_HEADER,
    BenchRecord,
    c4_block_family,
    read_csv,
    run_suite,
    suite_c4_delay,
    suite_clique_scaling,
    suite_triangle_scaling,
    suite_zeroclique,
    write_csv,
)

from .conftest import assert_same_graph


def _row(gen="gnm n=5 m=4 seed=0", steps=7):
    return BenchRecord(gen=gen, n=5, m=4, alpha_proxy=2, algo="triangle",
                       pre_s=0.5, emit_s=0.25, count=3, steps=steps)


def test_header_text_is_pinned():
    assert CSV_HEADER == "gen,n,m,alpha_proxy,algo,pre_s,emit_s,count,steps"


def test_record_rejects_commas_in_gen():
    with pytest.raises(ValueError):
        _row(gen="gnm, n=5")


def test_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    rows = [_row(), _row(steps=9)]
    write_csv(path, rows)
    assert path.read_text().splitlines()[0] == CSV_HEADER
    back = read_csv(path)
    assert back == rows


def test_csv_append_has_single_header(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, [_row()])
    write_csv(path, [_row(steps=11)])
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert sum(1 for ln in lines if ln == CSV_HEADER) == 1
    assert len(read_csv(path)) == 2


def test_c4_block_family_counts():
    for t in (0, 1, 5, 40):
        g = c4_block_family(t, seed=3)
        assert count_4cycles(g) == t


def _c4_blocks_per_edge(t, seed):
    core = polarity_graph(_C4_CORE_Q)
    n = core.n + 4 * t
    ids = list(range(core.n, n))
    random.Random(seed).shuffle(ids)
    edges = list(core.edges())
    for b in range(t):
        a0, a1, b0, b1 = ids[4 * b:4 * b + 4]
        edges.extend(((a0, b0), (a0, b1), (a1, b0), (a1, b1)))
    return from_edge_list(edges, n)


@pytest.mark.parametrize("t", [0, 1, 300])
@pytest.mark.parametrize("seed", [0, 1, 7, 12])
def test_c4_block_family_matches_per_edge_blocks(t, seed):
    assert_same_graph(c4_block_family(t, seed), _c4_blocks_per_edge(t, seed))


def test_c4_block_family_sizes():
    core = c4_block_family(0, seed=0)
    g = c4_block_family(10, seed=0)
    assert g.n == core.n + 40
    assert g.m == core.m + 40


def test_suites_small_smoke():
    rows = suite_triangle_scaling(qs=(3, 5))
    assert len(rows) == 2
    assert all(r.algo == "triangle" for r in rows)
    assert all(r.steps > 0 for r in rows)

    rows = suite_c4_delay(ts=(5, 25), seed=1)
    assert [r.count for r in rows] == [5, 25]

    rows = suite_zeroclique(n_part=8, instances=1, min_buckets=1)
    assert all(r.n == 24 for r in rows)
    assert all("," not in r.gen for r in rows)


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


@pytest.mark.parametrize("name, suite", [
    ("triangle-scaling", lambda: suite_triangle_scaling(qs=(3, 5, 7))),
    ("c4-delay", lambda: suite_c4_delay(ts=(10, 100), seed=7)),
    ("clique-scaling", lambda: suite_clique_scaling(ns=(30, 60), avg_deg=6)),
    ("zeroclique",
     lambda: suite_zeroclique(n_part=8, instances=2, min_buckets=1)),
])
def test_run_suite_small_is_the_suite_on_its_small_arguments(name, suite):
    def untimed(rows):
        return [(r.gen, r.n, r.m, r.alpha_proxy, r.algo, r.count, r.steps)
                for r in rows]
    assert untimed(run_suite(name, small=True)) == untimed(suite())
