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


# suite_zeroclique's rows at its --small arguments, every field but
# pre_s and emit_s: per row the seed, key, m, alpha_proxy, count and
# steps (n is 24 and algo "clique k=3" on every row).
_ZC_SMALL_ROWS = """
    0 0|0|0 24 2 0 37   0 0|0|1 21 2 1 32   0 0|0|2 21 2 1 31   0 0|0|3 17 2 1 22
    0 0|1|0 22 2 0 39   0 0|1|1 19 2 1 34   0 0|1|2 19 2 0 28   0 0|2|0 26 2 0 42
    0 0|2|1 23 2 2 40   0 0|2|3 19 2 0 23   0 0|3|0 25 2 3 41   0 0|3|2 22 2 1 34
    0 0|3|3 18 2 0 22   0 1|0|0 25 2 0 37   0 1|0|1 22 2 0 32   0 1|0|2 22 2 1 30
    0 1|1|0 23 2 1 38   0 1|1|1 20 2 0 29   0 1|1|3 16 2 0 17   0 1|2|0 27 2 0 43
    0 1|2|2 24 2 2 36   0 1|2|3 20 2 0 27   0 1|3|1 23 2 1 32   0 1|3|2 23 2 1 35
    0 1|3|3 19 2 0 22   0 2|0|0 27 2 1 38   0 2|0|1 24 2 2 35   0 2|0|3 20 2 0 29
    0 2|1|0 25 2 2 38   0 2|1|2 22 2 0 28   0 2|1|3 18 1 0 19   0 2|2|1 26 2 1 38
    0 2|2|2 26 2 0 33   0 2|2|3 22 2 2 27   0 2|3|0 28 2 2 45   0 2|3|1 25 2 1 37
    0 2|3|2 25 2 1 36   0 3|0|0 25 2 0 32   0 3|0|2 22 2 0 27   0 3|0|3 18 2 1 22
    0 3|1|1 20 2 0 26   0 3|1|2 20 2 0 28   0 3|1|3 16 2 0 18   0 3|2|0 27 2 2 44
    0 3|2|1 24 2 0 36   0 3|2|2 24 2 0 33   0 3|3|0 26 2 1 39   0 3|3|1 23 2 1 28
    1 0|0|0 16 2 1 20   1 0|0|1 25 2 1 33   1 0|0|2 24 2 0 35   1 0|0|3 25 2 1 38
    1 0|1|0 20 2 0 30   1 0|1|1 29 2 4 49   1 0|1|2 28 2 3 50   1 0|2|0 16 1 0 18
    1 0|2|1 25 2 0 36   1 0|2|3 25 2 0 40   1 0|3|0 19 2 0 24   1 0|3|2 27 2 2 46
    1 0|3|3 28 2 0 49   1 1|0|0 19 2 0 26   1 1|0|1 28 2 0 43   1 1|0|2 27 2 1 38
    1 1|1|0 23 2 0 37   1 1|1|1 32 2 3 65   1 1|1|3 32 2 3 69   1 1|2|0 19 1 0 24
    1 1|2|2 27 2 1 42   1 1|2|3 28 2 2 50   1 1|3|1 31 2 0 54   1 1|3|2 30 2 2 52
    1 1|3|3 31 2 2 59   1 2|0|0 13 1 0 16   1 2|0|1 22 2 0 30   1 2|0|3 22 2 1 32
    1 2|1|0 17 2 0 26   1 2|1|2 25 2 1 42   1 2|1|3 26 2 1 42   1 2|2|1 22 1 0 30
    1 2|2|2 21 2 0 29   1 2|2|3 22 2 1 30   1 2|3|0 16 2 0 18   1 2|3|1 25 2 1 35
    1 2|3|2 24 2 1 37   1 3|0|0 14 1 0 19   1 3|0|2 22 2 1 36   1 3|0|3 23 2 0 35
    1 3|1|1 27 2 0 42   1 3|1|2 26 2 0 45   1 3|1|3 27 2 0 43   1 3|2|0 14 1 0 15
    1 3|2|1 23 2 1 32   1 3|2|2 22 2 3 36   1 3|3|0 17 2 0 20   1 3|3|1 26 2 1 33
"""


def test_zeroclique_small_rows_are_pinned():
    want = [(f"zc-bucket n_part=8 s=4 seed={seed} key={key}", 24, int(m),
             int(alpha), "clique k=3", int(count), int(steps))
            for seed, key, m, alpha, count, steps
            in zip(*[iter(_ZC_SMALL_ROWS.split())] * 6)]
    got = [(r.gen, r.n, r.m, r.alpha_proxy, r.algo, r.count, r.steps)
           for r in run_suite("zeroclique", small=True)]
    assert len(want) == 96 and got == want


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
