import importlib.util
from pathlib import Path

import pytest

from arbolist import (degeneracy_ordering, list_4cycles, list_kcliques,
                      list_triangles, random_kpartite,
                      random_weighted_kpartite)

TOOL = Path(__file__).resolve().parent.parent / "tools" / "order_sweep.py"


@pytest.fixture(scope="module")
def mod():
    spec = importlib.util.spec_from_file_location("order_sweep", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_measure_reports_the_ordering_and_each_lister(mod):
    g = mod.shuffled_polarity(7, 1)
    r = mod.measure(g, repeats=2)
    assert (r["n"], r["m"]) == (57, 224)
    assert r["degeneracy"] == degeneracy_ordering(g).degeneracy == 7
    for name, lister in (("triangles", list_triangles),
                         ("c4", list_4cycles),
                         ("4cliques", lambda g, sink, **kw:
                          list_kcliques(g, 4, sink, **kw))):
        assert r[f"{name}_steps"] == lister(g, lambda batch: None,
                                            batches=True).steps
        assert r[f"{name}_ms"] > 0
    assert r["order_ms"] > 0
    assert r["read_ms"] > 0
    # The read's peak holds at least the CSR it returns.
    csr_mb = (g.indptr.nbytes + g.indices.nbytes) / 2**20
    assert r["read_peak_mb"] >= csr_mb


def test_measure_generation_times_both_generators_and_the_read(mod):
    r = mod.measure_generation((3, 8, 0.3, 0), (3, 6, 0.5, 100, 1),
                               repeats=1)
    assert r["kpartite_m"] == random_kpartite(3, 8, 0.3, 0).m
    wg = random_weighted_kpartite(3, 6, 0.5, 100, 1)
    assert r["weighted_m"] == wg.base.m
    for name in ("kpartite_ms", "weighted_ms", "read_weighted_ms"):
        assert r[name] > 0
