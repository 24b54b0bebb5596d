import importlib.util
from pathlib import Path

from arbolist import (degeneracy_ordering, list_4cycles, list_kcliques,
                      list_triangles)

TOOL = Path(__file__).resolve().parent.parent / "tools" / "order_sweep.py"


def test_measure_reports_the_ordering_and_each_lister():
    spec = importlib.util.spec_from_file_location("order_sweep", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
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
