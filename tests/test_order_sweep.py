import importlib.util
from pathlib import Path

from arbolist import degeneracy_ordering, list_triangles

TOOL = Path(__file__).resolve().parent.parent / "tools" / "order_sweep.py"


def test_measure_reports_the_ordering_and_the_triangle_listing():
    spec = importlib.util.spec_from_file_location("order_sweep", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    g = mod.shuffled_polarity(7, 1)
    r = mod.measure(g, repeats=2)
    assert (r["n"], r["m"]) == (57, 224)
    assert r["degeneracy"] == degeneracy_ordering(g).degeneracy == 7
    assert r["steps"] == list_triangles(g, lambda batch: None,
                                        batches=True).steps
    assert min(r["order_ms"], r["pre_ms"], r["emit_ms"]) > 0
