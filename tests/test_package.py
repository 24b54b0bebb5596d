"""The package's public surface: the names ``arbolist`` exports and where
each one comes from."""

from importlib import import_module

import arbolist

from .test_cli import _python

PUBLIC = [
    "ArboricityBounds", "Graph", "OrderingResult", "arboricity_bounds",
    "degeneracy_ordering", "from_edge_list", "induced_subgraph",
    "validate_kpartite",
    "ArbolistError", "BadEpsilonError", "BadModulusError", "BadSError",
    "BadSigmaError", "DuplicateEdgeError", "KTooSmallError",
    "MissingLabelsError", "NotPrimeError", "NotTripartiteError",
    "ParseError", "SelfLoopError", "TooLargeError", "TooManyEdgesError",
    "VertexOutOfRangeError",
    "PolaritySpec", "ReductionInstance", "apply_part_labels", "color_code",
    "pad_with_c4free", "polarity_graph", "polarity_spec", "random_gnm",
    "random_kpartite", "random_weighted_kpartite",
    "sparse_triangle_instance", "triangle_to_4cycle_transform",
    "CliqueRecord", "Collector", "EnumerationStats", "FourCycleRecord",
    "Orientation", "TriangleRecord", "all_edge_sparse_triangle",
    "clique_record", "count_4cycles", "count_kcliques", "count_triangles",
    "four_cycle_record", "list_4cycles", "list_kcliques", "list_triangles",
    "orient", "triangle_record",
    "brute_4cycles", "brute_kcliques", "brute_triangles",
    "brute_zero_kclique",
    "HashParams", "IntervalPartition", "SolveReport",
    "WeightedKPartiteGraph", "admissible_keys", "admissible_tuples",
    "arc_table", "choose_s", "extract_bucket", "hash_edges",
    "partition_intervals", "sample_hash_params", "solve_zero_kclique",
]


def test_all_lists_the_public_names_once():
    assert len(PUBLIC) == 69
    assert arbolist.__all__ == PUBLIC
    assert len(set(arbolist.__all__)) == len(arbolist.__all__)


def test_each_name_is_the_object_its_module_defines():
    for module, names in arbolist._EXPORTS.items():
        loaded = import_module(f"arbolist.{module}")
        for name in names.split():
            obj = getattr(arbolist, name)
            assert obj is getattr(loaded, name), name
            if getattr(obj, "__module__", "builtins") != "builtins":
                assert obj.__module__ == loaded.__name__, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from arbolist import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)


def test_import_loads_the_same_submodules():
    """The package imports its modules eagerly; a command's start-up
    cost depends on exactly this set."""
    code = ("import sys, arbolist; print(' '.join(sorted("
            "m for m in sys.modules if m.startswith('arbolist.'))))")
    loaded = _python("-c", code).stdout.decode().split()
    assert loaded == ["arbolist." + m for m in ("core", "errors", "generators",
                                                "listing", "oracle", "primes",
                                                "zeroclique")]


def test_version():
    assert arbolist.__version__ == "0.1.0"
