"""Sparsity-parameterized subgraph listing with matched hard instances.

Fast listers for triangles, 4-cycles, and k-cliques whose work scales
with the graph's degeneracy, brute-force oracles to check them against,
generators for the graph families that make such listers sweat, and an
exact zero-weight clique solver built on modular hashing and bucketing.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module, in import order, next to the public names it defines.
_EXPORTS = {
    "core": """ArboricityBounds Graph OrderingResult arboricity_bounds
        degeneracy_ordering from_edge_list induced_subgraph
        validate_kpartite""",
    "errors": """ArbolistError BadEpsilonError BadModulusError BadSError
        BadSigmaError DuplicateEdgeError KTooSmallError MissingLabelsError
        NotPrimeError NotTripartiteError ParseError SelfLoopError
        TooLargeError TooManyEdgesError VertexOutOfRangeError""",
    "generators": """PolaritySpec ReductionInstance apply_part_labels
        color_code pad_with_c4free polarity_graph polarity_spec random_gnm
        random_kpartite random_weighted_kpartite sparse_triangle_instance
        triangle_to_4cycle_transform""",
    "listing": """CliqueRecord Collector EnumerationStats FourCycleRecord
        Orientation TriangleRecord all_edge_sparse_triangle clique_record
        count_4cycles count_kcliques count_triangles four_cycle_record
        list_4cycles list_kcliques list_triangles orient triangle_record""",
    "oracle": """brute_4cycles brute_kcliques brute_triangles
        brute_zero_kclique""",
    "zeroclique": """HashParams IntervalPartition SolveReport
        WeightedKPartiteGraph admissible_keys admissible_tuples arc_table
        choose_s extract_bucket hash_edges partition_intervals
        sample_hash_params solve_zero_kclique""",
}

__all__ = []
for _module, _names in _EXPORTS.items():
    _loaded = import_module("." + _module, __name__)
    for _name in _names.split():
        globals()[_name] = getattr(_loaded, _name)
        __all__.append(_name)
del import_module, _module, _names, _loaded, _name
