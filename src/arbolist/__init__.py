"""Sparsity-parameterized subgraph listing with matched hard instances.

Fast listers for triangles, 4-cycles, and k-cliques whose work scales
with the graph's degeneracy, brute-force oracles to check them against,
generators for the graph families that make such listers sweat, and an
exact zero-weight clique solver built on modular hashing and bucketing.
"""

from .core import (
    ArboricityBounds,
    Graph,
    OrderingResult,
    arboricity_bounds,
    degeneracy_ordering,
    from_edge_list,
    induced_subgraph,
    validate_kpartite,
)
from .errors import (
    ArbolistError,
    BadEpsilonError,
    BadModulusError,
    BadSError,
    BadSigmaError,
    DuplicateEdgeError,
    KTooSmallError,
    MissingLabelsError,
    NotPrimeError,
    NotTripartiteError,
    ParseError,
    SelfLoopError,
    TooLargeError,
    TooManyEdgesError,
    VertexOutOfRangeError,
)
from .generators import (
    PolaritySpec,
    ReductionInstance,
    apply_part_labels,
    color_code,
    pad_with_c4free,
    polarity_graph,
    polarity_spec,
    random_gnm,
    random_kpartite,
    random_weighted_kpartite,
    sparse_triangle_instance,
    triangle_to_4cycle_transform,
)
from .listing import (
    CliqueRecord,
    Collector,
    EnumerationStats,
    FourCycleRecord,
    Orientation,
    TriangleRecord,
    all_edge_sparse_triangle,
    clique_record,
    count_4cycles,
    count_kcliques,
    count_triangles,
    four_cycle_record,
    list_4cycles,
    list_kcliques,
    list_triangles,
    orient,
    triangle_record,
)
from .oracle import (
    brute_4cycles,
    brute_kcliques,
    brute_triangles,
    brute_zero_kclique,
)
from .zeroclique import (
    HashParams,
    IntervalPartition,
    SolveReport,
    WeightedKPartiteGraph,
    admissible_tuples,
    apply_hash_weights,
    choose_s,
    extract_bucket,
    hash_weights,
    index_edges,
    partition_intervals,
    sample_hash_params,
    solve_zero_kclique,
)

__version__ = "0.1.0"

__all__ = [
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
    "WeightedKPartiteGraph", "admissible_tuples", "apply_hash_weights",
    "choose_s", "extract_bucket", "hash_weights", "index_edges",
    "partition_intervals", "sample_hash_params", "solve_zero_kclique",
]
