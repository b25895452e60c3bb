"""Algebraic connectivity, Fiedler vectors, and Dirichlet eigenvalues of
weighted trees, with exhaustive extremal search over degree sequences."""

from .trees import (
    BoundaryWeightError,
    EdgeListParseError,
    NotATreeError,
    RootedBoundaryTree,
    Tree,
    branches_at,
    build_caterpillar,
    degree_sequence,
    format_edge_list,
    is_caterpillar,
    parse_edge_list,
    path_tree,
    read_edge_list,
    star_tree,
    trunk,
    validate_tree_sequence,
    with_boundary_weight,
)
from .enumeration import (
    canonical_code,
    canonical_tree_codes,
    enumerate_rooted_trees,
    enumerate_trees,
    prufer_decode,
    rooted_canonical_key,
    rooted_code,
    skeleton_word_count,
    tree_from_code,
)
from .spectral import (
    ConvergenceError,
    EigenPair,
    algebraic_connectivity,
    dirichlet_nu,
    eig_smallest,
    laplacian,
)
from .nodal import (
    AmbiguousCharacteristicSet,
    CharacteristicSet,
    DisconnectedNodalDomainError,
    FiedlerAnalysis,
    GeometricSplit,
    analysis_to_json,
    analyze,
    characteristic_set,
    check_monotone_paths,
    geometric_split,
    nodal_domains,
    verify_split,
)
from .perturb import (
    PerturbationRecord,
    glue,
    is_minimal_shape_rooted,
    is_theorem1_shape,
    perturb_p1,
    perturb_p2,
    rearrange_branches,
)
from .search import (
    EnumerationCapExceeded,
    PartitionRow,
    SearchReport,
    all_tree_sequences,
    explore_partitions,
    min_alpha_caterpillar,
    min_alpha_tree,
    min_nu_rooted,
    partition_rows_to_csv,
    spine_arrangements,
    verify_suite,
)

__version__ = "0.1.0"
