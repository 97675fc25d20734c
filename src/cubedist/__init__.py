"""Exact distance-matrix invariants of finite subsets of the Hamming cube.

Only `negtype`'s floating-point scans use numpy, and they import it when
they first build a float matrix: `import cubedist` does not load it.
"""

from .cube import (
    PointSet,
    affinely_independent,
    normalize,
    parse_point_set,
    parse_point_set_file,
)
from .errors import (
    BudgetExceededError,
    CapExceededError,
    CubedistError,
    DegenerateMetricError,
    DependenceError,
    DimensionError,
    DomainError,
    IndependenceError,
    InvariantError,
    InvalidTreeError,
    NotNegativeTypeError,
    ParseError,
    SingularMatrixError,
)
from .identities import (
    DetReport,
    bordered_distance_det,
    det_distance_matrix,
    det_via_bordered_gram,
    det_via_gram_quad,
    dinv_ones,
    full_report,
    gram_quad,
    kernel_witness,
)
from .negtype import (
    MuruganClassification,
    NegTypeReport,
    dp_matrix,
    is_p_negative_type,
    murugan_classify,
    sanchez_wp,
    strict_p_negative_type,
    transform_scaling_check,
)
from .ratlinalg import RationalMatrix
from .search import (
    SearchResult,
    Violation,
    min_dinv_ones,
    random_probe,
)
from .trees import (
    UnweightedTree,
    embed_tree,
    enumerate_labeled_trees,
    graham_lovasz_inverse,
    graham_pollak_det,
    parse_tree,
    parse_tree_file,
    prufer_to_tree,
    tree_dinv_ones,
)

__version__ = "0.1.0"
