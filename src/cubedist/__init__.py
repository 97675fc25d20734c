"""Exact distance-matrix invariants of finite subsets of the Hamming cube.

`negtype` imports numpy, so it and the names it exports load on first
access (PEP 562): `import cubedist` alone does not load numpy.
"""

import importlib

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

_NEGTYPE_NAMES = frozenset({
    "MuruganClassification",
    "NegTypeReport",
    "dp_matrix",
    "is_p_negative_type",
    "murugan_classify",
    "sanchez_wp",
    "strict_p_negative_type",
    "transform_scaling_check",
})


def __getattr__(name):
    if name != "negtype" and name not in _NEGTYPE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not `from . import negtype`: that looks the name up on
    # this package first and so calls back into __getattr__ without end
    negtype = importlib.import_module(".negtype", __name__)
    return negtype if name == "negtype" else getattr(negtype, name)
