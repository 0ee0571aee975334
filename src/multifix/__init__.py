"""Multiple fixed points of operators on partially ordered distance spaces:
product distances, twisted orders, contraction/Meir-Keeler condition
checkers, monotone Picard iteration, and a brute-force uniqueness oracle."""

from .conditions import (
    ConditionReport,
    MeirKeelerModulus,
    check_bounds_exist,
    check_lattice,
    check_order_distance_compat,
    sample_comparable_pairs,
)
from .errors import (
    CapacityError,
    CarrierError,
    EvaluationError,
    MultifixError,
    ParseError,
    UnsupportedInstanceError,
)
from .game import GameConfig, Play
from .kernel import Instance
from .operators import (
    ElementwiseOperator,
    FixedPointCertificate,
    LambdaFamily,
    MultiOperator,
    apply_lambda_f,
    coupled_preset,
    is_multiple_fixed_point,
    surjectivity_report,
    tripled_preset,
)
from .orders import LSet, OrderRelation, chain_order
from .product import ProductKind, sum_distance
from .solver import (
    SolveConfig,
    SolveReport,
    UniquenessReport,
    enumerate_fixed_points,
    find_monotone_start,
    picard_solve,
    verify_uniqueness,
)
from .spaces import Box, DistanceClass, DistanceSpace, classify_finite

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CapacityError",
    "CarrierError",
    "ConditionReport",
    "DistanceClass",
    "DistanceSpace",
    "ElementwiseOperator",
    "EvaluationError",
    "FixedPointCertificate",
    "GameConfig",
    "Instance",
    "LSet",
    "LambdaFamily",
    "MeirKeelerModulus",
    "MultiOperator",
    "MultifixError",
    "OrderRelation",
    "ParseError",
    "Play",
    "ProductKind",
    "SolveConfig",
    "SolveReport",
    "UniquenessReport",
    "UnsupportedInstanceError",
    "apply_lambda_f",
    "chain_order",
    "check_bounds_exist",
    "check_lattice",
    "check_order_distance_compat",
    "classify_finite",
    "coupled_preset",
    "enumerate_fixed_points",
    "find_monotone_start",
    "is_multiple_fixed_point",
    "picard_solve",
    "sample_comparable_pairs",
    "sum_distance",
    "surjectivity_report",
    "tripled_preset",
    "verify_uniqueness",
]
