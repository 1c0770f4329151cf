"""Twisted Reed-Solomon codes over finite fields: exact construction,
duality, and Hermitian self-dual MDS/NMDS families."""

from .codes import DEFAULT_DISTANCE_CAP, CodeError, DistanceCapExceeded, LinearCode
from .field import (FieldError, GaloisField, InvariantError, poly_eval,
                    quadratic_extension)
from .gtrs import (GTRSError, GTRSParams, TwistSpec, alpha_sum, code,
                   dual_params, generator_matrix, is_mds_plus,
                   plus_dual_euclidean, plus_gtrs, u_vector)
from .linalg import (LinalgError, Matrix, frobenius_image,
                     is_multiplicative_subgroup)
from .selfdual import (ConstructionError, ConstructionResult,
                       check_self_dual_criterion, classify_eta,
                       construct_class1, construct_class2,
                       sweep_constructions, zeta_roots)

__version__ = "0.1.0"

__all__ = [
    "CodeError", "ConstructionError", "ConstructionResult",
    "DEFAULT_DISTANCE_CAP", "DistanceCapExceeded", "FieldError", "GTRSError",
    "GTRSParams", "GaloisField", "InvariantError", "LinalgError",
    "LinearCode", "Matrix", "TwistSpec", "alpha_sum",
    "check_self_dual_criterion", "classify_eta", "code", "construct_class1",
    "construct_class2", "dual_params", "frobenius_image", "generator_matrix",
    "is_mds_plus", "is_multiplicative_subgroup", "plus_dual_euclidean",
    "plus_gtrs", "poly_eval", "quadratic_extension", "sweep_constructions",
    "u_vector", "zeta_roots",
]
