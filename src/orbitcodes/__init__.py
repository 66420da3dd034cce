"""Irreducible cyclic orbit codes in the finite Grassmannian.

Construct constant dimension codes as orbits of cyclic matrix groups over
F_q, build spreads from subfield starting points, and predict cardinality
and minimum subspace distance analytically from exponent difference
multisets, with a brute-force oracle to verify every prediction.
"""

from .errors import DomainError, ParseError
from .gfq import DESK_SCALE_CAP, FieldElement, FieldSpec, field_make
from .polyring import (Poly, companion_matrix, format_poly, is_irreducible,
                       is_primitive, list_irreducibles, order_of_polynomial,
                       parse_poly, poly_gcd, poly_powmod)
from .matspace import (Mat, Subspace, char_poly, format_matrix,
                       gaussian_binomial, grassmannian, groups_conjugate,
                       intersection_dim, is_irreducible_matrix, matrix_order,
                       parse_matrix, parse_matrix_blocks, random_invertible,
                       row_times_mat, subspace_apply, subspace_distance,
                       to_companion_similarity, vector_from_index)
from .fieldmap import ExponentProfile, ExtensionContext, OrbitPartition
from .orbitcode import (AnalysisReport, DifferenceMultiset, OrbitCode,
                        analyze, analyze_nonprimitive, build_spread_start,
                        check_sidon_condition, conjugate_code,
                        find_sidon_subspace, format_code, generate_orbit,
                        min_distance_brute, min_distance_orbit, parse_code,
                        predict_primitive, verify_report)

__version__ = "0.1.0"

__all__ = [
    "DESK_SCALE_CAP", "DomainError", "ParseError",
    "FieldSpec", "FieldElement", "field_make",
    "Poly", "parse_poly", "format_poly", "poly_gcd", "poly_powmod",
    "is_irreducible", "order_of_polynomial", "is_primitive",
    "companion_matrix", "list_irreducibles",
    "Mat", "Subspace", "subspace_distance",
    "intersection_dim", "subspace_apply", "matrix_order", "char_poly",
    "is_irreducible_matrix", "to_companion_similarity", "groups_conjugate",
    "grassmannian", "gaussian_binomial", "random_invertible",
    "row_times_mat", "vector_from_index", "format_matrix", "parse_matrix",
    "parse_matrix_blocks",
    "ExtensionContext", "ExponentProfile", "OrbitPartition",
    "OrbitCode", "generate_orbit", "min_distance_brute", "min_distance_orbit",
    "build_spread_start", "check_sidon_condition", "find_sidon_subspace",
    "DifferenceMultiset", "AnalysisReport", "predict_primitive",
    "analyze_nonprimitive", "analyze", "verify_report", "conjugate_code",
    "format_code", "parse_code",
]
