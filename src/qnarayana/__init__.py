"""Exact-arithmetic toolkit for Narayana-type polynomial families.

Computes Narayana polynomials, their type-B analogue, Gaussian-binomial
q-refinements, and the signed specialization family c_n(t), then verifies
the identities tying them together: recursions, generating-function
equations, Hankel determinant evaluations, and Jacobi continued fractions.
Every check is exact structural equality; brute-force Dyck-path
enumeration supplies the combinatorial ground truth.
"""

from .exactalg import (
    NotDivisibleError,
    NotInvertibleError,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    poly_exact_div,
    poly_gcd,
)
from .gfun import ALL_IDENTITIES, IdentityReport, build_series, verify_identity
from .hankel import (
    JFraction,
    PolyMatrix,
    det_bareiss,
    det_cofactor,
    hankel_matrix,
    hankel_product_formula,
    hankel_table,
    jfraction_extract,
    jfraction_to_series,
)
from .narayana import (
    c_odd_closed,
    c_poly,
    c_poly_recursive,
    catalan_number,
    narayana_b_poly,
    narayana_number,
    narayana_poly,
    poly_sequence,
    special_values,
    v_coeff,
)
from .qcomb import q_binomial, q_catalan, q_int, q_narayana_row

__version__ = "0.1.0"

__all__ = [
    "NotDivisibleError",
    "NotInvertibleError",
    "Polynomial",
    "RationalFunction",
    "TruncatedSeries",
    "poly_exact_div",
    "poly_gcd",
    "ALL_IDENTITIES",
    "IdentityReport",
    "build_series",
    "verify_identity",
    "JFraction",
    "PolyMatrix",
    "det_bareiss",
    "det_cofactor",
    "hankel_matrix",
    "hankel_product_formula",
    "hankel_table",
    "jfraction_extract",
    "jfraction_to_series",
    "c_odd_closed",
    "c_poly",
    "c_poly_recursive",
    "catalan_number",
    "narayana_b_poly",
    "narayana_number",
    "narayana_poly",
    "poly_sequence",
    "special_values",
    "v_coeff",
    "q_binomial",
    "q_catalan",
    "q_int",
    "q_narayana_row",
]
