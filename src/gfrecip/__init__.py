"""Scaled-reciprocal polynomial toolkit over finite fields of odd
characteristic: the a-reciprocal operator, self-reciprocal
classification and structure, counting formulas with exhaustive
enumeration, and a factor-count parity criterion — everything
cross-checked against an independent brute-force factorization oracle.
"""

__version__ = "0.1.0"

from .census import (
    CensusRow,
    carlitz_count,
    census_csv,
    census_row,
    census_sweep,
    delta,
    enumerate_odd_srm,
    enumerate_srm,
    h_poly,
    m_poly,
    mobius,
    si_enumerated,
    si_formula,
    si_product,
)
from .errors import DomainError, FieldMismatchError, ResourceError, VerificationError
from .factor import DEFAULT_SEED, Factorization, factor_count, factorize, is_irreducible
from .field import Field, FieldElement, parse_field_spec
from .poly import Poly, discriminant, gcd, is_squarefree, pow_mod, resultant
from .recip import (
    Parity,
    ParityVerdict,
    SqrtPairEval,
    SrmClassification,
    SrmVerdict,
    a_reciprocal,
    classify,
    dickson,
    discriminant_identity_check,
    eval_at_sqrt_pair,
    inverse_quadratic_transform,
    is_a_self_reciprocal,
    parity_indicator,
    quadratic_transform,
    strip_linear_sqrt,
    strip_x2_minus_a,
)

__all__ = [
    "CensusRow", "DEFAULT_SEED", "DomainError", "Factorization", "Field",
    "FieldElement", "FieldMismatchError", "Parity", "ParityVerdict", "Poly",
    "ResourceError", "SqrtPairEval", "SrmClassification", "SrmVerdict",
    "VerificationError",
    "a_reciprocal", "carlitz_count", "census_csv", "census_row", "census_sweep",
    "classify", "delta", "dickson", "discriminant", "discriminant_identity_check",
    "enumerate_odd_srm", "enumerate_srm", "eval_at_sqrt_pair", "factor_count",
    "factorize", "gcd", "h_poly", "inverse_quadratic_transform",
    "is_a_self_reciprocal", "is_irreducible", "is_squarefree", "m_poly", "mobius",
    "parity_indicator", "parse_field_spec", "pow_mod", "quadratic_transform",
    "resultant", "si_enumerated", "si_formula", "si_product", "strip_linear_sqrt",
    "strip_x2_minus_a",
]
