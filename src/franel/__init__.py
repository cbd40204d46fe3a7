"""Exact creative telescoping and deformation limits for sums of powers of
binomial coefficients.

The package computes, entirely in exact arithmetic: the sums of s-th powers
of binomial coefficients and their t-deformations, minimal-order
telescoping recurrences with rational certificates, structural audits of
those certificates, and high-precision enclosures for the limits of
coefficient ratios along with the classical zeta(3) convergents.
"""

from .bigfloat import BigFloat, pi
from .bipoly import BiPoly, RatFunc, poly_gcd
from .errors import (DocumentError, ExactDivisionError, FranelError,
                     NonInvertibleSeriesError, PoleError,
                     TelescoperNotFoundError)
from .hyperterm import HyperTerm, apery_zeta3_term, binom_power_term
from .intpoly import IntPoly
from .limits import (LimitReport, PhiTable, apery_zeta3_limit,
                     asymptotic_ratio, limit_error_sequence, limit_estimate,
                     limit_report, phi, zeta3_reference)
from .operators import Certificate, RecurrenceOperator, apply_operator
from .sequences import (AperyPair, MinimalityCertificate, SequenceTable,
                        apery_zeta3, coefficient_row, coefficient_rows,
                        coefficient_table, deformed, franel,
                        minimality_certificate)
from .series import series_inv, series_mul, series_pow, sin_t_over_t
from .telescoper import (StructureReport, analyze_structure,
                         certificate_mismatch, certificate_residual,
                         expected_coefficient_degree,
                         expected_certificate_denominator, expected_order,
                         first_valid_row, solve_at_order, verify_certificate,
                         zeilberger)

__version__ = "0.1.0"

__all__ = [
    "BigFloat", "pi", "BiPoly", "RatFunc", "poly_gcd", "DocumentError",
    "ExactDivisionError", "FranelError", "NonInvertibleSeriesError",
    "PoleError", "TelescoperNotFoundError", "HyperTerm", "apery_zeta3_term",
    "binom_power_term", "IntPoly", "LimitReport", "PhiTable",
    "apery_zeta3_limit", "asymptotic_ratio", "limit_error_sequence",
    "limit_estimate", "limit_report", "phi", "zeta3_reference", "Certificate",
    "RecurrenceOperator", "apply_operator", "AperyPair",
    "MinimalityCertificate", "SequenceTable", "apery_zeta3",
    "coefficient_row", "coefficient_rows", "coefficient_table", "deformed",
    "franel", "minimality_certificate", "series_inv", "series_mul",
    "series_pow", "sin_t_over_t",
    "StructureReport", "analyze_structure", "certificate_mismatch",
    "certificate_residual", "expected_coefficient_degree",
    "expected_certificate_denominator", "expected_order", "first_valid_row",
    "solve_at_order", "verify_certificate", "zeilberger",
]
