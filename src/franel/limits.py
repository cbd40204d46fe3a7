"""Exact deformation-limit targets and high-precision limit estimates.

The rational numbers phi_j are the t^(2j) coefficients of (t/sin t)**s, and
the ratios A_j(n)/A_0(n) of the deformation coefficients converge to
phi_j * pi^(2j).  Ratios are formed from exact rationals and only rounded
at the very end, so every reported error bound is rigorous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .bigfloat import BigFloat, pi
from .sequences import apery_zeta3, coefficient_rows, franel
from .series import series_inv, series_pow, sin_t_over_t

# Independent reference for zeta(3) = sum 1/k^3, computed before this
# package existed by partial summation with an Euler-Maclaurin tail whose
# remainder is bracketed by the first omitted term; 70 digits, cross-checked
# against published digits.
ZETA3_REFERENCE_VALUE = Fraction(
    12020569031595942853997381615114499907649862923404988817922715553418382,
    10 ** 70)
ZETA3_REFERENCE_ERROR = Fraction(1, 10 ** 69)


@dataclass(frozen=True)
class PhiTable:
    s: int
    phis: tuple  # phi_0 .. phi_J as Fractions

    def __post_init__(self):
        assert self.phis[0] == 1
        for p in self.phis:
            assert p > 0, "deformation limit coefficients must be positive"

    def __getitem__(self, j: int) -> Fraction:
        return self.phis[j]


def phi(s: int, J: int) -> PhiTable:
    """phi_0 .. phi_J: coefficients of t^(2j) in (t/sin t)**s."""
    if s < 1:
        raise ValueError("the power s must be a positive integer")
    if J < 0:
        raise ValueError("J must be nonnegative")
    series = series_pow(series_inv(sin_t_over_t(2 * J)), s)
    return PhiTable(s, tuple(series[2 * j] for j in range(J + 1)))


def _row_ratio(row, j: int, precision_bits: int) -> BigFloat:
    """A_j(n) / A_0(n) from one row (A_0(n), .., A_J(n)), rounded once."""
    return BigFloat.from_fraction(Fraction(row[j]) / row[0], precision_bits)


def limit_estimate(s: int, j: int, n: int,
                   precision_bits: int = 256) -> BigFloat:
    """A_j(n) / A_0(n) as an exact rational, rounded once at the end."""
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    (row,) = coefficient_rows(s, j, n, n)
    return _row_ratio(row, j, precision_bits)


@dataclass(frozen=True)
class LimitReport:
    s: int
    j: int
    n_used: int
    estimate: BigFloat
    target: BigFloat
    abs_error: BigFloat
    successive_diff_ratio: Optional[BigFloat]
    normalized_estimate: Optional[BigFloat] = None
    normalized_target: Optional[BigFloat] = None


def limit_report(s: int, n_max: int, J: int, precision_bits: int = 256,
                 enforce_theory_range: bool = True) -> list:
    """Per-j comparison of A_j(n_max)/A_0(n_max) against phi_j pi^(2j).

    The theory guarantees the limit only for j <= floor((s-1)/2); larger j
    are refused unless enforce_theory_range is off (exploration mode).
    Each report with j >= 1 also carries the estimate and the target divided
    by A_j(1) = 2 binom(2j+s-1, 2j), the value at the first row.
    """
    if enforce_theory_range and J > (s - 1) // 2:
        raise ValueError("J exceeds floor((s-1)/2); the limits beyond are "
                         "not guaranteed")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    row_prev, row_cur = coefficient_rows(s, J, n_max - 1, n_max)
    phis = phi(s, J)
    pi_val = pi(precision_bits)
    reports = []
    for j in range(J + 1):
        estimate = _row_ratio(row_cur, j, precision_bits)
        prev_est = _row_ratio(row_prev, j, precision_bits)
        pi_power = pi_val.pow_int(2 * j)
        target = pi_power * phis[j]
        abs_error = abs(estimate - target)
        prev_error = abs(prev_est - target)
        ratio = None
        if prev_error.definitely_nonzero():
            ratio = abs_error / prev_error
        norm_est = norm_target = None
        if j >= 1:
            norm = 2 * comb(2 * j + s - 1, 2 * j)
            norm_est = estimate * Fraction(1, norm)
            norm_target = pi_power * (phis[j] / norm)
        reports.append(LimitReport(
            s=s, j=j, n_used=n_max, estimate=estimate, target=target,
            abs_error=abs_error, successive_diff_ratio=ratio,
            normalized_estimate=norm_est, normalized_target=norm_target))
    return reports


def limit_error_sequence(s: int, j: int, n_from: int, n_to: int,
                         precision_bits: int = 256) -> list:
    """[(n, |A_j(n)/A_0(n) - phi_j pi^(2j)|)] over a window of n."""
    phis = phi(s, j)
    target = pi(precision_bits).pow_int(2 * j) * phis[j]
    rows = coefficient_rows(s, j, n_from, n_to)
    return [(n, abs(_row_ratio(row, j, precision_bits) - target))
            for n, row in zip(range(n_from, n_to + 1), rows)]


def asymptotic_ratio(s: int, n: int, precision_bits: int = 256) -> BigFloat:
    """A(n) sqrt(s (pi n / 2)^(s-1)) / 2^(n s); tends to 1 from below.

    For s = 1 the square-root factor is exactly 1 and the ratio is exactly
    1 with a zero error bound.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if s < 1:
        raise ValueError("the power s must be a positive integer")
    a_val = franel(s, n)
    factor = pi(precision_bits) * Fraction(n, 2)
    scaled = factor.pow_int(s - 1) * s
    root = scaled.sqrt()
    return (root * a_val).mul_2exp(-n * s)


def apery_zeta3_limit(n: int, precision_bits: int = 256) -> BigFloat:
    """6 B(n)/A(n), the classical convergents to zeta(3)."""
    pair = apery_zeta3(n)[n]
    return BigFloat.from_fraction(6 * pair.b / pair.a, precision_bits)


def zeta3_reference(precision_bits: int = 256) -> BigFloat:
    """The frozen independent zeta(3) value with its error bound."""
    base = BigFloat.from_fraction(ZETA3_REFERENCE_VALUE, precision_bits)
    return base.widen(ZETA3_REFERENCE_ERROR)
