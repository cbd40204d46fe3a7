"""Sums of powers of binomial coefficients and their deformations.

The deformed sum replaces binom(n, k)**s by

    binom(n, k)**s [ prod_{j<=k} (1 - t/j) prod_{j<=n-k} (1 + t/j) ]**(-s)

and is computed as a truncated power series in t through t^span.  With
L = lcm(1..n), products over at most i factors from {1..n} divide L^i, so
the t^i coefficient of every series below is an integer over L^i, hence
over the one common scale L^span.  Over that scale, multiplying by (c + t)
is out_i = c*g_i + g_{i-1} and dividing by (d - t) is
h_i = (g_i + h_{i-1}) / d: steps by small integers only, each quotient
exact and its remainder asserted, as is the final division of coefficient
i back to L^i, which checks the L^i bound itself.  The bracket's power and
inverse come from `franel.series`; its constant term is 1, so neither
divides and both stay in the integers.  The even t-coefficients are the
sequences whose ratios converge to the deformation limits; the odd ones
must vanish identically and are asserted, not skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .operators import RecurrenceOperator, apply_operator
from .series import series_inv, series_pow


def franel(s: int, n: int) -> int:
    """Sum of binom(n, k)**s over k = 0..n, exactly.

    The power steps by its ratio (n-k)^s / (k+1)^s, an exact division as
    binom(n, k+1)**s is an integer; by symmetry the terms k < (n+1)/2 are
    summed twice, plus the middle term when n is even.
    """
    if s < 1:
        raise ValueError("the power s must be a positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    p = 1
    for k in range((n + 1) // 2):
        total += p
        p = p * (n - k) ** s // (k + 1) ** s
    total *= 2
    if n % 2 == 0:
        total += p
    return total


def lcm_upto(n: int) -> int:
    acc = 1
    for j in range(2, n + 1):
        acc = acc * j // gcd(acc, j)
    return acc


def _deformed_numerators(s: int, n: int, span: int):
    """Integer numerators of the deformed sum's t-coefficients.

    Returns (acc, scale) with [t^i] A(n, t) = acc[i] / scale**i for
    i = 0..span.
    """
    scale = lcm_upto(n)
    size = span + 1
    # bracket at k = 0: prod_{j=1..n} (1 + t/j), as (j + t)/j per factor
    br = [1] + [0] * span
    for j in range(1, n + 1):
        step = scale // j
        br = [b + step * prev for b, prev in zip(br, [0] + br[:-1])]
    # g = bracket**(-s)
    g = series_inv(series_pow(br, s))
    # lift coefficient i from L^i to the common scale L^span
    lift = [scale ** (span - i) for i in range(size)]
    g = [gi * li for gi, li in zip(g, lift)]
    acc = list(g)  # k = 0 contribution
    for k in range(n):
        # advance k -> k+1: the true per-term ratio is
        #   [(1 + t/(n-k)) / (1 - t/(k+1))]**s
        #   = [((n-k) + t) / ((k+1) - t)]**s * [(k+1)/(n-k)]**s,
        # and multiplying by the un-normalized linear factors instead folds
        # the binomial weight binom(n, k+1)**s into the running series, so
        # the accumulator adds g itself.
        c = n - k
        for _ in range(s):
            g = [c * gi + prev for gi, prev in zip(g, [0] + g[:-1])]
        d = k + 1
        for _ in range(s):
            prev = 0
            for i in range(size):
                prev, r = divmod(g[i] + prev, d)
                assert r == 0, "inexact scaled series division"
                g[i] = prev
        acc = [a + gi for a, gi in zip(acc, g)]
    for i in range(size):
        acc[i], r = divmod(acc[i], lift[i])
        assert r == 0, "denominator of t^%d does not divide L^%d" % (i, i)
    return acc, scale


def deformed(s: int, n: int, J: int) -> tuple:
    """The deformed sum's coefficients of t^0 .. t^(2J+1), as Fractions.

    The truncation order is odd on purpose: the slot past the last even
    coefficient must come out exactly zero.  Every odd slot is asserted to
    vanish, and the t^0 coefficient to equal the direct sum.
    """
    if s < 1:
        raise ValueError("the power s must be a positive integer")
    if n < 0 or J < 0:
        raise ValueError("n and J must be nonnegative")
    span = 2 * J + 1
    acc, scale = _deformed_numerators(s, n, span)
    coeffs = tuple(Fraction(acc[i], scale ** i) for i in range(span + 1))
    for i in range(1, span + 1, 2):
        if coeffs[i] != 0:
            raise AssertionError(
                "odd coefficient t^%d of the deformed sum is nonzero" % i)
    if coeffs[0] != franel(s, n):
        raise AssertionError("constant term disagrees with the direct sum")
    return coeffs


def coefficient_row(s: int, n: int, J: int):
    """(A_0(n), .., A_J(n)): the even coefficients of deformed(s, n, J)."""
    return deformed(s, n, J)[::2]


@dataclass(frozen=True)
class SequenceTable:
    s: int
    J: int
    rows: tuple  # rows[n] = (A_0(n), .., A_J(n))

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, j: int) -> Fraction:
        return self.rows[n][j]


def coefficient_table(s: int, n_max: int, J: int) -> SequenceTable:
    """Exact deformation coefficients for 0 <= n <= n_max, 0 <= j <= J.

    Each row comes from :func:`deformed`, which checks its odd slots and
    its head against the direct sum.
    """
    if J < 0 or n_max < 0:
        raise ValueError("n_max and J must be nonnegative")
    rows = tuple(coefficient_row(s, n, J) for n in range(n_max + 1))
    return SequenceTable(s, J, rows)


@dataclass(frozen=True)
class AnnihilationReport:
    s: int
    j_max: int
    n_from: int
    n_to: int
    violations: tuple  # (j, n, exact residue) triples
    first_zero_run_start: tuple  # per j: first n with zero residues onward

    @property
    def all_zero(self) -> bool:
        return not self.violations


def annihilation_check(s: int, op: RecurrenceOperator, j_max: int,
                       n_from: int, n_to: int) -> AnnihilationReport:
    """Apply the operator to every coefficient sequence A_j, j <= j_max.

    Residues are exact rationals; any nonzero residue is reported as data
    together with the first n from which the residues stay zero through
    n_to (None when they never settle).
    """
    if n_from < 0 or n_to < n_from:
        raise ValueError("need 0 <= n_from <= n_to")
    table = coefficient_table(s, n_to + op.order, j_max)
    violations = []
    first_zero = []
    for j in range(j_max + 1):
        seq = [table.entry(n, j) for n in range(n_to + op.order + 1)]
        last_bad = None
        for n in range(n_from, n_to + 1):
            residue = apply_operator(op, seq, n)
            if residue != 0:
                violations.append((j, n, residue))
                last_bad = n
        first_zero.append(n_from if last_bad is None
                          else (last_bad + 1 if last_bad < n_to else None))
    return AnnihilationReport(s, j_max, n_from, n_to, tuple(violations),
                              tuple(first_zero))


# ---------------------------------------------------------------------------
# the zeta(3) demonstration pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AperyPair:
    n: int
    a: int
    b: Fraction
    b_denominator_divides_lcm_cubed: bool


def _apery_a_direct(n: int) -> int:
    return sum((comb(n, k) * comb(n + k, k)) ** 2 for k in range(n + 1))


def apery_zeta3(n_max: int) -> list:
    """The two solutions of the classical three-term recurrence
    (n+1)^3 u(n+1) = (2n+1)(17n^2+17n+5) u(n) - n^3 u(n-1)
    with (A(0), A(1)) = (1, 5) and (B(0), B(1)) = (0, 1).

    A(n) is computed both by its binomial double-square sum and by forward
    recursion, and the two must agree exactly.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    a_vals = [Fraction(1), Fraction(5)]
    b_vals = [Fraction(0), Fraction(1)]
    for n in range(1, n_max):
        lead = (n + 1) ** 3
        mid = (2 * n + 1) * (17 * n * n + 17 * n + 5)
        a_vals.append((mid * a_vals[n] - n ** 3 * a_vals[n - 1]) / lead)
        b_vals.append((mid * b_vals[n] - n ** 3 * b_vals[n - 1]) / lead)
    out = []
    lcm3 = 1
    for n in range(n_max + 1):
        a = a_vals[n]
        if a.denominator != 1:
            raise AssertionError("A(%d) is not an integer" % n)
        direct = _apery_a_direct(n)
        if direct != a:
            raise AssertionError("recursion and summation disagree at n=%d"
                                 % n)
        if n >= 1:
            lcm3 = lcm3 * n // gcd(lcm3, n)
        divides = (lcm3 ** 3) % b_vals[n].denominator == 0
        out.append(AperyPair(n, int(a), b_vals[n], divides))
    return out
