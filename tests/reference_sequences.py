"""Slow exact paths kept as test oracles: the row sum by stepping its terms,
lcm(1..n) by a gcd loop, the recursion rows on one fixed scale, the Apery
recursion over Fractions, and annihilation over a window of n, the
operator applied to the direct rows with every residue an exact
rational."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from franel.operators import RecurrenceOperator, apply_operator
from franel.sequences import (AperyPair, _apery_a_direct, _integer_row,
                              coefficient_row, franel)


def reference_franel(s: int, n: int) -> int:
    """Sum of binom(n, k)**s over k = 0..n, the power stepped by its ratio
    (n-k)^s / (k+1)^s, an exact division as binom(n, k+1)**s is an
    integer; by symmetry the terms k < (n+1)/2 are summed twice, plus the
    middle term when n is even."""
    total = 0
    p = 1
    for k in range((n + 1) // 2):
        total += p
        p = p * (n - k) ** s // (k + 1) ** s
    total *= 2
    if n % 2 == 0:
        total += p
    return total


def reference_lcm_upto(n: int) -> int:
    """lcm(1..n) by folding lcm(acc, j) = acc j / gcd(acc, j)."""
    acc = 1
    for j in range(2, n + 1):
        acc = acc * j // gcd(acc, j)
    return acc


def reference_recursion_rows(s: int, J: int, n_from: int, n_to: int,
                             op: RecurrenceOperator, start: int):
    """`recursion_rows` on the one scale X_j = A_j L^(2j), L = lcm(1..n_to),
    for every row: the same seeds, exact divisions and head check."""
    r = op.order
    seed_end = start + r
    scales = [reference_lcm_upto(n_to) ** (2 * j) for j in range(J + 1)]
    window = []
    for m in range(min(seed_end, n_to + 1)):
        if m < start and m < n_from:
            continue
        row = coefficient_row(s, m, J)
        if m >= start:
            window.append(_integer_row(row, scales, m))
        if m >= n_from:
            yield row
    for m in range(seed_end, n_to + 1):
        n = m - r
        cs = [c.eval_int(n) for c in op.coeffs]
        lead = cs[r]
        new = []
        for j in range(J + 1):
            acc = 0
            for i in range(r):
                acc -= cs[i] * window[i][j]
            q, rem = divmod(acc, lead)
            if rem:
                raise AssertionError("inexact recursion step at n=%d" % m)
            new.append(q)
        window = window[1:] + [new]
        if m == n_to and new[0] != franel(s, m):
            raise AssertionError("recursion head disagrees with the direct "
                                 "sum at n=%d" % m)
        if m >= n_from:
            yield tuple(Fraction(x, sc) for x, sc in zip(new, scales))


def reference_apery_zeta3(n_max: int) -> list:
    """`apery_zeta3` with A(n) and B(n) both stepped as Fractions."""
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
        if _apery_a_direct(n) != a:
            raise AssertionError("recursion and summation disagree at n=%d"
                                 % n)
        if n >= 1:
            lcm3 = lcm3 * n // gcd(lcm3, n)
        divides = (lcm3 ** 3) % b_vals[n].denominator == 0
        out.append(AperyPair(n, int(a), b_vals[n], divides))
    return out


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

    The rows come from the direct kernel.  Any nonzero residue is reported
    as data together with the first n from which the residues stay zero
    through n_to (None when they never settle).
    """
    if n_from < 0 or n_to < n_from:
        raise ValueError("need 0 <= n_from <= n_to")
    rows = [coefficient_row(s, n, j_max)
            for n in range(n_to + op.order + 1)]
    violations = []
    first_zero = []
    for j in range(j_max + 1):
        seq = [row[j] for row in rows]
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
