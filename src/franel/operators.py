"""Linear recurrence operators with polynomial coefficients in n.

An operator of order r is c_0(n) + c_1(n) N + ... + c_r(n) N^r where N is
the forward shift in n.  The stored form is canonical: the coefficient list
has no common polynomial factor and no common integer content, and the
leading coefficient of c_r is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import RatFunc, proved_primitive
from .intpoly import IntPoly, poly_content, strip


@dataclass(frozen=True)
class RecurrenceOperator:
    coeffs: tuple  # c_0 .. c_r, IntPoly in n

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("an operator needs at least one coefficient")
        if self.coeffs[-1].is_zero:
            raise ValueError("leading coefficient must be nonzero")
        if self.coeffs[-1].lc < 0:
            raise ValueError("leading coefficient must have positive sign")
        if not proved_primitive(self.coeffs):
            g, _ = poly_content(self.coeffs)
            if g != 1:
                raise ValueError("coefficients share the common factor %r" % g)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient_degree(self) -> int:
        return max(c.degree for c in self.coeffs)


def normalize_operator_coeffs(coeffs):
    """Normalize raw coefficients; returns (operator, removed scale).

    The removed scale g is an IntPoly with coeffs[i] = g * operator.coeffs[i],
    so a certificate attached to the raw coefficients must be divided by g to
    stay consistent with the normalized operator.
    """
    cs = strip([c if isinstance(c, IntPoly) else IntPoly.const(c)
                for c in coeffs])
    if not cs:
        raise ValueError("all coefficients are zero")
    g, cs = poly_content(cs)
    if cs[-1].lc < 0:
        g, cs = -g, [-c for c in cs]
    return RecurrenceOperator(tuple(cs)), g


@dataclass(frozen=True)
class Certificate:
    """The rational function R with b(n, k) = R(n, k) a(n, k)."""

    ratio: RatFunc


def apply_operator(op: RecurrenceOperator, u, n: int) -> Fraction:
    """Evaluate sum_i c_i(n) u(n + i); u is a callable or indexable."""
    take = u if callable(u) else u.__getitem__
    acc = Fraction(0)
    for i, c in enumerate(op.coeffs):
        if not c.is_zero:
            acc += c.eval_fraction(n) * Fraction(take(n + i))
    return acc
