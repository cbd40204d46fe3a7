"""Truncated power series in t as plain coefficient lists.

A series is a list of its coefficients of t^0 .. t^T, ints or Fractions
alike; every routine truncates at the length of its (first) argument, so it
never reads or produces a coefficient beyond T.  Even and odd slots are
both stored, so parity claims about computed series are genuine checks
rather than assumptions baked into the representation.

The inverse is taken only of a series with constant term 1: its recursion
then never divides, so an integer series has an integer inverse.  The power
and the inverse keep the type of the input's constant term.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import NonInvertibleSeriesError
from .intpoly import power


def series_mul(a, b):
    """The product a*b truncated at len(a)."""
    size = len(a)
    out = [0] * size
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[:size - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def series_pow(a, e: int):
    """a**e truncated at len(a), for an integer e >= 0, by squaring."""
    if e < 0:
        raise ValueError("series_pow expects a nonnegative exponent")
    return power(a, e, series_mul, [a[0] ** 0] + [0] * (len(a) - 1))


def series_inv(a):
    """1/a truncated at len(a), for a series with constant term 1."""
    if a[0] != 1:
        raise NonInvertibleSeriesError(
            "series_inv needs constant term 1, not %s" % a[0])
    g = [a[0]]
    for i in range(1, len(a)):
        acc = 0
        for m in range(1, i + 1):
            if a[m]:
                acc += a[m] * g[i - m]
        g.append(-acc)
    return g


def sin_t_over_t(order: int):
    """The series of sin(t)/t through t^order, as Fractions."""
    return [Fraction((-1) ** (i // 2), factorial(i + 1)) if i % 2 == 0
            else Fraction(0) for i in range(order + 1)]
