"""Arbitrary-precision dyadic floats with a tracked absolute error bound.

A value is mantissa * 2**exponent together with a nonnegative dyadic bound
on the distance to the true quantity it approximates.  Every operation
propagates the bound conservatively (always rounding the bound up), so a
chain of operations yields a rigorous enclosure; nothing here depends on
the underlying quantity being representable.

The mantissa is kept at the working precision by rounding after every
operation; rounding contributes one unit in the last place to the bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .intpoly import power

_ERR_BITS = 16  # error mantissas are compressed to this many bits, upward


def _err_norm(em: int, ee: int):
    if em <= 0:
        return (0, 0) if em == 0 else (_err_norm(-em, ee))
    excess = em.bit_length() - _ERR_BITS
    if excess > 0:
        em = (em >> excess) + 1
        ee += excess
    return em, ee


def _err_add(a, b):
    em1, ee1 = a
    em2, ee2 = b
    if em1 == 0:
        return b
    if em2 == 0:
        return a
    if ee1 < ee2:
        em1, ee1, em2, ee2 = em2, ee2, em1, ee1
    gap = ee1 - ee2
    if gap > 64:
        return _err_norm(em1 + 1, ee1)
    return _err_norm((em1 << gap) + em2, ee2)


def _err_mul(a, b):
    em1, ee1 = a
    em2, ee2 = b
    if em1 == 0 or em2 == 0:
        return (0, 0)
    return _err_norm(em1 * em2, ee1 + ee2)


def _err_fraction(e) -> Fraction:
    em, ee = e
    return Fraction(em) * Fraction(2) ** ee


class BigFloat:
    __slots__ = ("man", "exp", "err", "prec")

    def __init__(self, man: int, exp: int, err=(0, 0), prec: int = 256):
        if prec < 8:
            raise ValueError("precision must be at least 8 bits")
        object.__setattr__(self, "prec", prec)
        err = _err_norm(*err)
        # round the mantissa to the working precision
        if man:
            excess = abs(man).bit_length() - prec
            if excess > 0:
                dropped = man & ((1 << excess) - 1)
                man >>= excess
                exp += excess
                if dropped:
                    err = _err_add(err, (1, exp))
            # normalize away trailing zeros for a canonical form
            tz = (man & -man).bit_length() - 1
            if tz:
                man >>= tz
                exp += tz
        else:
            exp = 0
        object.__setattr__(self, "man", man)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "err", err)

    def __setattr__(self, name, value):
        raise AttributeError("BigFloat is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, value: int, prec: int = 256) -> "BigFloat":
        return cls(value, 0, (0, 0), prec)

    @classmethod
    def from_fraction(cls, value, prec: int = 256) -> "BigFloat":
        value = Fraction(value)
        num, den = value.numerator, value.denominator
        if den == 1:
            return cls(num, 0, (0, 0), prec)
        if den & (den - 1) == 0:
            return cls(num, -(den.bit_length() - 1), (0, 0), prec)
        shift = prec + 8 + max(0, den.bit_length() - abs(num).bit_length())
        q, r = divmod(num << shift, den)
        err = (0, 0) if r == 0 else (1, -shift)
        return cls(q, -shift, err, prec)

    # -- structure -----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.err[0] == 0

    def to_fraction(self) -> Fraction:
        """The center of the enclosure."""
        return Fraction(self.man) * Fraction(2) ** self.exp

    def error_fraction(self) -> Fraction:
        return _err_fraction(self.err)

    def abs_upper(self) -> Fraction:
        return abs(self.to_fraction()) + self.error_fraction()

    def abs_lower(self) -> Fraction:
        low = abs(self.to_fraction()) - self.error_fraction()
        return low if low > 0 else Fraction(0)

    def definitely_nonzero(self) -> bool:
        return self.abs_lower() > 0

    def is_distinct_from(self, other: "BigFloat") -> bool:
        """True when the two enclosures are disjoint."""
        return (self - other).definitely_nonzero()

    def __repr__(self):
        return "BigFloat(%s, err<=%s)" % (self.decimal(20),
                                          float(self.error_fraction()))

    def decimal(self, places: int = 30) -> str:
        """Decimal rendering of the center with the given fractional places;
        with none, the rounded integer without a point."""
        if places < 0:
            raise ValueError("places must be nonnegative")
        v = self.to_fraction()
        sign = "-" if v < 0 else ""
        v = abs(v)
        scaled = (v.numerator * 10 ** places * 2 +
                  v.denominator) // (2 * v.denominator)
        digits = str(scaled).rjust(places + 1, "0")
        point = len(digits) - places
        return sign + digits[:point] + ("." if places else "") + digits[point:]

    # -- arithmetic ------------------------------------------------------------

    def _abs_bound(self):
        """Dyadic upper bound for |center|."""
        return _err_norm(abs(self.man), self.exp)

    def __neg__(self):
        return BigFloat(-self.man, self.exp, self.err, self.prec)

    def __abs__(self):
        return BigFloat(abs(self.man), self.exp, self.err, self.prec)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BigFloat.from_fraction(other, self.prec)
        prec = max(self.prec, other.prec)
        a, b = self, other
        if a.man == 0:
            return BigFloat(b.man, b.exp, _err_add(a.err, b.err), prec)
        if b.man == 0:
            return BigFloat(a.man, a.exp, _err_add(a.err, b.err), prec)
        # cap the exponent alignment: a tiny term folds into the bound
        top_a = a.exp + abs(a.man).bit_length()
        top_b = b.exp + abs(b.man).bit_length()
        if top_a < top_b - (prec + 64):
            err = _err_add(_err_add(a.err, b.err), a._abs_bound())
            return BigFloat(b.man, b.exp, err, prec)
        if top_b < top_a - (prec + 64):
            err = _err_add(_err_add(a.err, b.err), b._abs_bound())
            return BigFloat(a.man, a.exp, err, prec)
        e = min(a.exp, b.exp)
        man = (a.man << (a.exp - e)) + (b.man << (b.exp - e))
        return BigFloat(man, e, _err_add(a.err, b.err), prec)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BigFloat.from_fraction(other, self.prec)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BigFloat.from_fraction(other, self.prec)
        prec = max(self.prec, other.prec)
        err = _err_add(
            _err_add(_err_mul(self._abs_bound(), other.err),
                     _err_mul(other._abs_bound(), self.err)),
            _err_mul(self.err, other.err))
        return BigFloat(self.man * other.man, self.exp + other.exp, err, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BigFloat.from_fraction(other, self.prec)
        prec = max(self.prec, other.prec)
        blow = other.abs_lower()
        if blow == 0:
            raise ZeroDivisionError(
                "divisor enclosure contains zero")
        if self.man == 0:
            q_man, q_exp, trunc = 0, 0, (0, 0)
        else:
            shift = prec + 8 + max(
                0, abs(other.man).bit_length() - abs(self.man).bit_length())
            q = (self.man << shift) // other.man
            q_man, q_exp = q, self.exp - other.exp - shift
            trunc = (1, q_exp)
        # |a/b - ahat/bhat| <= (|bhat| a.err + |ahat| b.err) / (|bhat| blow)
        num_err = _err_add(_err_mul(other._abs_bound(), self.err),
                           _err_mul(self._abs_bound(), other.err))
        denom = Fraction(abs(other.man), 1) * Fraction(2) ** other.exp * blow
        prop = _err_fraction(num_err) / denom if num_err[0] else Fraction(0)
        err = _err_add(trunc, _frac_to_err_upper(prop))
        return BigFloat(q_man, q_exp, err, prec)

    def __rtruediv__(self, other):
        return BigFloat.from_fraction(other, self.prec) / self

    def mul_2exp(self, e: int) -> "BigFloat":
        return BigFloat(self.man, self.exp + e,
                        (self.err[0], self.err[1] + e), self.prec)

    def widen(self, extra) -> "BigFloat":
        """Same center with the error bound enlarged by ``extra``."""
        bump = _frac_to_err_upper(Fraction(extra))
        return BigFloat(self.man, self.exp, _err_add(self.err, bump),
                        self.prec)

    def sqrt(self) -> "BigFloat":
        prec = self.prec
        errf = self.error_fraction()
        center = self.to_fraction()
        if center <= errf:
            if center + errf < 0:
                raise ValueError("square root of a definitely negative value")
            # the enclosure touches zero: return the interval [0, sqrt(hi)]
            half = _sqrt_upper(center + errf) / 2
            mid = BigFloat.from_fraction(half, prec)
            return BigFloat(mid.man, mid.exp,
                            _err_add(mid.err, _frac_to_err_upper(half)), prec)
        # value = man * 2**exp with man > 0; pick a shift of matching parity
        # so that sqrt(man << shift) * 2**((exp - shift)/2) is the result
        shift = max(0, 2 * (prec + 8) - self.man.bit_length())
        if (self.exp - shift) % 2:
            shift += 1
        scaled = self.man << shift
        root = isqrt(scaled)
        out_exp = (self.exp - shift) // 2
        trunc = (0, 0) if root * root == scaled else (1, out_exp)
        if errf:
            # |sqrt(x) - sqrt(c)| <= err / (2 sqrt(c - err)) over the enclosure
            prop = errf / (2 * _sqrt_lower(center - errf))
            err = _err_add(trunc, _frac_to_err_upper(prop))
        else:
            err = trunc
        return BigFloat(root, out_exp, err, prec)

    def pow_int(self, e: int) -> "BigFloat":
        if e < 0:
            return BigFloat.from_int(1, self.prec) / self.pow_int(-e)
        return power(self, e, BigFloat.__mul__,
                     BigFloat.from_int(1, self.prec))


def _frac_to_err_upper(x: Fraction):
    """A small dyadic (m, e) with m * 2**e >= x >= 0."""
    if x <= 0:
        return (0, 0)
    num, den = x.numerator, x.denominator
    e = num.bit_length() - den.bit_length() - _ERR_BITS
    if e >= 0:
        m = num // (den << e) + 1
    else:
        m = (num << -e) // den + 1
    return _err_norm(m, e)


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), x >= 0."""
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    s = 1 << 64
    r = isqrt(num * den * s * s)
    return Fraction(r + 1, den * s)


def _sqrt_lower(x: Fraction) -> Fraction:
    """A positive rational lower bound for sqrt(x), x > 0."""
    num, den = x.numerator, x.denominator
    s = 1 << 64
    r = isqrt(num * den * s * s)
    return Fraction(r, den * s) if r > 0 else Fraction(1, den * s * 2)


@lru_cache(maxsize=32)
def pi(prec: int = 256) -> BigFloat:
    """pi by Machin's formula with a proven error bound.

    Both arctangent series are alternating with decreasing terms, so the
    truncation error is below the first omitted term; each term adds at
    most one unit of flooring error at the working scale.  The terms
    floor(2**work / ((2i+1) x**(2i+1))) come by nested floors, as
    floor(floor(a/b)/c) = floor(a/(bc)) for positive integers: p is
    floor(2**work / x**(2i+1)), and one division by x*x steps it.
    """
    work = prec + 32

    def atan_inv(x: int):
        total = 0
        p = (1 << work) // x
        i = 0
        while True:
            term = p // (2 * i + 1)
            if term == 0:
                break
            total += term if i % 2 == 0 else -term
            p //= x * x
            i += 1
        return total, i + 1  # value, error in units of 2**-work

    a5, e5 = atan_inv(5)
    a239, e239 = atan_inv(239)
    man = 16 * a5 - 4 * a239
    units = 16 * e5 + 4 * e239
    return BigFloat(man, -work, _err_norm(units, -work), prec)
