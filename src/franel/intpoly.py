"""Dense polynomials over the integers, and the one dense arithmetic that
both Z[x] and Z[n][k] run.

A dense polynomial is the tuple of its coefficients, low degree first,
with trailing zeros stripped; the zero polynomial has an empty tuple.  The
arithmetic is a set of functions on coefficient lists whose entries are
ints (Z[x]) or IntPolys (Z[n][k]): strip, add, negate, subtract,
schoolbook product, exact long division, pseudo-remainder and Taylor
shift, one loop each.  Two loops serve any ring: `horner` evaluates
coefficients at a point (an int, a Fraction, an IntPoly) and `power` is
the one square-and-multiply, which the series and the enclosures of
`franel.bigfloat` run too.  `DensePoly` wraps them for IntPoly here and
for `franel.bipoly.BiPoly`; a ring supplies only its coefficient zero,
its exact coefficient quotient and its product of lists.
These polynomials carry the recurrence coefficients in n and back the
fraction-free linear algebra, so the product in Z[x] switches to Kronecker
substitution (packing coefficients into one big integer) once operands are
large enough for Python's subquadratic integer multiplication to win.
Integer roots, where a proof's recurrence may not run, are found by
Descartes' rule of signs alone, on bisected intervals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .errors import ExactDivisionError

# ---------------------------------------------------------------------------
# signed coefficient packing (shared with the bivariate layer)
# ---------------------------------------------------------------------------


def stride_for(bound: int) -> int:
    """The least stride in bytes with bound < 2**(8*stride-1), so that
    balanced base-2**(8*stride) digits recover every value of absolute
    value at most bound."""
    return (bound.bit_length() + 8) // 8


def pack_signed(coeffs, stride_bytes: int) -> int:
    """Evaluate sum(c_i * 2**(8*stride_bytes*i)) for signed integers c_i."""
    pos = bytearray(stride_bytes * len(coeffs))
    neg = bytearray(stride_bytes * len(coeffs))
    for i, c in enumerate(coeffs):
        if c > 0:
            pos[i * stride_bytes:(i + 1) * stride_bytes] = c.to_bytes(
                stride_bytes, "little")
        elif c < 0:
            neg[i * stride_bytes:(i + 1) * stride_bytes] = (-c).to_bytes(
                stride_bytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def unpack_signed(value: int, stride_bytes: int, count: int) -> list:
    """Recover balanced base-2**(8*stride_bytes) digits of ``value``.

    Inverse of :func:`pack_signed` provided every true digit satisfies
    |d| < 2**(8*stride_bytes - 1); callers must pick the stride from a
    rigorous coefficient bound, the final check here only catches gross
    mismatches.
    """
    if value < 0:
        return [-d for d in unpack_signed(-value, stride_bytes, count)]
    # with X/2 added at every digit, each balanced digit d in [-X/2, X/2)
    # is the unsigned field d + X/2 of one byte string; a value with more
    # digits than count makes to_bytes raise OverflowError
    half = 1 << (8 * stride_bytes - 1)
    offset = int.from_bytes((bytes(stride_bytes - 1) + b"\x80") * count,
                            "little")
    raw = (value + offset).to_bytes(stride_bytes * count, "little")
    return [int.from_bytes(raw[i:i + stride_bytes], "little") - half
            for i in range(0, len(raw), stride_bytes)]


def unpack_poly(value: int, stride: int) -> "IntPoly":
    """The polynomial of value's balanced base-X digits, X = 2**(8*stride):
    the one value is the image of when its coefficients lie below X/2.  A
    b-bit value has b // w + 1 digits in base 2**w, plus one for a carry."""
    return IntPoly(unpack_signed(
        value, stride, abs(value).bit_length() // (8 * stride) + 2))


def mul_kronecker(a, b):
    """Product of two nonempty signed coefficient lists by one big product."""
    la, lb = len(a), len(b)
    bits_a = max(abs(c).bit_length() for c in a)
    bits_b = max(abs(c).bit_length() for c in b)
    # |result coeff| <= min(la, lb) * max|a| * max|b| < 2**(need - 2)
    need = bits_a + bits_b + min(la, lb).bit_length() + 2
    stride_bytes = (need + 7) // 8
    count = la + lb - 1
    prod = pack_signed(a, stride_bytes) * pack_signed(b, stride_bytes)
    return unpack_signed(prod, stride_bytes, count)


# ---------------------------------------------------------------------------
# dense coefficient lists: the arithmetic of Z[x] and of Z[n][k]
# ---------------------------------------------------------------------------
#
# Lists run low degree first.  Their entries need only +, -, * and truth
# testing, so ints (Z[x]) and IntPolys (Z[n][k]) both work; what else a
# function needs of the ring is an argument.  Inputs carry no trailing
# zero; only sums can end in one, and `DensePoly` strips every result.


def strip(cs: list) -> list:
    """cs without its trailing zeros, stripped in place."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def add_coeffs(a, b) -> list:
    out = [x + y for x, y in zip(a, b)]
    out += a[len(b):] if len(a) > len(b) else b[len(a):]
    return out


def neg_coeffs(a) -> list:
    return [-c for c in a]


def sub_coeffs(a, b) -> list:
    out = [x - y for x, y in zip(a, b)]
    out += a[len(b):] if len(a) > len(b) else neg_coeffs(b[len(a):])
    return out


def mul_coeffs(a, b, zero=0) -> list:
    """The schoolbook product; zero is the coefficient ring's zero."""
    if not a or not b:
        return []
    if len(a) == 1:
        c = a[0]
        return [c * x for x in b]
    if len(b) == 1:
        c = b[0]
        return [x * c for x in a]
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def divexact_coeffs(a, b, quo, zero=0) -> list:
    """The exact quotient a / b by long division.  quo(c, lead) is the
    exact quotient of a coefficient by b's leading one, raising
    ExactDivisionError when there is none; so does a nonzero remainder."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return []
    lead, db = b[-1], len(b) - 1
    if not db:
        return [quo(c, lead) for c in a]
    if len(a) < len(b):
        raise ExactDivisionError("degree of dividend below divisor")
    rem = list(a)
    q = [zero] * (len(a) - db)
    for i in range(len(a) - len(b), -1, -1):
        top = rem[i + db]
        if not top:
            continue
        c = q[i] = quo(top, lead)
        for j, bj in enumerate(b):
            if bj:
                rem[i + j] -= c * bj
    if any(rem[:db]):
        raise ExactDivisionError("nonzero remainder")
    return q


def horner(coeffs, x, acc=0):
    """sum(c_i * x**i) by Horner's rule, for coefficients low degree first;
    acc is the zero of the ring the value lies in (an int, a Fraction, an
    IntPoly)."""
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def power(a, e: int, mul, one):
    """a**e for an integer e >= 0 by square and multiply, with the ring's
    product mul and its unit one; the value is the ring's own (a list for
    coefficient lists)."""
    if e < 0:
        raise ValueError("negative power of a polynomial")
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return result


def _int_quo(c: int, lead: int) -> int:
    q, r = divmod(c, lead)
    if r:
        raise ExactDivisionError("inexact leading coefficient")
    return q


_KRONECKER_CUTOFF = 600  # pairwise coefficient products; schoolbook below


def _mul_coeffs(a, b):
    """The product in Z[x]: one packed product once the operands have
    _KRONECKER_CUTOFF pairwise products, schoolbook below."""
    if len(a) > 1 and len(b) > 1 and len(a) * len(b) >= _KRONECKER_CUTOFF:
        return mul_kronecker(a, b)
    return mul_coeffs(a, b)


# ---------------------------------------------------------------------------
# polynomial types
# ---------------------------------------------------------------------------


class DensePoly:
    """Immutable dense polynomial: the tuple `coeffs`, low degree first,
    with no trailing zero.

    The arithmetic is the coefficient-list functions above.  A subclass
    names its ring: `const`, the coefficient zero `_zero`, the scalars
    `_scalars` that multiply coefficientwise, the product of lists `_mul`
    and the exact coefficient quotient `_quo`.
    """

    __slots__ = ("coeffs",)

    @classmethod
    def _wrap(cls, cs: list):
        """The polynomial of the coefficient list cs, stripped in place."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(strip(cs)))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = self.const(other)
        elif not isinstance(other, type(self)):
            return NotImplemented
        return self._wrap(add_coeffs(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(neg_coeffs(self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.const(other)
        elif not isinstance(other, type(self)):
            return NotImplemented
        return self._wrap(sub_coeffs(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._wrap(self._mul(self.coeffs, other.coeffs))
        if isinstance(other, self._scalars):
            return self._wrap([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return self._wrap(list(power(self.coeffs, e, self._mul,
                                     self.const(1).coeffs)))

    def divexact(self, divisor):
        """Exact quotient self / divisor; raises ExactDivisionError if the
        division is inexact."""
        return self._wrap(divexact_coeffs(self.coeffs, divisor.coeffs,
                                          self._quo, self._zero))


class IntPoly(DensePoly):
    """Immutable dense polynomial in one variable over the integers."""

    __slots__ = ()
    _zero = 0
    _scalars = int
    _mul = staticmethod(_mul_coeffs)
    _quo = staticmethod(_int_quo)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", tuple(strip(list(coeffs))))

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "IntPoly":
        return cls((0, 1))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __repr__(self):
        if not self.coeffs:
            return "IntPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%d*x" % c)
            else:
                parts.append("%d*x^%d" % (c, i))
        return "IntPoly(%s)" % " + ".join(parts)

    # -- substitution and evaluation ------------------------------------------

    def compose_shift(self, d: int) -> "IntPoly":
        """p(x + d) for an integer d."""
        return IntPoly(taylor_shift_coeffs(self.coeffs, d))

    def eval_int(self, x: int) -> int:
        return horner(self.coeffs, x)

    def eval_fraction(self, x) -> Fraction:
        return horner(self.coeffs, x, Fraction(0))

    # -- content ---------------------------------------------------------------

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        return int_gcd(*self.coeffs)

    def primitive(self) -> "IntPoly":
        """Quotient by the content; the sign of the polynomial is preserved."""
        return over_int([self], self.content())[0]

    def max_coeff_bits(self) -> int:
        return max((abs(c).bit_length() for c in self.coeffs), default=0)


def pseudo_rem_coeffs(a, b) -> list:
    """Pseudo-remainder of coefficient lists: lc(b)^(da - db + 1) * a mod b.

    Lists run low degree first and b's last entry is nonzero; the entries
    need only *, - and truth testing, so ints (Z[x]) and IntPolys (Z[n][k])
    both work.  The remainder is rescaled by lc(b) at every one of the
    da - db + 1 elimination steps, so the overall scaling exponent is fixed;
    the subresultant PRS of `franel.bipoly.kp_gcd` relies on that, since its
    exact division of each remainder by g h^delta holds only at that scaling.
    Trailing zeros of the result are not stripped.
    """
    if not b:
        raise ZeroDivisionError("pseudo-remainder by zero")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return list(a)
    lead = b[-1]
    rem = list(a)
    for i in range(da - db, -1, -1):
        top = rem[i + db]
        for j in range(i + db):
            rem[j] = rem[j] * lead
        if top:
            for j in range(db):
                if b[j]:
                    rem[i + j] = rem[i + j] - top * b[j]
        del rem[i + db]
    return rem


def taylor_shift_coeffs(a, d) -> list:
    """Coefficients of a(x + d), by repeated Horner steps.

    Lists run low degree first; the entries need only + and multiplication
    by d, so ints (Z[x]) and IntPolys (Z[n][k]) both work, with d an int,
    or with d an IntPoly when the entries are IntPolys (then the shift
    is by a polynomial in another variable).
    """
    out = list(a)
    if d:
        for i in range(len(out) - 1):
            for j in range(len(out) - 2, i - 1, -1):
                out[j] = out[j] + d * out[j + 1]
    return out


def pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder in Z[x]; see :func:`pseudo_rem_coeffs`."""
    return IntPoly(pseudo_rem_coeffs(a.coeffs, b.coeffs))


def poly_gcd_int(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd in Z[x] (content included), normalized to positive leading coeff."""
    if a.is_zero and b.is_zero:
        return IntPoly()
    if a.is_zero:
        return b if b.lc > 0 else -b
    if b.is_zero:
        return a if a.lc > 0 else -a
    cg = int_gcd(a.content(), b.content())
    pa, pb = a.primitive(), b.primitive()
    if pa.degree < pb.degree:
        pa, pb = pb, pa
    while True:
        if pb.degree == 0:
            g = IntPoly.const(1)
            break
        r = pseudo_rem(pa, pb)
        if r.is_zero:
            g = pb.primitive()
            break
        pa, pb = pb, r.primitive()
    g = g * cg
    return g if g.lc > 0 else -g


# ---------------------------------------------------------------------------
# contents of lists of polynomials
# ---------------------------------------------------------------------------


def int_content(polys) -> int:
    """Nonnegative gcd of the integer coefficients of every entry (0 for
    none); it stops at the first entry that brings it to 1."""
    g = 0
    for p in polys:
        g = int_gcd(g, p.content())
        if g == 1:
            break
    return g


def over_int(polys: list, c: int) -> list:
    """The entries divided by the integer c, which divides each of them;
    a c of 0 or 1 returns the list itself."""
    if c <= 1:
        return polys
    return [IntPoly(tuple(x // c for x in p.coeffs)) for p in polys]


def poly_content(polys, g=IntPoly()):
    """(gcd, quotients): the gcd in Z[x] of the entries and the seed g,
    content included and with a positive leading coefficient, and the
    entries divided by it.

    The gcd is built from the entries of least degree up.  An entry that
    it already divides, by a test division whose quotient is kept, leaves
    it as it is; once it is a constant only the integer contents of the
    rest are folded in.  So it divides every entry and the gcd of those it
    was built from, which makes it the gcd of all.  With every entry and
    the seed zero the gcd is zero and the entries come back as they are.
    """
    polys = list(polys)
    if g.lc < 0:
        g = -g
    order = sorted((i for i, p in enumerate(polys) if p),
                   key=lambda i: polys[i].degree)
    quotients = {}
    for pos, i in enumerate(order):
        if g.degree > 0:
            try:
                quotients[i] = polys[i].divexact(g)
                continue
            except ExactDivisionError:
                quotients.clear()  # taken over a g that now shrinks
        g = poly_gcd_int(g, polys[i])
        if g.degree == 0:
            c = int_gcd(g.lc, int_content(polys[j] for j in order[pos + 1:]))
            return IntPoly.const(c), over_int(polys, c)
    if g.is_zero:
        return g, polys
    return g, [quotients[i] if i in quotients else p.divexact(g)
               for i, p in enumerate(polys)]


# ---------------------------------------------------------------------------
# integer roots by Descartes' rule of signs
# ---------------------------------------------------------------------------


def derivative(p: IntPoly) -> IntPoly:
    return IntPoly(tuple(i * c for i, c in enumerate(p.coeffs) if i >= 1)
                   if p.degree >= 1 else ())


def squarefree_part(p: IntPoly) -> IntPoly:
    """p over its gcd with p': the same roots, each of multiplicity one."""
    return p.divexact(poly_gcd_int(p, derivative(p)))


def _sign_change(cs) -> bool:
    """Whether the nonzero entries of cs take both signs."""
    return len({c > 0 for c in cs if c}) > 1


def _roots_between(p: IntPoly, lo: int, hi: int) -> list:
    """Sorted integer roots of p in the open interval (lo, hi).

    With v(u) = p(lo + (hi - lo) u), the roots of p in (lo, hi) are those
    of v in (0, 1), and u -> 1/(1 + u) takes them to the positive roots of
    (1 + u)^d v(1/(1 + u)): the Taylor shift by 1 of v's coefficients
    reversed.  By Descartes' rule an interval where that shows no sign
    change holds no root (Collins and Akritas, "Polynomial real root
    isolation using Descartes' rule of signs", SYMSAC 1976).  Any other
    has its midpoint tested exactly and both halves searched, down to
    halves narrower than 2, which hold no integer.
    """
    roots, stack = [], [(lo, hi)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        v = [c * (hi - lo) ** i
             for i, c in enumerate(taylor_shift_coeffs(p.coeffs, lo))]
        if _sign_change(taylor_shift_coeffs(v[::-1], 1)):
            mid = (lo + hi) // 2
            if not p.eval_int(mid):
                roots.append(mid)
            stack += [(lo, mid), (mid, hi)]
    return sorted(roots)


def _integer_roots(p: IntPoly, negative: bool) -> list:
    """The sorted distinct integer roots of p, the negative ones if asked:
    those of p's squarefree part in (-B, B), or in (-1, B) for the
    nonnegative ones, B = 2 + max|c| // |lc| the Cauchy bound."""
    if p.is_zero:
        raise ValueError("the zero polynomial has every integer as a root")
    sf = squarefree_part(p)
    bound = 2 + max(abs(c) for c in sf.coeffs) // abs(sf.lc)
    return _roots_between(sf, -bound if negative else -1, bound)


def integer_roots(p: IntPoly):
    """Sorted list of the distinct integer roots of p (p must be nonzero)."""
    return _integer_roots(p, negative=True)


def nonnegative_integer_roots(p: IntPoly):
    """Sorted distinct integer roots x >= 0 of p (p nonzero).  With
    p = x**e q, q(0) != 0, 0 is a root iff e > 0, and by Descartes' rule q
    has no positive root when its coefficients, p's nonzero ones, show no
    sign change; otherwise the search runs on (-1, B) alone, no negative
    root sought (and rejects p = 0)."""
    if p.is_zero or _sign_change(p.coeffs):
        return _integer_roots(p, negative=False)
    return [0] if p.coeffs[0] == 0 else []
