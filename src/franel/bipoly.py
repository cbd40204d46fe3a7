"""Bivariate integer polynomials in (n, k), and rational functions in lowest
terms.

A polynomial in Z[n][k] has one representation, its "k-poly": the dense
list of its IntPoly coefficients in n, indexed by the power of k, with no
trailing zero.  BiPoly holds the k-poly as a tuple and runs the dense
arithmetic of `franel.intpoly` on it, the one that IntPoly runs on integer
coefficients; this module adds only what is particular to Z[n][k].
Products switch from schoolbook over k (`intpoly.mul_coeffs`) to one
Kronecker product of the packed (n, k) grid once the operands are large.
Gcds run a subresultant pseudo-remainder sequence over Z[n], which keeps
certificate reduction fraction-free; a coprimality proof modulo one prime
at one integer n settles the common coprime case first.  `kp_norm` bounds
1-norms for the images n -> 2**(8*stride).

A RatFunc is a canonical form and has no arithmetic: its constructor
reduces to lowest terms, so one is built only where a canonical form is
read (a term's shift quotients, the Gosper ratio, a certificate, a parsed
document, a nonzero residual).  Everything in between works on unreduced
BiPoly numerators and denominators.

The monomial order used for sign normalization is graded lexicographic with
n > k.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .errors import PoleError
from .intpoly import (DensePoly, IntPoly, divexact_coeffs, horner,
                      int_content, mul_coeffs, mul_kronecker, pack_signed,
                      poly_content, pseudo_rem_coeffs, strip,
                      taylor_shift_coeffs)

# ---------------------------------------------------------------------------
# k-polys: lists of IntPoly coefficients, index = power of k
# ---------------------------------------------------------------------------


def kp_deg(a) -> int:
    return len(a) - 1


# pairwise products of n-coefficients from which one packed product of
# the whole k-major grid beats schoolbook over k; timed on every product
# the s = 1..7 telescopes take, 256 to 2048 cost within 1% of each other
_KP_KRONECKER_CUTOFF = 512


def kp_mul(a, b):
    """Product in Z[n][k]: schoolbook over k, or one packed product."""
    if not a or not b:
        return []
    cols = len(a) + len(b) - 1
    if (sum(len(c.coeffs) for c in a) * sum(len(c.coeffs) for c in b)
            >= _KP_KRONECKER_CUTOFF):
        # k-major grid, entry (dn, dk) at dk * stride + dn; a product's
        # n-degree stays below stride, so no column spills into the next
        stride = max(c.degree for c in a) + max(c.degree for c in b) + 1
        if stride * cols <= 4_000_000:
            digits = mul_kronecker(_kp_grid(a, stride), _kp_grid(b, stride))
            return [IntPoly(digits[i * stride:(i + 1) * stride])
                    for i in range(cols)]
    return mul_coeffs(a, b, IntPoly())


def _kp_grid(a, stride: int) -> list:
    grid = [0] * (len(a) * stride)
    for i, c in enumerate(a):
        grid[i * stride:i * stride + len(c.coeffs)] = c.coeffs
    return grid


# integers substituted for n where one good point settles a question in k;
# large, so that a leading coefficient in k rarely vanishes at any of them
SPECIALIZATION_POINTS = (1000003, 1016003, 1032003)

# the Mersenne prime modulo which the coprimality and primitivity proofs
# run Euclid
COPRIME_PRIME = 2 ** 61 - 1


def gcd_mod_p(a, b) -> list:
    """A gcd modulo p = COPRIME_PRIME, up to a unit, of two polynomials given
    by their integer coefficients, lowest power first.  When p does not
    divide lc(a), a constant result proves that no g of positive degree
    divides both: lc(g) divides lc(a), so g mod p would keep its degree
    and divide the gcd mod p.  A nonconstant one proves nothing.
    """
    p = COPRIME_PRIME
    a, b = [c % p for c in a], [c % p for c in b]
    while strip(b):
        # a <- a mod b, then swap
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) > db:
            q = a[-1] * inv % p
            shift = len(a) - 1 - db
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            strip(a)
        a, b = b, a
    return a


def _coprime_by_specialization(a, b) -> bool:
    """Prove gcd_k(a, b) is constant from one good point, modulo a prime.

    By Gauss's lemma the gcd of a and b over Q(n) can be taken as a
    primitive g in Z[n][k] with a = g h in Z[n][k], whether a is primitive
    or not, so lc_k(g)(n0) divides lc_k(a)(n0).  At the first n0 where
    p = COPRIME_PRIME does not divide lc_k(a)(n0), g(n0, k) keeps the
    k-degree of g and divides both images, so a constant `gcd_mod_p` of
    them forces deg_k g = 0.  False when inconclusive (a common factor, a
    coincidence at n0 or modulo p, or no usable point): the caller's exact
    pseudo-remainder sequence decides those cases.
    """
    for n0 in SPECIALIZATION_POINTS:
        if a[-1].eval_int(n0) % COPRIME_PRIME:
            return len(gcd_mod_p([c.eval_int(n0) for c in a],
                                 [c.eval_int(n0) for c in b])) == 1
    return False


def proved_primitive(polys) -> bool:
    """Prove that the IntPolys polys have gcd 1 in Z[x], modulo a prime.

    The proof: their integer content is 1, and `gcd_mod_p`, from an entry
    whose leading coefficient p does not divide through all the others,
    ends in a constant.  False means no proof; `poly_content` decides.
    """
    usable = [c for c in polys if c.lc % COPRIME_PRIME]
    if int_content(polys) != 1 or not usable:
        return False
    first = min(usable, key=lambda c: c.degree)
    g = first.coeffs
    for c in polys:
        if len(g) > 1 and c is not first:
            g = gcd_mod_p(g, c.coeffs)
    return len(g) == 1


def kp_gcd(a, b):
    """Primitive gcd in k of two k-polys (contents in Z[n] excluded).

    Subresultant pseudo-remainder sequence (Brown's algorithm): every
    remainder is divided by the known factor g*h^delta, which keeps the
    coefficient growth polynomial without computing contents inside the
    loop.  A one-point specialization modulo a prime settles the common
    coprime case on the inputs as given, before their contents in Z[n] are
    taken (its proof needs no primitive inputs) and before any
    pseudo-division happens.
    """
    a, b = strip(list(a)), strip(list(b))
    if not a:
        return poly_content(b)[1]
    if not b:
        return poly_content(a)[1]
    if kp_deg(a) < kp_deg(b):
        a, b = b, a
    if kp_deg(b) > 0 and _coprime_by_specialization(a, b):
        return [IntPoly.const(1)]
    _, a = poly_content(a)
    _, b = poly_content(b)
    g = IntPoly.const(1)
    h = IntPoly.const(1)
    while True:
        if kp_deg(b) == 0:
            return [IntPoly.const(1)]
        delta = kp_deg(a) - kp_deg(b)
        r = strip(pseudo_rem_coeffs(a, b))
        if not r:
            return poly_content(b)[1]
        a = b
        b = divexact_coeffs(r, [g * h ** delta], IntPoly.divexact)
        g = a[-1]
        if delta >= 1:
            h = (g ** delta).divexact(h ** (delta - 1))
        # delta == 0 leaves h unchanged


def kp_norm(a, dk: int = 0) -> int:
    """A bound on the 1-norm of p(n, k + dk), p given by its k-poly a: p
    with its coefficients' absolute values at n = 1, k = 1 + |dk|, by
    Horner's rule, and at least 1, so that a bound built from such bounds
    by sums and products also bounds each of them.  A shift in n is made
    on the polynomial first."""
    return max(1, horner([sum(map(abs, c.coeffs)) for c in a], 1 + abs(dk)))


# ---------------------------------------------------------------------------
# bivariate polynomials
# ---------------------------------------------------------------------------


class BiPoly(DensePoly):
    """Immutable polynomial in (n, k) over the integers.

    Stored as its k-poly: a tuple of IntPoly coefficients in n, index =
    power of k, with no trailing zero.  The arithmetic is `DensePoly`'s
    over the ring Z[n]: IntPoly coefficients, `kp_mul` for products, and
    ints and IntPolys in n as scalars.
    """

    __slots__ = ()
    _zero = IntPoly()
    _scalars = (int, IntPoly)
    _mul = staticmethod(kp_mul)
    _quo = staticmethod(IntPoly.divexact)

    def __init__(self, terms=None):
        """Build from a map {(deg_n, deg_k): c}; zero coefficients drop."""
        cols = []
        for (dn, dk), c in (terms or {}).items():
            cols.extend([] for _ in range(dk + 1 - len(cols)))
            cols[dk].extend([0] * (dn + 1 - len(cols[dk])))
            cols[dk][dn] = c
        object.__setattr__(self, "coeffs",
                           tuple(strip([IntPoly(c) for c in cols])))

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls.from_kpoly([IntPoly.const(c)])

    @classmethod
    def var_n(cls) -> "BiPoly":
        return cls.from_kpoly([IntPoly.variable()])

    @classmethod
    def var_k(cls) -> "BiPoly":
        return cls.from_kpoly([IntPoly(), IntPoly.const(1)])

    @classmethod
    def from_intpoly_n(cls, p: IntPoly) -> "BiPoly":
        return cls.from_kpoly([p])

    @classmethod
    def from_kpoly(cls, kp) -> "BiPoly":
        return cls._wrap(list(kp))

    @property
    def terms(self) -> dict:
        """A new map {(deg_n, deg_k): c} of the nonzero coefficients."""
        return {(dn, dk): c for dk, p in enumerate(self.coeffs)
                for dn, c in enumerate(p.coeffs) if c}

    # -- structure -----------------------------------------------------------

    @property
    def deg_n(self) -> int:
        return max((c.degree for c in self.coeffs), default=-1)

    @property
    def deg_k(self) -> int:
        return len(self.coeffs) - 1

    def lead_term_grlex(self):
        """((deg_n, deg_k), coeff) of the graded-lex (n > k) leading term."""
        if not self.coeffs:
            return None
        # within one power of k the top power of n leads
        total, dn = max((c.degree + dk, c.degree)
                        for dk, c in enumerate(self.coeffs) if c)
        dk = total - dn
        return (dn, dk), self.coeffs[dk].lc

    def lc_grlex(self) -> int:
        lead = self.lead_term_grlex()
        return lead[1] if lead else 0

    def content_int(self) -> int:
        return int_content(self.coeffs)

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "BiPoly(0)"
        parts = []
        for (dn, dk) in sorted(terms, key=lambda t: (t[0] + t[1], t[0])):
            c = terms[(dn, dk)]
            mono = []
            if dn:
                mono.append("n" if dn == 1 else "n^%d" % dn)
            if dk:
                mono.append("k" if dk == 1 else "k^%d" % dk)
            body = "*".join(mono)
            if body:
                parts.append("%d*%s" % (c, body) if abs(c) != 1
                             else ("-" if c < 0 else "") + body)
            else:
                parts.append(str(c))
        return "BiPoly(%s)" % " + ".join(parts)

    # -- substitution and evaluation --------------------------------------------

    def compose_shift(self, dn: int, dk: int) -> "BiPoly":
        """Substitute n -> n + dn and k -> k + dk for integers dn, dk."""
        if dn == 0 and dk == 0:
            return self
        return BiPoly._wrap(taylor_shift_coeffs(
            [c.compose_shift(dn) for c in self.coeffs], dk))

    def image(self, stride: int) -> IntPoly:
        """p(X, k) in Z[k] for X = 2**(8*stride)."""
        return IntPoly([pack_signed(c.coeffs, stride) for c in self.coeffs])

    def eval(self, n, k) -> Fraction:
        return horner([c.eval_fraction(n) for c in self.coeffs], k,
                      Fraction(0))


def poly_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    """Greatest common divisor in Z[n, k].

    The result is primitive (unit integer content) with a positive leading
    coefficient under graded lex order with n > k.  Raises ValueError when
    both inputs are zero.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    if a.is_zero or b.is_zero:
        g = (b if a.is_zero else a)
        g = g.divexact(BiPoly.const(g.content_int()))
        return g if g.lc_grlex() > 0 else -g
    # kp_gcd leaves out the content in Z[n] of the gcd, which is the gcd of
    # all k-coefficients of a and b together; its integer content goes
    cont, _ = poly_content(a.coeffs + b.coeffs)
    g = BiPoly.from_kpoly(kp_gcd(a.coeffs, b.coeffs)) * cont.primitive()
    return g if g.lc_grlex() > 0 else -g


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Quotient of bivariate integer polynomials, always in lowest terms.

    Normalization: gcd(num, den) = 1 both as polynomials and in integer
    content, and the denominator has a positive leading coefficient under
    graded lex order with n > k.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            object.__setattr__(self, "num", BiPoly())
            object.__setattr__(self, "den", BiPoly.const(1))
            return
        g = poly_gcd(num, den)
        if not (g.deg_n == 0 and g.deg_k == 0 and g.lc_grlex() == 1):
            num = num.divexact(g)
            den = den.divexact(g)
        c = int_gcd(num.content_int(), den.content_int())
        if c > 1:
            num = num.divexact(BiPoly.const(c))
            den = den.divexact(BiPoly.const(c))
        if den.lc_grlex() < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, c: int) -> "RatFunc":
        return cls(BiPoly.const(c), BiPoly.const(1))

    @classmethod
    def one(cls) -> "RatFunc":
        return cls.from_int(1)

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls.from_int(0)

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "RatFunc(%r / %r)" % (self.num, self.den)

    # -- evaluation ----------------------------------------------------------

    def eval(self, n, k) -> Fraction:
        d = self.den.eval(n, k)
        if d == 0:
            raise PoleError("pole at n=%s, k=%s" % (n, k))
        return self.num.eval(n, k) / d
