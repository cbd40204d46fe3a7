"""Bivariate integer polynomials in (n, k) and normalized rational functions.

BiPoly stores a sparse map from (deg_n, deg_k) to nonzero integer
coefficients.  Gcd computations view a polynomial recursively as a
polynomial in k whose coefficients live in Z[n] (a "k-poly": a dense list of
IntPoly indexed by the power of k) and run a subresultant pseudo-remainder
sequence there; that keeps certificate reduction fraction-free.

The monomial order used for sign normalization is graded lexicographic with
n > k.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd as int_gcd

from .errors import ExactDivisionError, PoleError
from .intpoly import IntPoly, mul_kronecker, poly_gcd_int, pseudo_rem_coeffs

# ---------------------------------------------------------------------------
# k-recursive view: list of IntPoly coefficients, index = power of k
# ---------------------------------------------------------------------------


def kp_strip(cs):
    while cs and cs[-1].is_zero:
        cs.pop()
    return cs


def kp_deg(a) -> int:
    return len(a) - 1


def kp_is_zero(a) -> bool:
    return not a


def kp_add(a, b):
    out = list(a) if len(a) >= len(b) else list(b)
    small = b if len(a) >= len(b) else a
    for i, c in enumerate(small):
        out[i] = out[i] + c
    return kp_strip(out)


def kp_neg(a):
    return [-c for c in a]


def kp_sub(a, b):
    return kp_add(a, kp_neg(b))


def kp_mul(a, b):
    if not a or not b:
        return []
    out = [IntPoly() for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if ai.is_zero:
            continue
        for j, bj in enumerate(b):
            if not bj.is_zero:
                out[i + j] = out[i + j] + ai * bj
    return kp_strip(out)


def kp_mul_intpoly(a, p: IntPoly):
    if p.is_zero:
        return []
    return kp_strip([c * p for c in a])


def kp_divexact(a, b):
    """Exact quotient in Z[n][k]; raises ExactDivisionError if inexact."""
    if kp_is_zero(b):
        raise ZeroDivisionError("division by zero polynomial")
    if kp_is_zero(a):
        return []
    da, db = kp_deg(a), kp_deg(b)
    if da < db:
        raise ExactDivisionError("k-degree of dividend below divisor")
    rem = list(a)
    lead = b[-1]
    q = [IntPoly() for _ in range(da - db + 1)]
    for i in range(da - db, -1, -1):
        top = rem[i + db]
        if top.is_zero:
            continue
        c = top.divexact(lead)
        q[i] = c
        for j, bj in enumerate(b):
            if not bj.is_zero:
                rem[i + j] = rem[i + j] - c * bj
    if any(not r.is_zero for r in rem[:db]):
        raise ExactDivisionError("nonzero remainder in bivariate division")
    return kp_strip(q)


def kp_content(a) -> IntPoly:
    """Gcd in Z[n] of the k-coefficients, positive leading coefficient."""
    g = IntPoly()
    for c in a:
        g = poly_gcd_int(g, c)
        if g.degree == 0 and g.lc == 1:
            break
    return g


def kp_primitive(a):
    g = kp_content(a)
    if g.is_zero or (g.degree == 0 and g.lc == 1):
        return list(a)
    return [c.divexact(g) for c in a]


# integers substituted for n where one good point settles a question in k;
# large, so that a leading coefficient in k rarely vanishes at any of them
SPECIALIZATION_POINTS = (1000003, 1016003, 1032003)


def _coprime_by_specialization(a, b) -> bool:
    """Prove gcd_k(a, b) is constant from one good evaluation point.

    At any n0 where lc_k(a) does not vanish, the specialized gcd degree
    bounds the k-degree of the true gcd from above, so a constant gcd at
    such a point certifies coprimality.  Returns False when inconclusive.
    """
    for n0 in SPECIALIZATION_POINTS:
        if a[-1].eval_int(n0) == 0:
            continue
        pa = IntPoly([c.eval_int(n0) for c in a])
        pb = IntPoly([c.eval_int(n0) for c in b])
        if pb.is_zero:
            return False
        return poly_gcd_int(pa, pb).degree == 0
    return False


def kp_gcd(a, b):
    """Primitive gcd in k of two k-polys (contents in Z[n] excluded).

    Subresultant pseudo-remainder sequence (Brown's algorithm): every
    remainder is divided by the known factor g*h^delta, which keeps the
    coefficient growth polynomial without computing contents inside the
    loop.  A one-point specialization settles the common coprime case
    before any pseudo-division happens.
    """
    a = kp_primitive(kp_strip(list(a)))
    b = kp_primitive(kp_strip(list(b)))
    if kp_is_zero(a):
        return b
    if kp_is_zero(b):
        return a
    if kp_deg(a) < kp_deg(b):
        a, b = b, a
    if kp_deg(b) > 0 and _coprime_by_specialization(a, b):
        return [IntPoly.const(1)]
    g = IntPoly.const(1)
    h = IntPoly.const(1)
    while True:
        if kp_deg(b) == 0:
            return [IntPoly.const(1)]
        delta = kp_deg(a) - kp_deg(b)
        r = kp_strip(pseudo_rem_coeffs(a, b))
        if kp_is_zero(r):
            return kp_primitive(b)
        divisor = g * h ** delta
        a = b
        b = [c.divexact(divisor) for c in r]
        g = a[-1]
        if delta >= 1:
            h = (g ** delta).divexact(h ** (delta - 1))
        # delta == 0 leaves h unchanged


def kp_shift_k(a, j: int):
    """Substitute k -> k + j for an integer j."""
    if j == 0 or kp_is_zero(a):
        return list(a)
    out = [IntPoly() for _ in a]
    for i, ci in enumerate(a):
        if ci.is_zero:
            continue
        # k^i -> sum_t C(i, t) j^t k^(i - t)
        jp = 1
        for t in range(i + 1):
            out[i - t] = out[i - t] + (comb(i, t) * jp) * ci
            jp *= j
    return kp_strip(out)


# ---------------------------------------------------------------------------
# sparse bivariate polynomials
# ---------------------------------------------------------------------------


class BiPoly:
    """Immutable sparse polynomial in (n, k) over the integers."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for key, c in terms.items():
                if c:
                    t[key] = c
        object.__setattr__(self, "terms", t)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def var_n(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def var_k(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    @classmethod
    def from_intpoly_n(cls, p: IntPoly) -> "BiPoly":
        return cls({(i, 0): c for i, c in enumerate(p.coeffs) if c})

    @classmethod
    def from_kpoly(cls, kp) -> "BiPoly":
        terms = {}
        for dk, p in enumerate(kp):
            for dn, c in enumerate(p.coeffs):
                if c:
                    terms[(dn, dk)] = c
        return cls(terms)

    def to_kpoly(self):
        if not self.terms:
            return []
        dk_max = max(dk for _, dk in self.terms)
        cols = [{} for _ in range(dk_max + 1)]
        for (dn, dk), c in self.terms.items():
            cols[dk][dn] = c
        out = []
        for col in cols:
            if col:
                size = max(col) + 1
                cs = [0] * size
                for dn, c in col.items():
                    cs[dn] = c
                out.append(IntPoly(cs))
            else:
                out.append(IntPoly())
        return kp_strip(out)

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def deg_n(self) -> int:
        return max((dn for dn, _ in self.terms), default=-1)

    @property
    def deg_k(self) -> int:
        return max((dk for _, dk in self.terms), default=-1)

    def lead_term_grlex(self):
        """((deg_n, deg_k), coeff) of the graded-lex (n > k) leading term."""
        if not self.terms:
            return None
        key = max(self.terms, key=lambda t: (t[0] + t[1], t[0]))
        return key, self.terms[key]

    def lc_grlex(self) -> int:
        lead = self.lead_term_grlex()
        return lead[1] if lead else 0

    def content_int(self) -> int:
        g = 0
        for c in self.terms.values():
            g = int_gcd(g, c)
            if g == 1:
                return 1
        return g

    def max_coeff_bits(self) -> int:
        return max((abs(c).bit_length() for c in self.terms.values()),
                   default=0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "BiPoly(0)"
        parts = []
        for (dn, dk) in sorted(self.terms, key=lambda t: (t[0] + t[1], t[0])):
            c = self.terms[(dn, dk)]
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

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return BiPoly()
            return BiPoly({key: c * other for key, c in self.terms.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return BiPoly()
        la, lb = len(self.terms), len(other.terms)
        if la * lb >= 512:
            dense = self._mul_dense(other)
            if dense is not None:
                return dense
        out = {}
        for (an, ak), ac in self.terms.items():
            for (bn, bk), bc in other.terms.items():
                key = (an + bn, ak + bk)
                v = out.get(key, 0) + ac * bc
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return BiPoly(out)

    __rmul__ = __mul__

    def _mul_dense(self, other):
        """Kronecker-packed product; None if the dense grid would be huge."""
        cols = self.deg_k + other.deg_k + 1
        if (self.deg_n + other.deg_n + 1) * cols > 4_000_000:
            return None

        def flat(p):
            vec = [0] * (p.deg_n * cols + p.deg_k + 1)
            for (tn, tk), c in p.terms.items():
                vec[tn * cols + tk] = c
            return vec

        digits = mul_kronecker(flat(self), flat(other))
        return BiPoly({divmod(idx, cols): c
                       for idx, c in enumerate(digits) if c})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = BiPoly.const(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def divexact(self, other: "BiPoly") -> "BiPoly":
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return BiPoly()
        if other.deg_k == 0 and other.deg_n == 0:
            c = next(iter(other.terms.values()))
            out = {}
            for key, v in self.terms.items():
                q, r = divmod(v, c)
                if r:
                    raise ExactDivisionError("inexact constant division")
                out[key] = q
            return BiPoly(out)
        if other.deg_k == 0:
            # divisor lives in Z[n]; divide each k-coefficient
            div = other.to_kpoly()[0]
            return BiPoly.from_kpoly(
                [c.divexact(div) for c in self.to_kpoly()])
        return BiPoly.from_kpoly(kp_divexact(self.to_kpoly(),
                                             other.to_kpoly()))

    # -- substitution and evaluation --------------------------------------------

    def compose_shift(self, dn: int, dk: int) -> "BiPoly":
        """Substitute n -> n + dn and k -> k + dk for integers dn, dk."""
        if dn == 0 and dk == 0:
            return self
        out = {}
        for (tn, tk), c in self.terms.items():
            # expand (n + dn)^tn (k + dk)^tk
            n_row = [(comb(tn, i) * dn ** (tn - i)) for i in range(tn + 1)] \
                if dn else None
            k_row = [(comb(tk, j) * dk ** (tk - j)) for j in range(tk + 1)] \
                if dk else None
            if n_row is None:
                n_items = [(tn, 1)]
            else:
                n_items = [(i, n_row[i]) for i in range(tn + 1) if n_row[i]]
            if k_row is None:
                k_items = [(tk, 1)]
            else:
                k_items = [(j, k_row[j]) for j in range(tk + 1) if k_row[j]]
            for i, cn in n_items:
                for j, ck in k_items:
                    key = (i, j)
                    v = out.get(key, 0) + c * cn * ck
                    if v:
                        out[key] = v
                    elif key in out:
                        del out[key]
        return BiPoly(out)

    def eval(self, n, k) -> Fraction:
        acc = Fraction(0)
        for (dn, dk), c in self.terms.items():
            acc += c * Fraction(n) ** dn * Fraction(k) ** dk
        return acc

    def eval_int(self, n: int, k: int) -> int:
        acc = 0
        for (dn, dk), c in self.terms.items():
            acc += c * n ** dn * k ** dk
        return acc


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
    ka, kb = a.to_kpoly(), b.to_kpoly()
    cont_a, cont_b = kp_content(ka), kp_content(kb)
    cont_g = poly_gcd_int(cont_a, cont_b)
    pp_a = [c.divexact(cont_a) for c in ka]
    pp_b = [c.divexact(cont_b) for c in kb]
    pp_g = kp_gcd(pp_a, pp_b)
    g = BiPoly.from_kpoly(kp_mul_intpoly(pp_g, cont_g))
    c = g.content_int()
    if c > 1:
        g = g.divexact(BiPoly.const(c))
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

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int):
        if e < 0:
            return RatFunc(self.den, self.num) ** (-e)
        result = RatFunc.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- substitution and evaluation --------------------------------------------

    def shift(self, dn: int, dk: int) -> "RatFunc":
        """Substitute n -> n + dn, k -> k + dk."""
        return RatFunc(self.num.compose_shift(dn, dk),
                       self.den.compose_shift(dn, dk))

    def eval(self, n, k) -> Fraction:
        d = self.den.eval(n, k)
        if d == 0:
            raise PoleError("pole at n=%s, k=%s" % (n, k))
        return self.num.eval(n, k) / d
