"""Creative telescoping for bivariate hypergeometric terms.

Given a term a(n, k) by its shift quotients, the solver looks for the least
order r such that some nonzero operator P = sum_i c_i(n) N^i admits a
rational certificate R(n, k) with

    (P a)(n, k) = b(n, k+1) - b(n, k),      b(n, k) = R(n, k) a(n, k).

The search runs the classic parameterized Gosper construction: write
(P a)/a over a common denominator d(k), put the shift quotient of a/d into
Gosper normal form (C(k+1)/C(k)) * A(k)/B(k) with gcd(A(k), B(k+j)) = 1 for
all integers j >= 0, bound the degree of the unknown polynomial f, and
compare coefficients of k in

    A(k) f(k+1) - B(k-1) f(k) = C(k) sum_i c_i(n) u_i(k),

which is linear in the c_i and the coefficients of f.  The shifts j that
the normal form must examine come from a resultant in k taken at one integer
n; any extra shift it yields is harmless (see _dispersion_set).  The
resulting system over Z[n] is triangular in the coefficients of f, so the
nullspace substitutes them away from f_D down and runs fraction-free
elimination only on the few conditions left on the c_i (see franel.linalg).
It is built, and f substituted away, in the image n -> 2**(8*stride) of A,
B(k-1), C^ and the u^_i (below), with 1-norm bounds built alongside.  A
solution with nonzero (c_0, .., c_r) yields the operator and the certificate

    R(n, k) = B(k-1) f(k) / (C(k) d(k)).

The columns of the c_i enter the nullspace without their contents in
Z[n].  Column i is -C(k) u_i(k) with u_i = prod_{j<i} p(n+j, k)
prod_{i<=j<r} q(n+j, k), rho_n = p/q.  Each factor splits exactly into its
content and primitive part over its coefficients in k, p(n+j, k) =
cp_j p^_j, q(n+j, k) = cq_j q^_j and C = cC C^, and by Gauss's lemma the
product C^ u^_i of primitive parts is primitive, so
g_i = cC prod_{j<i} cp_j prod_{j>=i} cq_j is the column's whole content;
for binom(n, k)^s it is prod_{j<i} (n+j+1)^s.  The solver builds -C^ u^_i,
column i divided by g_i, which is the substitution c_i = y_i / g_i.
Scaling columns by nonzero elements of Q(n) keeps the rank profile and the
free columns, and the vector of a free column is zero at the other free
columns and right of it, which fixes it up to a factor in Q(n); so the
vector of the scaled matrix, with f times Pi = cC prod_j cp_j prod_j cq_j
and y_i times Pi / g_i, made primitive with the same sign, is exactly the
vector of the unscaled one.  The contents have no k, so the k-degrees,
deg p and the bound D do not move.  Correctness needs only the exact
split; Gauss's lemma is what makes it strip the full content.

Rational functions are brought to lowest terms only where a canonical form
is read: the Gosper ratio, whose normal form needs it, and the certificate.
The shift quotients u_i/d and the linear system stay unreduced products.

Everything is exact; verification never trusts the construction.  It adds
(P a)/a and R(n, k) over one shared denominator, which for binom(n, k)^s is
the certificate's own, and checks the identity (P a)/a + R(n, k) =
R(n, k+1) rho_k with R(n, k+1)'s denominator cancelled first.  Since R is
in lowest terms, that denominator must divide rho_k's numerator times the
shared one when the identity holds, so a failed division refutes it before
the sum's numerator is formed, and a successful one leaves a cross
multiplication in which each product has a small factor (see
_ResidualParts).  The check runs in the image of the
ring map Z[n][k] -> Z[k], n -> X = 2**(8*stride): each coefficient in n
becomes one integer, so it is big-integer arithmetic on polynomials in k.
X/2 exceeds a bound on the 1-norm of the full residual numerator, built
from ||p(n+a, k+b)||_1 <= |p|(1+|a|, 1+|b|), and balanced base-X digits
make the map injective below X/2, so the image's verdict is the
polynomial one (see _residual_image).  The residual is never reduced, and
a nonzero one is reported by its degrees, which add over Z[n, k].  The
numerator left after the cancellation is bounded once the cofactor's
image is unpacked; when that bound lies below X/2, which also proves the
cancellation exact in Z[n][k], its degrees are read from the bit lengths
of its image (see certificate_mismatch).  Otherwise they are read from the
image of the full numerator, whose balanced base-X digits are its
coefficients, as the stride bounds them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import NamedTuple

from .bipoly import (SPECIALIZATION_POINTS, BiPoly, RatFunc, kp_gcd,
                     kp_norm, proved_primitive)
from .errors import ExactDivisionError, TelescoperNotFoundError
from .hyperterm import HyperTerm, quotient_products, rho_n_shifts
from .intpoly import (IntPoly, nonnegative_integer_roots, pack_signed,
                      poly_content, squarefree_part, stride_for,
                      taylor_shift_coeffs, unpack_poly)
from .linalg import bareiss_determinant, image_nullspace
from .operators import (Certificate, RecurrenceOperator,
                        normalize_operator_coeffs)

__all__ = [
    "zeilberger", "solve_at_order", "verify_certificate",
    "certificate_mismatch", "certificate_residual",
    "analyze_structure", "StructureReport", "expected_order",
    "expected_coefficient_degree", "expected_certificate_denominator",
]


# ---------------------------------------------------------------------------
# dispersion: shifts j >= 0 where gcd(A(k), B(k+j)) is nonconstant
# ---------------------------------------------------------------------------


def _dispersion_set(a: BiPoly, b: BiPoly):
    """Sorted j >= 0 including every j with gcd(a(k), b(k+j)) nonconstant.

    The resultant Res_k(a(k), b(k+h)) is taken at one integer n = n0 where
    neither leading coefficient in k vanishes, as a polynomial in h alone.
    Why the answer is still complete, and why extra members do no harm:

    - b(k+h) has the same leading coefficient in k as b(k), so with both
      leading coefficients nonzero at n0 the resultant specializes: the
      resultant at n0 is the generic one evaluated at n = n0.  It is a
      nonzero polynomial in h because both polynomials have degree >= 1 in
      k; a vanishing resultant only moves the search to the next point.
    - A common factor g of a(k) and b(k+j) over Q(n), taken primitive in
      Z[n][k], has a leading coefficient that divides lc_k(a), so g keeps its
      full k-degree at n0 and j is a root of the specialized resultant.
    - A root j that is not in the generic set (an "n0 coincidence") is a
      no-op for the caller: gcd(A(k), B(k+j)) is constant in k, and stays so
      for the divisors of A and B the normal form works with, so its exact
      gcd loop leaves A, B and C untouched.
    - a(n0, k) and b(n0, k) are replaced by their squarefree parts, which
      have the same roots, so the resultant vanishes at the same h.
    """
    if a.deg_k < 1 or b.deg_k < 1:
        return []
    for n0 in SPECIALIZATION_POINTS:
        if a.coeffs[-1].eval_int(n0) == 0 or b.coeffs[-1].eval_int(n0) == 0:
            continue
        a0, b0 = (squarefree_part(IntPoly([c.eval_int(n0) for c in p.coeffs]))
                  for p in (a, b))
        da, db = a0.degree, b0.degree
        a0 = [IntPoly.const(c) for c in a0.coeffs]
        # the coefficients in k of b(k+h), polynomials in h
        b_shift = taylor_shift_coeffs([IntPoly.const(c) for c in b0.coeffs],
                                      IntPoly.variable())
        matrix = []
        for rows, count in ((a0, db), (b_shift, da)):
            for shift in range(count):
                row = [IntPoly()] * (da + db)
                for i, c in enumerate(reversed(rows)):
                    row[shift + i] = c
                matrix.append(row)
        res = bareiss_determinant(matrix)
        if not res.is_zero:
            return nonnegative_integer_roots(res)
    raise ValueError("degenerate dispersion resultant")


def _gosper_normal_form(q: BiPoly, r: BiPoly):
    """Rewrite q(k)/r(k) as (C(k+1)/C(k)) A(k)/B(k), GP condition on A, B."""
    A, B, C = q, r, BiPoly.const(1)
    for j in _dispersion_set(A, B):
        while True:
            g = BiPoly.from_kpoly(kp_gcd(A.coeffs,
                                         B.compose_shift(0, j).coeffs))
            if g.deg_k < 1:
                break
            A = A.divexact(g)
            B = B.divexact(g.compose_shift(0, -j))
            for i in range(1, j + 1):
                C = C * g.compose_shift(0, -i)
    return A, B, C


def _gosper_degree_bound(a: BiPoly, bm1: BiPoly, deg_p):
    """Upper bound for deg_k of the unknown polynomial, or None."""
    a_kp, bm1_kp = a.coeffs, bm1.coeffs
    da, db = a.deg_k, bm1.deg_k
    mu = max(da, db)
    candidates = []
    degenerate = (da == db and a_kp[-1] == bm1_kp[-1])
    if not degenerate:
        candidates.append(deg_p - mu)
    else:
        candidates.append(deg_p - mu + 1)
        if mu >= 1:
            a_sub = a_kp[mu - 1] if mu - 1 < len(a_kp) else IntPoly()
            b_sub = bm1_kp[mu - 1] if mu - 1 < len(bm1_kp) else IntPoly()
            num = b_sub - a_sub
            if num.is_zero:
                candidates.append(0)
            else:
                try:
                    q = num.divexact(a_kp[-1])
                    if q.degree == 0 and q.lc >= 0:
                        candidates.append(q.lc)
                except ExactDivisionError:
                    pass
    valid = [c for c in candidates if c >= 0]
    return max(valid) if valid else None


# ---------------------------------------------------------------------------
# the telescoping search
# ---------------------------------------------------------------------------


def _gosper_ratio(term: HyperTerm, r: int) -> RatFunc:
    """rho_k(n, k) d(k)/d(k+1) in lowest terms, d = prod_{j<r} q(n+j, k).

    With rho_n = p/q, mixed-shift compatibility rho_n(n, k+1) rho_k(n, k) =
    rho_k(n+1, k) rho_n(n, k) reads

        q(n, k)/q(n, k+1) = rho_k(n+1, k)/rho_k(n, k) * p(n, k)/p(n, k+1),

    so over j < r the quotients of rho_k telescope:

        rho_k d(k)/d(k+1) = rho_k(n+r, k) prod_{j<r} p(n+j, k)/p(n+j, k+1).

    The right side is formed unreduced and normalized once.  For
    binom(n, k)^s, p has no k, so the product is a common factor in Z[n].
    """
    num = term.rho_k.num.compose_shift(r, 0)
    den = term.rho_k.den.compose_shift(r, 0)
    for j in range(r):
        p = term.rho_n.num.compose_shift(j, 0)
        num, den = num * p, den * p.compose_shift(0, 1)
    return RatFunc(num, den)


def _split_contents(polys):
    """([content], [primitive part]) of BiPolys in Z[n][k]: one
    `poly_content` over each one's coefficients in k, so every content has
    a positive leading coefficient."""
    pairs = [poly_content(p.coeffs) for p in polys]
    return [g for g, _ in pairs], [BiPoly.from_kpoly(c) for _, c in pairs]


def _gosper_system(A, Bm1, C_hat, u_hats, D, coeff, sign):
    """The rows of the Gosper system, columns f_0..f_D then c_0..c_r, with
    each coefficient in Z[n] of A, B(k-1), C^ and the u^_i mapped by coeff:
    to its image with sign -1, or to its 1-norm, bounding the entries'."""
    a, bm1, c_hat = (IntPoly([coeff(c) for c in p.coeffs])
                     for p in (A, Bm1, C_hat))
    cols = []
    for j in range(D + 1):
        # A(k) (k+1)^j - B(k-1) k^j
        cols.append(a + sign * IntPoly((0,) * j + bm1.coeffs))
        a = a + IntPoly((0,) + a.coeffs)
    cols += [sign * c_hat * IntPoly([coeff(c) for c in u.coeffs])
             for u in u_hats]
    return [[col.coeffs[e] if e <= col.degree else 0 for col in cols]
            for e in range(max(col.degree for col in cols) + 1)]


def solve_at_order(term: HyperTerm, r: int):
    """Try to telescope at exactly order r: the one per-order solve.

    Returns (operator, certificate), not yet verified, or None when the
    linear system has no solution with a nonzero operator part.  The term
    is taken as valid; `zeilberger` checks it.

    The padding lemma: a telescoper of order r' < r, with zero top
    coefficients, also solves the order-r system.  Its sum C sum_i c_i u_i
    is a polynomial factor for which Gosper's algorithm is complete with
    this order's A, B and C, and `_gosper_degree_bound` is monotone in
    deg p, so its f lies within D.  So None at order r rules out every
    lower order too, and in an upward loop that starts with None the first
    order with a solution is the least one.

    The column of c_i is built without its content in Z[n] (see the
    module docstring): with p_j = cp_j p^_j, q_j = cq_j q^_j and
    C = cC C^ split by `_split_contents`, it is -C^ u^_i, the true column
    divided by g_i = cC prod_{j<i} cp_j prod_{j>=i} cq_j.  A vector y of
    that matrix is x with x_i = y_i / g_i, and times
    Pi = cC prod_j cp_j prod_j cq_j it is f -> Pi f,
    c_i -> y_i prod_{j<i} cq_j prod_{j>=i} cp_j, made primitive again.
    """
    ps, qs = rho_n_shifts(term, r)
    cps, p_hats = _split_contents(ps)
    cqs, q_hats = _split_contents(qs)
    d_hat, u_hats = quotient_products(p_hats, q_hats, BiPoly.const(1))
    ratio = _gosper_ratio(term, r)
    A, B, C = _gosper_normal_form(ratio.num, ratio.den)
    Bm1 = B.compose_shift(0, -1)
    (c_content,), (C_hat,) = _split_contents([C])
    deg_p = C_hat.deg_k + max(u.deg_k for u in u_hats)
    D = _gosper_degree_bound(A, Bm1, deg_p)
    if D is None:
        return None

    parts = (A, Bm1, C_hat, u_hats, D)
    n_f = D + 1
    basis = image_nullspace(
        _gosper_system(*parts, lambda c: sum(map(abs, c.coeffs)), 1),
        lambda stride: _gosper_system(
            *parts, lambda c: pack_signed(c.coeffs, stride), -1))
    solutions = [vec for vec in basis
                 if any(not c.is_zero for c in vec[n_f:])]
    if not solutions:
        return None
    # lifts[i] = Pi / g_i; cp_prod = prod_j cp_j and q_content = prod_j cq_j
    cp_prod, lifts = quotient_products(cqs, cps, IntPoly.const(1))
    q_content = lifts[-1]
    pi = c_content * cp_prod * q_content
    # every multiplier has a positive leading coefficient, so the entry
    # at the free column keeps the sign `fraction_free_nullspace` gave it
    solutions = [poly_content([pi * x for x in vec[:n_f]]
                              + [m * y for m, y in zip(lifts, vec[n_f:])])[1]
                 for vec in solutions]
    vec = min(solutions, key=lambda v: (max(c.degree for c in v[n_f:]),
                                        sum(c.degree for c in v[n_f:])))
    op, scale = normalize_operator_coeffs(vec[n_f:])
    num = Bm1 * BiPoly.from_kpoly(vec[:n_f])
    den = C * (scale * q_content) * d_hat
    cert = Certificate(RatFunc(num, den))
    return op, cert


def zeilberger(term: HyperTerm, r_max: int, r_from: int = 1):
    """The least-order telescoping operator from order r_from on, with its
    certificate: the one search over `solve_at_order`.

    Orders r_from..r_max are tried in turn.  By the padding lemma (see
    `solve_at_order`) no order from r_from to just below the first one
    with a solution telescopes; orders below r_from are the caller's to
    rule out, and from r_from = 1 none are left.  The pair returned has
    passed the exact certificate check; a first solution that fails it
    raises AssertionError, and no solution raises TelescoperNotFoundError
    with the orders tried.  Raises ValueError unless 1 <= r_from <= r_max,
    and for a term with a zero quotient or with quotients that fail
    mixed-shift compatibility (which _gosper_ratio relies on).
    """
    if not 1 <= r_from <= r_max:
        raise ValueError("need 1 <= r_from <= r_max, not r_from=%d, r_max=%d"
                         % (r_from, r_max))
    if term.rho_n.is_zero or term.rho_k.is_zero:
        raise ValueError("degenerate term: a shift quotient is zero")
    if not term.is_compatible():
        raise ValueError("shift quotients fail mixed-shift compatibility")
    for r in range(r_from, r_max + 1):
        found = solve_at_order(term, r)
        if found is None:
            continue
        if not verify_certificate(term, *found):
            raise AssertionError(
                "internal error: certificate failed verification at order %d"
                % r)
        return found
    raise TelescoperNotFoundError(range(r_from, r_max + 1))


# ---------------------------------------------------------------------------
# verification and structural analysis
# ---------------------------------------------------------------------------


class _ResidualParts(NamedTuple):
    """The residual (P a)/a - (R(n, k+1) rho_k - R(n, k)), unreduced, as

        (top rd1 qd - rn1 qn bottom) / (bottom rd1 qd),

    where top/bottom = (P a)/a + R(n, k) = lhs_num/lhs_den + rn/rd over one
    denominator, rn1/rd1 = R(n, k+1) and rho_k = qn/qd.  bottom is rd when
    lhs_den == rd, as for every binom(n, k)^s and for the Apery term (both
    are the rising product), else lhs_den rd.  top is lhs_num + rn when
    bottom is rd, else lhs_num rd + rn lhs_den; it is formed only when
    asked for, as in that general branch it costs two products and the
    division in `cofactor` may refute the certificate first.
    The parts are images in Z[k] (see `_residual_image`), or in the tests
    the parts in Z[n][k]; the arithmetic below serves both.
    """

    lhs_num: IntPoly
    lhs_den: IntPoly
    rn: IntPoly
    rd: IntPoly
    bottom: IntPoly
    rn1: IntPoly
    rd1: IntPoly
    qn: IntPoly
    qd: IntPoly

    def top(self) -> IntPoly:
        if self.lhs_den == self.rd:
            return self.lhs_num + self.rn
        return self.lhs_num * self.rd + self.rn * self.lhs_den

    def full_numerator(self) -> IntPoly:
        """top rd1 qd - rn1 qn bottom, by the full cross multiplication."""
        return (self.top() * (self.rd1 * self.qd)
                - self.rn1 * self.qn * self.bottom)

    def cofactor(self):
        """cof = qn bottom / rd1, or None when rd1 does not divide it,
        which proves the certificate invalid.

        The lemma: a certificate is a RatFunc, so gcd(rn, rd) = 1 in
        Z[n, k], integer content included, and since the shift k -> k+1 is
        a ring automorphism, gcd(rn1, rd1) = 1 too.  If the identity holds,
        top rd1 qd = rn1 (qn bottom), so rd1 divides rn1 (qn bottom) in the
        UFD Z[n, k], hence divides qn bottom; the quotient is unique and
        lies in Z[n][k], so every step of the long division is exact.  A
        failed division therefore already refutes the identity, before top
        is formed.
        """
        try:
            return (self.qn * self.bottom).divexact(self.rd1)
        except ExactDivisionError:
            return None

    def small_numerator(self, cof):
        """small = top qd - rn1 cof for cof = `cofactor()`, so that the
        full numerator is small rd1.  Each product here has one small
        factor: qd = (k+1)^s, qn = (n-k)^s and, for binom(n, k)^s at order
        m, cof = (n-k+m)^s.
        """
        return self.top() * self.qd - self.rn1 * cof


def _digits(p_x: IntPoly, stride: int) -> list:
    """The k-poly in Z[n][k] of each coefficient's `unpack_poly`."""
    return [unpack_poly(c, stride) for c in p_x.coeffs]


def _degrees(p_x: IntPoly, stride: int):
    """(deg_n, deg_k) of a nonzero p in Z[n][k] with image p_x whose
    coefficients lie below X/2, X = 2**(8*stride).  deg_k p is deg p_x, as
    lc_k(p) lies below X/2 and is nonzero, so its image is not zero.  A
    nonzero c in Z[n] of degree d whose coefficients lie below X/2 has
    X**d/2 < |c(X)| < X**(d+1)/2, so with X = 2**w the bit length of c(X)
    lies in [w d, w (d+1) - 1] and, floor-divided by w, gives d."""
    w = 8 * stride
    return max(abs(c).bit_length() for c in p_x.coeffs) // w, p_x.degree


class _Image(NamedTuple):
    """What `_residual_image` finds at X = 2**(8*stride): small_X, None
    when the division in Z[k] fails; whether the shared denominator is rd
    (d == rd) or d rd; whether small_X is the image of small in Z[n][k]
    with ||small||_1 < X/2, so that F's degrees can be read from it; and
    the parts, whose full numerator F_X has F's coefficients as digits."""

    stride: int
    small: IntPoly | None
    shared: bool
    readable: bool
    parts: _ResidualParts


def _residual_image(term: HyperTerm, op: RecurrenceOperator,
                    cert: Certificate) -> _Image:
    """The residual's parts and their small numerator in the image of the
    ring map Z[n][k] -> Z[k], n -> X = 2**(8*stride): the one place where
    the residual is built.

    The verdict small_X == 0 is exact.  Write F = top rd1 qd - rn1 qn bottom
    for the full numerator, which is zero iff the identity holds.

    - Evaluation at n = X is a ring map, so each part's image is the image
      of the part, and the shift k -> k+1 commutes with it.
    - A polynomial in n whose integer coefficients lie below X/2 in
      absolute value is its own balanced base-X digits, so it is zero iff
      its value at X is.  `stride` is taken so that X/2 exceeds a bound B
      on the 1-norm of F, of d - rd (so the test lhs_den == rd is the
      polynomial one) and of every input packed (so each packs whole).
      B comes from ||p(n+a, k+b)||_1 <= |p|(1+|a|, 1+|b|) (see `kp_norm`),
      with sums and products of 1-norms bounding those of sums and
      products; the shifts in n are made on the polynomials first.  Since
      B bounds F, the digits of F_X = `parts.full_numerator()` are F's
      coefficients (see `_digits` and `_degrees`).
    - If rd1 divides qn bottom in Z[n][k], then rd1_X divides qn_X bottom_X
      in Z[k], and rd1_X = rd_X(k+1) is nonzero, so the long division
      over the integers is exact.  A failed division in Z[k] therefore
      refutes the identity (see `_ResidualParts.cofactor`).
    - When it is exact, rd1_X small_X = F_X with rd1_X nonzero, so
      small_X == 0 iff F_X == 0 iff F == 0.

    `readable` is proven after the division.  Let C be the polynomial
    whose coefficients are the balanced base-X digits of cof_X's, cof =
    qn bottom / rd1.  If |rd1| ||C||_1 < X/2, then rd1 C and qn bottom both
    lie below X/2 in 1-norm and agree at X, so they are equal: rd1 divides
    qn bottom in Z[n][k] with quotient C, and small = top qd - rn1 C has
    ||small||_1 <= |top| |qd| + |rn1| ||C||_1.  When that is below X/2 too,
    `certificate_mismatch` reads F's degrees from small_X.  Otherwise it
    reads them from F_X.  For binom(n, k)^s over the rising product at
    order m, cof = (n-k+m)^s, and its 1-norm (m+2)^s lies below both
    |top| |qd| and |qn| |bottom|, so both hold.  A bound fixed before the
    division, ||cof||_1 <= 2**(deg_n cof + deg_k cof) ||qn bottom||_1 by
    Mahler's inequality (J. London Math. Soc. 37 (1962) 341-344), proves
    no division, and at s = 7 with an altered denominator it took the
    stride from 32 to 39 bytes.

    Nothing but cof_X and F_X is unpacked, so the other images' digits may
    exceed X/2.
    """
    ps, qs = rho_n_shifts(term, op.order)
    rn, rd = cert.ratio.num, cert.ratio.den
    qn, qd = term.rho_k.num, term.rho_k.den
    d_b, u_b = quotient_products([kp_norm(f.coeffs) for f in ps],
                                 [kp_norm(f.coeffs) for f in qs], 1)
    lhs_b = sum(kp_norm([c]) * u for c, u in zip(op.coeffs, u_b))
    rn_b, rd_b = kp_norm(rn.coeffs), kp_norm(rd.coeffs)
    rn1_b, rd1_b = kp_norm(rn.coeffs, 1), kp_norm(rd.coeffs, 1)
    qn_b, qd_b = kp_norm(qn.coeffs), kp_norm(qd.coeffs)
    # the shared denominator's bounds hold when d == rd, which the images
    # decide at that stride; otherwise the product's are taken
    for top_b, bottom_b in ((lhs_b + rn_b, rd_b),
                            (lhs_b * rd_b + rn_b * d_b, d_b * rd_b)):
        bound = max(top_b * rd1_b * qd_b + rn1_b * qn_b * bottom_b,
                    d_b + rd_b)
        stride = stride_for(bound)
        d_x, u_x = quotient_products([f.image(stride) for f in ps],
                                     [f.image(stride) for f in qs],
                                     IntPoly.const(1))
        rd_x = rd.image(stride)
        shared = d_x == rd_x
        if shared:
            break
    rn_x = rn.image(stride)
    lhs_x = sum((pack_signed(c.coeffs, stride) * u
                 for c, u in zip(op.coeffs, u_x)), IntPoly())
    parts = _ResidualParts(lhs_x, d_x, rn_x, rd_x,
                           rd_x if shared else d_x * rd_x,
                           rn_x.compose_shift(1), rd_x.compose_shift(1),
                           qn.image(stride), qd.image(stride))
    cof = parts.cofactor()
    if cof is None:
        return _Image(stride, None, shared, False, parts)
    cof_b = kp_norm(_digits(cof, stride))
    readable = (max(rd1_b * cof_b, top_b * qd_b + rn1_b * cof_b)
                < 1 << (8 * stride - 1))
    return _Image(stride, parts.small_numerator(cof), shared, readable,
                  parts)


def certificate_mismatch(term: HyperTerm, op: RecurrenceOperator,
                         cert: Certificate):
    """None when the telescoping relation holds exactly; otherwise the
    ((deg_n, deg_k) of the numerator, (deg_n, deg_k) of the denominator) of
    the residual (P a)/a - (R(n, k+1) rho_k - R(n, k)), unreduced.

    The verdict is `verify_certificate`'s; nothing is reduced, and no part
    is formed in Z[n][k].  Over the integral domain Z[n, k] the degrees in
    n and in k each add under products, and shifts keep them.  So the
    denominator bottom rd1 qd has those of rd twice, of qd, and of
    d = prod_{j<r} q(n+j, k) when bottom is d rd, with rho_n = p/q.  When
    the image is readable (see `_residual_image`), rd1 divides qn bottom in
    Z[n][k] and the numerator F = small rd1 (see `_ResidualParts`) has the
    degrees of small, read from small_X by `_degrees`, plus those of rd.
    Otherwise F's degrees are read from F_X, the image's full numerator,
    whose coefficients the stride already bounds.
    """
    image = _residual_image(term, op, cert)
    if image.small is not None and image.small.is_zero:
        return None
    rd, qd = cert.ratio.den, term.rho_k.den
    if image.readable:
        small_n, small_k = _degrees(image.small, image.stride)
        num_degrees = (small_n + rd.deg_n, small_k + rd.deg_k)
    else:
        num_degrees = _degrees(image.parts.full_numerator(), image.stride)
    dens = [rd, rd, qd] + ([] if image.shared
                           else [term.rho_n.den] * op.order)
    return (num_degrees,
            (sum(d.deg_n for d in dens), sum(d.deg_k for d in dens)))


def verify_certificate(term: HyperTerm, op: RecurrenceOperator,
                       cert: Certificate) -> bool:
    """Exact identity check of the telescoping relation; never reduces.

    The verdict is small_X == 0 in the image n -> 2**(8*stride) (see
    `_residual_image`); a failed division returns False at once, with no
    cross multiplication.
    """
    small = _residual_image(term, op, cert).small
    return small is not None and small.is_zero


def certificate_residual(term: HyperTerm, op: RecurrenceOperator,
                         cert: Certificate) -> RatFunc:
    """(P a)/a - (R(n, k+1) rho_k - R(n, k)) in lowest terms; zero iff valid.

    The full numerator F is unpacked from the digits of its image (see
    `_residual_image`) and brought to lowest terms over bottom rd1 qd,
    which is formed in Z[n][k].  Its normalized form is canonical, so it
    does not depend on the denominator the check used.
    """
    image = _residual_image(term, op, cert)
    num = BiPoly.from_kpoly(_digits(image.parts.full_numerator(),
                                    image.stride))
    if num.is_zero:
        return RatFunc.zero()
    rd = cert.ratio.den
    bottom = rd if image.shared else prod(rho_n_shifts(term, op.order)[1],
                                          start=rd)
    return RatFunc(num, bottom * rd.compose_shift(0, 1) * term.rho_k.den)


def expected_order(s: int) -> int:
    return (s + 1) // 2


def expected_coefficient_degree(s: int) -> int:
    """Observed degree of the minimal telescoping operator's coefficients."""
    m = expected_order(s)
    if s % 2 == 0:
        d = Fraction(m * (m * m - 1), 3) + 1
    else:
        d = (Fraction(m ** 3, 3) - Fraction(m * m, 2) + Fraction(2 * m, 3)
             + Fraction((-1) ** m - 1, 4))
    assert d.denominator == 1
    return int(d)


def expected_certificate_denominator(s: int, m: int | None = None) -> BiPoly:
    """The rising product prod_{j=1..m} (n - k + j)**s."""
    if m is None:
        m = expected_order(s)
    n = BiPoly.var_n()
    k = BiPoly.var_k()
    acc = BiPoly.const(1)
    for j in range(1, m + 1):
        acc = acc * (n - k + j)
    return acc ** s


def _denominator_audit(den: BiPoly, s: int, m: int):
    """(matches, divides): whether den is +-E for the rising product
    E = prod_{j=1..m} (n - k + j)**s, and whether den divides E.

    Equality is decided in the image n -> X = 2**(8*stride), where X/2
    exceeds the 1-norms of den and of E, ||E||_1 <= prod_j (2+j)**s.  Both
    are then their images' balanced base-X digits, so den_X == +-E_X iff
    den == +-E.  E is formed in Z[n][k] only to test divisibility, when
    they differ.
    """
    stride = stride_for(max(kp_norm(den.coeffs),
                            prod(range(3, m + 3)) ** s))
    x = 1 << (8 * stride)
    den_x = den.image(stride)
    e_x = prod((IntPoly((x + j, -1)) for j in range(1, m + 1)),
               start=IntPoly.const(1)) ** s
    if den_x == e_x or den_x == -e_x:
        return True, True
    try:
        expected_certificate_denominator(s, m).divexact(den)
    except ExactDivisionError:
        return False, False
    return False, True


def _delta(r: int, s: int) -> int:
    return 1 if s % r == 0 else 0


@dataclass(frozen=True)
class StructureReport:
    s: int
    order: int
    expected_order: int
    coeff_degree: int
    expected_degree: int
    denominator_matches: bool
    denominator_divides: bool
    numerator_k_degree: int
    expected_numerator_k_degree: int
    integer_roots_of_denominator_in_n: tuple

    @property
    def all_expectations_met(self) -> bool:
        return (self.order == self.expected_order
                and self.coeff_degree == self.expected_degree
                and self.denominator_matches
                and self.numerator_k_degree ==
                self.expected_numerator_k_degree)


def analyze_structure(op: RecurrenceOperator, cert: Certificate,
                      s: int) -> StructureReport:
    """Compare a verified telescoper against the expected shape.

    All comparisons are exact polynomial identities.  The denominator audit
    (see `_denominator_audit`) reports equality with the rising product
    and, separately, divisibility, so a strictly smaller denominator is
    visible rather than an error.
    """
    m = expected_order(s)
    den = cert.ratio.den
    matches, divides = _denominator_audit(den, s, m)
    # the content in Z[n] of the denominator, where its roots in n lie
    cont = (IntPoly.const(1) if proved_primitive(den.coeffs)
            else poly_content(den.coeffs)[0])
    roots = tuple(nonnegative_integer_roots(cont)) if cont.degree >= 1 else ()
    return StructureReport(
        s=s,
        order=op.order,
        expected_order=m,
        coeff_degree=op.coefficient_degree(),
        expected_degree=expected_coefficient_degree(s),
        denominator_matches=matches,
        denominator_divides=divides,
        numerator_k_degree=cert.ratio.num.deg_k,
        expected_numerator_k_degree=m * s + _delta(2, s),
        integer_roots_of_denominator_in_n=roots,
    )


def first_valid_row(report: StructureReport) -> int:
    """Least n from which termwise summation of the certificate is safe.

    Zero when the certificate denominator has no root at a nonnegative
    integer n, otherwise one past the largest such root.
    """
    roots = report.integer_roots_of_denominator_in_n
    return 0 if not roots else max(roots) + 1
