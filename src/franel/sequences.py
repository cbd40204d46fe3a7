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

Rows by recursion.  A creative-telescoping operator for binom(n, k)^s also
annihilates every A_j with 2j < s (arXiv 2112.09576, "Sums of powers of
binomials, their Apery limits, and Franel's suspicions").  The argument,
for one verified operator sum_i c_i(n) N^i of order r with certificate
R = num/den:

- Gamma(1-t) Gamma(1+t) = pi t / sin(pi t) turns the deformed term into
  a(n, k, t) = (pi t / sin pi t)^s F(n, k-t), with
  F(n, x) = (Gamma(n+1) / (Gamma(x+1) Gamma(n-x+1)))^s, which is
  binom(n, x)^s through Gamma.  So A(n, t) = (pi t / sin pi t)^s
  sum_{k=0..n} F(n, k-t).
- The verified identity sum_i c_i(n) F(n+i, k) = G(n, k+1) - G(n, k),
  G = R F, is a rational identity in the shift quotients of F, which F
  obeys as a meromorphic function of x.  At an integer n where den(n, x)
  is not identically zero in x it therefore holds at x = k - t for all
  but finitely many t.  Summed over k = -1..n+r it telescopes to
  sum_i c_i(n) sum_{k=-1..n+r} F(n+i, k-t)
      = G(n, n+r+1-t) - G(n, -1-t),
  an identity of functions analytic at t = 0 when the boundary terms
  below have no pole there (F is entire in x), so of their t-series.
- A term with k < 0 or k > n+i is O(t^s), because 1/Gamma vanishes at
  the nonpositive integers: 1/Gamma(-t) = O(t), and 1/Gamma(n+i-k+1+t)
  = O(t) for k > n+i.  The two boundary terms are O(t^s) for the same
  reason, provided R has no pole there, that is den(n, -1) != 0 and
  den(n, n+r+1) != 0.  A factor of den in n alone vanishes in both, so
  these two also imply that den(n, x) is not identically zero, which is
  what `first_valid_row` checks.
- Hence sum_i c_i(n) A(n+i, t) = (pi t / sin pi t)^s O(t^s) = O(t^s),
  and sum_i c_i(n) A_j(n+i) = 0 for every 2j < s at every n with
  den(n, -1) den(n, n+r+1) != 0.

The same argument, with no deformation, proves Apery's recurrence for
A(n) = sum_k binom(n, k)^2 binom(n+k, k)^2.  Its term is F(n, k) with
F(n, x) = (Gamma(n+x+1) / (Gamma(x+1)^2 Gamma(n-x+1)))^2, and at
x = k - t every term with k < 0 or k > n+i is O(t^2): for k = -1 the
factor 1/Gamma(-t)^4 = O(t^4) outweighs Gamma(n+i-t)^2, which has at most
the pole t^(-2) (at n+i = 0), and for k > n+i the factor
1/Gamma(n+i-k+1+t)^2 is O(t^2) while the rest is finite.  Both boundary
terms are O(t^2) for the same reason when den has no zero there.  So the
limit t -> 0 of the telescoped sum gives sum_i c_i(n) A(n+i) = 0 wherever
`recursion_start`'s three checks pass.  `apery_zeta3` proves its
recurrence this way, once per call, from the stored order-2 telescoper of
`apery_zeta3_term`, whose certificate it verifies exactly first.

Who found an operator does not enter the argument: it needs a verified
certificate, not a search.  So the row source takes its order-m operator
from the document of s in the package's `frozen/` table (the bytes
`telescope` writes for s = 1..12 with SOURCE_DATE_EPOCH=0) and verifies
its certificate exactly in the same call; when the entry is missing, does
not parse, names another s or fails to verify, the rows are direct.  The
row source never searches.  The search stays the oracle: the tests
compare each entry with a fresh `telescope` document or its pinned
digest, and the rows of the recursion with the direct rows.

`recursion_start` checks this per operator: it builds the two univariate
polynomials den(n, -1) and den(n, n+r+1), takes their nonnegative integer
roots, and adds those of c_r, so that every step past the start both holds
and can be solved for its last row.  Annihilation is claimed only from
where that check ran.

Which path runs is one rule on the request alone: recursion when 2J < s
and the table verifies an entry for s, direct rows otherwise.  No option
selects it and nothing is remembered between calls, so each call reads
and verifies its operator anew.  Rows below the start plus r come from
`deformed`; later rows come from `_stepped_rows`, forward recursion on
the integers A_j(n) L^(2j), L = lcm(1..m) for the window whose top row is
m, a scale the L^i bound above proves sufficient for every row up to m,
so it grows by p^(2j) as m passes a power of the prime p.  Every division
by c_r(n) is exact and checked, and the last row's head is checked
against `franel`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt, perm, prod
from operator import mul

from .bipoly import BiPoly, RatFunc
from .documents import parse_operator_document
from .errors import DocumentError
from .hyperterm import apery_zeta3_term, binom_power_term
from .intpoly import IntPoly, horner, nonnegative_integer_roots
from .linalg import bareiss_determinant
from .operators import Certificate, RecurrenceOperator
from .series import series_inv, series_pow
from .telescoper import expected_order, verify_certificate


# terms per leaf of `franel`'s product tree
_FRANEL_LEAF = 64


def _inverse_mod_pow2(a: int, bits: int) -> int:
    """x in [0, 2^bits) with a x = 1 mod 2^bits, for odd a.

    Newton's step x -> x (2 - a x) squares 1 - a x, so it doubles the
    number of correct low bits; a x = 1 mod 8 for x = a, as a^2 = 1 mod 8
    for every odd a.
    """
    steps = []
    while bits > 3:
        steps.append(bits)
        bits = (bits + 1) // 2
    x = a & ((1 << bits) - 1)
    for width in reversed(steps):
        mask = (1 << width) - 1
        x = x * (2 - (a & mask) * x) & mask
    return x


def franel(s: int, n: int) -> int:
    """Sum of binom(n, k)**s over k = 0..n, exactly.

    By symmetry the sum is 2 S + [n even] binom(n, h)^s with
    S = sum_{k<h} binom(n, k)^s and h = ceil(n/2).  Binary splitting over
    k < h uses the odd parts a_k and b_k of (n-k)^s and (k+1)^s, so that
    binom(n, k)^s = 2^(d_k) prod_{i<k} a_i / prod_{i<k} b_i with
    d_k = s v2(binom(n, k)) = s (popcount(k) + popcount(n-k) - popcount(n))
    (Kummer).  A segment [lo, hi) is (P, Q, T, m): the odd P = prod a_k and
    Q = prod b_k over it, an integer T and an exponent m >= 0 with

        sum_{lo<=k<hi} binom(n, k)^s = 2^m (T/Q) prod_{k<lo} a_k / b_k.

    A leaf steps T <- (T + P) (k+1)^s over the full powers, whose T/Q sums
    2^(d_k - d_lo) prod_{lo<=i<k} a_i / b_i, then strips the powers of two
    off P and Q, which Legendre's v2(x!) = x - popcount(x) gives, and off
    T into m = d_lo - v2(Q) + v2(T).  With T odd there, m is the 2-adic
    valuation of the leaf's sum, an integer, so m >= 0 (the one empty leaf,
    of n = 0, has T = 0 and m = 0).  Two halves merge
    by T = 2^(m1-m) T1 Q2 + 2^(m2-m) P1 T2 with m = min(m1, m2), so every
    shift is by a nonnegative amount.  Every product is reduced modulo 2^L,
    L = n s + 1, and the sum is read off 2-adically:

    - The sum x is an integer with 0 <= x <= (sum_k binom(n, k))^s
      = 2^(n s) < 2^L.
    - At the root S = 2^m T/Q and binom(n, h)^s = 2^(d_h) P/Q with Q odd,
      so x = (2^(m+1) T + [n even] 2^(d_h) P) Q^(-1) mod 2^L.
    - Reduction modulo 2^L is a ring map, and a left shift multiplies by a
      power of two, so the reduced tree gives T, P and Q modulo 2^L.
    - A residue in [0, 2^L) of a number in [0, 2^L) is that number.

    So no step divides: the tree's products and one Newton inverse
    (`_inverse_mod_pow2`) replace a long division per term, and no bit
    above 2^L is carried.
    """
    if s < 1:
        raise ValueError("the power s must be a positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    h = (n + 1) // 2
    bits = n * s + 1
    mask = (1 << bits) - 1
    n_ones = n.bit_count()

    def split(lo: int, hi: int):
        if hi - lo <= _FRANEL_LEAF:
            p, t = 1, 0
            for k in range(lo, hi):
                t = (t + p) * (k + 1) ** s
                p *= (n - k) ** s
            q = perm(hi, hi - lo) ** s
            v = (t ^ t - 1).bit_length() - 1  # v2(t), and 0 for t = 0
            width = hi - lo
            # v2 of (n-lo)!/(n-hi)! and hi!/lo!, times s
            vp = s * (width - (n - lo).bit_count() + (n - hi).bit_count())
            vq = s * (width - hi.bit_count() + lo.bit_count())
            d_lo = s * (lo.bit_count() + (n - lo).bit_count() - n_ones)
            return p >> vp, q >> vq, t >> v, d_lo - vq + v
        mid = (lo + hi) // 2
        p1, q1, t1, m1 = split(lo, mid)
        p2, q2, t2, m2 = split(mid, hi)
        m = min(m1, m2)
        t = (t1 * q2 << m1 - m) + (p1 * t2 << m2 - m)
        return p1 * p2 & mask, q1 * q2 & mask, t & mask, m

    p, q, t, m = split(0, h)
    top = t << m + 1
    if n % 2 == 0:
        top += p << s * h.bit_count()  # d_h, as n - h = h
    return top * _inverse_mod_pow2(q, bits) & mask


def lcm_steps(n: int) -> list:
    """steps[m] = p when m = p^a, p prime and a >= 1, else 1, for
    m = 0..n; so lcm(1..m) = lcm(1..m-1) steps[m]."""
    steps = [1] * (n + 1)
    prime = bytearray(2) + bytearray([1]) * (n - 1)
    for p in range(2, isqrt(max(n, 0)) + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    for p in compress(range(n + 1), prime):
        q = p
        while q <= n:
            steps[q] = p
            q *= p
    return steps


def lcm_upto(n: int) -> int:
    """lcm(1..n), the product of the steps of `lcm_steps`."""
    return prod([p for p in lcm_steps(n) if p > 1])


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

    The rows come from :func:`coefficient_rows`.
    """
    if J < 0 or n_max < 0:
        raise ValueError("n_max and J must be nonnegative")
    return SequenceTable(s, J, tuple(coefficient_rows(s, J, 0, n_max)))


def recursion_start(op: RecurrenceOperator,
                    cert: Certificate) -> int | None:
    """Least n0 such that, for every n >= n0, the operator annihilates
    each A_j with 2j < s at n and c_r(n) != 0; None when a boundary
    denominator vanishes identically in n.

    The roots checked are those of den(n, -1), den(n, n+r+1) and c_r(n);
    the module docstring gives the argument.
    """
    r = op.order
    den = cert.ratio.den.coeffs
    roots = []
    for poly in (horner(den, IntPoly.const(-1), IntPoly()),
                 horner(den, IntPoly([r + 1, 1]), IntPoly()), op.coeffs[r]):
        if poly.is_zero:
            return None
        roots.extend(nonnegative_integer_roots(poly))
    return max(roots) + 1 if roots else 0


def _integer_row(row, scales, n: int) -> list:
    """Row n times its scales, column by column, as integers; for the row
    (A_0(n), .., A_J(n)) at scales[j] = L^(2j), L = lcm(1..M) for some
    M >= n, the L^i bound says they are."""
    ints = [a * sc for a, sc in zip(row, scales)]
    if any(x.denominator != 1 for x in ints):
        raise AssertionError("row %d is not integral at its scales" % n)
    return [x.numerator for x in ints]


@dataclass(frozen=True)
class MinimalityCertificate:
    """W(N) != 0 and the Abel step at N, for the Casoratian
    W(n) = det[A_j(n+i)]_{i,j<m}; see `minimality_certificate`."""

    m: int
    N: int
    roots: tuple  # the nonnegative integer roots of c_0 c_m
    W: Fraction  # W(N)


def minimality_certificate(s: int, op: RecurrenceOperator,
                           cert: Certificate) -> MinimalityCertificate | None:
    """Certify that no creative-telescoping recurrence for sum_k
    binom(n, k)^s has order below m = ceil(s/2), from one verified
    telescoper (op, cert) of order m; None when the certificate fails.

    arXiv 2112.09576 proves this weak Franel bound for recurrences
    "obtained via creative telescoping": such a recurrence also annihilates
    A_1, .., A_{m-1}, and the limits phi_j pi^(2j) of A_j(n)/A_0(n) are
    linearly independent over Q because pi is transcendental, so the m
    sequences are too.  Here their independence is certified instead from
    the sequences and the operator, exactly and in finitely many steps:

    - By `recursion_start`, op = sum_{i<=m} c_i(n) N^i annihilates
      A_0, .., A_{m-1} (2j < s for j < m) at every n >= start.
    - There the Casoratian obeys Abel's identity
      c_m(n) W(n+1) = (-1)^m c_0(n) W(n): in W(n+1) the last row
      A(n+m) is -sum_{i<m} c_i(n) A(n+i) / c_m(n), only i = 0 survives,
      and moving that row to the top takes m - 1 swaps.
    - With N >= start past every nonnegative integer root of c_0 c_m,
      W(N) != 0 therefore gives W(n) != 0 for every n >= N, and the A_j
      are linearly independent over Q on every tail.
    - A recurrence of order r < m whose leading coefficient is nonzero on a
      tail has an r-dimensional solution space there, so it cannot
      annihilate all m of them on any tail.

    The bound holds exactly as far as the module docstring's argument
    reaches, which is its hypothesis: the recurrence comes from a
    telescoper whose certificate den(n, k) is not identically zero on the
    line k = -1 nor on the line k = n + r + 1, so that it annihilates the
    A_j on a tail.  Recurrences that do not come from creative telescoping
    (the full Franel conjecture) are not covered.

    W(N) and W(N+1) are computed from `coefficient_row`, scaled to
    integers column by column by L^(2j), at N = max(start, 1 + each root);
    W(N) must be nonzero and the Abel step at N must hold exactly, which
    rejects an operator that does not annihilate the rows there.
    """
    m = expected_order(s)
    start = recursion_start(op, cert)
    if op.order != m or start is None or op.coeffs[0].is_zero:
        return None
    c0, cm = op.coeffs[0], op.coeffs[m]
    roots = tuple(sorted({x for c in (c0, cm)
                          for x in nonnegative_integer_roots(c)}))
    N = max((start,) + tuple(x + 1 for x in roots))
    scale = lcm_upto(N + m)
    scales = [scale ** (2 * j) for j in range(m)]
    rows = [[IntPoly.const(x) for x in
             _integer_row(coefficient_row(s, n, m - 1), scales, n)]
            for n in range(N, N + m + 1)]
    w_n = bareiss_determinant(rows[:m]).eval_int(0)
    w_next = bareiss_determinant(rows[1:]).eval_int(0)
    if w_n == 0 or cm.eval_int(N) * w_next != \
            (-1) ** m * c0.eval_int(N) * w_n:
        return None
    return MinimalityCertificate(m, N, roots,
                                 Fraction(w_n, scale ** (m * (m - 1))))


def _stepped_rows(op: RecurrenceOperator, m0: int, seeds, exponents,
                  m_to: int):
    """Rows m0+r..m_to of sum_i c_i(n) X(n+i) = 0, n = m - r, from the r
    exact rows m0..m0+r-1 in seeds: yields (row, scales) with row the
    integers X_j(m) scales[j], scales[j] = lcm(1..m)^exponents[j].

    Each row m solves c_r(n) X(m) = -sum_{i<r} c_i(n) X(n+i) on the
    integers, every division checked exact, so an exact step proves row m
    integral at its scale.  The window's scale grows with its top row:
    when m = p^a, lcm gains the factor p and column j of the kept rows is
    multiplied by p^exponents[j] before row m is solved.  The seeds are
    checked integral at the scale of the last of them, and only the last
    r rows are kept.
    """
    r = op.order
    steps = lcm_steps(m_to)
    scale = lcm_upto(m0 + r - 1)
    scales = [scale ** e for e in exponents]
    window = [_integer_row(row, scales, m) for m, row in enumerate(seeds, m0)]
    for m in range(m0 + r, m_to + 1):
        p = steps[m]
        if p > 1:
            grow = [p ** e for e in exponents]
            scales = [sc * g for sc, g in zip(scales, grow)]
            window = [[x * g for x, g in zip(row, grow)] for row in window]
        cs = [c.eval_int(m - r) for c in op.coeffs]
        lead = -cs.pop()
        new = []
        for column in zip(*window):
            q, rem = divmod(sum(map(mul, cs, column)), lead)
            if rem:
                raise AssertionError("inexact recursion step at n=%d" % m)
            new.append(q)
        window = window[1:] + [new]
        yield new, scales


def recursion_rows(s: int, J: int, n_from: int, n_to: int,
                   op: RecurrenceOperator, start: int):
    """Rows n_from..n_to from a verified operator whose annihilation of
    A_0..A_J is proved from n = start on (see `recursion_start`).

    Rows below start + r come from :func:`coefficient_row`; later rows
    from `_stepped_rows` on the integers X_j = A_j L^(2j), L = lcm(1..m),
    which the L^i bound makes integers for every row up to m.  The last
    row's head is checked against `franel`.
    """
    seed_end = min(start + op.order, n_to + 1)
    seeds = []
    for m in range(seed_end):
        if m < start and m < n_from:
            continue
        row = coefficient_row(s, m, J)
        if m >= start:
            seeds.append(row)
        if m >= n_from:
            yield row
    if seed_end > n_to:
        return
    exponents = [2 * j for j in range(J + 1)]
    stepped = _stepped_rows(op, start, seeds, exponents, n_to)
    for m, (new, scales) in enumerate(stepped, seed_end):
        if m == n_to and new[0] != franel(s, m):
            raise AssertionError("recursion head disagrees with the direct "
                                 "sum at n=%d" % m)
        if m >= n_from:
            yield tuple(Fraction(x, sc) for x, sc in zip(new, scales))


# the order-m documents of `_order_m_telescoper`, operator-s<s>.json
_FROZEN = os.path.join(os.path.dirname(__file__), "frozen")


def _order_m_telescoper(s: int):
    """The order m = ceil(s/2) telescoper of binom(n, k)^s in the frozen
    table, with its certificate, verified exactly in this call; None when
    the file is missing, does not parse, names another s or fails
    `verify_certificate`.  Nothing is searched for.
    """
    try:
        with open(os.path.join(_FROZEN, "operator-s%d.json" % s), "rb") as f:
            doc_s, op, cert, _ = parse_operator_document(f.read())
    except (OSError, DocumentError):
        return None
    if doc_s != s or not verify_certificate(binom_power_term(s), op, cert):
        return None
    return op, cert


def coefficient_rows(s: int, J: int, n_from: int, n_to: int):
    """Rows (A_0(n), .., A_J(n)) for n = n_from..n_to: the one row source.

    When 2J < s and the request is not empty, `recursion_rows` runs from
    the proven start of the order-m operator, m = ceil(s/2), that
    `_order_m_telescoper` reads from the frozen table and verifies in this
    call; otherwise, or when no entry verifies or the start check fails,
    every row comes from :func:`coefficient_row`.  Returns an iterator,
    empty when n_to < n_from.
    """
    if s < 1:
        raise ValueError("the power s must be a positive integer")
    if J < 0 or n_from < 0:
        raise ValueError("n_from and J must be nonnegative")
    if 2 * J < s and n_from <= n_to:
        found = _order_m_telescoper(s)
        if found is not None:
            start = recursion_start(*found)
            if start is not None:
                return recursion_rows(s, J, n_from, n_to, found[0], start)
    return (coefficient_row(s, n, J) for n in range(n_from, n_to + 1))


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
    """sum_k (binom(n, k) binom(n+k, k))^2, the product stepped by its
    ratio (n-k)(n+k+1)/(k+1)^2, an exact division as the next product is
    an integer."""
    total = 0
    p = 1
    for k in range(n + 1):
        total += p * p
        p = p * (n - k) * (n + k + 1) // ((k + 1) * (k + 1))
    return total


# (n+1)^3, -(2n+3)(17n^2+51n+39) and (n+2)^3: the classical recurrence as
# the operator sum_i c_i(n) N^i, lowest coefficient first
_APERY_OPERATOR = (IntPoly((1, 3, 3, 1)), IntPoly((-117, -231, -153, -34)),
                   IntPoly((8, 12, 6, 1)))

# its certificate, the one `zeilberger` finds at order 2, as (num, den) by
# powers of k: num = 4 k^4 (2n+3) (2k^2 - 3k - 4(n+1)(n+2)) and
# den = ((n-k+1)(n-k+2))^2
_APERY_CERTIFICATE = (
    (IntPoly(), IntPoly(), IntPoly(), IntPoly(),
     IntPoly((-96, -208, -144, -32)), IntPoly((-36, -24)), IntPoly((24, 16))),
    (IntPoly((4, 12, 13, 6, 1)), IntPoly((-12, -26, -18, -4)),
     IntPoly((13, 18, 6)), IntPoly((-6, -4)), IntPoly((1,))))


def apery_zeta3(n_max: int) -> list:
    """The two solutions of the classical three-term recurrence
    (n+1)^3 u(n+1) = (2n+1)(17n^2+17n+5) u(n) - n^3 u(n-1)
    with (A(0), A(1)) = (1, 5) and (B(0), B(1)) = (0, 1).

    Both are stepped by `_stepped_rows` with the coefficients of the
    proven operator below, on the integers with each division checked
    exact: A(n) at scale 1, and X(n) = lcm(1..n)^3 B(n), whose window is
    scaled by p^3 when n = p^a.  So the exact divisions prove
    that lcm(1..n)^3 is a multiple of B(n)'s denominator, and B(n) is
    X(n) / lcm(1..n)^3.  That A(n) is the double-square
    sum sum_k (binom(n, k) binom(n+k, k))^2 at every n is proven once, not
    checked per n: the stored certificate of the classical operator must
    pass `verify_certificate` for `apery_zeta3_term` in this call, and
    `recursion_start` must be 0, so by the module docstring the recurrence
    annihilates the sum at every n >= 0.  The certificate is the one
    `zeilberger` finds at order 2, which the tests check.
    Its leading coefficient never vanishes there and the two agree at
    n = 0 and 1, so by induction they agree everywhere.  The sum itself is
    compared at n = 0, 1 and n_max only; the tests compare every n with
    it.  A failed proof or comparison raises AssertionError.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    op = RecurrenceOperator(_APERY_OPERATOR)
    num, den = _APERY_CERTIFICATE
    cert = Certificate(RatFunc(BiPoly.from_kpoly(num),
                               BiPoly.from_kpoly(den)))
    if not verify_certificate(apery_zeta3_term(), op, cert) or \
            recursion_start(op, cert) != 0:
        raise AssertionError("the Apery telescoper does not prove the "
                             "classical recurrence from n=0")
    a_vals, b_vals = [1, 5], [Fraction(0), Fraction(1)]
    for (a, x), (_, cube) in _stepped_rows(op, 0, [(1, 0), (5, 1)], (0, 3),
                                           n_max):
        a_vals.append(a)
        b_vals.append(Fraction(x, cube))
    for n in (0, 1, n_max):
        if _apery_a_direct(n) != a_vals[n]:
            raise AssertionError("recursion and summation disagree at n=%d"
                                 % n)
    return [AperyPair(n, a_vals[n], b_vals[n], True)
            for n in range(n_max + 1)]
