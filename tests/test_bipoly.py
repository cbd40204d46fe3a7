import random
from fractions import Fraction
from math import comb, gcd

import pytest

from franel.bipoly import (_KP_KRONECKER_CUTOFF, COPRIME_PRIME,
                           SPECIALIZATION_POINTS, BiPoly, RatFunc,
                           _coprime_by_specialization, kp_deg, kp_gcd,
                           kp_mul, poly_gcd, proved_primitive)
from franel.errors import ExactDivisionError, PoleError
from franel.intpoly import IntPoly
from franel.operators import RecurrenceOperator

N = BiPoly.var_n()
K = BiPoly.var_k()


# ---------------------------------------------------------------------------
# reference: sparse {(deg_n, deg_k): c} arithmetic, the oracle for the
# k-poly arithmetic BiPoly runs on
# ---------------------------------------------------------------------------


def _nonzero(terms):
    return {key: c for key, c in terms.items() if c}


def reference_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return _nonzero(out)


def reference_neg(a):
    return {key: -c for key, c in a.items()}


def reference_mul(a, b):
    out = {}
    for (an, ak), ac in a.items():
        for (bn, bk), bc in b.items():
            key = (an + bn, ak + bk)
            out[key] = out.get(key, 0) + ac * bc
    return _nonzero(out)


def reference_compose_shift(a, dn, dk):
    # expand (n + dn)^tn (k + dk)^tk term by term
    out = {}
    for (tn, tk), c in a.items():
        for i in range(tn + 1):
            for j in range(tk + 1):
                out[(i, j)] = out.get((i, j), 0) + (
                    c * comb(tn, i) * dn ** (tn - i)
                    * comb(tk, j) * dk ** (tk - j))
    return _nonzero(out)


def reference_eval(a, n, k):
    return sum((c * Fraction(n) ** dn * Fraction(k) ** dk
                for (dn, dk), c in a.items()), Fraction(0))


def reference_lead_term_grlex(a):
    key = max(a, key=lambda t: (t[0] + t[1], t[0]))
    return key, a[key]


def reference_content(a):
    g = 0
    for c in a.values():
        g = gcd(g, c)
    return g


def rand_terms(rng, maxdeg, maxc, count):
    return _nonzero({(rng.randint(0, maxdeg), rng.randint(0, maxdeg)):
                     rng.randint(-maxc, maxc) for _ in range(count)})


def packed(a: BiPoly, b: BiPoly) -> bool:
    """Whether kp_mul takes the packed Kronecker path for a * b."""
    size = [sum(len(c.coeffs) for c in p.coeffs) for p in (a, b)]
    return size[0] * size[1] >= _KP_KRONECKER_CUTOFF


def rand_bipoly(rng, maxdeg=2, maxc=6, terms=4):
    out = {}
    for _ in range(rng.randint(1, terms)):
        out[(rng.randint(0, maxdeg), rng.randint(0, maxdeg))] = \
            rng.randint(-maxc, maxc)
    p = BiPoly(out)
    return p if not p.is_zero else BiPoly.const(1)


def test_gcd_difference_of_squares():
    assert poly_gcd(N * N - K * K, N - K) == N - K


def test_gcd_coprime():
    assert poly_gcd(N + 1, K + 2) == BiPoly.const(1)


def test_gcd_mixed_content():
    # verified by exhaustive division checks on the expanded products
    a = (N + 1) * (N + 1) * (N - K)
    b = (N + 1) * (K + 2)
    g = poly_gcd(a, b)
    assert g == N + 1
    assert a.divexact(g) == (N + 1) * (N - K)
    assert b.divexact(g) == K + 2
    # cofactors are coprime
    assert poly_gcd(a.divexact(g), b.divexact(g)) == BiPoly.const(1)


def test_gcd_of_zero():
    with pytest.raises(ValueError):
        poly_gcd(BiPoly(), BiPoly())
    assert poly_gcd(BiPoly(), 2 * (N + K)) == N + K


def test_gcd_product_property():
    rng = random.Random(9)
    for _ in range(30):
        a, b, c = (rand_bipoly(rng) for _ in range(3))
        g = poly_gcd(a * c, b * c)
        gc = poly_gcd(a, b) * c
        # associates up to integer content and sign
        d = poly_gcd(g, gc)
        qa = g.divexact(d)
        qb = gc.divexact(d)
        assert qa.deg_n == 0 and qa.deg_k == 0
        assert qb.deg_n == 0 and qb.deg_k == 0


def test_dense_mul_matches_sparse():
    rng = random.Random(17)
    # small coefficients, then full-size ones of equal, opposite and random
    # signs, whose products land within a few bits of the packing bound
    # 2**(8*stride - 1)
    draws = [(lambda: rng.randint(-50, 50),) * 2] * 10
    for bits in range(20, 29):
        top = 2 ** bits - 1
        draws += [(lambda t=top: t,) * 2,
                  (lambda t=top: t, lambda t=top: -t),
                  (lambda t=top: rng.choice((-t, t)),) * 2]
    for draw_a, draw_b in draws:
        a = {(i, j): draw_a() for i in range(8) for j in range(8)}
        b = {(i, j): draw_b() for i in range(7) for j in range(9)}
        pa, pb = BiPoly(a), BiPoly(b)
        assert packed(pa, pb)
        product = BiPoly.from_kpoly(kp_mul(pa.coeffs, pb.coeffs))
        assert product.terms == reference_mul(a, b)


def test_arithmetic_matches_sparse_reference():
    rng = random.Random(41)
    sides = set()
    for trial in range(80):
        # small operands, then ones past the Kronecker cutoff
        big = trial % 2
        a = rand_terms(rng, 3 + 6 * big, 10 ** (2 + 10 * big), 6 + 50 * big)
        b = rand_terms(rng, 3 + 6 * big, 10 ** (2 + 10 * big), 6 + 50 * big)
        pa, pb = BiPoly(a), BiPoly(b)
        assert pa.terms == a and BiPoly(pa.terms) == pa
        assert (pa + pb).terms == reference_add(a, b)
        assert (pa - pb).terms == reference_add(a, reference_neg(b))
        assert (-pa).terms == reference_neg(a)
        assert (pa * pb).terms == reference_mul(a, b)
        assert (3 * pa - 2).terms == reference_add(
            reference_mul(a, {(0, 0): 3}), {(0, 0): -2})
        # an IntPoly in n is a scalar, on either side
        assert (pa * IntPoly((2, -1))).terms == \
            (IntPoly((2, -1)) * pa).terms == \
            reference_mul(a, {(0, 0): 2, (1, 0): -1})
        sides.add(packed(pa, pb))
        if not pb.is_zero:
            assert (pa * pb).divexact(pb) == pa
    assert sides == {False, True}
    # small bases, then ones whose squares and higher powers take the
    # packed product, and are divided by them again
    sides = set()
    for trial in range(14):
        big = trial >= 10
        a = rand_terms(rng, 2 + 4 * big, 20 * 10 ** (10 * big), 4 + 20 * big)
        power = {(0, 0): 1}
        for e in range(5):
            p = BiPoly(a) ** e
            assert p.terms == power
            if e and power:
                assert p.divexact(BiPoly(a)) == BiPoly(a) ** (e - 1)
                sides.add(packed(BiPoly(a) ** (e - 1), BiPoly(a)))
            power = reference_mul(power, a)
    assert sides == {False, True}


def test_divexact():
    assert (6 * N * K + 4 * K).divexact(BiPoly.const(2)) == 3 * N * K + 2 * K
    assert ((N + 1) * (N - K)).divexact(N + 1) == N - K
    with pytest.raises(ExactDivisionError):
        (6 * N * K + 4 * K).divexact(BiPoly.const(4))
    with pytest.raises(ExactDivisionError):
        (N * N + 1).divexact(N + 1)
    with pytest.raises(ExactDivisionError):
        (K * K + 1).divexact(K + 1)
    with pytest.raises(ZeroDivisionError):
        N.divexact(BiPoly())


def test_compose_shift_matches_sparse_reference():
    rng = random.Random(43)
    for _ in range(20):
        a = rand_terms(rng, 4, 30, 8)
        for dn in range(-2, 3):
            for dk in range(-2, 3):
                shifted = BiPoly(a).compose_shift(dn, dk)
                assert shifted.terms == reference_compose_shift(a, dn, dk)


def test_structure_matches_sparse_reference():
    rng = random.Random(47)
    for _ in range(60):
        a = rand_terms(rng, 5, 60, 8)
        p = BiPoly(a)
        if not a:
            assert p.is_zero and p.lead_term_grlex() is None
            continue
        assert p.lead_term_grlex() == reference_lead_term_grlex(a)
        assert p.content_int() == reference_content(a)
        assert p.deg_n == max(dn for dn, _ in a)
        assert p.deg_k == max(dk for _, dk in a)
        for n, k in ((0, 0), (3, -2), (Fraction(1, 3), 5),
                     (-7, Fraction(2, 5))):
            assert p.eval(n, k) == reference_eval(a, n, k)


def test_compose_shift():
    p = N * N * K
    q = p.compose_shift(1, -1)
    # (n+1)^2 (k-1)
    assert q == (N + 1) * (N + 1) * (K - 1)
    assert q.compose_shift(-1, 1) == p


def test_kp_shift_and_gcd():
    # k-poly helpers: q/r = (k+2)/k has normal form C = (k+1)k
    q = list((K + 2).coeffs)
    g = kp_gcd(q, K.compose_shift(0, 2).coeffs)
    assert BiPoly.from_kpoly(g) == K + 2


def test_coprimality_modulo_the_prime_is_not_trusted_when_inconclusive():
    # k and k - p are coprime over Q but equal modulo p: the modular check
    # must report no proof, and the exact sequence still finds gcd 1
    a = list(K.coeffs)
    b = list((K - COPRIME_PRIME).coeffs)
    assert not _coprime_by_specialization(a, b)
    assert kp_gcd(a, b) == list(BiPoly.const(1).coeffs)


def test_coprimality_modulo_the_prime_skips_a_point_where_lc_vanishes():
    # g = (n - n0 - p) k + 1 divides both, but its leading coefficient is
    # -p at the first point n0, so modulo p the images there are k and k + 1
    n0 = SPECIALIZATION_POINTS[0]
    g = (N - (n0 + COPRIME_PRIME)) * K + 1
    a, b = list((g * K).coeffs), list((g * (K + 1)).coeffs)
    assert not _coprime_by_specialization(a, b)
    assert kp_deg(kp_gcd(a, b)) == 1


def test_primitivity_proof_on_constant_and_single_coefficients():
    one, three, x = IntPoly.const(1), IntPoly.const(3), IntPoly.variable()
    assert proved_primitive([one])
    assert proved_primitive([IntPoly(), x, one])
    assert not proved_primitive([three])  # integer content 3
    assert not proved_primitive([x + 1])  # its own common factor
    assert not proved_primitive([IntPoly()])
    RecurrenceOperator((one,))
    for coeffs in ((three,), (x + 1,), (x, x * x)):
        with pytest.raises(ValueError, match="share the common factor"):
            RecurrenceOperator(coeffs)


def test_primitivity_proof_skips_leading_coefficients_divisible_by_p():
    # g = p n + 1 is 1 modulo p, so Euclid from g mod p would "prove" the
    # coefficients g and g n primitive; both leading coefficients are
    # multiples of p, so there is no proof and poly_content finds g
    g = IntPoly((1, COPRIME_PRIME))
    coeffs = (g, g * IntPoly.variable())
    assert not proved_primitive(coeffs)
    with pytest.raises(ValueError, match="share the common factor"):
        RecurrenceOperator(coeffs)
    # one leading coefficient prime to p is enough for a proof
    assert proved_primitive((g, IntPoly((1, 1))))


def test_ratfunc_normalization_idempotent():
    rng = random.Random(23)
    for _ in range(40):
        num = rand_bipoly(rng)
        den = rand_bipoly(rng)
        r = RatFunc(num, den)
        again = RatFunc(r.num, r.den)
        assert again.num == r.num and again.den == r.den


def test_ratfunc_reduction():
    r = RatFunc(N * N - K * K, (N - K) * (N + 1))
    assert r.num == N + K
    assert r.den == N + 1
    # sign normalization: denominator leading coefficient positive
    r2 = RatFunc(N, -(N + 1))
    assert r2.den == N + 1
    assert r2.num == -N
    assert RatFunc(K, N + 1).eval(3, 2) == Fraction(1, 2)
    with pytest.raises(PoleError):
        RatFunc(N, K + 1).eval(1, -1)


def test_content_and_grlex():
    p = 6 * N * K + 4 * K
    assert p.content_int() == 2
    assert p.lead_term_grlex() == ((1, 1), 6)
    # graded lex with n > k: n^2 beats n*k beats k^2
    q = BiPoly({(2, 0): 3, (1, 1): 5, (0, 2): 7})
    assert q.lead_term_grlex() == ((2, 0), 3)
