import random
from fractions import Fraction

import pytest

from franel.bipoly import (BiPoly, RatFunc, kp_gcd, kp_shift_k, poly_gcd)
from franel.errors import PoleError

N = BiPoly.var_n()
K = BiPoly.var_k()


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
        a = BiPoly({(i, j): draw_a() for i in range(8) for j in range(8)})
        b = BiPoly({(i, j): draw_b() for i in range(7) for j in range(9)})
        dense = a._mul_dense(b)
        sparse = {}
        for (an, ak), ac in a.terms.items():
            for (bn, bk), bc in b.terms.items():
                key = (an + bn, ak + bk)
                sparse[key] = sparse.get(key, 0) + ac * bc
        assert dense.terms == {k: v for k, v in sparse.items() if v}


def test_compose_shift():
    p = N * N * K
    q = p.compose_shift(1, -1)
    # (n+1)^2 (k-1)
    assert q == (N + 1) * (N + 1) * (K - 1)
    assert q.compose_shift(-1, 1) == p


def test_kp_shift_and_gcd():
    # k-poly helpers: q/r = (k+2)/k has normal form C = (k+1)k
    q = (K + 2).to_kpoly()
    r = K.to_kpoly()
    g = kp_gcd(q, kp_shift_k(r, 2))
    assert BiPoly.from_kpoly(g) == K + 2


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


def test_ratfunc_arith_and_eval():
    a = RatFunc(N, K + 1)
    b = RatFunc(K, N + 1)
    s = a + b
    assert s.eval(3, 2) == Fraction(3, 3) + Fraction(2, 4)
    assert (a * b).eval(3, 2) == Fraction(3, 3) * Fraction(2, 4)
    assert (a - a).is_zero
    with pytest.raises(PoleError):
        a.eval(1, -1)


def test_ratfunc_shift():
    a = RatFunc(N, K + 1)
    assert a.shift(2, 1) == RatFunc(N + 2, K + 2)


def test_ratfunc_pow():
    a = RatFunc(N - K, K + 1)
    assert a ** 3 == a * a * a
    assert (a ** -2) * (a ** 2) == RatFunc.one()


def test_content_and_grlex():
    p = 6 * N * K + 4 * K
    assert p.content_int() == 2
    assert p.lead_term_grlex() == ((1, 1), 6)
    # graded lex with n > k: n^2 beats n*k beats k^2
    q = BiPoly({(2, 0): 3, (1, 1): 5, (0, 2): 7})
    assert q.lead_term_grlex() == ((2, 0), 3)
