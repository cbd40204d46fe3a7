from fractions import Fraction
from math import comb

import pytest

from franel.bipoly import BiPoly, RatFunc
from franel.hyperterm import (apery_zeta3_term, binom_power_term,
                              shift_quotient_products)
from franel.intpoly import IntPoly
from franel.operators import RecurrenceOperator, normalize_operator_coeffs

from reference_hyperterm import operator_numerator, reference_shift_quotients

N = BiPoly.var_n()
K = BiPoly.var_k()


def test_quotient_values():
    t1 = binom_power_term(1)
    assert t1.rho_k.eval(5, 2) == 1  # binom(5,3)/binom(5,2)
    t2 = binom_power_term(2)
    assert t2.rho_k.eval(4, 1) == Fraction(9, 4)
    t3 = binom_power_term(3)
    assert t3.rho_n.eval(4, 2) == Fraction(125, 27)


def test_invalid_power():
    with pytest.raises(ValueError):
        binom_power_term(0)


def test_compatibility_invariant():
    for s in range(1, 9):
        assert binom_power_term(s).is_compatible()
    assert apery_zeta3_term().is_compatible()


def test_shift_quotient_products_equal_the_reduced_reference():
    # nothing cancels for these terms, so the product formula gives the
    # lcm and the numerators over it exactly
    for s in range(1, 9):
        term = binom_power_term(s)
        for order in range(1, 5):
            assert shift_quotient_products(term, order) == \
                reference_shift_quotients(term, order)
    for order in range(1, 4):
        assert shift_quotient_products(apery_zeta3_term(), order) == \
            reference_shift_quotients(apery_zeta3_term(), order)


def staircase(term, n, k):
    """a(n, k)/a(0, 0) from the quotients, along (0,0) -> (n,0) -> (n,k)."""
    value = Fraction(1)
    for i in range(n):
        value *= term.rho_n.eval(i, 0)
    for j in range(k):
        value *= term.rho_k.eval(n, j)
    return value


def test_staircase_agrees_with_binomials():
    # the products of the quotients along the staircase are the values
    for s in range(1, 5):
        term = binom_power_term(s)
        for n in range(13):
            for k in range(n + 2):
                assert staircase(term, n, k) == \
                    (comb(n, k) ** s if k <= n else 0)


def test_apery_term_values():
    t = apery_zeta3_term()
    for n in range(8):
        total = sum(staircase(t, n, k) for k in range(n + 1))
        direct = sum((comb(n, k) * comb(n + k, k)) ** 2 for k in range(n + 1))
        assert total == direct


def test_operator_ratio_shift_minus_two():
    term = binom_power_term(1)
    op = RecurrenceOperator((IntPoly.const(-2), IntPoly.const(1)))
    ratio = RatFunc(*operator_numerator(op, term))
    assert ratio == RatFunc(2 * K - N - 1, N + 1 - K)


def test_operator_ratio_identity():
    term = binom_power_term(2)
    op = RecurrenceOperator((IntPoly.const(1),))
    assert RatFunc(*operator_numerator(op, term)) == RatFunc.one()


def test_operator_ratio_order_one_s2():
    # c_0 = -2(2n+1), c_1 = (n+1): check against 20 integer points
    term = binom_power_term(2)
    op = RecurrenceOperator((IntPoly((-2, -4)), IntPoly((1, 1))))
    ratio = RatFunc(*operator_numerator(op, term))
    for n in range(3, 23):
        k = (n * 7) % (n - 1) if n > 1 else 0
        expected = Fraction((n + 1) * (n + 1) ** 2, (n + 1 - k) ** 2) \
            - 2 * (2 * n + 1)
        assert ratio.eval(n, k) == expected


def test_operator_ratio_linearity():
    term = binom_power_term(2)
    p1 = RecurrenceOperator((IntPoly((1, 2)), IntPoly.const(1)))
    p2 = RecurrenceOperator((IntPoly((0, 0, 3)), IntPoly((5,), ),))
    combined = normalize_operator_coeffs(
        (p1.coeffs[0] + p2.coeffs[0], p1.coeffs[1] + p2.coeffs[1]))[0]
    lhs = RatFunc(*operator_numerator(combined, term))
    a = RatFunc(*operator_numerator(p1, term))
    b = RatFunc(*operator_numerator(p2, term))
    assert lhs.num * a.den * b.den == (a.num * b.den + b.num * a.den) * lhs.den


def test_arbitrary_staircase_paths_inside_support():
    import random
    rng = random.Random(314)
    for s in (1, 3):
        term = binom_power_term(s)
        for _ in range(25):
            n = rng.randint(0, 10)
            k = rng.randint(0, n)
            # random monotone path from (0,0) to (n,k) keeping j <= i
            i = j = 0
            value = Fraction(1)
            while (i, j) != (n, k):
                up_ok = i < n
                right_ok = j < k and j < i
                if up_ok and (not right_ok or rng.random() < 0.5):
                    value *= term.rho_n.eval(i, j)
                    i += 1
                else:
                    value *= term.rho_k.eval(i, j)
                    j += 1
            assert value == comb(n, k) ** s
