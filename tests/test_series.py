import random
from fractions import Fraction

import pytest

from franel.errors import NonInvertibleSeriesError
from franel.series import series_inv, series_mul, series_pow, sin_t_over_t


def test_inv_geometric():
    assert series_inv([1, -1, 0, 0]) == [1, 1, 1, 1]


def test_inv_sin_over_t():
    # coefficients of t/sin(t) through t^4
    f = series_inv(sin_t_over_t(4))
    assert f == [1, 0, Fraction(1, 6), 0, Fraction(7, 360)]


def test_inv_derived_example():
    f = [1, 1, Fraction(1, 2)]
    g = series_inv(f)
    assert g == [1, -1, Fraction(1, 2)]
    assert series_mul(f, g) == [1, 0, 0]


def test_inv_zero_constant_term():
    # only a constant term of 1 is accepted, which keeps integer series
    # integral
    for head in (0, 2, -1, Fraction(1, 2)):
        with pytest.raises(NonInvertibleSeriesError):
            series_inv([head, 1, 0])


def test_pow_simple():
    assert series_pow([1, 1, 0], 2) == [1, 2, 1]
    assert series_pow([1, 1, 0], 0) == [1, 0, 0]
    with pytest.raises(ValueError):
        series_pow([1, 1], -1)


def test_pow_t_over_sin_cubed():
    f = series_pow(series_inv(sin_t_over_t(4)), 3)
    assert f == [1, 0, Fraction(1, 2), 0, Fraction(17, 120)]


def test_pow_t_over_sin_fourth_short():
    f = series_pow(series_inv(sin_t_over_t(2)), 4)
    assert f == [1, 0, Fraction(2, 3)]


def test_mul_truncates_at_the_first_operand():
    assert series_mul([1, 2, 3, 4], [1, 1]) == [1, 3, 5, 7]
    assert series_mul([1, 2], [1, 1, 5, 7]) == [1, 3]


def test_constant_term_keeps_its_type():
    # phi's t^0 coefficient is printed, so Fraction(1) must not become 1
    for e in (0, 1, 3):
        head = series_pow(series_inv(sin_t_over_t(2)), e)[0]
        assert type(head) is Fraction and head == 1
    assert type(series_pow([1, 5], 3)[0]) is int
    assert type(series_inv([1, 5])[1]) is int


def test_inv_mul_identity_random():
    rng = random.Random(99)
    for _ in range(100):
        order = rng.randint(0, 7)
        ints = [1] + [rng.randint(-9, 9) for _ in range(order)]
        fracs = [Fraction(1)] + [Fraction(rng.randint(-9, 9),
                                          rng.randint(1, 9))
                                 for _ in range(order)]
        for f in (ints, fracs):
            assert series_mul(f, series_inv(f)) == [1] + [0] * order
        assert all(type(c) is int for c in series_inv(ints))


def test_pow_equals_repeated_mul():
    rng = random.Random(7)
    for _ in range(30):
        order = rng.randint(0, 6)
        f = [Fraction(rng.randint(-5, 5), rng.randint(1, 5))
             for _ in range(order + 1)]
        for s in range(9):
            by_mul = [1] + [0] * order
            for _ in range(s):
                by_mul = series_mul(by_mul, f)
            assert series_pow(f, s) == by_mul
