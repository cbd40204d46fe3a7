from fractions import Fraction
from math import comb

import pytest

from reference_bernoulli import bernoulli


def test_small_values():
    table = bernoulli(12)
    assert table[0] == 1
    assert table[1] == Fraction(-1, 2)
    assert table[2] == Fraction(1, 6)
    assert table[3] == 0
    assert table[4] == Fraction(-1, 30)
    assert table[12] == Fraction(-691, 2730)


def test_b12_against_zeta12():
    # zeta(12) = 691 pi^12 / 638512875, equivalently
    # B_12 = (-1)^7 * 2 * 12! * zeta(12) / (2 pi)^12
    from math import factorial
    table = bernoulli(12)
    ratio = Fraction((-1) ** 7 * 2 * factorial(12), 2 ** 12) \
        * Fraction(691, 638512875)
    assert table[12] == ratio


def test_defining_recurrence():
    m_max = 30
    table = bernoulli(m_max)
    for m in range(1, m_max + 1):
        total = sum(comb(m + 1, i) * table[i] for i in range(m + 1))
        assert total == 0


def test_odd_zero():
    table = bernoulli(25)
    for i in range(3, 26, 2):
        assert table[i] == 0


def test_invalid():
    with pytest.raises(ValueError):
        bernoulli(-1)
