import random
from fractions import Fraction

import pytest

from franel.bigfloat import BigFloat, pi

from reference_bigfloat import reference_pi

# 100 decimal digits of pi, an external reference
PI_100 = Fraction(
    31415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679,
    10 ** 100)


def test_pi_against_reference():
    for prec in (64, 128, 256, 320):
        p = pi(prec)
        assert abs(p.to_fraction() - PI_100) <= \
            p.error_fraction() + Fraction(1, 10 ** 99)
        assert p.error_fraction() < Fraction(1, 2 ** (prec - 8))


@pytest.mark.parametrize("prec", [64, 65, 96, 127, 128, 256, 320, 1000,
                                  2048, 4095, 4096, 8192])
def test_pi_equals_the_single_division_series(prec):
    p, q = pi(prec), reference_pi(prec)
    assert (p.man, p.exp, p.err, p.prec) == (q.man, q.exp, q.err, q.prec)


def test_exact_integers():
    x = BigFloat.from_int(12345, 256)
    assert x.is_exact
    assert x.to_fraction() == 12345
    y = BigFloat.from_fraction(Fraction(3, 8), 256)
    assert y.is_exact and y.to_fraction() == Fraction(3, 8)


def test_rounding_tracks_error():
    x = BigFloat.from_fraction(Fraction(1, 3), 128)
    assert not x.is_exact
    assert abs(x.to_fraction() - Fraction(1, 3)) <= x.error_fraction()


def test_arithmetic_enclosures_random():
    rng = random.Random(321)
    for _ in range(60):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        if b == 0:
            continue
        xa = BigFloat.from_fraction(a, 128)
        xb = BigFloat.from_fraction(b, 128)
        for true, got in (
            (a + b, xa + xb),
            (a - b, xa - xb),
            (a * b, xa * xb),
            (a / b, xa / xb),
        ):
            assert abs(got.to_fraction() - true) <= got.error_fraction()


def test_sqrt_enclosure():
    rng = random.Random(11)
    for _ in range(40):
        a = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 1000))
        x = BigFloat.from_fraction(a, 192).sqrt()
        # (sqrt approx)^2 must enclose a
        v = x.to_fraction()
        e = x.error_fraction()
        assert (v - e) ** 2 <= a <= (v + e) ** 2


def test_sqrt_exact_powers():
    assert BigFloat.from_int(1, 256).sqrt().is_exact
    four = BigFloat.from_int(4, 256).sqrt()
    assert four.is_exact and four.to_fraction() == 2
    assert BigFloat.from_fraction(Fraction(1, 4), 256).sqrt().to_fraction() \
        == Fraction(1, 2)


def test_sqrt_negative_rejected():
    with pytest.raises(ValueError):
        BigFloat.from_int(-4, 128).sqrt()


def test_division_by_enclosure_containing_zero():
    tiny = BigFloat.from_fraction(Fraction(1, 2 ** 200), 64)
    wide = tiny.widen(Fraction(1, 2 ** 100))
    with pytest.raises(ZeroDivisionError):
        BigFloat.from_int(1, 64) / wide


def test_pow_int():
    x = BigFloat.from_fraction(Fraction(3, 7), 192)
    true = Fraction(3, 7) ** 9
    got = x.pow_int(9)
    assert abs(got.to_fraction() - true) <= got.error_fraction()
    assert x.pow_int(0).to_fraction() == 1
    for e in range(13):
        got = x.pow_int(e)
        assert abs(got.to_fraction() - Fraction(3, 7) ** e) \
            <= got.error_fraction()


def test_mul_2exp_exact():
    x = BigFloat.from_int(3, 128)
    y = x.mul_2exp(-4)
    assert y.is_exact and y.to_fraction() == Fraction(3, 16)


def test_distinctness():
    a = BigFloat.from_fraction(Fraction(1, 3), 256)
    b = BigFloat.from_fraction(Fraction(1, 3) + Fraction(1, 10 ** 50), 256)
    assert a.is_distinct_from(b)
    c = a.widen(Fraction(1, 10 ** 40))
    assert not c.is_distinct_from(b)


def test_error_soundness_vs_higher_precision():
    # the spot check: rerun random pipelines at 4x precision; the coarse
    # enclosure must contain the fine center
    rng = random.Random(5150)
    for _ in range(50):
        vals = [Fraction(rng.randint(1, 500), rng.randint(1, 500))
                for _ in range(4)]
        ops = [rng.choice("+-*/sq") for _ in range(6)]

        def pipeline(prec):
            xs = [BigFloat.from_fraction(v, prec) for v in vals]
            acc = xs[0] + pi(prec)
            for i, op in enumerate(ops):
                other = xs[(i + 1) % 4]
                if op == "+":
                    acc = acc + other
                elif op == "-":
                    acc = acc - other
                elif op == "*":
                    acc = acc * other
                elif op == "/":
                    acc = acc / other
                elif op == "s":
                    acc = abs(acc).sqrt()
                else:
                    acc = acc.pow_int(2)
            return acc

        coarse = pipeline(96)
        fine = pipeline(384)
        gap = abs(coarse.to_fraction() - fine.to_fraction())
        assert gap <= coarse.error_fraction() + fine.error_fraction()
        assert fine.error_fraction() <= coarse.error_fraction() or \
            fine.error_fraction() < Fraction(1, 2 ** 300)


def test_decimal_rendering():
    x = BigFloat.from_fraction(Fraction(1, 4), 128)
    assert x.decimal(3) == "0.250"
    y = BigFloat.from_fraction(Fraction(-5, 2), 128)
    assert y.decimal(2) == "-2.50"


def test_decimal_rendering_without_places():
    # no places: the rounded integer without a point, halves rounded up
    assert BigFloat.from_fraction(Fraction(7, 2), 128).decimal(0) == "4"
    assert BigFloat.from_int(5, 128).decimal(0) == "5"
    assert BigFloat.from_fraction(Fraction(-12, 5), 128).decimal(0) == "-2"
    assert BigFloat.from_fraction(Fraction(1, 3), 128).decimal(0) == "0"
    assert BigFloat.from_int(123, 128).decimal(1) == "123.0"
    with pytest.raises(ValueError):
        BigFloat.from_int(5, 128).decimal(-1)


def test_add_with_huge_exponent_gap():
    big = BigFloat.from_int(1, 128).mul_2exp(1000)
    tiny = BigFloat.from_int(1, 128).mul_2exp(-1000)
    total = big + tiny
    # the tiny addend folds into the error bound instead of the mantissa
    assert total.to_fraction() == Fraction(2) ** 1000
    assert total.error_fraction() >= Fraction(1, 2 ** 1000)
    assert abs((big.to_fraction() + tiny.to_fraction())
               - total.to_fraction()) <= total.error_fraction()
