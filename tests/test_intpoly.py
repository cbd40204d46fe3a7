import random

import pytest

import franel.intpoly as intpoly
from franel.errors import ExactDivisionError
from franel.intpoly import (IntPoly, integer_roots, nonnegative_integer_roots,
                            pack_signed, poly_gcd_int, pseudo_rem,
                            pseudo_rem_coeffs, unpack_signed)

from reference_intpoly import integer_roots as sturm_integer_roots

X = IntPoly.variable()


def rand_poly(rng, maxdeg=4, maxc=9):
    return IntPoly([rng.randint(-maxc, maxc)
                    for _ in range(rng.randint(0, maxdeg) + 1)])


def test_basic_arithmetic():
    p = (X + 1) * (X - 1)
    assert p == X * X - 1
    assert p.degree == 2
    assert (p - p).is_zero
    assert (X + 2) ** 3 == X ** 3 + 6 * X * X + 12 * X + 8


def test_divexact_and_errors():
    p = (X + 3) * (2 * X - 5)
    assert p.divexact(X + 3) == 2 * X - 5
    with pytest.raises(ExactDivisionError):
        (X * X + 1).divexact(X + 1)
    with pytest.raises(ZeroDivisionError):
        X.divexact(IntPoly())


def test_mul_kronecker_matches_schoolbook():
    rng = random.Random(42)
    for _ in range(50):
        a = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 80))]
        b = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 80))]
        school = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                school[i + j] += ai * bj
        assert (IntPoly(a) * IntPoly(b)).coeffs == IntPoly(school).coeffs


def test_pack_unpack_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        vec = [rng.randint(-2 ** 60, 2 ** 60) for _ in range(rng.randint(1, 40))]
        packed = pack_signed(vec, 16)
        assert unpack_signed(packed, 16, len(vec)) == vec
        # a negative value, and a count above the digits needed
        assert unpack_signed(-packed, 16, len(vec)) == [-c for c in vec]
        assert unpack_signed(packed, 16, len(vec) + 3) == vec + [0, 0, 0]
    # digits at +-(X/2 - 1), the largest the balanced digits recover
    top = 2 ** 127 - 1
    for vec in ([top, -top, top], [-top] * 5, [0, top, 0, -top]):
        packed = pack_signed(vec, 16)
        assert unpack_signed(packed, 16, len(vec) + 2) == vec + [0, 0]
        assert unpack_signed(-packed, 16, len(vec)) == [-c for c in vec]


def test_pseudo_rem_scaling():
    # pseudo remainder = lc(b)^(da-db+1) * a mod b
    a = 3 * X ** 4 + X + 1
    b = 2 * X * X - 1
    r = pseudo_rem(a, b)
    # reduce lc^3 * a by b over the rationals and compare
    from fractions import Fraction
    ra = [Fraction(c) * 2 ** 3 for c in a.coeffs]
    rb = [Fraction(c) for c in b.coeffs]
    while len(ra) - 1 >= len(rb) - 1:
        f = ra[-1] / rb[-1]
        shift = len(ra) - len(rb)
        for i, c in enumerate(rb):
            ra[shift + i] -= f * c
        while ra and ra[-1] == 0:
            ra.pop()
    assert [Fraction(c) for c in r.coeffs] == ra
    rng = random.Random(23)
    for _ in range(60):
        a, b = rand_poly(rng, 7, 30), rand_poly(rng, 4, 30)
        if b.is_zero:
            continue
        r = pseudo_rem(a, b)
        assert r.degree < b.degree
        scaled = b.lc ** max(a.degree - b.degree + 1, 0) * a
        (scaled - r).divexact(b)  # raises unless b divides it
        # the same loop over Z[n] coefficients: constants give the same
        lifted = pseudo_rem_coeffs([IntPoly.const(c) for c in a.coeffs],
                                   [IntPoly.const(c) for c in b.coeffs])
        assert IntPoly([c.lc for c in lifted]) == r


def test_gcd_examples():
    assert poly_gcd_int((X + 1) * (X - 3), (X - 3) * (X + 7)) == X - 3
    assert poly_gcd_int(6 * X, IntPoly.const(4)) == IntPoly.const(2)
    assert poly_gcd_int(X + 1, X + 2) == IntPoly.const(1)


def test_gcd_product_property():
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = (rand_poly(rng, 3, 4) for _ in range(3))
        if a.is_zero or b.is_zero or c.is_zero:
            continue
        g = poly_gcd_int(a * c, b * c)
        gc = poly_gcd_int(a, b) * c
        # associates: each divides the other up to content
        assert g.divexact(poly_gcd_int(g, gc)).degree == 0
        assert gc.divexact(poly_gcd_int(g, gc)).degree == 0


def test_integer_roots_known():
    p = (X + 1) * (X - 3) * (X - 3) * (2 * X + 5) * (X * X + 1)
    assert integer_roots(p) == [-1, 3]
    assert integer_roots(X) == [0]
    assert integer_roots(IntPoly.const(7)) == []
    # large roots are still found exactly
    q = (X - 10 ** 9) * (X + 4)
    assert integer_roots(q) == [-4, 10 ** 9]
    for poly in (p, X, IntPoly.const(7), q):
        assert integer_roots(poly) == sturm_integer_roots(poly)
    with pytest.raises(ValueError):
        integer_roots(IntPoly())


def test_integer_roots_random():
    rng = random.Random(31)
    for _ in range(40):
        roots = sorted({rng.randint(-30, 30) for _ in range(rng.randint(0, 4))})
        p = IntPoly.const(rng.randint(1, 5))
        for r in roots:
            p = p * (X - r) ** rng.randint(1, 2)
        p = p * (X * X + X + 1)  # irreducible factor, no real roots
        assert integer_roots(p) == roots if roots else integer_roots(p) == []
        assert integer_roots(p) == sturm_integer_roots(p)


def test_nonnegative_roots_without_a_sign_change_skip_sturm(monkeypatch):
    # Descartes' rule: x^2 (x+1)^2 (x+3) has coefficients of one sign, so
    # its only root >= 0 is 0, read from the factor x^2, and the bisection
    # never runs
    def bisection(p, lo, hi):
        raise AssertionError("bisection taken")

    monkeypatch.setattr(intpoly, "_roots_between", bisection)
    assert nonnegative_integer_roots(X * X * (X + 1) ** 2 * (X + 3)) == [0]
    assert nonnegative_integer_roots(-(X + 2) * (X * X + 1)) == []
    assert nonnegative_integer_roots(IntPoly.const(-7)) == []
    monkeypatch.undo()
    p = (X - 3) ** 2 * X ** 3 * (X + 4) * (X * X - X + 1)
    assert nonnegative_integer_roots(p) == [0, 3]
    assert nonnegative_integer_roots(X * X - X + 1) == []
    with pytest.raises(ValueError):
        nonnegative_integer_roots(IntPoly())


def test_eval():
    p = X ** 3 - 2 * X + 5
    assert p.eval_int(10) == 985
    from fractions import Fraction
    assert p.eval_fraction(Fraction(1, 2)) == Fraction(33, 8)
    assert IntPoly().eval_int(7) == 0
    assert IntPoly().eval_fraction(Fraction(1, 3)) == 0
    rng = random.Random(5)
    for _ in range(40):
        q = rand_poly(rng, 8, 50)
        for x in (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  rand_poly(rng, 3, 9)):
            want = sum((c * x ** i for i, c in enumerate(q.coeffs)),
                       0 * x)
            got = intpoly.horner(q.coeffs, x, 0 * x)
            assert got == want and type(got) is type(want)
            if isinstance(x, Fraction):
                assert q.eval_fraction(x) == want


def test_compose_shift():
    assert (X * X).compose_shift(1) == X * X + 2 * X + 1
    assert IntPoly().compose_shift(5).is_zero
    rng = random.Random(37)
    for _ in range(40):
        p = rand_poly(rng, 8, 50)
        for d in range(-3, 4):
            q = p.compose_shift(d)
            for x in range(-4, 5):
                assert q.eval_int(x) == p.eval_int(x + d)
            assert q.compose_shift(-d) == p


def test_unpack_overflow_detected():
    import pytest as _pytest
    # a digit at exactly the half boundary cannot be represented
    with _pytest.raises(OverflowError):
        unpack_signed(1 << 15, 2, 1)


class _Unread:
    """An entry whose content must not be taken."""

    def content(self):
        raise AssertionError("content taken past a gcd of 1")


def test_int_content_stops_at_one():
    from math import gcd
    assert intpoly.int_content([]) == 0
    assert intpoly.int_content([IntPoly(), IntPoly()]) == 0
    assert intpoly.int_content([IntPoly((6, -4)), IntPoly(),
                                IntPoly((0, 10))]) == 2
    assert intpoly.int_content([IntPoly((6, -4)), IntPoly((9,))]) == 1
    assert intpoly.int_content(iter([IntPoly((3, 5)), _Unread()])) == 1
    assert intpoly.int_content([IntPoly((4,)), IntPoly((-6,)), IntPoly((3,)),
                                _Unread()]) == 1
    rng = random.Random(7)
    for _ in range(200):
        polys = [rand_poly(rng) * rng.randint(-4, 4)
                 for _ in range(rng.randint(0, 4))]
        assert intpoly.int_content(polys) == \
            gcd(*(c for p in polys for c in p.coeffs))
