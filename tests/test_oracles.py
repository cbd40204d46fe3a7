"""Independent oracles: sympy's series for phi, mpmath's pi for the Machin
enclosure.  Each test is skipped where its library is missing."""

from fractions import Fraction

import pytest

from franel.bigfloat import pi
from franel.limits import phi


def test_phi_equals_sympy_series():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for s in range(1, 8):
        expansion = sympy.series((x / sympy.sin(x)) ** s, x, 0, 9).removeO()
        coeffs = [expansion.coeff(x, i) for i in range(9)]
        assert all(c == 0 for c in coeffs[1::2])
        want = tuple(Fraction(int(c.p), int(c.q)) for c in coeffs[::2])
        assert phi(s, 4).phis == want


def test_pi_enclosure_contains_mpmath_pi():
    mpmath = pytest.importorskip("mpmath")
    bits = 2000
    enclosure = pi(bits)
    mid, err = enclosure.to_fraction(), enclosure.error_fraction()
    assert 0 < err < Fraction(1, 2 ** (bits - 8))
    # mpmath at 2200 bits is within 2^-2197 of pi, far inside err
    ctx = mpmath.mp.clone()
    ctx.prec = 2200
    man, exp = ctx.pi.man_exp
    reference = Fraction(man) * Fraction(2) ** exp
    assert abs(reference - mid) + Fraction(1, 2 ** 2190) <= err
