from fractions import Fraction
from math import comb

import pytest

from franel.bigfloat import pi
from franel.limits import (ZETA3_REFERENCE_ERROR, ZETA3_REFERENCE_VALUE,
                           apery_zeta3_limit, asymptotic_ratio,
                           limit_error_sequence, limit_estimate, limit_report,
                           phi, zeta3_reference)
from franel.sequences import coefficient_row

from reference_bernoulli import pi_sin_zeta_coeffs


def test_phi_examples():
    table = phi(3, 2)
    assert table[0] == 1
    assert table[1] == Fraction(1, 2)
    assert table[2] == Fraction(17, 120)
    for s in range(1, 11):
        t = phi(s, 2)
        assert t[1] == Fraction(s, 6)
        assert t[2] == Fraction(s * (5 * s + 2), 360)


def test_phi_positive():
    for s in (1, 4, 7):
        assert all(p > 0 for p in phi(s, 6).phis)


def test_zeta_route_coefficients():
    r = pi_sin_zeta_coeffs(3)
    assert r[0] == 1
    assert r[1] == Fraction(1, 6)
    assert r[2] == Fraction(7, 360)
    assert r[3] == Fraction(31, 15120)


def test_double_expansion_agreement():
    assert list(pi_sin_zeta_coeffs(12)) == list(phi(1, 12).phis)


def test_limit_estimate_j0():
    est = limit_estimate(3, 0, 25, 128)
    assert est.to_fraction() == 1


def test_limit_estimate_converges_s3():
    est = limit_estimate(3, 1, 300, 256)
    target = pi(256).pow_int(2) * Fraction(1, 2)
    assert abs(est.to_fraction() - target.to_fraction()) < Fraction(1, 10 ** 12)


def test_limit_estimate_converges_s4():
    est = limit_estimate(4, 1, 300, 256)
    target = pi(256).pow_int(2) * Fraction(2, 3)
    assert abs(est.to_fraction() - target.to_fraction()) < Fraction(1, 10 ** 12)


def test_limit_report_normalized_targets():
    reps = limit_report(5, 60, 2, 256)
    by_j = {rep.j: rep for rep in reps}
    z2 = pi(256).pow_int(2) * Fraction(1, 6)
    z4 = pi(256).pow_int(4) * Fraction(1, 90)
    # B target zeta(2)/(s+1), C target 3(5s+2) zeta(4)/((s+1)(s+2)(s+3))
    assert abs(by_j[1].normalized_target.to_fraction()
               - z2.to_fraction() / 6) < Fraction(1, 2 ** 200)
    assert abs(by_j[2].normalized_target.to_fraction()
               - z4.to_fraction() * Fraction(81, 336)) < Fraction(1, 2 ** 200)


def test_normalizer_is_the_first_row_and_gives_the_closed_forms():
    pi2, pi4 = pi(256).pow_int(2), pi(256).pow_int(4)
    for s in range(1, 8):
        reps = limit_report(s, 4, 3, 256, enforce_theory_range=False)
        row = coefficient_row(s, 1, 3)
        assert reps[0].normalized_estimate is None
        for rep in reps[1:]:
            j = rep.j
            assert row[j] == 2 * comb(2 * j + s - 1, 2 * j)
            assert rep.normalized_estimate.to_fraction() == \
                (rep.estimate * Fraction(1, row[j])).to_fraction()
        # zeta(2)/(s+1) and 3(5s+2) zeta(4)/((s+1)(s+2)(s+3)), with the
        # same rounding as the closed forms
        closed = (pi2 * Fraction(1, 6 * (s + 1)),
                  pi4 * Fraction(3 * (5 * s + 2),
                                 90 * (s + 1) * (s + 2) * (s + 3)))
        for rep, want in zip(reps[1:], closed):
            assert rep.normalized_target.to_fraction() == want.to_fraction()
            assert rep.normalized_target.error_fraction() == \
                want.error_fraction()


def test_limit_report_range_guard():
    with pytest.raises(ValueError):
        limit_report(3, 50, 2, 128)
    reps = limit_report(3, 50, 2, 128, enforce_theory_range=False)
    assert len(reps) == 3


def test_successive_ratio_near_characteristic_root():
    # for s = 3 the error decays like 8^-n, so consecutive errors have
    # ratio near 1/8 while well above the precision floor
    reps = limit_report(3, 40, 1, 256)
    ratio = reps[1].successive_diff_ratio
    assert ratio is not None
    assert Fraction(1, 16) < ratio.to_fraction() < Fraction(1, 4)


def test_error_sequence_monotone_early():
    errs = limit_error_sequence(3, 1, 20, 35, 256)
    values = [e.abs_upper() for _, e in errs]
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))


def test_asymptotic_ratio_s1_exact():
    r = asymptotic_ratio(1, 100, 128)
    assert r.is_exact and r.to_fraction() == 1


def test_asymptotic_ratio_s2():
    r = asymptotic_ratio(2, 1000, 256)
    dev = abs(Fraction(1) - r.to_fraction())
    assert dev < Fraction(1, 10 ** 3)
    # classical second-order term: deviation ~ 1/(8n)
    assert Fraction(1, 10 ** 4) < dev < Fraction(2, 10 ** 4)


def test_asymptotic_error_halves():
    e1 = abs(Fraction(1) - asymptotic_ratio(3, 400, 256).to_fraction())
    e2 = abs(Fraction(1) - asymptotic_ratio(3, 800, 256).to_fraction())
    assert e2 <= Fraction(6, 10) * e1


def test_apery_zeta3_limit_values():
    one = apery_zeta3_limit(1, 128)
    assert abs(one.to_fraction() - Fraction(6, 5)) <= one.error_fraction()
    two = apery_zeta3_limit(2, 128)
    assert abs(two.to_fraction() - 6 * Fraction(117, 8) / 73) \
        <= two.error_fraction()


def test_apery_limit_converges_to_reference():
    approx = apery_zeta3_limit(20, 256)
    diff = abs(approx.to_fraction() - ZETA3_REFERENCE_VALUE)
    assert diff < Fraction(1, 10 ** 30) - ZETA3_REFERENCE_ERROR


def test_reference_enclosure():
    ref = zeta3_reference(256)
    assert ref.error_fraction() >= ZETA3_REFERENCE_ERROR


def test_linear_independence_evidence_s5():
    # the three estimated limits 1, ~phi_1 pi^2, ~phi_2 pi^4 are pairwise
    # distinct beyond the tracked error bounds
    ests = [limit_estimate(5, j, 120, 256) for j in range(3)]
    assert ests[0].is_distinct_from(ests[1])
    assert ests[0].is_distinct_from(ests[2])
    assert ests[1].is_distinct_from(ests[2])
