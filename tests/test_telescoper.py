from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import franel.telescoper as telescoper
from franel.bipoly import BiPoly, RatFunc
from franel.documents import (document_bytes, operator_document,
                              parse_operator_document, timestamp)
from franel.errors import TelescoperNotFoundError
from franel.hyperterm import (HyperTerm, apery_zeta3_term, binom_power_term,
                              shift_quotient_products)
from franel.intpoly import IntPoly, integer_roots, poly_content
from franel.linalg import fraction_free_nullspace
from franel.operators import (Certificate, RecurrenceOperator,
                              apply_operator, normalize_operator_coeffs)
from franel.sequences import franel
from franel.telescoper import (analyze_structure, certificate_mismatch,
                               certificate_residual,
                               expected_certificate_denominator,
                               expected_coefficient_degree, expected_order,
                               first_valid_row, solve_at_order,
                               verify_certificate, zeilberger)

import reference_telescoper
from reference_hyperterm import (binomial_product_term, operator_numerator,
                                 reference_shift_quotients)
from reference_linalg import reference_determinant, unpacked_system
from reference_telescoper import (reference_denominator_audit,
                                  reference_mismatch, reference_parts,
                                  reference_residual, reference_solve_at_order)

N = BiPoly.var_n()
K = BiPoly.var_k()

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"


def assert_matches_frozen_document(s, op, cert, monkeypatch):
    """The r_max = 4 document is byte-identical to the frozen reference."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    frozen = (REFS / ("operator-s%d.json" % s)).read_bytes()
    assert document_bytes(operator_document(s, op, cert, 4,
                                             timestamp())) == frozen


def assert_residual_matches_reference(term, op, cert, shared):
    """certificate_residual equals the oracle and agrees with
    verify_certificate; `shared` says whether (P a)/a already has the
    certificate's denominator, the branch the check takes."""
    assert (operator_numerator(op, term)[1] == cert.ratio.den) is shared
    residual = certificate_residual(term, op, cert)
    assert residual == reference_residual(term, op, cert)
    assert verify_certificate(term, op, cert) is residual.is_zero
    return residual


def parts_in_z_n_k(term, op, cert):
    """The oracle's residual parts in Z[n][k], with the check's own
    arithmetic (cofactor, small and full numerator) on them."""
    return telescoper._ResidualParts(*reference_parts(term, op, cert))


def frozen_document(s):
    raw = (REFS / ("operator-s%d.json" % s)).read_bytes()
    _, op, cert, _ = parse_operator_document(raw)
    return op, cert


def bumped_operators(op):
    """op with the constant term of one c_i moved by 1 or -1, for each i
    where that still leaves a canonical operator."""
    for i, c in enumerate(op.coeffs):
        for delta in ((1, -1) if i % 2 == 0 else (-1, 1)):
            coeffs = list(op.coeffs)
            coeffs[i] = c + delta
            try:
                yield RecurrenceOperator(tuple(coeffs))
            except ValueError:
                continue
            break


def test_order_one_pascal():
    op, cert = zeilberger(binom_power_term(1), 2)
    assert op.order == 1
    assert op.coeffs == (IntPoly.const(-2), IntPoly.const(1))
    # annihilates 2^n
    for n in range(21):
        assert apply_operator(op, lambda m: Fraction(2) ** m, n) == 0
    assert cert.ratio == RatFunc(-K, N + 1 - K)


def test_order_one_central_binomial():
    op, cert = zeilberger(binom_power_term(2), 2)
    assert op.order == 1
    assert op.coeffs == (IntPoly((-2, -4)), IntPoly((1, 1)))
    for n in range(30):
        assert apply_operator(
            op, lambda m: Fraction(comb(2 * m, m)), n) == 0


def test_order_two_franel_golden():
    op, cert = zeilberger(binom_power_term(3), 3)
    assert op.order == 2
    # (n+2)^2 N^2 - (7n^2+21n+16) N - 8(n+1)^2
    assert op.coeffs == (IntPoly((-8, -16, -8)), IntPoly((-16, -21, -7)),
                         IntPoly((4, 4, 1)))
    assert verify_certificate(binom_power_term(3), op, cert)


def test_round_trip_verification():
    for s in (1, 2, 3, 4):
        term = binom_power_term(s)
        op, cert = zeilberger(term, 3)
        assert verify_certificate(term, op, cert)


def test_verify_rejects_wrong_certificate():
    # order 0 and R = 0: both denominators are 1, so the shared branch
    term = binom_power_term(1)
    op = RecurrenceOperator((IntPoly.const(1),))
    cert = Certificate(RatFunc.zero())
    residual = assert_residual_matches_reference(term, op, cert, shared=True)
    assert residual == RatFunc.one()
    # (10^6)^k binom(n, k): R = 0 drops rho_k's numerator from F, but its
    # image must still fit the stride
    big = HyperTerm(RatFunc(N + 1, N + 1 - K),
                    RatFunc(10 ** 6 * (N - K), K + 1))
    assert not assert_residual_matches_reference(big, op, cert,
                                                 shared=True).is_zero


def test_residual_matches_reference_on_frozen_documents():
    # every c_i is bumped up to s = 6, and c_0 alone at s = 7, where the
    # oracle takes about 1 s per bump; the numerator bump stops at s = 4:
    # the oracle takes 1 s on it at s = 5, 2 s at s = 6 and 40 s at s = 7,
    # nearly all of it reducing the residual
    for s in range(1, 8):
        term = binom_power_term(s)
        op, cert = frozen_document(s)
        assert assert_residual_matches_reference(term, op, cert, True).is_zero
        bumped = list(bumped_operators(op))
        assert len(bumped) == op.order + (s > 1)
        for bad in (bumped if s < 7 else bumped[:1]):
            assert not assert_residual_matches_reference(term, bad, cert,
                                                         True).is_zero
        if s <= 4:
            bad = Certificate(RatFunc(cert.ratio.num - 1, cert.ratio.den))
            assert not assert_residual_matches_reference(term, op, bad,
                                                         True).is_zero


def test_mismatch_matches_the_full_numerator():
    # the frozen document, every bumped operator and a bumped certificate
    # numerator: rd(n, k+1) divides qn bottom in each, so the degrees come
    # from the cofactor's small numerator plus rd(n, k+1)
    for s in range(1, 8):
        term = binom_power_term(s)
        op, cert = frozen_document(s)
        bad_num = Certificate(RatFunc(cert.ratio.num + 1, cert.ratio.den))
        cases = ([(op, cert), (op, bad_num)]
                 + [(bad, cert) for bad in bumped_operators(op)])
        for case_op, case_cert in cases:
            parts = parts_in_z_n_k(term, case_op, case_cert)
            assert parts.cofactor() is not None
            mismatch = certificate_mismatch(term, case_op, case_cert)
            assert mismatch == reference_mismatch(term, case_op, case_cert)
            assert (mismatch is None) is (case_cert is cert
                                          and case_op is op)


def test_failed_division_refutes_and_reports_the_full_numerator():
    # an altered certificate denominator: rd(n, k+1) does not divide
    # qn bottom, so the verdict needs no cross multiplication and the
    # degrees come from the full product
    for s in (3, 4, 5):
        term = binom_power_term(s)
        op, cert = frozen_document(s)
        num, den = cert.ratio.num, cert.ratio.den
        for bad_den in (den + 1, den * (N + K + 2)):
            bad = Certificate(RatFunc(num, bad_den))
            parts = parts_in_z_n_k(term, op, bad)
            assert parts.cofactor() is None
            assert telescoper._residual_image(term, op, bad)[1] is None
            assert not verify_certificate(term, op, bad)
            mismatch = certificate_mismatch(term, op, bad)
            assert mismatch is not None
            assert mismatch == reference_mismatch(term, op, bad)


def test_image_stride_bounds_the_full_numerator():
    # X/2 = 2**(8*stride - 1) exceeds every coefficient of F and of its two
    # products, which are equal on a valid document, on each frozen
    # document, on its copy with c_0 moved and on its copy with the
    # certificate denominator plus 1, which takes the general branch; on
    # the copy with c_0 moved it also exceeds those of the small numerator,
    # from which `certificate_mismatch` reads the degrees
    for s in range(1, 8):
        term = binom_power_term(s)
        op, cert = frozen_document(s)
        den_1 = Certificate(RatFunc(cert.ratio.num, cert.ratio.den + 1))
        c0_moved = next(bumped_operators(op))
        for case_op, case_cert in ((op, cert), (c0_moved, cert),
                                   (op, den_1)):
            image = telescoper._residual_image(term, case_op, case_cert)
            parts = parts_in_z_n_k(term, case_op, case_cert)
            products = [parts.full_numerator(),
                        parts.top() * parts.rd1 * parts.qd,
                        parts.rn1 * parts.qn * parts.bottom]
            if case_op is c0_moved:
                assert image.readable
                products.append(parts.small_numerator(parts.cofactor()))
            for p in products:
                bits = max((c.max_coeff_bits() for c in p.coeffs), default=0)
                assert bits < 8 * image.stride - 1


def test_residual_is_unpacked_from_the_image():
    # the digits of the image's full numerator are the oracle's numerator
    # in Z[n][k] for s = 3..6 on the certificate with its denominator
    # raised by 1 or multiplied by n + k + 2 (a failed division) and with
    # its numerator lowered by 1; the reduced residual is compared where
    # reducing it is quick: den+1 takes 9 s at s = 4 and den*(n+k+2) 70 s
    # at s = 5, on each side (2 cores, Python 3.11)
    for s in range(3, 7):
        term = binom_power_term(s)
        op, cert = frozen_document(s)
        num, den = cert.ratio.num, cert.ratio.den
        for kind, ratio in (("den+1", RatFunc(num, den + 1)),
                            ("den*(n+k+2)", RatFunc(num, den * (N + K + 2))),
                            ("num-1", RatFunc(num - 1, den))):
            bad = Certificate(ratio)
            image = telescoper._residual_image(term, op, bad)
            unpacked = BiPoly.from_kpoly(telescoper._digits(
                image.parts.full_numerator(), image.stride))
            assert unpacked == parts_in_z_n_k(term, op, bad).full_numerator()
            if kind == "num-1" or s == 3 or (kind != "den+1" and s == 4):
                assert not assert_residual_matches_reference(
                    term, op, bad, shared=kind == "num-1").is_zero


def test_mismatch_multiplies_no_bipolys(monkeypatch):
    # the check and its report run in the image alone: with the BiPoly
    # product disabled, the s=5 document with its denominator times
    # n + k + 2 (a failed division) and with c_0 moved (a readable image)
    # still report the degrees `verify` pins for them
    term = binom_power_term(5)
    op, cert = frozen_document(5)
    c0_moved = next(bumped_operators(op))
    den_times = Certificate(RatFunc(cert.ratio.num,
                                    cert.ratio.den * (N + K + 2)))

    def no_product(self, other):
        raise AssertionError("a BiPoly product in the certificate check")

    monkeypatch.setattr(BiPoly, "__mul__", no_product)
    with pytest.raises(AssertionError, match="BiPoly product"):
        N * K
    assert certificate_mismatch(term, op, den_times) == ((53, 52), (47, 52))
    assert certificate_mismatch(term, c0_moved, cert) == ((30, 35), (30, 35))
    assert not verify_certificate(term, op, den_times)
    assert verify_certificate(term, op, cert)


def test_mismatch_forms_the_full_numerator_when_the_image_is_unreadable():
    # rd = (k-2)^4 divides qn = (k^40-1)^4 at k+1 with a cofactor of 1-norm
    # far above |qn| |rd|: the stride covers F (X/2 = 2**15), but small has
    # a coefficient of 16 bits, so its image would read as degree 1 in n
    term = HyperTerm(RatFunc(BiPoly.const(1), (K - 2) ** 4),
                     RatFunc((K ** 40 - 1) ** 4, BiPoly.const(1)))
    op = RecurrenceOperator((IntPoly([1]), IntPoly([1])))
    cert = Certificate(RatFunc(BiPoly.const(1), (K - 2) ** 4))
    image = telescoper._residual_image(term, op, cert)
    assert image.small is not None and not image.readable
    parts = parts_in_z_n_k(term, op, cert)
    small = parts.small_numerator(parts.cofactor())
    bits = max(c.max_coeff_bits() for c in small.coeffs)
    assert bits >= 8 * image.stride - 1
    mismatch = certificate_mismatch(term, op, cert)
    assert mismatch == reference_mismatch(term, op, cert) == ((0, 164),
                                                              (0, 8))
    assert not assert_residual_matches_reference(term, op, cert,
                                                 shared=True).is_zero


def test_image_is_unreadable_when_only_the_image_division_is_exact():
    # rd = k+15 and qn = k^4 - n: rd1 = k+16 divides qn rd only at
    # n = X = 2**16 = 16^4, where the stride of 2 bytes puts it.  The
    # cofactor's digits C have ||C||_1 = 4371, so |top| |qd| + |rn1| ||C||_1
    # = 18 + 4371 lies below X/2 and only |rd1| ||C||_1 = 17 * 4371 keeps
    # the image from claiming an exact division in Z[n][k]
    rd = K + 15
    term = HyperTerm(RatFunc(BiPoly.const(1), rd),
                     RatFunc(K ** 4 - N, BiPoly.const(1)))
    op = RecurrenceOperator((IntPoly([1]), IntPoly([1])))
    cert = Certificate(RatFunc(BiPoly.const(1), rd))
    image = telescoper._residual_image(term, op, cert)
    assert image.stride == 2 and image.small is not None
    assert parts_in_z_n_k(term, op, cert).cofactor() is None
    assert not image.readable
    mismatch = certificate_mismatch(term, op, cert)
    assert mismatch == reference_mismatch(term, op, cert) == ((1, 5),
                                                              (0, 2))
    assert not assert_residual_matches_reference(term, op, cert,
                                                 shared=True).is_zero


def test_image_check_on_binomial_products():
    # (a, b) = (1, 2) takes the general branch: its certificate's
    # denominator is not the shift quotients' d
    assert binomial_product_term(2, 2) == apery_zeta3_term()
    for (a, b), shared in (((1, 1), True), ((2, 1), True), ((2, 2), True),
                           ((1, 2), False)):
        term = binomial_product_term(a, b)
        op, cert = zeilberger(term, 3)
        assert assert_residual_matches_reference(term, op, cert,
                                                 shared).is_zero
        bad = next(bumped_operators(op))
        assert not assert_residual_matches_reference(term, bad, cert,
                                                     shared).is_zero
        assert certificate_mismatch(term, bad, cert) == \
            reference_mismatch(term, bad, cert)


def test_verify_rejects_perturbed_certificate():
    term = binom_power_term(3)
    op, cert = zeilberger(term, 3)
    bumped = Certificate(RatFunc(cert.ratio.num + 1, cert.ratio.den))
    assert not verify_certificate(term, op, bumped)


def test_not_found_carries_orders():
    with pytest.raises(TelescoperNotFoundError) as info:
        zeilberger(binom_power_term(3), 1)
    assert info.value.orders_tried == (1,)


def test_search_from_a_higher_order_carries_the_orders_it_tried():
    # s = 7 has no telescoper below order 4
    with pytest.raises(TelescoperNotFoundError) as info:
        zeilberger(binom_power_term(7), 3, r_from=2)
    assert info.value.orders_tried == (2, 3)
    term = binom_power_term(5)
    assert zeilberger(term, 4, r_from=2) == zeilberger(term, 4, r_from=3) \
        == zeilberger(term, 4)


def test_search_range_must_start_at_one_or_above_and_not_pass_r_max():
    term = binom_power_term(3)
    for r_from, r_max in ((0, 2), (3, 2), (1, 0)):
        with pytest.raises(ValueError):
            zeilberger(term, r_max, r_from)


def test_minimality_below_expected_order():
    # cross-checks of `minimality_certificate`, by the ascending search
    for s in (3, 4):
        m = expected_order(s)
        with pytest.raises(TelescoperNotFoundError):
            zeilberger(binom_power_term(s), m - 1)


def test_minimality_survives_a_raised_degree_bound(monkeypatch):
    # "no telescoper below order ceil(s/2)" must not hinge on the Gosper
    # degree bound: three more degrees of freedom still find nothing.  The
    # certificate proves it without any bound; this search cross-checks it
    bound = telescoper._gosper_degree_bound

    def raised(*args):
        D = bound(*args)
        return (D if D is not None else 0) + 3

    monkeypatch.setattr(telescoper, "_gosper_degree_bound", raised)
    for s in range(3, 8):
        with pytest.raises(TelescoperNotFoundError):
            zeilberger(binom_power_term(s), (s + 1) // 2 - 1)


def test_padding_lemma_one_order_above(order_m_operators, monkeypatch):
    # the order-m telescoper and its shift N P, both padded, span the
    # order-(m+1) nullspace; the solve there returns the order-m operator
    # and its certificate, which is unique for the operator
    bases = []
    nullspace = telescoper.image_nullspace

    def record(norms, image_at):
        bases.append(nullspace(norms, image_at))
        assert bases[-1] == fraction_free_nullspace(
            unpacked_system(norms, image_at))
        return bases[-1]

    monkeypatch.setattr(telescoper, "image_nullspace", record)
    for s in range(1, 5):
        m = expected_order(s)
        bases.clear()
        assert telescoper.solve_at_order(binom_power_term(s), m + 1) == \
            order_m_operators[s]
        assert [len(basis) for basis in bases] == [2]


def test_documents_match_frozen_references(telescoped, order_m_operators,
                                           monkeypatch):
    for s in range(1, 7):
        op, cert, _ = telescoped[s]
        assert_matches_frozen_document(s, op, cert, monkeypatch)
    # the order-m solve alone, as `telescope` runs it, writes the same
    for s in range(1, 8):
        op, cert = order_m_operators[s]
        assert_matches_frozen_document(s, op, cert, monkeypatch)


def test_operator_ratio_is_the_certificate_difference(telescoped):
    # (P a)/a from the shared assembly equals R(n, k+1) rho_k - R(n, k),
    # by cross multiplication
    for s in range(1, 6):
        op, cert, _ = telescoped[s]
        term = binom_power_term(s)
        lhs = RatFunc(*operator_numerator(op, term))
        rn, rd = cert.ratio.num, cert.ratio.den
        rn1, rd1 = rn.compose_shift(0, 1), rd.compose_shift(0, 1)
        qn, qd = term.rho_k.num, term.rho_k.den
        assert lhs.num * (rd1 * qd * rd) == \
            lhs.den * (rn1 * qn * rd - rn * qd * rd1)


def test_annihilates_direct_sums():
    for s in (1, 2, 3, 4):
        op, _ = zeilberger(binom_power_term(s), 3)
        seq = [Fraction(franel(s, n)) for n in range(45)]
        for n in range(45 - op.order):
            assert apply_operator(op, seq, n) == 0


def test_apery_stretch_term():
    op, cert = zeilberger(apery_zeta3_term(), 2)
    assert op.order == 2
    # (n+2)^3 N^2 - (2n+3)(17n^2+51n+39) N + (n+1)^3
    assert op.coeffs == (
        IntPoly((1, 3, 3, 1)),
        IntPoly((-117, -231, -153, -34)),
        IntPoly((8, 12, 6, 1)),
    )
    a = [sum((comb(n, k) * comb(n + k, k)) ** 2 for k in range(n + 1))
         for n in range(25)]
    for n in range(22):
        assert apply_operator(op, [Fraction(x) for x in a], n) == 0
    assert assert_residual_matches_reference(apery_zeta3_term(), op, cert,
                                             True).is_zero


def test_expected_degree_formulas():
    assert [expected_coefficient_degree(s) for s in range(1, 7)] == \
        [0, 1, 2, 3, 6, 9]


def test_expected_order():
    assert [expected_order(s) for s in range(1, 7)] == [1, 1, 2, 2, 3, 3]


def test_structure_reports_small():
    for s in (2, 3, 4):
        op, cert = zeilberger(binom_power_term(s), 3)
        rep = analyze_structure(op, cert, s)
        assert rep.order == rep.expected_order == expected_order(s)
        assert rep.coeff_degree == rep.expected_degree
        assert rep.denominator_matches and rep.denominator_divides
        assert rep.numerator_k_degree == rep.expected_numerator_k_degree
        assert rep.integer_roots_of_denominator_in_n == ()
        assert first_valid_row(rep) == 0
        assert rep.all_expectations_met


def test_expected_denominator_shape():
    expected = expected_certificate_denominator(4, 2)
    assert expected == ((N - K + 1) * (N - K + 2)) ** 4
    assert expected.deg_n == 8 and expected.deg_k == 8


@pytest.mark.parametrize("s", range(1, 8))
def test_denominator_audit_equals_the_products(s):
    # the frozen document's denominator, altered: its negative, a multiple,
    # a sum that is no product, a proper divisor, and audited against the
    # rising product of the next power
    _, _, cert, _ = parse_operator_document(
        (REFS / ("operator-s%d.json" % s)).read_bytes())
    den = cert.ratio.den
    m = expected_order(s)
    cases = [(den, s), (-den, s), (den * (N + 1), s), (den + 1, s),
             (den.divexact(N - K + 1), s), (den, s + 1)]
    for case, power in cases:
        assert telescoper._denominator_audit(case, power, m) == \
            reference_denominator_audit(case, power, m)
    assert telescoper._denominator_audit(den, s, m) == (True, True)
    assert telescoper._denominator_audit(den.divexact(N - K + 1), s, m) == \
        (False, True)


def test_structure_detects_integer_roots():
    # synthetic certificate with an (n - 2) factor in the denominator
    op, cert = zeilberger(binom_power_term(1), 1)
    shifted = Certificate(RatFunc(cert.ratio.num,
                                  cert.ratio.den * (N - 2)))
    rep = analyze_structure(op, shifted, 1)
    assert rep.integer_roots_of_denominator_in_n == (2,)
    assert first_valid_row(rep) == 3
    assert not rep.denominator_matches
    assert not rep.denominator_divides


def test_apply_operator_examples():
    shift_minus_two = RecurrenceOperator((IntPoly.const(-2),
                                          IntPoly.const(1)))
    assert apply_operator(shift_minus_two,
                          lambda m: Fraction(2) ** m, 7) == 0
    identity = RecurrenceOperator((IntPoly.const(1),))
    assert apply_operator(identity, lambda m: Fraction(3 * m + 1), 5) == 16
    # the classical zeta(3) three-term operator annihilates its A-sequence
    apery = RecurrenceOperator((
        IntPoly((1, 3, 3, 1)),
        IntPoly((-117, -231, -153, -34)),
        IntPoly((8, 12, 6, 1)),
    ))
    a_seq = [Fraction(x) for x in (1, 5, 73, 1445, 33001)]
    assert apply_operator(apery, a_seq, 1) == 0
    assert apply_operator(apery, a_seq, 2) == 0


def test_operator_invariants_enforced():
    with pytest.raises(ValueError):
        RecurrenceOperator((IntPoly.const(2), IntPoly.const(2)))
    with pytest.raises(ValueError):
        RecurrenceOperator((IntPoly.const(1), IntPoly.const(-1)))
    with pytest.raises(ValueError):
        RecurrenceOperator((IntPoly.const(1), IntPoly()))
    op, scale = normalize_operator_coeffs((IntPoly((0, 2)), IntPoly((0, -4))))
    assert scale == IntPoly((0, -2))
    assert op.coeffs == (IntPoly.const(-1), IntPoly.const(2))


def test_degenerate_term_rejected():
    bad = HyperTerm(RatFunc.zero(), RatFunc.one())
    with pytest.raises(ValueError):
        zeilberger(bad, 2)


def _weighted_binomial_term():
    rho_n = RatFunc(N + 1, N + 1 - K)
    rho_k = RatFunc((N - K) * (K + 2), (K + 1) * (K + 1))
    return HyperTerm(rho_n, rho_k)


def test_weighted_binomial_exercises_nontrivial_normal_form():
    # a(n, k) = binom(n, k) (k+1): the shift quotient in k has roots two
    # apart, so the Gosper normal form must peel off a nontrivial C(k)
    term = _weighted_binomial_term()
    op, cert = zeilberger(term, 2)
    # sum_k binom(n,k)(k+1) = 2^(n-1)(n+2) satisfies (n+2) u(n+1) = 2(n+3) u(n)
    assert op.order == 1
    assert op.coeffs == (IntPoly((-6, -2)), IntPoly((2, 1)))
    assert assert_residual_matches_reference(term, op, cert, False).is_zero
    assert cert.ratio.den == (K + 1) * (N + 1 - K)
    bad = Certificate(RatFunc(cert.ratio.num + 1, cert.ratio.den))
    assert not assert_residual_matches_reference(term, op, bad, False).is_zero
    seq = [Fraction(2) ** (n - 1) * (n + 2) for n in range(12)]
    for n in range(10):
        assert apply_operator(op, seq, n) == 0


def test_order_four_seventh_power(monkeypatch):
    # one size beyond the release gate: order floor((7+1)/2) = 4 with the
    # predicted coefficient degree and certificate shape
    op, cert = zeilberger(binom_power_term(7), 4)
    assert op.order == 4
    assert op.coefficient_degree() == expected_coefficient_degree(7) == 16
    rep = analyze_structure(op, cert, 7)
    assert rep.denominator_matches
    assert rep.numerator_k_degree == 28
    assert verify_certificate(binom_power_term(7), op, cert)
    assert_matches_frozen_document(7, op, cert, monkeypatch)


def _even_slice_term():
    rho_n = RatFunc((2 * N + 1) * (2 * N + 2),
                    (2 * N + 1 - 2 * K) * (2 * N + 2 - 2 * K))
    rho_k = RatFunc((2 * N - 2 * K) * (2 * N - 2 * K - 1),
                    (2 * K + 1) * (2 * K + 2))
    return HyperTerm(rho_n, rho_k)


def _binomial_times_linear_term():
    # a(n, k) = binom(n, k) (n+k+1): p(n, k) = (n+1)(n+k+2) shares the
    # factor n+k+2 with q(n+1, k) = (n+2-k)(n+k+2)
    rho_n = RatFunc((N + 1) * (N + K + 2), (N + 1 - K) * (N + K + 1))
    rho_k = RatFunc((N - K) * (N + K + 2), (K + 1) * (N + K + 1))
    return HyperTerm(rho_n, rho_k)


def test_even_slice_binomial_has_nonzero_first_valid_row():
    # a(n, k) = binom(2n, 2k): the row sums are 2^(2n-1) only from n = 1,
    # and the certificate denominator announces that through its factor n
    term = _even_slice_term()
    op, cert = zeilberger(term, 2)
    assert op.coeffs == (IntPoly.const(-4), IntPoly.const(1))
    assert assert_residual_matches_reference(term, op, cert, False).is_zero
    rep = analyze_structure(op, cert, 1)
    assert rep.integer_roots_of_denominator_in_n == (0,)
    assert first_valid_row(rep) == 1
    sums = [Fraction(sum(comb(2 * n, 2 * k) for k in range(n + 1)))
            for n in range(12)]
    assert apply_operator(op, sums, 0) != 0  # the summed identity needs n >= 1
    for n in range(1, 10):
        assert apply_operator(op, sums, n) == 0


@pytest.mark.parametrize("s", range(1, 8))
def test_solve_at_order_equals_the_unscaled_reference(s):
    term = binom_power_term(s)
    m = expected_order(s)
    assert solve_at_order(term, m - 1) is None
    assert reference_solve_at_order(term, m - 1) is None
    found = solve_at_order(term, m)
    assert found is not None
    assert found == reference_solve_at_order(term, m)


@pytest.mark.parametrize("make", [
    _weighted_binomial_term, _binomial_times_linear_term, _even_slice_term,
    apery_zeta3_term], ids=lambda make: make.__name__.strip("_"))
def test_solve_at_order_equals_the_reference_on_other_terms(make):
    # a nontrivial C, a p with a pure-n factor and a k factor, integer
    # contents in p and q, and a term with a product of binomials
    term = make()
    for r in (1, 2, 3):
        assert solve_at_order(term, r) == reference_solve_at_order(term, r)


def test_operator_columns_reach_the_nullspace_content_free(monkeypatch):
    # each c-column arrives primitive in Z[n]; the reference's carries
    # prod_{j<i} (n+j+1)^s.  The f-columns and the vector read back from
    # the nullspace, before the operator is normalized, are the reference's.
    # The solver hands its system over as images, unpacked here
    seen = {}

    def recording(module, name, key, unpack=lambda arg: arg):
        inner = getattr(module, name)

        def record(*args):
            seen[module, key] = unpack(*args)
            return inner(*args)

        monkeypatch.setattr(module, name, record)

    recording(telescoper, "image_nullspace", "nullspace", unpacked_system)
    recording(reference_telescoper, "fraction_free_nullspace", "nullspace")
    for module in (telescoper, reference_telescoper):
        recording(module, "normalize_operator_coeffs", "normalize")
    for s in range(1, 9):
        term = binom_power_term(s)
        m = expected_order(s)
        assert solve_at_order(term, m) == reference_solve_at_order(term, m)
        cols, ref_cols = (list(zip(*seen[module, "nullspace"]))
                          for module in (telescoper, reference_telescoper))
        n_f = len(cols) - (m + 1)
        assert cols[:n_f] == ref_cols[:n_f]
        content = IntPoly.const(1)
        for i in range(m + 1):
            assert poly_content(cols[n_f + i])[0] == IntPoly.const(1)
            assert poly_content(ref_cols[n_f + i])[0] == content
            content = content * IntPoly((i + 1, 1)) ** s
        assert seen[telescoper, "normalize"] == \
            seen[reference_telescoper, "normalize"]


def _fit_operator_from_data(values, order, degree):
    # nullspace over Q of the linear map sending polynomial coefficients
    # of c_0..c_order (each of degree <= degree) to sum_i c_i(n) u(n+i),
    # sampled at every available n; RREF over exact Fractions
    ncols = (order + 1) * (degree + 1)
    rows = []
    for n in range(len(values) - order):
        row = []
        for i in range(order + 1):
            for d in range(degree + 1):
                row.append(Fraction(n) ** d * values[n + i])
        rows.append(row)
    mat = [row[:] for row in rows]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivot_cols]
    if not free:
        return None
    fc = free[0]
    vec = [Fraction(0)] * ncols
    vec[fc] = Fraction(1)
    for row_idx, pc in enumerate(pivot_cols):
        vec[pc] = -mat[row_idx][fc]
    out = []
    for i in range(order + 1):
        coeffs = vec[i * (degree + 1):(i + 1) * (degree + 1)]
        denom_lcm = 1
        for q in coeffs:
            denom_lcm = denom_lcm * q.denominator // \
                __import__("math").gcd(denom_lcm, q.denominator)
        out.append(IntPoly([int(q * denom_lcm) for q in coeffs]))
    return out


def test_operator_matches_data_fit():
    # recover the recurrence purely from exact sum values and compare with
    # the telescoper output; validates both coefficients and minimality
    for s, degree in ((3, 2), (4, 3), (5, 6)):
        op, _ = zeilberger(binom_power_term(s), 3)
        r = op.order
        values = [Fraction(franel(s, n)) for n in range(r + (degree + 1) *
                                                        (r + 1) + 12)]
        fitted = _fit_operator_from_data(values, r, degree)
        assert fitted is not None
        from franel.operators import normalize_operator_coeffs
        fit_op, _ = normalize_operator_coeffs(fitted)
        assert fit_op.coeffs == op.coeffs
        # no lower-order fit exists at any reasonable degree
        assert _fit_operator_from_data(values, r - 1, degree + 3) is None


# ---------------------------------------------------------------------------
# dispersion: the one-point resultant against the generic bivariate one
# ---------------------------------------------------------------------------


def _resultant_in_k_shifted(a: BiPoly, b: BiPoly) -> BiPoly:
    """Res_k(a(k), b(k+h)) as a polynomial in (n, h), over Z[n, h].

    The result reuses BiPoly with the first variable n and the second
    variable h.
    """
    a_kp, b_kp = a.coeffs, b.coeffs
    da, db = a.deg_k, b.deg_k
    # rows of b(k+h): coefficient of k^m is sum_{i>=m} C(i,m) b_i(n) h^(i-m)
    b_shift = []
    for m in range(db + 1):
        entry = BiPoly()
        for i in range(m, db + 1):
            if not b_kp[i].is_zero:
                entry = entry + BiPoly.from_intpoly_n(comb(i, m) * b_kp[i]) \
                    * BiPoly({(0, i - m): 1})
        b_shift.append(entry)
    a_rows = [BiPoly.from_intpoly_n(c) for c in a_kp]
    size = da + db
    matrix = []
    for shift in range(db):
        row = [BiPoly()] * size
        for i, c in enumerate(reversed(a_rows)):
            row[shift + i] = c
        matrix.append(row)
    for shift in range(da):
        row = [BiPoly()] * size
        for i, c in enumerate(reversed(b_shift)):
            row[shift + i] = c
        matrix.append(row)
    return reference_determinant(matrix, BiPoly.const(1), BiPoly())


def _generic_dispersion_set(a: BiPoly, b: BiPoly):
    """The dispersion set over Q(n), from the bivariate resultant.

    Candidates are the integer roots of one nonzero n-degree slice of the
    resultant; a candidate j stays only if the resultant vanishes
    identically in n at h = j.
    """
    if a.deg_k < 1 or b.deg_k < 1:
        return []
    # h-poly over Z[n]
    rows = list(_resultant_in_k_shifted(a, b).coeffs)
    max_n_deg = max(p.degree for p in rows)
    slice_poly = None
    for delta in range(max_n_deg + 1):
        cand = IntPoly([p.coeffs[delta] if delta <= p.degree else 0
                        for p in rows])
        if not cand.is_zero:
            slice_poly = cand
            break
    out = []
    for j in integer_roots(slice_poly):
        at_j = IntPoly()  # the resultant at h = j, a polynomial in n
        for c in reversed(rows):
            at_j = at_j * j + c
        if j >= 0 and at_j.is_zero:
            out.append(j)
    return out


def _recorded_dispersion_pairs(monkeypatch, terms_and_orders):
    """The (qhat, rhat) pairs solve_at_order hands to _dispersion_set."""
    pairs = []
    real = telescoper._dispersion_set

    def record(a, b):
        pairs.append((a, b))
        return real(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(telescoper, "_dispersion_set", record)
        for term, r in terms_and_orders:
            telescoper.solve_at_order(term, r)
    return pairs


def test_specialized_dispersion_contains_generic_set(monkeypatch):
    cases = [(binom_power_term(s), r) for s in range(1, 6)
             for r in range(1, 4)]
    pairs = _recorded_dispersion_pairs(monkeypatch, cases)
    assert len(pairs) == len(cases)
    for a, b in pairs:
        generic = _generic_dispersion_set(a, b)
        assert set(generic) <= set(telescoper._dispersion_set(a, b))

    (a, b), = _recorded_dispersion_pairs(
        monkeypatch, [(_weighted_binomial_term(), 1)])
    assert _generic_dispersion_set(a, b) == [1]
    assert 1 in telescoper._dispersion_set(a, b)


def test_false_dispersion_candidate_leaves_normal_form_unchanged(
        monkeypatch):
    # a = k + 2, b = n + 1 - k: b(k + h) vanishes at the root k = -2 of a
    # only where h = n + 3, which is no integer constant, but is the integer
    # n0 + 3 once n is specialized to n0
    a, b = K + 2, N + 1 - K
    n0 = telescoper.SPECIALIZATION_POINTS[0]
    assert telescoper._dispersion_set(a, b) == [n0 + 3]
    assert _generic_dispersion_set(a, b) == []
    fast = telescoper._gosper_normal_form(a, b)
    monkeypatch.setattr(telescoper, "_dispersion_set",
                        _generic_dispersion_set)
    assert telescoper._gosper_normal_form(a, b) == fast
    assert fast == (a, b, BiPoly.const(1))


def test_dispersion_determinants_are_univariate(monkeypatch):
    calls = []
    real = telescoper.bareiss_determinant

    def univariate_only(matrix):
        assert all(isinstance(e, IntPoly) for row in matrix for e in row)
        calls.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(telescoper, "bareiss_determinant", univariate_only)
    op, _ = zeilberger(binom_power_term(5), 3)
    assert op.order == 3
    assert calls


def test_shift_quotient_products_of_quotient_terms_equal_the_reference():
    for term in (_weighted_binomial_term(), _even_slice_term()):
        for order in range(1, 4):
            assert shift_quotient_products(term, order) == \
                reference_shift_quotients(term, order)


def test_product_denominator_may_exceed_the_lcm():
    term = _binomial_times_linear_term()
    d, us = shift_quotient_products(term, 2)
    ref_d, ref_us = reference_shift_quotients(term, 2)
    assert d.deg_n == 4 and ref_d.deg_n == 3
    for order in range(1, 4):
        d, us = shift_quotient_products(term, order)
        ref_d, ref_us = reference_shift_quotients(term, order)
        for u, ref_u in zip(us, ref_us):
            assert u * ref_d == ref_u * d


def test_binomial_times_linear_telescopes_as_before():
    # sum_k binom(n, k)(n+k+1) = 2^(n-1) (3n+2)
    term = _binomial_times_linear_term()
    op, cert = zeilberger(term, 3)
    assert op.coeffs == (IntPoly((-10, -6)), IntPoly((2, 3)))
    assert cert.ratio == RatFunc(
        -K * (3 * N * N + 3 * N * K + 5 * N + 5 * K + 1),
        (N + 1 - K) * (N + 1 + K))
    assert assert_residual_matches_reference(term, op, cert, True).is_zero
    seq = [Fraction(2) ** (n - 1) * (3 * n + 2) for n in range(12)]
    for n in range(11):
        assert apply_operator(op, seq, n) == 0


def test_gosper_ratio_is_the_reduced_product(monkeypatch):
    # the ratio handed to the normal form at order r is rho_k d(k)/d(k+1)
    # in lowest terms, d the common denominator of the shift quotients
    seen = []
    normal_form = telescoper._gosper_normal_form

    def capture(q, r):
        seen.append((q, r))
        return normal_form(q, r)

    monkeypatch.setattr(telescoper, "_gosper_normal_form", capture)
    terms = [binom_power_term(s) for s in range(1, 6)] + [
        apery_zeta3_term(), _weighted_binomial_term(), _even_slice_term(),
        _binomial_times_linear_term()]
    for term in terms:
        seen.clear()
        op, _ = zeilberger(term, 3)
        assert len(seen) == op.order
        for r, (q, rr) in enumerate(seen, start=1):
            d, _ = shift_quotient_products(term, r)
            expected = RatFunc(term.rho_k.num * d,
                               term.rho_k.den * d.compose_shift(0, 1))
            assert (q, rr) == (expected.num, expected.den)


def test_incompatible_term_rejected():
    bad = HyperTerm(RatFunc(N + 1, N + 1 - K), RatFunc(N + K, K + 1))
    assert not bad.is_compatible()
    with pytest.raises(ValueError):
        zeilberger(bad, 2)
