import hashlib
import random
from fractions import Fraction
from math import comb, lcm

import pytest

from franel import sequences
from franel.bipoly import BiPoly
from franel.hyperterm import apery_zeta3_term, binom_power_term
from franel.intpoly import IntPoly
from franel.sequences import (_FRANEL_LEAF, _apery_a_direct, apery_zeta3,
                              coefficient_row, coefficient_table, deformed,
                              franel, lcm_upto, recursion_start)
from franel.telescoper import zeilberger
from reference_sequences import annihilation_check, reference_franel


def brute_deformed(s, n, J):
    """Independent expansion: per-k product built factor by factor over
    Fractions, inverted by direct convolution; no shared code with the
    package kernel."""
    T = 2 * J + 1

    def mul(a, b):
        out = [Fraction(0)] * (T + 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if i + j <= T and bj:
                        out[i + j] += ai * bj
        return out

    def inv(a):
        out = [Fraction(0)] * (T + 1)
        out[0] = 1 / a[0]
        for i in range(1, T + 1):
            out[i] = -sum(a[m] * out[i - m]
                          for m in range(1, i + 1)) / a[0]
        return out

    total = [Fraction(0)] * (T + 1)
    for k in range(n + 1):
        bracket = [Fraction(1)] + [Fraction(0)] * T
        for j in range(1, k + 1):
            bracket = mul(bracket,
                          [Fraction(1), Fraction(-1, j)] + [Fraction(0)] * (T - 1))
        for j in range(1, n - k + 1):
            bracket = mul(bracket,
                          [Fraction(1), Fraction(1, j)] + [Fraction(0)] * (T - 1))
        term = [Fraction(1)] + [Fraction(0)] * T
        ib = inv(bracket)
        for _ in range(s):
            term = mul(term, ib)
        w = comb(n, k) ** s
        total = [t + w * c for t, c in zip(total, term)]
    return total


def reference_numerators(s, n, span):
    """The kernel with every t^i coefficient over its own scale L^i, so
    each step multiplies by L: (acc, L) with [t^i] A(n, t) = acc[i] / L^i.
    """
    scale = lcm(*range(1, n + 1))
    size = span + 1

    def conv(a, b):
        out = [0] * size
        for i, ai in enumerate(a):
            for j in range(size - i):
                out[i + j] += ai * b[j]
        return out

    def mul_linear(g, c):  # by (c + t)
        return [c * gi + scale * prev for gi, prev in zip(g, [0] + g[:-1])]

    def div_linear(g, c):  # by (c - t), exactly
        out, prev = [], 0
        for gi in g:
            prev, r = divmod(gi + scale * prev, c)
            assert r == 0
            out.append(prev)
        return out

    bracket = [1] + [0] * span
    for j in range(1, n + 1):
        bracket = conv(bracket, [1, scale // j] + [0] * (span - 1))
    power = [1] + [0] * span
    for _ in range(s):
        power = conv(power, bracket)
    g = [1] + [0] * span
    for i in range(1, size):
        g[i] = -sum(power[m] * g[i - m] for m in range(1, i + 1))
    acc = list(g)
    for k in range(n):
        for _ in range(s):
            g = mul_linear(g, n - k)
        for _ in range(s):
            g = div_linear(g, k + 1)
        acc = [a + gi for a, gi in zip(acc, g)]
    return acc, scale


def test_franel_examples():
    assert franel(1, 5) == 32
    assert franel(2, 4) == comb(8, 4) == 70
    assert franel(3, 4) == 346
    with pytest.raises(ValueError):
        franel(0, 3)


def test_franel_closed_forms():
    for n in range(20):
        assert franel(1, n) == 2 ** n
        assert franel(2, n) == comb(2 * n, n)
    # the halved ratio-stepped sum against the plain one, odd and even n
    for s in range(1, 8):
        for n in list(range(121)) + [777, 1000]:
            assert franel(s, n) == sum(comb(n, k) ** s for k in range(n + 1))


def test_franel_tree_edges_match_the_stepping_oracle():
    # h = ceil(n/2) terms: none, one, one leaf exactly, the first split
    leaf = _FRANEL_LEAF
    for n in (0, 1, 2, 2 * leaf - 1, 2 * leaf, 2 * leaf + 1):
        for s in range(1, 13):
            assert franel(s, n) == reference_franel(s, n)
            assert franel(s, n) == sum(comb(n, k) ** s for k in range(n + 1))


def test_franel_at_benchmark_sizes():
    for s, n in ((5, 7969), (3, 9975)):
        assert franel(s, n) == reference_franel(s, n)


def test_deformed_row_zero():
    for s in (1, 3, 5):
        d = deformed(s, 0, 2)
        assert d == (1, 0, 0, 0, 0, 0)


def test_deformed_row_one_closed_form():
    # A_j(1) = 2 binom(2j + s - 1, 2j)
    for s in (2, 3, 5):
        d = deformed(s, 1, 3)
        for j in range(4):
            assert d[2 * j] == 2 * comb(2 * j + s - 1, 2 * j)


def test_deformed_small_example():
    assert deformed(3, 2, 1) == (10, 0, 48, 0)


def test_coefficient_examples():
    assert coefficient_row(3, 1, 1)[1] == 12  # s(s+1)
    assert coefficient_row(4, 1, 2)[2] == 70  # s(s+1)(s+2)(s+3)/12


def test_against_brute_force():
    # each row compares the incremental kernel against the from-scratch
    # product at every k, so the sweep covers well over 200 (s, n, k) cells
    rng = random.Random(2024)
    cells = 0
    for _ in range(30):
        s = rng.randint(1, 5)
        n = rng.randint(0, 12)
        J = rng.randint(0, 3)
        expected = brute_deformed(s, n, J)
        got = deformed(s, n, J)
        assert list(got) == expected
        cells += n + 1
    assert cells >= 200


def test_kernel_matches_reference():
    # the one-scale kernel against the per-coefficient L^i kernel; the
    # coefficients through t^span do not depend on span, so one reference
    # at span 7 serves J = 0..3
    for s in range(1, 8):
        for n in list(range(41)) + [97, 256]:
            acc, scale = reference_numerators(s, n, 7)
            want = [Fraction(a, scale ** i) for i, a in enumerate(acc)]
            for J in range(4):
                assert coefficient_row(s, n, J) == tuple(want[:2 * J + 1:2])
                assert list(deformed(s, n, J)) == want[:2 * J + 2]


def test_reflection_symmetry_termwise():
    # exchanging k with n-k reflects the per-k factor t -> -t, so the sums
    # of the k and n-k brute-force terms have no odd part
    s, n, J = 3, 7, 2
    T = 2 * J + 1
    total = brute_deformed(s, n, J)
    assert all(total[i] == 0 for i in range(1, T + 1, 2))


def test_evenness_sweep():
    for s in (1, 2, 3):
        for n in range(0, 25, 5):
            d = deformed(s, n, 3)
            assert len(d) == 8
            assert all(d[i] == 0 for i in range(1, 8, 2))


def test_table_head_column():
    table = coefficient_table(3, 12, 1)
    for n in range(13):
        assert table.entry(n, 0) == franel(3, n)


def test_recurrence_forward_matches_direct():
    for s in (1, 2, 3, 4):
        op, _ = zeilberger(binom_power_term(s), 3)
        r = op.order
        seq = [Fraction(franel(s, n)) for n in range(r)]
        for n in range(40 - r):
            # solve c_r(n) u(n+r) = -(sum_{i<r} c_i(n) u(n+i))
            acc = Fraction(0)
            for i in range(r):
                acc += op.coeffs[i].eval_fraction(n) * seq[n + i]
            lead = op.coeffs[r].eval_fraction(n)
            assert lead != 0
            seq.append(-acc / lead)
        for n in range(len(seq)):
            assert seq[n] == franel(s, n)


def test_annihilation_franel_j01():
    op, _ = zeilberger(binom_power_term(3), 2)
    report = annihilation_check(3, op, 1, 0, 30)
    assert report.all_zero
    assert report.first_zero_run_start == (0, 0)


def test_annihilation_reports_violations():
    # the wrong operator must show nonzero residues as data, not errors
    op, _ = zeilberger(binom_power_term(2), 1)
    report = annihilation_check(3, op, 0, 0, 10)
    assert not report.all_zero
    assert all(res != 0 for _, _, res in report.violations)


def test_lcm_upto():
    assert lcm_upto(1) == 1
    assert lcm_upto(6) == 60
    assert lcm_upto(10) == 2520


def test_apery_pairs():
    pairs = apery_zeta3(6)
    assert (pairs[0].a, pairs[0].b) == (1, 0)
    assert (pairs[1].a, pairs[1].b) == (5, 1)
    assert pairs[2].a == 73
    assert pairs[2].b == Fraction(117, 8)
    assert pairs[3].a == 1445
    assert all(p.b_denominator_divides_lcm_cubed for p in pairs)


def test_apery_direct_equals_recursion():
    pairs = apery_zeta3(30)
    for p in pairs:
        assert p.a == sum((comb(p.n, k) * comb(p.n + k, k)) ** 2
                          for k in range(p.n + 1))


def test_apery_pairs_to_2000_keep_their_digest():
    # every field of every pair, integers in hex, which Python's limit on
    # int-to-decimal conversion does not cover
    digest = hashlib.sha256()
    for p in apery_zeta3(2000):
        digest.update(b"%x %x %x %x %d\n" % (
            p.n, p.a, p.b.numerator, p.b.denominator,
            p.b_denominator_divides_lcm_cubed))
    assert digest.hexdigest() == \
        "0be7cdc1e005660b61c533a284cc71f49854567556091a56fa538f140d000c14"


# the certificate apery_zeta3 stores, as (num, den) by powers of k
_NUM, _DEN = sequences._APERY_CERTIFICATE


def test_apery_telescoper_is_the_classical_recurrence_from_n_zero():
    op, cert = zeilberger(apery_zeta3_term(), 2, r_from=2)
    n1, n2 = IntPoly((1, 1)), IntPoly((2, 1))
    # (n+1)^3 - (2n+3)(17n^2+51n+39) N + (n+2)^3 N^2
    assert op.coeffs == (n1 * n1 * n1,
                         -(IntPoly((3, 2)) * IntPoly((39, 51, 17))),
                         n2 * n2 * n2)
    assert recursion_start(op, cert) == 0
    # the search still finds the operator and certificate apery_zeta3 stores
    assert op.coeffs == sequences._APERY_OPERATOR
    assert (cert.ratio.num, cert.ratio.den) == \
        (BiPoly.from_kpoly(_NUM), BiPoly.from_kpoly(_DEN))


def test_apery_sums_directly_only_at_the_ends(monkeypatch):
    seen = []
    monkeypatch.setattr(sequences, "_apery_a_direct",
                        lambda n: seen.append(n) or _apery_a_direct(n))
    apery_zeta3(40)
    assert seen == [0, 1, 40]


@pytest.mark.parametrize("name, fake, message", [
    ("_APERY_OPERATOR", (sequences._APERY_OPERATOR[0] + IntPoly.const(1),)
     + sequences._APERY_OPERATOR[1:], "does not prove"),
    ("_APERY_CERTIFICATE", (_NUM[:-1] + (_NUM[-1] + IntPoly.const(1),), _DEN),
     "does not prove"),
    ("recursion_start", lambda op, cert: 1, "does not prove"),
    ("_apery_a_direct", lambda n: _apery_a_direct(n) + (n == 12),
     "disagree at n=12"),
], ids=["perturbed-operator", "perturbed-certificate", "late-start",
        "direct-sum-at-n-max"])
def test_apery_refuses_an_unproven_recurrence(monkeypatch, name, fake,
                                              message):
    monkeypatch.setattr(sequences, name, fake)
    with pytest.raises(AssertionError, match=message):
        apery_zeta3(12)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        deformed(0, 3, 1)
    with pytest.raises(ValueError):
        deformed(2, -1, 1)
    with pytest.raises(ValueError):
        apery_zeta3(0)
    with pytest.raises(ValueError):
        annihilation_check(3, zeilberger(binom_power_term(1), 1)[0], 0, 5, 4)


def test_annihilation_beyond_guaranteed_range():
    # only j <= floor((s-1)/2) is guaranteed; for s = 3 the j = 2 sequence
    # leaves nonzero residues which the report carries as data
    op, _ = zeilberger(binom_power_term(3), 2)
    report = annihilation_check(3, op, 2, 0, 10)
    j2 = [v for v in report.violations if v[0] == 2]
    assert len(j2) == 11
    assert all(v[0] == 2 for v in report.violations)
    assert report.first_zero_run_start == (0, 0, None)
