"""Rows by forward recursion against the direct kernel, the per-operator
start check, and the rule that picks the path."""

from math import comb

import pytest

from franel import cli, limits, sequences, telescoper
from franel.bipoly import BiPoly, RatFunc
from franel.operators import Certificate, RecurrenceOperator
from franel.sequences import (_apery_a_direct, coefficient_row,
                              coefficient_rows, recursion_pays,
                              recursion_rows, recursion_start)
from franel.telescoper import (analyze_structure, first_valid_row,
                               verify_certificate)


def _crossover(s, J, two_rows):
    """The least N whose request the rule sends to the recursion."""
    N = 1
    while not recursion_pays(s, J, [N - 1, N] if two_rows
                             else range(N + 1)):
        N += 1
    return N


@pytest.fixture
def obtained(monkeypatch):
    """The orders of the operators the row source obtains, from the table
    or from the search, one entry per operator; each must have passed
    `verify_certificate` within the call that obtained it."""
    orders, verified = [], []
    check, obtain = verify_certificate, sequences._order_m_telescoper

    def verify(term, op, cert):
        ok = check(term, op, cert)
        if ok:
            verified.append(op)
        return ok

    def spy(s):
        verified.clear()
        op, cert = obtain(s)
        assert any(v is op for v in verified)
        orders.append(op.order)
        return op, cert
    # the table path checks through sequences' name, the search through
    # telescoper's
    monkeypatch.setattr(sequences, "verify_certificate", verify)
    monkeypatch.setattr(telescoper, "verify_certificate", verify)
    monkeypatch.setattr(sequences, "_order_m_telescoper", spy)
    return orders


def test_recursion_rows_equal_direct_rows(order_m_operators):
    for s in range(1, 9):
        op, cert = order_m_operators[s]
        start = recursion_start(op, cert)
        assert start == 0
        r = op.order
        for J in range((s - 1) // 2 + 1):
            # whole tables below, at and just past r
            for N in sorted({max(r - 1, 0), r, r + 2}):
                want = [coefficient_row(s, n, J) for n in range(N + 1)]
                assert list(recursion_rows(s, J, 0, N, op, start)) == want
            # the last two rows where the rule switches, for tables and,
            # while the direct rows stay cheap (s <= 5), for two-row requests
            crossings = [_crossover(s, J, False)]
            if s <= 5:
                crossings.append(_crossover(s, J, True))
            for N in crossings:
                want = [coefficient_row(s, n, J) for n in (N - 1, N)]
                assert list(recursion_rows(s, J, N - 1, N, op, start)) == want


def _crafted(cert, factor):
    return Certificate(RatFunc(cert.ratio.num, cert.ratio.den * factor))


def test_start_past_a_boundary_root(order_m_operators, monkeypatch):
    op, cert = order_m_operators[3]
    n, k = BiPoly.var_n(), BiPoly.var_k()
    # den(n, -1) gains the factor n - 5; den(n, n+3) gains -9
    crafted = _crafted(cert, n - k - 6)
    assert recursion_start(op, crafted) == 6
    seeds = []

    def counted(s, m, J):
        seeds.append(m)
        return coefficient_row(s, m, J)
    monkeypatch.setattr(sequences, "coefficient_row", counted)
    rows = list(recursion_rows(3, 1, 0, 30, op, 6))
    assert seeds == list(range(6 + op.order))
    monkeypatch.undo()
    assert rows == [coefficient_row(3, m, 1) for m in range(31)]


def test_start_covers_first_valid_row(order_m_operators):
    op, cert = order_m_operators[3]
    crafted = _crafted(cert, BiPoly.var_n() - 3)
    assert first_valid_row(analyze_structure(op, crafted, 3)) == 4
    assert recursion_start(op, crafted) == 4


def test_start_refused_when_a_boundary_pole_is_identical(
        order_m_operators, monkeypatch, tmp_path):
    op, cert = order_m_operators[3]
    crafted = _crafted(cert, BiPoly.var_k() + 1)
    assert recursion_start(op, crafted) is None
    # the crafted certificate is no telescoper; only the start check is
    # exercised here, on the search path of an empty table
    monkeypatch.setattr(sequences, "_FROZEN", str(tmp_path))
    monkeypatch.setattr(telescoper, "solve_at_order",
                        lambda term, r: (op, crafted))
    monkeypatch.setattr(telescoper, "verify_certificate", lambda *a: True)
    assert list(coefficient_rows(3, 1, 199, 200)) == \
        [coefficient_row(3, n, 1) for n in (199, 200)]


def test_failed_solve_falls_back_to_direct_rows(order_m_operators,
                                                monkeypatch, tmp_path):
    # no solution at order m, then one that fails verification, searched
    # for with an empty table
    monkeypatch.setattr(sequences, "_FROZEN", str(tmp_path))
    op, cert = order_m_operators[3]
    bumped = RecurrenceOperator((op.coeffs[0] + 1,) + op.coeffs[1:])
    assert recursion_pays(3, 1, [199, 200])
    for found in (None, (bumped, cert)):
        monkeypatch.setattr(telescoper, "solve_at_order",
                            lambda term, r, found=found: found)
        assert list(coefficient_rows(3, 1, 199, 200)) == \
            [coefficient_row(3, n, 1) for n in (199, 200)]


def test_rule_pinned_on_both_sides():
    # 2J >= s: never, however large the request
    assert not recursion_pays(5, 3, range(5000))
    assert not recursion_pays(4, 2, [9999, 10000])
    tables = {(3, 1): 22, (5, 2): 42, (6, 2): 64, (7, 3): 87, (8, 3): 133}
    for (s, J), N in tables.items():
        assert not recursion_pays(s, J, range(N))
        assert recursion_pays(s, J, range(N + 1))
    two_rows = {(3, 1): 89, (5, 2): 224, (6, 2): 393, (8, 3): 976}
    for (s, J), n in two_rows.items():
        assert not recursion_pays(s, J, [n - 2, n - 1])
        assert recursion_pays(s, J, [n - 1, n])


def test_rule_takes_a_huge_power_without_overflow():
    # 3**s as a float overflows from s = 647 on; a row of s = 1000 with
    # 2J < s is direct
    assert not recursion_pays(1000, 0, [0, 1])
    assert list(coefficient_rows(1000, 0, 0, 1)) == [(1,), (2,)]


def test_rule_matches_the_float_product_it_replaced():
    def float_rule(s, J, rows):
        if 2 * J >= s:
            return False
        w = s * (J + 1)
        direct = sum(n * (sequences._DIRECT_STEP_S
                          + w * (sequences._DIRECT_TERM_S
                                 + sequences._DIRECT_DIGIT_S * n))
                     for n in rows)
        return direct > sequences._SOLVE_S * 3 ** s

    requests = ([range(N) for N in (0, 1, 10, 22, 23, 42, 43, 64, 65, 133,
                                    134, 400, 2000)]
                + [[n - 1, n] for n in (1, 89, 90, 224, 225, 393, 394, 976,
                                        977, 5000)])
    for s in range(1, 13):
        for J in range(3):
            for rows in requests:
                assert recursion_pays(s, J, rows) is float_rule(s, J, rows)


def test_rule_follows_the_request(obtained):
    assert list(coefficient_rows(5, 2, 0, 20)) == \
        [coefficient_row(5, n, 2) for n in range(21)]
    assert obtained == []
    table = sequences.coefficient_table(3, 60, 1)
    assert obtained == [2]
    assert table.rows[59:] == (coefficient_row(3, 59, 1),
                               coefficient_row(3, 60, 1))


def test_no_solve_beyond_the_proven_range(obtained, capsys):
    # requests the rule would send to the recursion at a J in range, made
    # at 2J >= s, with --J-force or without, obtain no operator
    assert recursion_pays(5, 2, [599, 600])
    assert cli.main(["limits", "--s", "5", "--n-max", "600", "--J", "3",
                     "--J-force", "--json"]) == 0
    assert recursion_pays(4, 1, range(101))
    assert cli.main(["compute", "--s", "4", "--n-max", "100", "--J",
                     "2"]) == 0
    assert obtained == []
    capsys.readouterr()


def test_no_operator_outlives_a_call(obtained, capsys):
    argv = ["limits", "--s", "3", "--n-max", "400", "--J", "1", "--json"]
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0
    assert obtained == [2, 2]
    first, second = capsys.readouterr().out.split("]\n", 1)
    assert first + "]\n" == second


def test_library_api_takes_the_same_source(obtained):
    errs = limits.limit_error_sequence(3, 1, 200, 260, 256)
    assert obtained == [2]
    assert [n for n, _ in errs] == list(range(200, 261))
    direct = limits._row_ratio(coefficient_row(3, 230, 1), 1, 256)
    target = limits.pi(256).pow_int(2) * limits.phi(3, 1)[1]
    assert errs[30][1].to_fraction() == abs(direct - target).to_fraction()
    est = limits.limit_estimate(3, 1, 600)
    assert obtained == [2, 2]
    assert est.to_fraction() == \
        limits._row_ratio(coefficient_row(3, 600, 1), 1, 256).to_fraction()
    assert limits.limit_error_sequence(3, 1, 5, 4) == []


def test_apery_direct_sum_by_term_ratio():
    for n in range(61):
        assert _apery_a_direct(n) == sum(
            (comb(n, k) * comb(n + k, k)) ** 2 for k in range(n + 1))
