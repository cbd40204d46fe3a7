"""Rows by forward recursion against the direct kernel, the per-operator
start check, and the rule that picks the path: the table's verified
operator when 2J < s, direct rows otherwise, and never a search."""

from math import comb

import pytest

from franel import cli, limits, sequences, telescoper
from franel.bipoly import BiPoly, RatFunc
from franel.operators import Certificate, RecurrenceOperator
from franel.documents import document_bytes, operator_document
from franel.sequences import (_apery_a_direct, coefficient_row,
                              coefficient_rows, recursion_rows,
                              recursion_start)
from franel.telescoper import (analyze_structure, expected_order,
                               first_valid_row, verify_certificate)


def _no_search(*args, **kwargs):
    raise AssertionError("the row source searched")


@pytest.fixture
def obtained(monkeypatch):
    """The orders of the operators the row source obtains from the table,
    one entry per operator; each must have passed `verify_certificate`
    within the call that obtained it."""
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
    monkeypatch.setattr(sequences, "verify_certificate", verify)
    monkeypatch.setattr(sequences, "_order_m_telescoper", spy)
    monkeypatch.setattr(telescoper, "zeilberger", _no_search)
    return orders


def test_recursion_rows_equal_direct_rows(order_m_operators,
                                          table_operators):
    # s <= 8 from a fresh solve, s = 9 and 10 from the table; CI checks
    # s = 11 and 12, whose entries take about 2 s each to verify
    for s in range(1, 11):
        op, cert = order_m_operators[s] if s <= 8 else table_operators(s)
        start = recursion_start(op, cert)
        assert start == 0
        r = op.order
        for J in range((s - 1) // 2 + 1):
            # whole tables below, at and just past r, and two far rows
            for N in sorted({max(r - 1, 0), r, r + 2}):
                want = [coefficient_row(s, n, J) for n in range(N + 1)]
                assert list(recursion_rows(s, J, 0, N, op, start)) == want
            want = [coefficient_row(s, n, J) for n in (39, 40)]
            assert list(recursion_rows(s, J, 39, 40, op, start)) == want


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
        order_m_operators, monkeypatch):
    op, cert = order_m_operators[3]
    crafted = _crafted(cert, BiPoly.var_k() + 1)
    assert recursion_start(op, crafted) is None
    # the crafted certificate is no telescoper; only the start check is
    # exercised here, as if the table had verified it
    monkeypatch.setattr(sequences, "_order_m_telescoper",
                        lambda s: (op, crafted))
    monkeypatch.setattr(sequences, "recursion_rows", _no_search)
    assert list(coefficient_rows(3, 1, 199, 200)) == \
        [coefficient_row(3, n, 1) for n in (199, 200)]


def test_failed_solve_falls_back_to_direct_rows(order_m_operators,
                                                monkeypatch, tmp_path):
    # an empty table, then an entry whose c_0 is moved, which parses and
    # fails verification: direct rows both times, and no search
    monkeypatch.setattr(sequences, "_FROZEN", str(tmp_path))
    monkeypatch.setattr(telescoper, "solve_at_order", _no_search)
    monkeypatch.setattr(telescoper, "zeilberger", _no_search)
    op, cert = order_m_operators[3]
    bumped = RecurrenceOperator((op.coeffs[0] + 1,) + op.coeffs[1:])
    for entry in (None, bumped):
        if entry is not None:
            (tmp_path / "operator-s3.json").write_bytes(document_bytes(
                operator_document(3, entry, cert, 2, "0")))
        assert sequences._order_m_telescoper(3) is None
        assert list(coefficient_rows(3, 1, 199, 200)) == \
            [coefficient_row(3, n, 1) for n in (199, 200)]


def test_rows_come_from_the_table_exactly_when_2J_below_s(table_operators,
                                                          monkeypatch):
    monkeypatch.setattr(telescoper, "zeilberger", _no_search)
    read, recursed = [], []

    def reader(s):
        read.append(s)
        found = table_operators(s)
        assert found is not None
        return found
    recurse = sequences.recursion_rows

    def recursion(*args):
        recursed.append(args[0])
        return recurse(*args)
    monkeypatch.setattr(sequences, "_order_m_telescoper", reader)
    monkeypatch.setattr(sequences, "recursion_rows", recursion)
    for s in range(1, 13):
        n_to = expected_order(s) + 2
        for J in range(s + 1):
            read.clear()
            recursed.clear()
            rows = list(coefficient_rows(s, J, 0, n_to))
            want = [s] if 2 * J < s else []
            assert (read, recursed) == (want, want)
            assert rows == [coefficient_row(s, n, J) for n in range(n_to + 1)]


def test_an_empty_request_reads_no_table_entry(monkeypatch):
    monkeypatch.setattr(sequences, "_order_m_telescoper", _no_search)
    assert list(coefficient_rows(3, 1, 5, 4)) == []
    assert list(coefficient_rows(12, 5, 301, 300)) == []


def test_rule_takes_a_huge_power_without_overflow():
    # s = 1000 has no table entry, so its rows are direct
    assert list(coefficient_rows(1000, 0, 0, 1)) == [(1,), (2,)]


def test_rule_follows_the_request(obtained):
    assert list(coefficient_rows(5, 3, 0, 20)) == \
        [coefficient_row(5, n, 3) for n in range(21)]
    assert obtained == []
    assert list(coefficient_rows(5, 2, 0, 20)) == \
        [coefficient_row(5, n, 2) for n in range(21)]
    assert obtained == [3]
    table = sequences.coefficient_table(3, 60, 1)
    assert obtained == [3, 2]
    assert table.rows[59:] == (coefficient_row(3, 59, 1),
                               coefficient_row(3, 60, 1))


def test_no_solve_beyond_the_proven_range(obtained, capsys):
    # large requests at 2J >= s, with --J-force or without, obtain no
    # operator
    assert cli.main(["limits", "--s", "5", "--n-max", "600", "--J", "3",
                     "--J-force", "--json"]) == 0
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
