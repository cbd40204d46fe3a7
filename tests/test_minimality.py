"""The Casoratian certificate of the weak Franel bound against the
sequences it speaks about."""

from fractions import Fraction

from franel.operators import RecurrenceOperator
from franel.sequences import deformed, franel, minimality_certificate
from franel.telescoper import expected_order


def _casoratian(s, m, n):
    """det[A_j(n+i)]_{i,j<m} from `deformed`, by Gaussian elimination over
    Q; each row's A_0 is checked against `franel`."""
    rows = []
    for i in range(m):
        row = list(deformed(s, n + i, m - 1)[::2])
        assert row[0] == franel(s, n + i)
        rows.append(row)
    det = Fraction(1)
    for c in range(m):
        p = next((r for r in range(c, m) if rows[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, m):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def test_certificate_for_each_power(order_m_operators):
    for s in range(1, 9):
        op, cert = order_m_operators[s]
        m = expected_order(s)
        got = minimality_certificate(s, op, cert)
        # c_0 and c_m have coefficients of one sign and a nonzero constant
        # term, so neither has a nonnegative root, and N = 0
        for c in (op.coeffs[0], op.coeffs[m]):
            assert all(x > 0 for x in c.coeffs) or \
                all(x < 0 for x in c.coeffs)
        assert (got.m, got.N, got.roots) == (m, 0, ())
        W = [_casoratian(s, m, n) for n in range(got.N, got.N + 7)]
        assert got.W == W[0] != 0
        for n in range(got.N, got.N + 6):
            k = n - got.N
            assert op.coeffs[m].eval_int(n) * W[k + 1] == \
                (-1) ** m * op.coeffs[0].eval_int(n) * W[k]


def test_certificate_rejects_a_bumped_c0(order_m_operators):
    for s in range(1, 9):
        op, cert = order_m_operators[s]
        for delta in (1, -1):
            try:
                bumped = RecurrenceOperator(
                    (op.coeffs[0] + delta,) + op.coeffs[1:])
            except ValueError:
                continue
            assert minimality_certificate(s, bumped, cert) is None
            break
        else:
            raise AssertionError("no bumped operator at s=%d" % s)


def test_certificate_needs_order_m(order_m_operators):
    op, cert = order_m_operators[3]
    assert minimality_certificate(5, op, cert) is None

