"""Slow exact paths of the telescoper, kept as oracles: the per-order
solve on the unscaled operator columns, and the certificate checks before
the cofactor cancellation, with the residual
(P a)/a - (R(n, k+1) rho_k - R(n, k)) by full cross multiplication,
reduced to lowest terms or reported by its degrees; and the denominator
audit by products in Z[n][k]."""

from franel.bipoly import BiPoly, RatFunc
from franel.errors import ExactDivisionError
from franel.hyperterm import shift_quotient_products
from franel.intpoly import IntPoly
from franel.linalg import fraction_free_nullspace
from franel.operators import Certificate, normalize_operator_coeffs
from franel.telescoper import (_gosper_degree_bound, _gosper_normal_form,
                               _gosper_ratio, expected_certificate_denominator)

from reference_hyperterm import operator_numerator


def reference_solve_at_order(term, r):
    """`solve_at_order` on the unscaled columns: the c-columns are -C u_i
    with their Z[n] contents, and the nullspace vector is used as
    `fraction_free_nullspace` returns it."""
    d, u_polys = shift_quotient_products(term, r)
    ratio = _gosper_ratio(term, r)
    A, B, C = _gosper_normal_form(ratio.num, ratio.den)
    Bm1 = B.compose_shift(0, -1)
    cu = [C * u for u in u_polys]
    deg_p = max(p.deg_k for p in cu)
    D = _gosper_degree_bound(A, Bm1, deg_p)
    if D is None:
        return None

    # columns: f_0..f_D then c_0..c_r
    k = BiPoly.var_k()
    f_cols = [(A * (k + 1) ** j - Bm1 * k ** j).coeffs for j in range(D + 1)]
    c_cols = [(-p).coeffs for p in cu]
    all_cols = f_cols + c_cols
    n_eqs = max(len(col) for col in all_cols)
    matrix = [[col[e] if e < len(col) else IntPoly() for col in all_cols]
              for e in range(n_eqs)]
    n_f = D + 1
    solutions = [vec for vec in fraction_free_nullspace(matrix)
                 if any(not c.is_zero for c in vec[n_f:])]
    if not solutions:
        return None
    vec = min(solutions, key=lambda v: (max(c.degree for c in v[n_f:]),
                                        sum(c.degree for c in v[n_f:])))
    op, scale = normalize_operator_coeffs(vec[n_f:])
    num = Bm1 * BiPoly.from_kpoly(vec[:n_f])
    den = C * scale * d
    cert = Certificate(RatFunc(num, den))
    return op, cert


def reference_difference(term, op, cert):
    """(numerator, denominator) of the residual before the shared
    denominator: (P a)/a and R(n, k+1) rho_k - R(n, k) each over its own
    full denominator, compared by one cross multiplication, unreduced."""
    lhs_num, lhs_den = operator_numerator(op, term)
    rn, rd = cert.ratio.num, cert.ratio.den
    rn1 = rn.compose_shift(0, 1)
    rd1 = rd.compose_shift(0, 1)
    qn, qd = term.rho_k.num, term.rho_k.den
    rhs_num = rn1 * qn * rd - rn * qd * rd1
    rhs_den = rd1 * qd * rd
    return lhs_num * rhs_den - rhs_num * lhs_den, lhs_den * rhs_den


def reference_residual(term, op, cert):
    """The residual of `reference_difference`, in lowest terms: zero
    exactly when that numerator is."""
    diff, den = reference_difference(term, op, cert)
    if diff.is_zero:
        return RatFunc.zero()
    return RatFunc(diff, den)


def reference_parts(term, op, cert):
    """The residual's parts in Z[n][k], in the order of
    `telescoper._ResidualParts`: (P a)/a = lhs_num/lhs_den, R = rn/rd,
    their shared denominator bottom (rd when lhs_den is rd, else the
    product), R(n, k+1) = rn1/rd1 and rho_k = qn/qd."""
    lhs_num, lhs_den = operator_numerator(op, term)
    rn, rd = cert.ratio.num, cert.ratio.den
    bottom = rd if lhs_den == rd else lhs_den * rd
    return (lhs_num, lhs_den, rn, rd, bottom, rn.compose_shift(0, 1),
            rd.compose_shift(0, 1), term.rho_k.num, term.rho_k.den)


def reference_mismatch(term, op, cert):
    """What `certificate_mismatch` reports, from the full unreduced
    numerator top rd1 qd - rn1 qn bottom of `reference_parts`, where
    top/bottom is (P a)/a + R: None when it is zero, else its
    (deg_n, deg_k) and the summed degrees of bottom, rd1 and qd."""
    lhs_num, lhs_den, rn, rd, bottom, rn1, rd1, qn, qd = reference_parts(
        term, op, cert)
    top = lhs_num + rn if lhs_den == rd else lhs_num * rd + rn * lhs_den
    num = top * rd1 * qd - rn1 * qn * bottom
    if num.is_zero:
        return None
    dens = (bottom, rd1, qd)
    return ((num.deg_n, num.deg_k),
            (sum(d.deg_n for d in dens), sum(d.deg_k for d in dens)))


def reference_denominator_audit(den, s, m):
    """`_denominator_audit` by the rising product formed in Z[n][k]:
    (den == +-E, den divides E)."""
    expected = expected_certificate_denominator(s, m)
    if den == expected or den == -expected:
        return True, True
    try:
        expected.divexact(den)
    except ExactDivisionError:
        return False, False
    return False, True
