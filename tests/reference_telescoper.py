"""The certificate checks before the cofactor cancellation, kept as oracles:
the residual (P a)/a - (R(n, k+1) rho_k - R(n, k)) by full cross
multiplication, reduced to lowest terms or reported by its degrees."""

from franel.bipoly import RatFunc
from franel.hyperterm import operator_numerator


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


def reference_mismatch(term, op, cert):
    """What `certificate_mismatch` reports, from the full unreduced
    numerator top rd1 qd - rn1 qn bottom, where top/bottom is (P a)/a + R
    over the certificate's denominator when (P a)/a has it, else over the
    product of both: None when it is zero, else its (deg_n, deg_k) and the
    summed degrees of bottom, rd1 and qd."""
    lhs_num, lhs_den = operator_numerator(op, term)
    rn, rd = cert.ratio.num, cert.ratio.den
    if lhs_den == rd:
        top, bottom = lhs_num + rn, rd
    else:
        top, bottom = lhs_num * rd + rn * lhs_den, lhs_den * rd
    rn1, rd1 = rn.compose_shift(0, 1), rd.compose_shift(0, 1)
    qn, qd = term.rho_k.num, term.rho_k.den
    num = top * rd1 * qd - rn1 * qn * bottom
    if num.is_zero:
        return None
    dens = (bottom, rd1, qd)
    return ((num.deg_n, num.deg_k),
            (sum(d.deg_n for d in dens), sum(d.deg_k for d in dens)))
