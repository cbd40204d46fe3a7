"""The shift quotients before the product formula, kept as the oracle:
each a(n+i, k)/a(n, k) brought to lowest terms by the RatFunc constructor,
and the reduced denominators joined by their lcm.  Also (P a)/a over the
common denominator of the product formula, and the family of binomial
products the solver's tests run on."""

from franel.bipoly import BiPoly, RatFunc, poly_gcd
from franel.hyperterm import HyperTerm, shift_quotient_products


def _bipoly_lcm(polys):
    acc = BiPoly.const(1)
    for p in polys:
        g = poly_gcd(acc, p)
        acc = acc * p.divexact(g)
    c = acc.content_int()
    if c > 1:
        acc = acc.divexact(BiPoly.const(c))
    return acc if acc.lc_grlex() > 0 else -acc


def reference_shift_quotients(term, order):
    """(d, [u_0, .., u_order]) with a(n+i, k)/a(n, k) = u_i/d, d the lcm."""
    p, q = term.rho_n.num, term.rho_n.den
    sigmas = [RatFunc.one()]
    for i in range(order):
        sigmas.append(RatFunc(sigmas[-1].num * p.compose_shift(i, 0),
                              sigmas[-1].den * q.compose_shift(i, 0)))
    d = _bipoly_lcm([sig.den for sig in sigmas])
    return d, [sig.num * d.divexact(sig.den) for sig in sigmas]


def operator_numerator(op, term):
    """(sum_i c_i(n) u_i, d): (P a)/a over the common d of
    `shift_quotient_products`, unreduced."""
    d, us = shift_quotient_products(term, op.order)
    total = BiPoly()
    for c, u in zip(op.coeffs, us):
        if not c.is_zero:
            total = total + BiPoly.from_intpoly_n(c) * u
    return total, d


def binomial_product_term(a, b):
    """binom(n, k)^a binom(n+k, k)^b; a = b = 2 is the Apery term."""
    n, k = BiPoly.var_n(), BiPoly.var_k()
    return HyperTerm(
        RatFunc((n + 1) ** a * (n + k + 1) ** b,
                (n + 1 - k) ** a * (n + 1) ** b),
        RatFunc((n - k) ** a * (n + k + 1) ** b, (k + 1) ** (a + b)))


def reference_is_compatible(term):
    """Mixed-shift compatibility by the cross multiplication in Z[n][k]:
    rho_n(n, k+1) rho_k(n, k) = rho_k(n+1, k) rho_n(n, k)."""
    pn, qn = term.rho_n.num, term.rho_n.den
    pk, qk = term.rho_k.num, term.rho_k.den
    return (pn.compose_shift(0, 1) * pk * qk.compose_shift(1, 0) * qn
            == pk.compose_shift(1, 0) * pn * qn.compose_shift(0, 1) * qk)
