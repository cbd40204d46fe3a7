"""Bivariate hypergeometric terms given by their two shift quotients.

A term a(n, k) is nothing but the pair of rational functions
rho_n = a(n+1, k)/a(n, k) and rho_k = a(n, k+1)/a(n, k), each in lowest
terms; the solver needs no values of a.  What the telescoper builds from
them, the shift quotients a(n+i, k)/a(n, k), stays a plain numerator over a
common denominator; no gcd is taken until a canonical form is read.
`zeilberger` rejects a zero quotient or a pair that fails mixed-shift
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .bipoly import BiPoly, RatFunc, kp_norm
from .intpoly import stride_for


@dataclass(frozen=True)
class HyperTerm:
    rho_n: RatFunc
    rho_k: RatFunc

    def is_compatible(self) -> bool:
        """Mixed-shift consistency of the two quotients.

        Shifting first in n and then in k must agree with the other order:
        rho_n(n, k+1) rho_k(n, k) = rho_k(n+1, k) rho_n(n, k).  With
        rho_n = pn/qn and rho_k = pk/qk its cross multiplication is L = R,
        L = pn(n, k+1) pk qk(n+1, k) qn and R = pk(n+1, k) pn qn(n, k+1) qk,
        decided in the image of the ring map n -> X = 2**(8*stride): X/2
        exceeds a bound on ||L||_1 + ||R||_1 >= ||L - R||_1 built by
        `kp_norm`, so L - R is its own balanced base-X digits and is zero
        iff its image is.  The shifts in n are made on the polynomials,
        those in k on the images.
        """
        pn, qn = self.rho_n.num, self.rho_n.den
        pk, qk = self.rho_k.num, self.rho_k.den
        pk1, qk1 = pk.compose_shift(1, 0), qk.compose_shift(1, 0)
        bound = (kp_norm(pn.coeffs, 1) * kp_norm(pk.coeffs)
                 * kp_norm(qk1.coeffs) * kp_norm(qn.coeffs)
                 + kp_norm(pk1.coeffs) * kp_norm(pn.coeffs)
                 * kp_norm(qn.coeffs, 1) * kp_norm(qk.coeffs))
        stride = stride_for(bound)
        pn, qn, pk, qk, pk1, qk1 = (p.image(stride)
                                    for p in (pn, qn, pk, qk, pk1, qk1))
        return (pn.compose_shift(1) * pk * qk1 * qn
                == pk1 * pn * qn.compose_shift(1) * qk)


def binom_power_term(s: int) -> HyperTerm:
    """The term binom(n, k)**s, zero outside 0 <= k <= n."""
    if s < 1:
        raise ValueError("the power s must be a positive integer")
    # (n + 1)^s, (n - k)^s and (k + 1)^s by the binomial theorem, and
    # (n + 1 - k)^s from (n - k)^s by n -> n + 1
    binomials = [(j, comb(s, j)) for j in range(s + 1)]
    n_minus_k = BiPoly({(s - j, j): (-1) ** j * c for j, c in binomials})
    return HyperTerm(
        RatFunc(BiPoly({(j, 0): c for j, c in binomials}),
                n_minus_k.compose_shift(1, 0)),
        RatFunc(n_minus_k, BiPoly({(0, j): c for j, c in binomials})))


def apery_zeta3_term() -> HyperTerm:
    """The term binom(n, k)**2 binom(n+k, k)**2."""
    n = BiPoly.var_n()
    k = BiPoly.var_k()
    return HyperTerm(RatFunc((n + k + 1) ** 2, (n + 1 - k) ** 2),
                     RatFunc(((n - k) * (n + k + 1)) ** 2, (k + 1) ** 4))


def shift_quotient_products(term: HyperTerm, order: int):
    """(d, [u_0, .., u_order]) with a(n+i, k)/a(n, k) = u_i/d, unreduced.

    With rho_n = p/q, a(n+i, k)/a(n, k) = prod_{j<i} p(n+j, k)/q(n+j, k), so
    d = prod_{j<order} q(n+j, k) and u_i = prod_{j<i} p(n+j, k) *
    prod_{i<=j<order} q(n+j, k) (see `quotient_products`).  d is a common
    denominator but not always the least one: p(n+j, k) may share a factor
    with a later q(n+j', k).  For binom(n, k)^s and the Apery term nothing
    cancels, and d is the rising product.
    """
    return quotient_products(*rho_n_shifts(term, order), BiPoly.const(1))


def rho_n_shifts(term: HyperTerm, order: int):
    """([p(n+j, k)], [q(n+j, k)]) for j < order, with rho_n = p/q."""
    p, q = term.rho_n.num, term.rho_n.den
    return ([p.compose_shift(j, 0) for j in range(order)],
            [q.compose_shift(j, 0) for j in range(order)])


def quotient_products(ps, qs, one):
    """(prod_j qs[j], [u_0, .., u_r]) with u_i = prod_{j<i} ps[j] *
    prod_{i<=j<r} qs[j], r = len(ps), from prefix and suffix products.

    The entries need only *, so BiPolys, their images in Z[k] and integer
    norm bounds all work; `one` is the unit of their ring.
    """
    prefix = [one]
    suffix = [one]  # suffix[t] = prod_{r-t <= j < r} qs[j]
    for j in range(len(ps)):
        prefix.append(prefix[-1] * ps[j])
        suffix.append(suffix[-1] * qs[-1 - j])
    return suffix[-1], [a * b for a, b in zip(prefix, reversed(suffix))]
