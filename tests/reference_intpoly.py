"""Integer roots by Sturm chains, the search that Descartes' rule of signs
replaced in `franel.intpoly`, kept as the oracle: the distinct integer
roots in (-B, B), B the Cauchy bound, by bisection on the number of sign
variations of the Sturm chain of the squarefree part."""

from franel.intpoly import IntPoly, derivative, pseudo_rem, squarefree_part


def _sturm_chain(p: IntPoly):
    """Sturm chain of a squarefree polynomial, up to positive rescaling."""
    chain = [p, derivative(p)]
    while chain[-1].degree > 0:
        a, b = chain[-2], chain[-1]
        r = pseudo_rem(a, b)
        if r.is_zero:
            break
        # r = lc(b)^delta * (a mod b); the Sturm chain needs a positive
        # multiple of -(a mod b), so flip unless the scaling was negative.
        delta = a.degree - b.degree + 1
        if not (b.lc < 0 and delta % 2 == 1):
            r = -r
        chain.append(r.primitive())
    return chain


def _sign_variations(chain, x: int) -> int:
    signs = []
    for q in chain:
        v = q.eval_int(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def integer_roots(p: IntPoly):
    """Sorted list of the distinct integer roots of p (p must be nonzero)."""
    if p.is_zero:
        raise ValueError("the zero polynomial has every integer as a root")
    roots = set()
    coeffs = list(p.coeffs)
    shift = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.add(0)
    q = IntPoly(coeffs)
    if q.degree <= 0:
        return sorted(roots)
    sf = squarefree_part(q)
    if sf.degree == 0:
        return sorted(roots)
    chain = _sturm_chain(sf)
    bound = 2 + max(abs(c) for c in sf.coeffs) // abs(sf.lc)

    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        if _sign_variations(chain, lo) - _sign_variations(chain, hi) == 0:
            continue
        if hi - lo == 1:
            if sf.eval_int(hi) == 0:
                roots.add(hi)
            continue
        mid = (lo + hi) // 2
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(roots)

