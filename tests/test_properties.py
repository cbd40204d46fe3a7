"""Property tests: packed Kronecker products agree with schoolbook ones, the
modular coprimality proof agrees with the integer gcd it replaced, exact
division undoes a product and a gcd keeps a common factor, the content
routine agrees with the gcd fold it replaced, the forward elimination
agrees with the Gauss-Jordan and row-swapping determinant it replaced, the
substitution in the image agrees with the one in Z[n] it replaced, the
document parser rejects a damaged document only with DocumentError, the
one-pass record decoder agrees with the dict-of-monomials one it replaced,
the primitivity proof modulo a prime agrees with the content pass, the
certificate check agrees with the full cross multiplication on perturbed
certificates, an image's balanced digits evaluate back to it, the 1-norm
bound covers a shift in k, mixed-shift compatibility decided in
the image agrees with the cross multiplication in Z[n][k], the
dispersion set agrees with sympy's on polynomials in k, the integer roots
by Descartes' rule, all of them and the nonnegative ones, agree with the
Sturm oracle and with sympy's, the truncated-series inverse and power agree
with the product, the row sum by binary splitting agrees with the stepping
loop it replaced, its 2-adic inverse included, the recursion rows on a
scale that grows with the window agree with those on one fixed scale,
lcm(1..n) from the prime-power sieve agrees with the gcd loop, the Apery
pairs stepped on integers agree with the Fraction recursion, and the
telescoper solves binomial products as its unscaled reference does, with
operators that annihilate their sums."""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from franel.bipoly import (_KP_KRONECKER_CUTOFF, COPRIME_PRIME,
                           SPECIALIZATION_POINTS, BiPoly, RatFunc,
                           _coprime_by_specialization, kp_deg, kp_gcd,
                           kp_mul, kp_norm, proved_primitive)
from franel.documents import bipoly_from_json, parse_operator_document
from franel.errors import DocumentError
from franel.hyperterm import HyperTerm, binom_power_term
from franel.intpoly import (IntPoly, integer_roots, mul_kronecker,
                            nonnegative_integer_roots, pack_signed,
                            poly_content, poly_gcd_int)
from franel.linalg import (_triangular_prefix, bareiss_determinant,
                           fraction_free_nullspace, schur_block)
from franel.operators import (Certificate, RecurrenceOperator,
                              apply_operator)
from franel.sequences import (_FRANEL_LEAF, _inverse_mod_pow2, apery_zeta3,
                              franel, lcm_upto, recursion_rows)
from franel.series import series_inv, series_mul, series_pow
from franel.telescoper import (_digits, _dispersion_set, _residual_image,
                               certificate_mismatch, verify_certificate,
                               zeilberger)

from reference_documents import reference_bipoly_from_json
from reference_hyperterm import binomial_product_term, reference_is_compatible
from reference_intpoly import integer_roots as sturm_integer_roots
from reference_linalg import (canonical_signs, reference_determinant,
                              reference_nullspace, reference_schur_block)
from reference_sequences import (reference_apery_zeta3, reference_franel,
                                 reference_lcm_upto, reference_recursion_rows)
from reference_telescoper import (reference_difference, reference_mismatch,
                                  reference_solve_at_order)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def coefficients(bits):
    # the extremes +-(2^b - 1) are drawn often: products of full-size
    # coefficients are what land next to the packing bound 2**(8*stride-1)
    top = 2 ** bits - 1
    return st.one_of(st.sampled_from((top, -top)), st.integers(-top, top))


@st.composite
def coefficient_lists(draw):
    bits = draw(st.integers(1, 80))
    out = []
    for _ in range(2):
        size = draw(st.integers(1, 40))
        # a list at one extreme makes every product term of one sign
        fill = draw(st.sampled_from((2 ** bits - 1, 1 - 2 ** bits, None)))
        out.append([fill] * size if fill else draw(st.lists(
            coefficients(bits), min_size=size, max_size=size)))
    return out


@st.composite
def grids(draw):
    """Two k-major grids (lists of rows in n), large enough to be packed."""
    bits = draw(st.integers(1, 80))
    out = []
    for _ in range(2):
        rows, cols = draw(st.integers(5, 8)), draw(st.integers(5, 8))
        out.append([draw(st.lists(coefficients(bits), min_size=cols,
                                  max_size=cols)) for _ in range(rows)])
    return out


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(coefficient_lists())
def test_mul_kronecker_matches_schoolbook(pair):
    a, b = pair
    assert mul_kronecker(a, b) == schoolbook(a, b)


@hypothesis.settings(deadline=None, max_examples=30)
@hypothesis.given(grids())
def test_packed_kp_mul_matches_schoolbook(pair):
    ga, gb = pair
    ka = [IntPoly(row) for row in ga]
    kb = [IntPoly(row) for row in gb]
    hypothesis.assume(ka[-1] and kb[-1])
    sizes = [sum(len(c.coeffs) for c in kp) for kp in (ka, kb)]
    hypothesis.assume(sizes[0] * sizes[1] >= _KP_KRONECKER_CUTOFF)
    expected = [[0] * (len(ga[0]) + len(gb[0]) - 1)
                for _ in range(len(ga) + len(gb) - 1)]
    for i, row_a in enumerate(ga):
        for j, row_b in enumerate(gb):
            for m, c in enumerate(schoolbook(row_a, row_b)):
                expected[i + j][m] += c
    product = BiPoly.from_kpoly(ka) * BiPoly.from_kpoly(kb)
    assert list(product.coeffs) == [IntPoly(row) for row in expected]


def coprime_by_integer_gcd(a, b):
    """The coprimality check before the modular one, kept as the oracle:
    the gcd over Z of a(n0, k) and b(n0, k) at the first n0 where lc_k(a)
    does not vanish is constant."""
    for n0 in SPECIALIZATION_POINTS:
        if a[-1].eval_int(n0) == 0:
            continue
        pa = IntPoly([c.eval_int(n0) for c in a])
        pb = IntPoly([c.eval_int(n0) for c in b])
        if pb.is_zero:
            return False
        return poly_gcd_int(pa, pb).degree == 0
    return False


@st.composite
def k_polys(draw, min_k_degree=1):
    """A k-poly with small integer coefficients, n-degree at most 3.  The
    top coefficient in k is drawn nonzero directly, as a nonzero leading
    coefficient in n over the lower ones, so that no draw is rejected."""
    coeffs = [IntPoly(draw(st.lists(st.integers(-30, 30), max_size=4)))
              for _ in range(draw(st.integers(min_k_degree, 4)))]
    top = draw(st.lists(st.integers(-30, 30), max_size=3))
    top.append(draw(st.one_of(st.integers(-30, -1), st.integers(1, 30))))
    return coeffs + [IntPoly(top)]


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(k_polys(), k_polys(), k_polys(min_k_degree=0),
                  st.booleans())
def test_modular_coprimality_proof_implies_integer_gcd_is_constant(
        a, b, factor, shared):
    if shared:
        a, b = kp_mul(a, factor), kp_mul(b, factor)
    if kp_deg(a) < kp_deg(b):
        a, b = b, a
    proved = _coprime_by_specialization(a, b)
    if proved:
        assert coprime_by_integer_gcd(a, b)
        assert kp_deg(kp_gcd(a, b)) == 0
    if shared and kp_deg(factor) >= 1:
        assert not proved
        assert kp_deg(kp_gcd(a, b)) >= kp_deg(factor)


# the cube of a full k-poly of the strategy has n-degree 9 and k-degree 12,
# so it and its product with a power cross _KP_KRONECKER_CUTOFF
@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(k_polys(min_k_degree=0), k_polys(min_k_degree=0),
                  st.integers(1, 3))
@hypothesis.example([IntPoly((-30, 29, 30, 1))] * 5,
                    [IntPoly((7, 0, -30, 30))] * 5, 3)
def test_exact_division_undoes_the_product(a, b, e):
    a, b = BiPoly.from_kpoly(a), BiPoly.from_kpoly(b)
    assert (a * b).divexact(b) == a
    # powers, and division by them
    power = a ** e
    assert power.divexact(a) == a ** (e - 1)
    assert (power * b ** e).divexact(b ** e) == power


@hypothesis.settings(deadline=None, max_examples=100)
@hypothesis.given(k_polys(min_k_degree=0), k_polys(min_k_degree=0),
                  k_polys(min_k_degree=0))
def test_gcd_keeps_a_common_factor(g, a, b):
    # kp_gcd leaves out contents in Z[n], so it is divisible by the
    # primitive part of g; divexact raises if it is not
    g, a, b = (BiPoly.from_kpoly(p) for p in (g, a, b))
    BiPoly.from_kpoly(kp_gcd((g * a).coeffs, (g * b).coeffs)).divexact(
        BiPoly.from_kpoly(poly_content(g.coeffs)[1]))


def int_polys():
    """Small IntPolys, zero about a quarter of the time."""
    return st.one_of(st.just(IntPoly()), st.lists(
        st.integers(-6, 6), min_size=1, max_size=3).map(IntPoly))


def nonzero_int_polys(min_degree=0):
    """Small IntPolys of degree min_degree to 2, drawn directly as a
    nonzero leading coefficient over the lower ones, so that no draw is
    rejected."""
    return st.builds(lambda low, lead: IntPoly(low + [lead]),
                     st.lists(st.integers(-6, 6), min_size=min_degree,
                              max_size=2),
                     st.sampled_from([c for c in range(-6, 7) if c]))


def fold_gcd(polys):
    """The gcd of a list by one poly_gcd_int step per entry, the fold that
    the content routine replaced, kept as its oracle."""
    g = IntPoly()
    for p in polys:
        g = poly_gcd_int(g, p)
    return g


@st.composite
def content_cases(draw):
    """A list f * h_i with f nonconstant, a constant above 1, or 1 and
    either sign, h_i zero about a quarter of the time, and a seed that is
    zero or a multiple of f."""
    f = draw(st.one_of(
        st.lists(st.integers(-6, 6), min_size=2, max_size=3).map(IntPoly),
        st.integers(2, 12).map(IntPoly.const),
        st.sampled_from((IntPoly.const(1), IntPoly.const(-1)))))
    hypothesis.assume(not f.is_zero)
    polys = [f * h for h in draw(st.lists(int_polys(), max_size=6))]
    seed = draw(st.one_of(st.just(IntPoly()),
                           int_polys().map(lambda h: f * h)))
    return polys, seed


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(content_cases())
@hypothesis.example(([], IntPoly()))
@hypothesis.example(([IntPoly(), IntPoly()], IntPoly()))
@hypothesis.example(([], IntPoly.const(-2)))
@hypothesis.example(([IntPoly(), IntPoly()], IntPoly((0, -6))))
@hypothesis.example(([IntPoly((4, -6)), IntPoly(), IntPoly((-2, 0, -2))],
                     IntPoly()))
@hypothesis.example(([IntPoly((3, 3)), IntPoly((-1, 0, 1)), IntPoly()],
                     IntPoly((-2, 0, 2))))
@hypothesis.example(([IntPoly((-2, -2)), IntPoly((1, 2, 1)), IntPoly()],
                     IntPoly((0, -3, -3))))
def test_content_routine_matches_the_gcd_fold(case):
    polys, seed = case
    g = fold_gcd([seed] + polys)
    assert poly_content(polys, seed) == (
        g, [p.divexact(g) for p in polys] if g else polys)


@st.composite
def poly_matrices(draw, square=False):
    nr = draw(st.integers(1, 5))
    nc = nr if square else draw(st.integers(1, 5))
    return [draw(st.lists(int_polys(), min_size=nc, max_size=nc))
            for _ in range(nr)]


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(poly_matrices())
def test_forward_elimination_nullspace_matches_gauss_jordan(matrix):
    assert fraction_free_nullspace(matrix) == \
        canonical_signs(reference_nullspace(matrix))


@st.composite
def planted_prefix_matrices(draw):
    """b leading columns with strictly rising last nonzero rows t_j, then
    w >= 2 more columns, on b + q rows with q <= w - 2: the block left
    after the prefix has at most w - 2 rows, so the nullity is >= 2."""
    b = draw(st.integers(1, 4))
    w = draw(st.integers(2, 4))
    q = draw(st.integers(0, w - 2))
    nr = b + q
    tri = sorted(draw(st.lists(st.integers(0, nr - 1), min_size=b,
                               max_size=b, unique=True)))
    nonzero = nonzero_int_polys()
    matrix = [[None] * (b + w) for _ in range(nr)]
    for j, t in enumerate(tri):
        for r in range(nr):
            if r < t:
                matrix[r][j] = draw(int_polys())
            else:
                matrix[r][j] = draw(nonzero) if r == t else IntPoly()
    for r in range(nr):
        for j in range(b, b + w):
            matrix[r][j] = draw(int_polys())
    return b, matrix


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(planted_prefix_matrices())
def test_nullspace_with_a_planted_triangular_prefix(case):
    b, matrix = case
    ncols = len(matrix[0])
    assert len(_triangular_prefix(matrix, ncols)) >= b
    basis = fraction_free_nullspace(matrix)
    assert len(basis) >= 2
    free = []
    for vec in basis:
        for row in matrix:
            acc = IntPoly()
            for p, x in zip(row, vec):
                acc = acc + p * x
            assert acc.is_zero
        assert fold_gcd(vec) == IntPoly.const(1)
        fc = max(i for i, v in enumerate(vec) if not v.is_zero)
        assert vec[fc].lc > 0
        free.append(fc)
    # each vector is zero at the free columns of the others
    for vec, fc in zip(basis, free):
        assert all(vec[c].is_zero for c in free if c != fc)
    assert basis == canonical_signs(reference_nullspace(matrix))


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(planted_prefix_matrices(), st.data())
def test_nullspace_with_a_factor_planted_in_the_rows_off_the_prefix(case,
                                                                     data):
    # every row off the prefix, and so its Schur row, gains a factor of
    # positive degree in n, which the Schur strip takes off again
    _, matrix = case
    tri = _triangular_prefix(matrix, len(matrix[0]))
    nonconstant = nonzero_int_polys(min_degree=1)
    factors = data.draw(st.lists(nonconstant, min_size=len(matrix),
                                 max_size=len(matrix)))
    planted = [row if r in tri else [f * e for e in row]
               for r, (row, f) in enumerate(zip(matrix, factors))]
    assert _triangular_prefix(planted, len(matrix[0])) == tri
    basis = fraction_free_nullspace(planted)
    assert basis == canonical_signs(reference_nullspace(planted))
    assert basis == fraction_free_nullspace(matrix)


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(planted_prefix_matrices())
def test_substitution_in_the_image_matches_the_intpoly_one(case):
    _, matrix = case
    norms = [[sum(map(abs, e.coeffs)) for e in row] for row in matrix]
    assert schur_block(norms, lambda stride: [
        [pack_signed(e.coeffs, stride) for e in row] for row in matrix]) \
        == reference_schur_block(matrix)


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(poly_matrices(square=True))
def test_forward_elimination_determinant_matches_row_swapping(matrix):
    assert bareiss_determinant(matrix) == reference_determinant(matrix, 1, 0)


REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"

json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-64, 64), st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-64, 64), st.text(max_size=3)),
             max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-64, 64), max_size=2))


def _paths(node, prefix=()):
    """Every key path below the root of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(st.data())
def test_parser_raises_only_document_error(data):
    s = data.draw(st.integers(1, 3))
    doc = json.loads((REFS / ("operator-s%d.json" % s)).read_bytes())
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(json_values)
    try:
        parse_operator_document(json.dumps(doc).encode())
    except DocumentError:
        pass


# one malformed record per class, or a duplicate of a drawn monomial
_MALFORMED = {
    "not a list": lambda rec: tuple(rec),
    "not a list either": lambda rec: {"c": rec[0]},
    "short": lambda rec: rec[:2],
    "long": lambda rec: rec + [0],
    "bool n-exponent": lambda rec: [rec[0], True, rec[2]],
    "bool k-exponent": lambda rec: [rec[0], rec[1], False],
    "negative exponent": lambda rec: [rec[0], -1 - rec[1], rec[2]],
    "float exponent": lambda rec: [rec[0], rec[1], float(rec[2])],
    "coefficient not a string": lambda rec: [int(rec[0]), rec[1], rec[2]],
    "coefficient not decimal": lambda rec: ["+" + rec[0], rec[1], rec[2]],
    "zero coefficient": lambda rec: ["-0", rec[1], rec[2]],
    "duplicate": lambda rec: ["7", rec[1], rec[2]],
}


# the exponent pairs a record may carry; the first entries of a random
# permutation of them are distinct keys drawn without retries
_MONOMIAL_KEYS = [(dn, dk) for dn in range(13) for dk in range(13)]


@st.composite
def monomial_records(draw):
    """The records of a sparse BiPoly in any order, with at most one
    malformed record added or put in place of another."""
    size = draw(st.integers(0, 12))
    keys = list(_MONOMIAL_KEYS)
    for i in range(size):  # keys[:size] is drawn as by Fisher-Yates
        j = draw(st.integers(i, len(keys) - 1))
        keys[i], keys[j] = keys[j], keys[i]
    nonzero = st.one_of(st.integers(-10 ** 30, -1), st.integers(1, 10 ** 30))
    records = [[str(draw(nonzero)), dn, dk] for dn, dk in keys[:size]]
    kind = draw(st.sampled_from([None, *_MALFORMED]))
    if kind is not None and records:
        rec = draw(st.sampled_from(records))
        bad = _MALFORMED[kind](list(rec))
        if kind == "duplicate" or draw(st.booleans()):
            records.insert(draw(st.integers(0, len(records))), bad)
        else:
            records[records.index(rec)] = bad
    return draw(st.permutations(records))


def _decoded(decoder, records):
    try:
        return decoder(records).coeffs
    except DocumentError as exc:
        return "DocumentError: %s" % exc


@hypothesis.settings(deadline=None, max_examples=400)
@hypothesis.given(monomial_records())
def test_one_pass_decoder_matches_the_dict_of_monomials(records):
    for data in (records, tuple(records)):
        assert _decoded(bipoly_from_json, data) == \
            _decoded(reference_bipoly_from_json, data)


@st.composite
def operator_coefficients(draw):
    """Coefficients in Z[n], maybe times a planted common factor of
    positive degree (its leading coefficient sometimes a multiple of
    2^61 - 1) or an integer content above 1, and sometimes with every
    leading coefficient a multiple of 2^61 - 1."""
    coeffs = [IntPoly(draw(st.lists(st.integers(-20, 20), max_size=4)))
              for _ in range(draw(st.integers(1, 4)))]
    plant = draw(st.sampled_from(("none", "factor", "content", "lc mod p")))
    if plant == "factor":
        g = IntPoly(draw(st.lists(st.integers(-5, 5), min_size=2,
                                  max_size=3)))
        hypothesis.assume(g.degree >= 1)
        if draw(st.booleans()):
            g = g + IntPoly([0] * g.degree + [COPRIME_PRIME])
        coeffs = [c * g for c in coeffs]
    elif plant == "content":
        content = IntPoly.const(draw(st.integers(2, 6)))
        coeffs = [c * content for c in coeffs]
    elif plant == "lc mod p":
        coeffs = [c + IntPoly([0] * (c.degree + 1) + [COPRIME_PRIME])
                  for c in coeffs]
    hypothesis.assume(any(coeffs))
    return plant, coeffs


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(operator_coefficients())
def test_primitivity_proof_agrees_with_the_content_pass(case):
    plant, coeffs = case
    g, _ = poly_content(coeffs)
    proved = proved_primitive(coeffs)
    if proved:
        assert g == IntPoly.const(1)
    if plant == "factor":
        assert g.degree >= 1
    if plant != "none":
        assert not proved
    if coeffs[-1].lc > 0:
        try:
            RecurrenceOperator(tuple(coeffs))
            assert g == IntPoly.const(1)
        except ValueError as exc:
            assert g != IntPoly.const(1)
            assert str(exc) == "coefficients share the common factor %r" % g


@st.composite
def perturbed_certificates(draw):
    """(term, operator, certificate) from a frozen s <= 4 document, left as
    it is or with one part moved: a coefficient of the operator, the
    certificate numerator or its denominator plus c n^a k^b, or the
    denominator times n + k + c."""
    s = draw(st.integers(1, 4))
    _, op, cert, _ = parse_operator_document(
        (REFS / ("operator-s%d.json" % s)).read_bytes())
    num, den = cert.ratio.num, cert.ratio.den
    part = draw(st.sampled_from(("none", "op", "num", "den", "den factor")))
    c = draw(st.one_of(st.integers(-3, -1), st.integers(1, 3)))
    a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    N, K = BiPoly.var_n(), BiPoly.var_k()
    if part == "op":
        coeffs = list(op.coeffs)
        i = draw(st.integers(0, op.order))
        coeffs[i] = coeffs[i] + IntPoly([0] * a + [c])
        try:
            op = RecurrenceOperator(tuple(coeffs))
        except ValueError:
            hypothesis.assume(False)
    elif part == "num":
        num = num + c * N ** a * K ** b
    elif part == "den":
        den = den + c * N ** a * K ** b
        hypothesis.assume(not den.is_zero)
    elif part == "den factor":
        den = den * (N + K + c)
    return binom_power_term(s), op, Certificate(RatFunc(num, den))


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(perturbed_certificates())
def test_certificate_check_matches_the_full_cross_multiplication(case):
    # the oracle's verdict is its residual's numerator being zero, the test
    # `reference_residual` makes before it reduces; reducing a residual
    # with a perturbed denominator took up to 17 s at s = 4 (2 cores,
    # Python 3.11)
    term, op, cert = case
    diff, _ = reference_difference(term, op, cert)
    assert verify_certificate(term, op, cert) is diff.is_zero
    assert certificate_mismatch(term, op, cert) == \
        reference_mismatch(term, op, cert)


@st.composite
def one_coefficient_changed(draw):
    """(part, term, operator, certificate) from a frozen s <= 7 document
    with one coefficient of c_0 or of the certificate denominator moved."""
    s = draw(st.integers(1, 7))
    _, op, cert, _ = parse_operator_document(
        (REFS / ("operator-s%d.json" % s)).read_bytes())
    num, den = cert.ratio.num, cert.ratio.den
    part = draw(st.sampled_from(("c_0", "den")))
    delta = draw(st.sampled_from((-2, -1, 1, 2)))
    if part == "c_0":
        coeffs = list(op.coeffs[0].coeffs)
        i = draw(st.integers(0, len(coeffs) - 1))
        coeffs[i] += delta
        try:
            op = RecurrenceOperator((IntPoly(coeffs),) + op.coeffs[1:])
        except ValueError:
            hypothesis.assume(False)
    else:
        terms = den.terms
        key = draw(st.sampled_from(sorted(terms)))
        terms[key] += delta
        den = BiPoly(terms)
        hypothesis.assume(not den.is_zero)
    return part, binom_power_term(s), op, Certificate(RatFunc(num, den))


@hypothesis.settings(deadline=None, max_examples=40)
@hypothesis.given(one_coefficient_changed())
def test_image_verdict_matches_the_polynomial_oracle(case):
    # the oracle's verdict is reference_residual's numerator being zero,
    # taken before it reduces (0.4 s at s = 7, 2 cores, Python 3.11); a
    # moved c_0 leaves the division in the image exact with small_X != 0,
    # and the degrees are read from it
    part, term, op, cert = case
    diff, _ = reference_difference(term, op, cert)
    assert verify_certificate(term, op, cert) is diff.is_zero
    if part == "c_0":
        assert _residual_image(term, op, cert).readable
    assert certificate_mismatch(term, op, cert) == \
        reference_mismatch(term, op, cert)


def _coeffs_from_roots(roots, extra):
    """Coefficients, lowest first, of prod_r (k + r) times extra(k)."""
    coeffs = list(extra)
    for r in roots:
        coeffs = [r * c + lower for c, lower in zip(coeffs + [0],
                                                    [0] + coeffs)]
    return coeffs


# integer polynomials in k with a few integer roots, so that shifts of one
# meet roots of the other
k_polys = st.builds(
    _coeffs_from_roots, st.lists(st.integers(-8, 8), max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(
        lambda extra: extra[-1] != 0))


@hypothesis.example(_coeffs_from_roots([1, 5], [1]),
                    _coeffs_from_roots([-2, 1], [1]))
@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(k_polys, k_polys)
def test_dispersion_set_matches_sympy(a, b):
    # polynomials in k alone, so the set is the generic one: no integer n0
    # can add a shift; (k+1)(k+5) and (k-2)(k+1) give [0, 3, 4, 7]
    sympy = pytest.importorskip("sympy")
    from sympy.polys.dispersion import dispersionset
    hypothesis.assume(len(a) > 1 and len(b) > 1)
    k = sympy.Symbol("k")
    want = sorted(dispersionset(sympy.Poly(a[::-1], k),
                                sympy.Poly(b[::-1], k)))
    got = _dispersion_set(*(BiPoly.from_kpoly([IntPoly.const(c) for c in p])
                            for p in (a, b)))
    assert got == want
    if (a, b) == ([5, 6, 1], [-2, -1, 1]):
        assert got == [0, 3, 4, 7]


@st.composite
def planted_root_polys(draw):
    """A nonzero polynomial with planted integer roots, of either sign and
    repeated, 0 among them up to multiplicity 3, times a cofactor that
    may add roots of its own or a sign change."""
    p = IntPoly.const(draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1))))
    p = p * IntPoly.variable() ** draw(st.integers(0, 3))
    for root in draw(st.lists(st.integers(-40, 40), max_size=4)):
        p = p * IntPoly((-root, 1)) ** draw(st.integers(1, 3))
    cofactor = IntPoly(draw(st.lists(st.integers(-9, 9), min_size=1,
                                     max_size=4)))
    hypothesis.assume(not cofactor.is_zero)
    return p * cofactor


@hypothesis.example(IntPoly((0, 0, 0, 6, 5, 1)))  # x^3 (x+2) (x+3)
@hypothesis.example(IntPoly((0, 0, 9, -6, 1)))    # x^2 (x-3)^2
@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(planted_root_polys())
def test_nonnegative_integer_roots_match_sturm_and_sympy(p):
    got = nonnegative_integer_roots(p)
    assert got == [x for x in sturm_integer_roots(p) if x >= 0]
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    roots = sympy.roots(sympy.Poly(p.coeffs[::-1], x), filter="Z")
    assert got == sorted(int(r) for r in roots if r >= 0)


@st.composite
def roots_beside_complex_pairs(draw):
    """A planted-root polynomial times factors (x - m)^2 + 1 with m in the
    planted range: each pair of complex roots m +- i lies close enough to
    the real axis that Descartes' rule counts sign changes near m on
    intervals that hold no real root."""
    p = draw(planted_root_polys())
    for m in draw(st.lists(st.integers(-40, 40), min_size=1, max_size=2)):
        p = p * IntPoly((m * m + 1, -2 * m, 1))
    return p


# (x - 2)(x + 2)(3 - x) ((x - 3)^2 + 1): roots of both signs, one of them
# beside a complex pair
@hypothesis.example(IntPoly((-12, 4, 3, -1)) * IntPoly((10, -6, 1)))
@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(roots_beside_complex_pairs())
def test_integer_roots_match_sturm_and_sympy(p):
    got = integer_roots(p)
    assert got == sturm_integer_roots(p)
    assert got == sorted(set(got))
    assert nonnegative_integer_roots(p) == [x for x in got if x >= 0]
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    assert got == sorted(int(r) for r in sympy.roots(
        sympy.Poly(p.coeffs[::-1], x), filter="Z"))


# 127 * 256 + 200 balances to -56 - 128 * 256 + 256**2: its top digit
# carries into a digit its bit length does not count
@hypothesis.example([127 * 256 + 200, -128], 1)
@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(st.lists(st.integers(-2 ** 200, 2 ** 200), max_size=5),
                  st.integers(1, 4))
def test_digits_are_balanced_and_evaluate_back(values, stride):
    x = 2 ** (8 * stride)
    expected = 0
    for v in map(abs, values):  # a negative value has the digits negated
        while v:
            digit = (v + x // 2) % x - x // 2
            expected += abs(digit)
            v = (v - digit) // x
    p_x = IntPoly(values)
    digits = _digits(p_x, stride)
    assert [c.eval_int(x) for c in digits] == list(p_x.coeffs)
    assert all(abs(d) <= x // 2 for c in digits for d in c.coeffs)
    assert kp_norm(digits) == max(1, expected)


@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(st.lists(st.lists(st.integers(-2 ** 70, 2 ** 70),
                                    max_size=6), max_size=6),
                  st.integers(-4, 4), st.integers(-4, 4))
def test_norm_bounds_the_shifted_polynomial(kp, dn, dk):
    # the shift in n is made on the polynomial, the one in k by the bound
    p = BiPoly.from_kpoly([IntPoly(c) for c in kp]).compose_shift(dn, 0)
    shifted = p.compose_shift(0, dk)
    assert sum(map(abs, shifted.terms.values())) <= kp_norm(p.coeffs, dk)


@st.composite
def hyper_terms(draw):
    """(term, known): quotient pairs that are compatible (binom(n, k)^s,
    binomial products with the Apery term among them, and those times a
    factor free of the other variable), and pairs that mostly are not
    (quotients of two different terms, a factor in both variables)."""
    n, k = BiPoly.var_n(), BiPoly.var_k()

    def pick():
        if draw(st.booleans()):
            return binom_power_term(draw(st.integers(1, 8)))
        return binomial_product_term(draw(st.integers(0, 3)),
                                     draw(st.integers(0, 3)))
    term = pick()
    kind = draw(st.sampled_from(("same", "mixed", "free", "perturbed")))
    if kind == "mixed":
        return HyperTerm(term.rho_n, pick().rho_k), None
    if kind == "same":
        return term, True
    c, e = draw(st.integers(-3, 3)), draw(st.integers(1, 4))
    in_n = draw(st.booleans())
    # a factor free of k in rho_n, or free of n in rho_k, keeps the pair
    # compatible; one in both variables mostly does not
    factor = (c * n if in_n else c * k) + e
    if kind == "perturbed":
        factor = factor + draw(st.integers(1, 3)) * (k if in_n else n)
    ratio = term.rho_n if in_n else term.rho_k
    if draw(st.booleans()):
        ratio = RatFunc(ratio.num * factor, ratio.den)
    else:
        ratio = RatFunc(ratio.num, ratio.den * factor)
    pair = (ratio, term.rho_k) if in_n else (term.rho_n, ratio)
    return HyperTerm(*pair), (True if kind == "free" else None)


@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(hyper_terms())
def test_compatibility_in_the_image_matches_the_products(case):
    term, known = case
    verdict = term.is_compatible()
    assert verdict is reference_is_compatible(term)
    if known is not None:
        assert verdict is known


# series with constant term 1, over the integers and over the rationals:
# the two coefficient types the deformed sums and phi feed the routines
unit_series = st.one_of(
    st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=9).map(
        lambda tail: [1] + tail),
    st.lists(st.fractions(max_denominator=50).filter(lambda q: abs(q) < 100),
             max_size=9).map(lambda tail: [Fraction(1)] + tail))


@hypothesis.settings(deadline=None, max_examples=100)
@hypothesis.given(unit_series)
def test_series_inv_is_an_inverse(a):
    inv = series_inv(a)
    assert series_mul(a, inv) == [1] + [0] * (len(a) - 1)
    assert type(inv[0]) is type(a[0])


@hypothesis.settings(deadline=None, max_examples=100)
@hypothesis.given(unit_series, st.integers(0, 9))
def test_series_pow_is_repeated_mul(a, e):
    by_mul = [a[0]] + [0] * (len(a) - 1)
    for _ in range(e):
        by_mul = series_mul(by_mul, a)
    assert series_pow(a, e) == by_mul
    assert type(series_pow(a, e)[0]) is type(a[0])


# n whose h = ceil(n/2) terms fill c leaves exactly, or one term less or
# more, and n next to a power of two, where the popcounts behind the
# segments' 2-exponents jump
_FRANEL_EDGES = sorted(
    {2 * h - odd for c in range(1, 9)
     for h in (c * _FRANEL_LEAF - 1, c * _FRANEL_LEAF, c * _FRANEL_LEAF + 1)
     for odd in (0, 1)}
    | {2 ** a + d for a in range(13) for d in (-1, 0, 1)})


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(st.integers(1, 12), st.one_of(
    st.integers(0, 2500), st.sampled_from(_FRANEL_EDGES)))
def test_franel_by_binary_splitting_matches_the_stepping_loop(s, n):
    assert franel(s, n) == reference_franel(s, n)


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(s=st.integers(1, 8), data=st.data())
def test_recursion_rows_on_a_growing_scale_match_the_fixed_scale(
        order_m_operators, s, data):
    # the operators annihilate from n = 0, so every later start is proven
    # too; every window from the seeds to n_to passes prime powers
    op, _ = order_m_operators[s]
    J = data.draw(st.integers(0, (s - 1) // 2), label="J")
    start = data.draw(st.integers(0, 12), label="start")
    n_from = data.draw(st.integers(start + 1, 100), label="n_from")
    n_to = data.draw(st.integers(n_from, 130), label="n_to")
    assert list(recursion_rows(s, J, n_from, n_to, op, start)) == \
        list(reference_recursion_rows(s, J, n_from, n_to, op, start))


@hypothesis.settings(deadline=None, max_examples=100)
@hypothesis.given(st.integers(0, 3000))
def test_lcm_upto_by_prime_power_steps_matches_the_gcd_loop(n):
    assert lcm_upto(n) == reference_lcm_upto(n)


@hypothesis.settings(deadline=None, max_examples=30)
@hypothesis.given(st.integers(1, 150))
def test_apery_pairs_on_integers_match_the_fraction_recursion(n_max):
    assert apery_zeta3(n_max) == reference_apery_zeta3(n_max)


@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(st.integers(0, 2 ** 3000), st.integers(0, 5000))
def test_newton_inverse_modulo_a_power_of_two(half, bits):
    a = 2 * half + 1
    x = _inverse_mod_pow2(a, bits)
    assert 0 <= x < 2 ** bits
    assert a * x % 2 ** bits == 1 % 2 ** bits


@hypothesis.settings(deadline=None, max_examples=12)
@hypothesis.given(st.integers(0, 2), st.integers(0, 2))
def test_binomial_products_telescope_as_the_reference_does(a, b):
    # binom(n, k)^a binom(n+k, k)^b.  For a = 0 the support in k is not
    # finite and the sums over k diverge, so there the identity
    # (P a)(n, k) = b(n, k+1) - b(n, k) is checked at each point instead
    hypothesis.assume(a + b >= 1)
    term = binomial_product_term(a, b)
    op, cert = zeilberger(term, 3)
    assert verify_certificate(term, op, cert)
    assert (op, cert) == next(found for found in (
        reference_solve_at_order(term, r) for r in range(1, 4)) if found)

    def value(n, k):
        return comb(n, k) ** a * comb(n + k, k) ** b

    def b_term(n, k):
        return cert.ratio.eval(n, k) * value(n, k)

    den = cert.ratio.den
    for n in range(12):
        for k in range(12):
            if den.eval(n, k) and den.eval(n, k + 1):
                assert apply_operator(op, lambda m: value(m, k), n) == \
                    b_term(n, k + 1) - b_term(n, k)
    if a:
        sums = [sum(value(n, k) for k in range(n + 1))
                for n in range(12 + op.order)]
        for n in range(12):
            assert apply_operator(op, sums, n) == 0
