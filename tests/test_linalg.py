import random
from fractions import Fraction

import pytest

import franel.telescoper as telescoper
from franel.bipoly import BiPoly
from franel.errors import TelescoperNotFoundError
from franel.hyperterm import apery_zeta3_term, binom_power_term
from franel.intpoly import IntPoly, pack_signed
from franel.linalg import (_substitute, _triangular_prefix, _zero_pattern,
                           bareiss_determinant, fraction_free_nullspace,
                           schur_block)

from reference_linalg import (canonical_signs, reference_determinant,
                              reference_nullspace, reference_schur_block,
                              unpacked_system)
from reference_telescoper import reference_solve_at_order


def rand_poly(rng, maxdeg=2, maxc=5):
    return IntPoly([rng.randint(-maxc, maxc)
                    for _ in range(rng.randint(0, maxdeg) + 1)])


def frac_rank_at(matrix, x):
    rows = [[Fraction(p.eval_int(x)) for p in row] for row in matrix]
    nr, nc = len(rows), len(rows[0])
    rank = 0
    for c in range(nc):
        piv = None
        for r in range(rank, nr):
            if rows[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][c]
        for r in range(nr):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c] / pivot
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_nullspace_random_matrices():
    rng = random.Random(1234)
    for _ in range(120):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rand_poly(rng) for _ in range(nc)] for _ in range(nr)]
        basis = fraction_free_nullspace(matrix)
        for vec in basis:
            for row in matrix:
                acc = IntPoly()
                for p, x in zip(row, vec):
                    acc = acc + p * x
                assert acc.is_zero
        # dimension against rank computed at two generic points
        rank = max(frac_rank_at(matrix, 10 ** 6 + 3),
                   frac_rank_at(matrix, 10 ** 6 + 33))
        assert len(basis) == nc - rank


def test_nullspace_known_kernel():
    # columns c0, c1, c2 with c2 = c0 + c1 forced
    one = IntPoly.const(1)
    n = IntPoly.variable()
    matrix = [
        [one, IntPoly(), -one],
        [IntPoly(), n, -n],
    ]
    basis = fraction_free_nullspace(matrix)
    assert len(basis) == 1
    v = basis[0]
    # kernel vector is proportional to (1, 1, 1)
    assert v[0] == v[1] == v[2]
    assert not v[0].is_zero


def test_determinant_matches_fraction_arithmetic():
    rng = random.Random(77)
    for _ in range(40):
        size = rng.randint(1, 5)
        matrix = [[rand_poly(rng, 1, 4) for _ in range(size)]
                  for _ in range(size)]
        det = bareiss_determinant(matrix)
        x = 10 ** 3 + 7
        rows = [[Fraction(p.eval_int(x)) for p in row] for row in matrix]
        expected = _frac_det(rows)
        assert det.eval_int(x) == expected


def _frac_det(rows):
    size = len(rows)
    rows = [row[:] for row in rows]
    det = Fraction(1)
    for c in range(size):
        piv = None
        for r in range(c, size):
            if rows[r][c] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, size):
            if rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


def test_determinant_over_bipoly():
    n, k = BiPoly.var_n(), BiPoly.var_k()
    matrix = [[n, k], [k, n]]
    det = reference_determinant(matrix, BiPoly.const(1), BiPoly())
    assert det == n * n - k * k


def structured_matrix(rng, nr, nc):
    """A random matrix with one of the shapes elimination treats apart:
    low rank (nullity >= 2), zero columns, all-zero rows, duplicated rows,
    or none of these."""
    shape = rng.choice(("low_rank", "zero_cols", "zero_rows", "dup_rows",
                        "plain"))
    if shape == "low_rank":
        rank = rng.randint(0, max(0, min(nr, nc - 2)))
        left = [[rand_poly(rng, 1, 3) for _ in range(rank)]
                for _ in range(nr)]
        right = [[rand_poly(rng, 1, 3) for _ in range(nc)]
                 for _ in range(rank)]
        matrix = []
        for lrow in left:
            row = []
            for j in range(nc):
                acc = IntPoly()
                for t in range(rank):
                    acc = acc + lrow[t] * right[t][j]
                row.append(acc)
            matrix.append(row)
        return matrix
    matrix = [[rand_poly(rng) for _ in range(nc)] for _ in range(nr)]
    if shape == "zero_cols":
        for j in rng.sample(range(nc), rng.randint(1, nc)):
            for row in matrix:
                row[j] = IntPoly()
    elif shape == "zero_rows":
        for i in rng.sample(range(nr), rng.randint(1, nr)):
            matrix[i] = [IntPoly()] * nc
    elif shape == "dup_rows" and nr >= 2:
        i, j = rng.sample(range(nr), 2)
        matrix[j] = list(matrix[i])
    return matrix


def test_nullspace_matches_reference_on_structured_matrices():
    rng = random.Random(4711)
    nullities = set()
    for _ in range(200):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.3:
            nr = nc + rng.randint(1, 3)  # more rows than columns
        matrix = structured_matrix(rng, nr, nc)
        basis = fraction_free_nullspace(matrix)
        assert basis == canonical_signs(reference_nullspace(matrix))
        nullities.add(len(basis))
    assert {0, 1, 2, 3} <= nullities


def _record_gosper_systems(monkeypatch):
    """Patches the solver's nullspace to record (order, matrix, (norms,
    image_at)) triples: the system as the solver hands it over, and its
    matrix unpacked from the images."""
    systems = []
    real = telescoper.image_nullspace
    order = telescoper.solve_at_order

    def solve(term, r):
        systems.append((r, None, None))
        return order(term, r)

    def record(norms, image_at):
        systems[-1] = (systems[-1][0], unpacked_system(norms, image_at),
                       (norms, image_at))
        return real(norms, image_at)

    monkeypatch.setattr(telescoper, "solve_at_order", solve)
    monkeypatch.setattr(telescoper, "image_nullspace", record)
    return systems


def test_nullspace_matches_reference_on_gosper_systems(monkeypatch):
    systems = _record_gosper_systems(monkeypatch)
    for s in range(1, 7):
        telescoper.zeilberger(binom_power_term(s), 4)
    with pytest.raises(TelescoperNotFoundError):
        telescoper.zeilberger(binom_power_term(6), 2)
    telescoper.solve_at_order(binom_power_term(7), 4)
    for r in (1, 2):
        telescoper.solve_at_order(apery_zeta3_term(), r)
    # the orders 1..ceil(s/2) tried for s = 1..6, then orders 1 and 2
    # again, the order-4 system of s=7 and Apery's orders 1 and 2
    assert [r for r, _, _ in systems] == [1, 1, 1, 2, 1, 2, 1, 2, 3, 1, 2, 3,
                                          1, 2, 4, 1, 2]
    for _, matrix, _ in systems:
        assert fraction_free_nullspace(matrix) == \
            canonical_signs(reference_nullspace(matrix))


def test_triangular_prefix_is_the_f_block(monkeypatch):
    # columns f_0..f_D come first, then c_0..c_r; the prefix must take all
    # D+1 f-columns at every order the search tries, or the Gosper systems
    # would slide back into Bareiss on the whole matrix
    systems = _record_gosper_systems(monkeypatch)
    for s in range(1, 9):
        for r in range(1, telescoper.expected_order(s) + 1):
            telescoper.solve_at_order(binom_power_term(s), r)
    assert len(systems) == 20
    for r, matrix, _ in systems:
        ncols = len(matrix[0])
        assert len(_triangular_prefix(matrix, ncols)) == ncols - (r + 1)


def _schur_block_and_strides(norms, image_at):
    """`schur_block` with the strides at which it asked for images."""
    strides = []

    def at(stride):
        strides.append(stride)
        return image_at(stride)

    return schur_block(norms, at), strides


def _norm_program(matrix, norms):
    """The bounds `schur_block` takes its stride from: the norm program
    run with the zero pattern of the true matrix."""
    return _substitute(norms, *_zero_pattern(matrix), 1)


def test_schur_block_is_the_intpoly_substitution(monkeypatch):
    # every value unpacked from the image is the one the substitution forms
    # in Z[n], its 1-norm is at most the norm program's bound, and that
    # bound lies below X/2, so each coefficient has at most 8*stride - 1 bits
    systems = _record_gosper_systems(monkeypatch)
    for s in range(1, 9):
        for r in range(1, telescoper.expected_order(s) + 1):
            telescoper.solve_at_order(binom_power_term(s), r)
    for r in (1, 2):
        telescoper.solve_at_order(apery_zeta3_term(), r)
    assert len(systems) == 22
    for _, matrix, (norms, image_at) in systems:
        block, strides = _schur_block_and_strides(norms, image_at)
        assert block == reference_schur_block(matrix)
        half = 1 << (8 * strides[-1] - 1)
        for values, bounds in zip(block[1:], _norm_program(matrix, norms)):
            for vrow, brow in zip(values, bounds):
                for v, bound in zip(vrow, brow):
                    assert sum(map(abs, v.coeffs)) <= bound < half
                    assert v.max_coeff_bits() <= 8 * strides[-1] - 1


def test_degenerate_f_columns_take_their_zero_pattern_from_the_image(
        monkeypatch):
    # for binom(n, k)^s with s even, lc_k A = lc_k B(k-1), so the top entry
    # of every f-column cancels: its 1-norm bound is nonzero while it is 0.
    # The prefix rows and the Schur rows' first entries come from the image;
    # read from the bounds, the order-4 system of s=8 loses its solution
    systems = _record_gosper_systems(monkeypatch)
    for s in (2, 4, 6, 8):
        telescoper.solve_at_order(binom_power_term(s),
                                  telescoper.expected_order(s))
    for (r, matrix, (norms, _)) in systems:
        n_f = len(matrix[0]) - (r + 1)
        for j in range(n_f):
            top = max(t for t in range(len(norms)) if norms[t][j])
            assert top >= len(matrix) or matrix[top][j].is_zero
    term = binom_power_term(8)
    found = telescoper.solve_at_order(term, 4)
    assert found is not None
    assert found == reference_solve_at_order(term, 4)


def _planted_prefix_matrix(rng, b, width, extra):
    """Rows 0..b+extra-1 and a prefix of b columns whose last nonzero rows
    are 1, 3, .., 2b-1: every row above t_j has a nonzero entry in column
    j, so the Schur rows carry products of all the pivots.  Column b is
    zero from row 2b-1 down, which ends the prefix there."""
    matrix = []
    for r in range(2 * b + extra):
        row = [IntPoly() for _ in range(b + width)]
        for j in range(b + width):
            while j < b and r <= 2 * j + 1 and row[j].is_zero:
                row[j] = rand_poly(rng, 2, 60)
            if j >= b and (j > b or r < 2 * b - 1):
                row[j] = rand_poly(rng, 2, 60)
        matrix.append(row)
    return matrix


def test_schur_entries_outgrow_the_entries_bound():
    # the entries' coefficients have at most 6 bits and their 1-norms fit
    # 2 bytes, while the Schur rows hold products of four pivots: the
    # stride the norm program asks for is wider than the entries', and
    # values unpacked at the entries' stride would be wrong
    rng = random.Random(2112)
    for _ in range(12):
        matrix = _planted_prefix_matrix(rng, 4, 3, 2)
        assert len(_triangular_prefix(matrix, 7)) == 4
        norms = [[sum(map(abs, e.coeffs)) for e in row] for row in matrix]
        block, strides = _schur_block_and_strides(
            norms, lambda stride: [[pack_signed(e.coeffs, stride)
                                    for e in row] for row in matrix])
        assert block == reference_schur_block(matrix)
        assert fraction_free_nullspace(matrix) == \
            canonical_signs(reference_nullspace(matrix))
        assert strides[0] <= 2 < strides[1]


def test_nullspace_sign_contract():
    n = IntPoly.variable()
    one, zero = IntPoly.const(1), IntPoly()
    # one pivot -n: the Gauss-Jordan vector is (-(n+1), -n)
    matrix = [[-n, n + 1]]
    assert reference_nullspace(matrix) == [[-(n + 1), -n]]
    assert fraction_free_nullspace(matrix) == [[n + 1, n]]
    # no triangular prefix (column 0 is zero), a last pivot of -1: free
    # columns 0 and 2, each vector positive at its own free column
    matrix = [[zero, -one, one]]
    assert _triangular_prefix(matrix, 3) == []
    assert fraction_free_nullspace(matrix) == [[one, zero, zero],
                                               [zero, one, one]]


def test_determinant_matches_reference():
    rng = random.Random(2024)
    singular = 0
    for _ in range(150):
        size = rng.randint(1, 6)
        matrix = structured_matrix(rng, size, size)
        if rng.random() < 0.4:
            # a constant below a row of larger entries moves the pivot off
            # the first row
            i = rng.randrange(size)
            matrix[i][0] = IntPoly.const(rng.choice((-1, 1)))
        det = bareiss_determinant(matrix)
        assert det == reference_determinant(matrix, 1, 0)
        singular += det.is_zero
    assert 20 <= singular <= 130
    assert bareiss_determinant([]) == reference_determinant([], 1, 0)


def test_determinant_sign_follows_pivot_row_order():
    n = IntPoly.variable()
    one, zero = IntPoly.const(1), IntPoly()
    # pivots in rows 1, 0: an odd row order
    odd = [[n, one], [one, zero]]
    assert bareiss_determinant(odd) == -one
    # pivots in rows 1, 2, 0: a 3-cycle, even
    even = [[n * n, n, one], [one, n, n], [n + 1, one, n]]
    assert bareiss_determinant(even) == reference_determinant(even, 1, 0)
    assert bareiss_determinant(even) == IntPoly([1, -1, -1, 0, 1])
