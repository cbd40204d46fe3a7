"""Fraction-free exact linear algebra over integer-polynomial entries.

One forward Bareiss elimination serves both routines.  Each column takes
its pivot among the rows not yet used, and only those rows are updated, by
(pivot * entry - row_entry * pivot_row_entry) / previous_pivot with the
division exact by Sylvester's identity.  Rows are never swapped and the
rows above a pivot are never touched again.  The determinant is the last
pivot, signed by the order in which rows became pivots.

The nullspace first removes a triangular block of leading columns by
substitution, so Bareiss runs only on what is left.

- The prefix.  Take the leading columns 0..b-1 whose last nonzero rows
  t_0 < t_1 < .. strictly increase; the prefix ends at the first zero
  column or the first last row that does not rise.  Column i < j is zero
  below its last row t_i < t_j, so row t_j is zero left of column j: on
  the rows t_j these columns form a triangular block with the nonzero
  diagonal l_j = M[t_j][j].  In a Gosper system
  A(k) f(k+1) - B(k-1) f(k) = C(k) sum_i c_i u_i(k) the column of f_j has
  k-degree deg(A) + j, or one less when the leading terms cancel, so the
  prefix is the f-block; l_j is a leading coefficient of A, a constant for
  binom(n, k)^s with s odd and linear in n for s even.
- Substitution.  Write y for the unknowns of columns b.. and
  P_j = prod_{i >= j} l_i.  From j = b-1 down, row t_j gives
  x_j = Phi_j . y / P_j with Phi_j = -(P_{j+1} M[t_j][b..] + H_{j+1}), where
  the mixed sum H_a = sum_{i >= a} e_i Phi_i prod_{a <= i' < i} l_i' of the
  row's entries e_i is formed by Horner's rule over the pivots,
  H_a = e_a Phi_a + l_a H_{a+1}, so no step divides.
- The Schur block.  Every other row r, with a its first nonzero entry in
  the prefix, becomes P_a M[r][b..] + H_a: the row with x_0..x_{b-1}
  substituted, times P_a.  Stripped of its polynomial content, the gcd in
  Z[n] of its entries, it is a row of the Schur complement up to a nonzero
  factor of Q(n), which leaves the nullspace as it is and keeps the
  entries Bareiss multiplies small, and `_eliminate` plus
  fraction-free back substitution give that block's nullspace.  A vector
  c of it, made primitive, lifts to (prod_{i<j} l_i Phi_j . c for j < b,
  P_0 c), whose gcd divides P_0, so the strip of the lift starts from P_0.
  For b = 0 this is plain Bareiss.
- Rank profile.  The prefix columns are independent, so column b + c of M
  lies in the span of the columns left of it exactly when column c of the
  Schur block does.  The free columns are therefore those of Bareiss on M
  itself: the vector of free column fc is zero at every other free column
  and right of fc, which fixes it up to a factor in Q(n).  Made primitive
  in Z[n] it is unique up to sign, and the sign is a contract: the entry
  at fc, the vector's last nonzero entry, has a positive leading
  coefficient.

The substitution runs on images under n -> X = 2**(8*stride); only l_j,
Phi and the Schur rows are unpacked to Z[n], by balanced base-X digits.
It is a straight-line program of +, - and *, and n -> X is a ring map.  Run
on bounds of the entries' 1-norms with - read as +, the same program bounds
each value's 1-norm, as ||a +- b|| <= ||a|| + ||b|| and ||ab|| <= ||a|| ||b||.
With X/2 above the bounds of the entries, Phi and the Schur entries, every
unpacked value is its polynomial and an entry is zero iff its image is.  The
zero pattern (the t_j, each row's a) is read from the image at the entries'
stride, never from the bounds: a bound is nonzero at the cancelled top of
every f-column when lc_k A = lc_k B(k-1), as for binom(n, k)^s at even s,
and a bound at a zero entry still bounds it, so the norm program runs on.
"""

from __future__ import annotations

from .intpoly import (IntPoly, pack_signed, poly_content, stride_for,
                      unpack_poly)


def _eliminate(M, ncols):
    """Forward Bareiss elimination of the row list M, in place.

    The pivot of each column is the nonzero entry of least
    (degree, max_coeff_bits()) among the unused rows, the lowest row index
    breaking ties.  Only unused rows, and only their columns right of the
    pivot, are updated; entries left of and at a pivot are left stale.
    Returns the (row, column) pivots in order, the free columns and the last
    pivot, which is the minor det M[rows, columns] of the pivots up to the
    sign of their row order.
    """
    unused = list(range(len(M)))
    pivots = []
    free = []
    prev = IntPoly.const(1)
    for col in range(ncols):
        best = None
        for r in unused:
            e = M[r][col]
            if e.is_zero:
                continue
            key = (e.degree, e.max_coeff_bits())
            if best is None or key < best[0]:
                best = (key, r)
        if best is None:
            free.append(col)
            continue
        prow = best[1]
        unused.remove(prow)
        top = M[prow]
        piv = top[col]
        for r in unused:
            row = M[r]
            e = row[col]
            if e.is_zero:
                for j in range(col + 1, ncols):
                    if not row[j].is_zero:
                        row[j] = (piv * row[j]).divexact(prev)
            else:
                for j in range(col + 1, ncols):
                    row[j] = (piv * row[j] - e * top[j]).divexact(prev)
        pivots.append((prow, col))
        prev = piv
    return pivots, free, prev


def _triangular_prefix(matrix, ncols):
    """The last nonzero rows t_0 < t_1 < .. of the leading columns."""
    rows = []
    for j in range(ncols):
        t = len(matrix) - 1
        while t >= 0 and not matrix[t][j]:
            t -= 1
        if t < 0 or (rows and t <= rows[-1]):
            break
        rows.append(t)
    return rows


def _horner(row, phi, ells, a, width):
    """H_a = sum_{i >= a} row[i] phi[i] prod_{a <= i' < i} ells[i']."""
    acc = [0] * width
    for i in range(len(phi) - 1, a - 1, -1):
        acc = [ells[i] * h + row[i] * v for h, v in zip(acc, phi[i])]
    return acc


def _zero_pattern(M):
    """The prefix rows t_j, and (r, a) for each other row r, with a its
    first nonzero prefix entry or b when it has none."""
    tri = _triangular_prefix(M, len(M[0]))
    return tri, [(r, next((i for i in range(len(tri)) if row[i]), len(tri)))
                 for r, row in enumerate(M) if r not in tri]


def _substitute(M, tri, firsts, sign):
    """(Phi, Schur rows) of an integer matrix for the prefix rows tri and
    the other rows' (r, a): on images with sign -1, and with sign +1 on the
    entries' 1-norm bounds, the norm program bounding each value's."""
    b = len(tri)
    width = len(M[0]) - b
    ells = [M[t][j] for j, t in enumerate(tri)]
    dens = [1] * (b + 1)  # dens[j] = P_j, with dens[b] = 1
    phi = [None] * b
    for j in range(b - 1, -1, -1):
        row = M[tri[j]]
        h = _horner(row, phi, ells, j + 1, width)
        phi[j] = [sign * (dens[j + 1] * m + x) for m, x in zip(row[b:], h)]
        dens[j] = dens[j + 1] * ells[j]
    return phi, [[dens[a] * m + x for m, x in
                  zip(M[r][b:], _horner(M[r], phi, ells, a, width))]
                 for r, a in firsts]


def schur_block(norms, image_at):
    """(l_j, Phi, Schur rows) in Z[n] of the matrix with image_at(stride)
    its image at X = 2**(8*stride) and norms bounds on its entries' 1-norms,
    which may bound zero rows below its last (see the module docstring)."""
    def stride_of(*values):  # the `stride_for` of the largest bound
        return stride_for(max(
            [0] + [x for rows in values for row in rows for x in row]))

    stride = stride_of(norms)
    M = image_at(stride)
    tri, firsts = _zero_pattern(M)
    wide = stride_of(norms, *_substitute(norms, tri, firsts, 1))
    if wide > stride:
        stride, M = wide, image_at(wide)
    phi, schur = _substitute(M, tri, firsts, -1)
    return ([unpack_poly(M[t][j], stride) for j, t in enumerate(tri)],
            *([[unpack_poly(x, stride) for x in row] for row in rows]
              for rows in (phi, schur)))


def image_nullspace(norms, image_at):
    """`fraction_free_nullspace` of the matrix given as to `schur_block`."""
    ells, phi, schur = schur_block(norms, image_at)
    b, width = len(ells), len(norms[0]) - len(ells)
    schur = [poly_content(row)[1] for row in schur]
    pivots, free, last = _eliminate(schur, width)
    # lows[j] = prod_{i < j} ells[i], the factor lifting x_j over P_0
    lows = [IntPoly.const(1)]
    for ell in ells:
        lows.append(lows[-1] * ell)
    basis = []
    for fc in free:
        c = [IntPoly() for _ in range(width)]
        c[fc] = last
        for prow, pcol in reversed(pivots):
            row = schur[prow]
            acc = IntPoly()
            for j in range(pcol + 1, width):
                if not c[j].is_zero and not row[j].is_zero:
                    acc = acc + row[j] * c[j]
            if not acc.is_zero:
                c[pcol] = (-acc).divexact(row[pcol])
        _, c = poly_content(c)
        # the gcd of the lift divides that of P_0 c, which is P_0
        lift = [lows[j] * sum((p * x for p, x in zip(phi[j], c)
                               if not x.is_zero), IntPoly())
                for j in range(b)]
        _, vec = poly_content(lift + [lows[b] * x for x in c], lows[b])
        if vec[b + fc].lc < 0:
            vec = [-v for v in vec]
        basis.append(vec)
    return basis


def fraction_free_nullspace(matrix):
    """Right-nullspace basis of a matrix of IntPoly entries over Q(n).

    Returns one primitive integer-polynomial vector per free column of the
    echelon form, in the order of those columns.  Columns are processed
    left to right, so the caller controls which unknowns become free by
    ordering the columns.  The vector of free column fc is zero at the
    other free columns and right of fc, and its entry at fc has a positive
    leading coefficient.  The leading triangular block is substituted away
    first, in the image of the packed entries, and Bareiss runs on the
    Schur block (see the module docstring).

    In the Schur block, with x_fc = the last pivot, every entry is a minor
    by Cramer's rule.  Each echelon row is a combination of rows and so
    vanishes on the vector; from the last pivot row up,
    x_p = -(sum_{j>p} U[row][j] x_j) / U[row][p] is therefore exact.
    """
    if not matrix:
        return []
    return image_nullspace(
        [[sum(map(abs, e.coeffs)) for e in row] for row in matrix],
        lambda stride: [[pack_signed(e.coeffs, stride) for e in row]
                        for row in matrix])


def bareiss_determinant(matrix):
    """Determinant of a square matrix of IntPoly entries."""
    size = len(matrix)
    if size == 0:
        return IntPoly.const(1)
    M = [list(row) for row in matrix]
    pivots, free, last = _eliminate(M, size)
    if free:
        return IntPoly()
    order = [r for r, _ in pivots]
    inversions = sum(1 for i in range(size) for j in range(i + 1, size)
                     if order[i] > order[j])
    return -last if inversions % 2 else last
