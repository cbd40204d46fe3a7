"""Fraction-free exact linear algebra over integer-polynomial entries.

One forward Bareiss elimination serves both routines.  Each column takes
its pivot among the rows not yet used, and only those rows are updated, by
(pivot * entry - row_entry * pivot_row_entry) / previous_pivot with the
division exact by Sylvester's identity.  Rows are never swapped and the
rows above a pivot are never touched again.  The determinant is the last
pivot, signed by the order in which rows became pivots; nullspace vectors
are read off the echelon rows by fraction-free back substitution.
"""

from __future__ import annotations

from .intpoly import IntPoly, poly_gcd_int


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


def fraction_free_nullspace(matrix):
    """Right-nullspace basis of a matrix of IntPoly entries over Q(n).

    Returns one content-stripped integer-polynomial vector per free column
    of the echelon form.  Columns are processed left to right, so the caller
    controls which unknowns become free by ordering the columns.

    For a free column fc the vector has x_fc = the last pivot, which is the
    minor det M[R, P] on the pivot rows R and pivot columns P, and zero at
    the other free columns.  By Cramer's rule every entry of that vector is
    a minor of M, so it has polynomial entries.  Each echelon row is a
    combination of rows of M and so vanishes on it; from the last pivot
    row up, x_p = -(sum_{j>p} U[row][j] x_j) / U[row][p] is therefore an
    exact division.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    M = [list(row) for row in matrix]
    pivots, free, last = _eliminate(M, ncols)
    basis = []
    for fc in free:
        vec = [IntPoly() for _ in range(ncols)]
        vec[fc] = last
        for prow, pcol in reversed(pivots):
            row = M[prow]
            acc = IntPoly()
            for j in range(pcol + 1, ncols):
                if not vec[j].is_zero and not row[j].is_zero:
                    acc = acc + row[j] * vec[j]
            if not acc.is_zero:
                vec[pcol] = (-acc).divexact(row[pcol])
        g = IntPoly()
        for v in vec:
            g = poly_gcd_int(g, v)
        if not (g.degree == 0 and g.lc == 1):
            vec = [v.divexact(g) for v in vec]
        basis.append(vec)
    return basis


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
