"""The linear algebra before the shared forward elimination, kept as the
oracle: a full fraction-free Gauss-Jordan for the nullspace, and a Bareiss
determinant that pivots on the first nonzero entry and swaps rows.  The
Gauss-Jordan vectors carry the sign of the last pivot; `canonical_signs`
puts them in the sign `fraction_free_nullspace` promises.  Also the
triangular substitution as it ran in Z[n] before it moved into the image
n -> 2**(8*stride), and the unpacking of a system given by its images."""

from franel.intpoly import IntPoly, poly_gcd_int, unpack_poly
from franel.linalg import _triangular_prefix


def reference_schur_block(matrix):
    """(l_j, Phi, Schur rows) of `linalg.schur_block`, formed in Z[n]: the
    prefix rows t_j and each other row's first nonzero prefix entry a read
    from the IntPoly entries, P_j = prod_{i >= j} l_i, and the Horner sums
    H_a over the pivots, so Phi_j = -(P_{j+1} M[t_j][b..] + H_{j+1}) and
    the Schur row of r is P_a M[r][b..] + H_a, before its content strip."""
    ncols = len(matrix[0])
    tri = _triangular_prefix(matrix, ncols)
    b, width = len(tri), ncols - len(tri)
    ells = [matrix[t][j] for j, t in enumerate(tri)]

    def horner(row, a):
        acc = [IntPoly()] * width
        for i in range(b - 1, a - 1, -1):
            if row[i].is_zero:
                acc = [ells[i] * h for h in acc]
            else:
                acc = [ells[i] * h + row[i] * v for h, v in zip(acc, phi[i])]
        return acc

    dens = [IntPoly.const(1)] * (b + 1)
    phi = [None] * b
    for j in range(b - 1, -1, -1):
        row = matrix[tri[j]]
        h = horner(row, j + 1)
        phi[j] = [-(dens[j + 1] * m + x) for m, x in zip(row[b:], h)]
        dens[j] = dens[j + 1] * ells[j]
    schur = []
    for r, row in enumerate(matrix):
        if r in tri:
            continue
        a = next((i for i in range(b) if not row[i].is_zero), b)
        schur.append([dens[a] * m + x
                      for m, x in zip(row[b:], horner(row, a))])
    return ells, phi, schur


def unpacked_system(norms, image_at):
    """The IntPoly matrix a system given to `linalg.image_nullspace`
    stands for: its image at the stride its entries' 1-norm bounds ask
    for, unpacked by balanced digits."""
    bound = max(x for row in norms for x in row)
    stride = (bound.bit_length() + 8) // 8
    return [[unpack_poly(x, stride) for x in row] for row in image_at(stride)]


def reference_nullspace(matrix):
    """Right-nullspace basis of IntPoly entries, by Gauss-Jordan: each pivot
    updates every other row in every column, so the reduced form has the
    last pivot on its diagonal and the vectors are read off directly."""
    nrows = len(matrix)
    if nrows == 0:
        return []
    ncols = len(matrix[0])
    M = [list(row) for row in matrix]
    pivots = []
    pivot_rows = set()
    prev = IntPoly.const(1)
    for col in range(ncols):
        best = None
        for r in range(nrows):
            if r in pivot_rows:
                continue
            e = M[r][col]
            if e.is_zero:
                continue
            key = (e.degree, e.max_coeff_bits())
            if best is None or key < best[0]:
                best = (key, r)
        if best is None:
            continue
        prow = best[1]
        piv = M[prow][col]
        pivot_row = M[prow]
        for r in range(nrows):
            if r == prow:
                continue
            row = M[r]
            e = row[col]
            if e.is_zero:
                for j in range(ncols):
                    if not row[j].is_zero:
                        row[j] = (piv * row[j]).divexact(prev)
            else:
                for j in range(ncols):
                    if j == col:
                        continue
                    row[j] = (piv * row[j] - e * pivot_row[j]).divexact(prev)
                row[col] = IntPoly()
        pivots.append((prow, col))
        pivot_rows.add(prow)
        prev = piv

    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [IntPoly() for _ in range(ncols)]
        vec[fc] = prev
        for prow, pcol in pivots:
            vec[pcol] = -M[prow][fc]
        g = IntPoly()
        for v in vec:
            g = poly_gcd_int(g, v)
        if not (g.degree == 0 and g.lc == 1):
            vec = [v.divexact(g) for v in vec]
        basis.append(vec)
    return basis


def canonical_signs(basis):
    """Each vector negated where the entry at its free column, its last
    nonzero entry, has a negative leading coefficient."""
    out = []
    for vec in basis:
        last = max(i for i, v in enumerate(vec) if not v.is_zero)
        out.append(vec if vec[last].lc > 0 else [-v for v in vec])
    return out


def reference_determinant(matrix, one, zero):
    """Determinant over any ring whose entries support mul, sub, neg,
    divexact and is_zero; ``one`` and ``zero`` are its constants (plain
    integers are promoted to IntPoly)."""
    if isinstance(one, int):
        one, zero = IntPoly.const(one), IntPoly.const(zero)
    size = len(matrix)
    if size == 0:
        return one
    M = [list(row) for row in matrix]
    sign = 1
    prev = one
    for t in range(size - 1):
        prow = None
        for r in range(t, size):
            if not M[r][t].is_zero:
                prow = r
                break
        if prow is None:
            return zero
        if prow != t:
            M[t], M[prow] = M[prow], M[t]
            sign = -sign
        piv = M[t][t]
        for r in range(t + 1, size):
            e = M[r][t]
            row = M[r]
            top = M[t]
            if e.is_zero:
                for j in range(t + 1, size):
                    if not row[j].is_zero:
                        row[j] = (piv * row[j]).divexact(prev)
            else:
                for j in range(t + 1, size):
                    row[j] = (piv * row[j] - e * top[j]).divexact(prev)
            row[t] = zero
        prev = piv
    det = M[size - 1][size - 1]
    return det if sign > 0 else -det
