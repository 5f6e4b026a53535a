"""Dense exact linear algebra over a Field.

Matrices are lists of row lists, vectors are tuples; everything is tiny
(ambient dimension <= 64, usually <= 8), so plain Gauss-Jordan with the
first nonzero pivot is all we need. No pivot-size heuristics: arithmetic
is exact in both supported fields.
"""

from __future__ import annotations


def rref(rows, field, ncols=None):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    mat = [list(r) for r in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if not field.is_zero(mat[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        mat[r] = prow = field.scale_row(field.inv(mat[r][c]), mat[r])
        for i in range(len(mat)):
            if i != r and not field.is_zero(mat[i][c]):
                mat[i] = field.sub_scaled_row(mat[i], mat[i][c], prow)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows, field, ncols=None) -> int:
    return len(rref(rows, field, ncols)[0])


def nullspace(rows, field, ncols):
    """Basis (list of tuples) of {x : A x = 0} for A given by `rows`."""
    red, pivots = rref(rows, field, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for i, c in enumerate(pivots):
            vec[c] = field.neg(red[i][f])
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs, field):
    """One solution of A x = b, or None if inconsistent (free vars -> 0)."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field, ncols + 1)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return tuple(x)


def det(rows, field):
    """Determinant of a square matrix by fraction-free-enough elimination."""
    n = len(rows)
    mat = [list(r) for r in rows]
    result = field.one
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if not field.is_zero(mat[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            return field.zero
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            result = field.neg(result)
        result = field.mul(result, mat[c][c])
        inv = field.inv(mat[c][c])
        for i in range(c + 1, n):
            if not field.is_zero(mat[i][c]):
                mat[i] = field.sub_scaled_row(mat[i], field.mul(mat[i][c], inv), mat[c])
    return result


def mat_vec(rows, vec, field):
    return tuple(
        sum_list([field.mul(a, b) for a, b in zip(row, vec)], field) for row in rows)


def sum_list(values, field):
    total = field.zero
    for v in values:
        total = field.add(total, v)
    return total


def vec_sub(u, v, field):
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def identity_rows(n, field):
    return [tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)]
