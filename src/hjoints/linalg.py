"""Dense exact linear algebra over a Field.

Matrices are lists of row lists, vectors are tuples; everything is tiny
(ambient dimension <= 64, usually <= 8), so elimination with the first
nonzero pivot is all we need. No pivot-size heuristics: arithmetic is exact
in both supported fields. There are two kernels. The normalising
Gauss-Jordan `rref` gives canonical forms, nullspaces and solutions, each
from one elimination. The inverse-free echelon gives ranks.
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


def null_basis(red, pivots, field, ncols):
    """Basis (list of tuples) of {x : A x = 0}, read off the reduced rows of
    A and their pivot columns: one vector per free column f, 1 at f."""
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[f] = field.one
        for row, c in zip(red, pivots):
            vec[c] = field.neg(row[f])
        basis.append(tuple(vec))
    return basis


def nullspace(rows, field, ncols):
    """Basis (list of tuples) of {x : A x = 0} for A given by `rows`."""
    return null_basis(*rref(rows, field, ncols), field, ncols)


def affine_solve(rows, rhs, field, ncols):
    """(x, nullspace basis of A) for A x = b, with the free variables of x
    at 0, or None if inconsistent. One rref of [A | b]: when b is not a
    pivot column, its rows restricted to A are those of rref(A)."""
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)], field,
                       ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [field.zero] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[ncols]
    return tuple(x), null_basis(red, pivots, field, ncols)


def _echelon(rows, field):
    """(pivot, row) for the nonzero rows left by cross-multiplied
    elimination, y[t]*x - x[t]*y, which takes no inverse: each row is
    nonzero at its pivot, its first nonzero entry, and zero at the pivots
    before it, so their number is the rank."""
    is_zero = field.is_zero
    out: list[tuple[int, list]] = []
    for x in rows:
        for t, y in out:
            if not is_zero(x[t]):
                x = field.sub_scaled_row(field.scale_row(y[t], x), x[t], y)
        for t, a in enumerate(x):
            if not is_zero(a):
                out.append((t, x))
                break
    return out


def rank(rows, field) -> int:
    return len(_echelon(rows, field))


def mat_vec(rows, vec, field):
    return tuple(field.dot(row, vec) for row in rows)


def vec_sub(u, v, field):
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def identity_rows(n, field):
    return [tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)]
