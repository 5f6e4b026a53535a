"""Differential tests of linalg, which runs on the fields' row kernels,
against element-wise Gauss-Jordan written out here with scalar field ops."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hjoints import GF, QQ, linalg

FIELDS = {"Q": QQ, "GF2": GF(2), "GF3": GF(3), "GF7": GF(7), "GF61": GF()}


def ref_rref(rows, field, ncols):
    mat = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat))
                          if not field.is_zero(mat[i][c])), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not field.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [field.sub(a, field.mul(f, b))
                          for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


def ref_nullspace(rows, field, ncols):
    red, pivots = ref_rref(rows, field, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[f] = field.one
        for i, c in enumerate(pivots):
            vec[c] = field.neg(red[i][f])
        basis.append(tuple(vec))
    return basis


def ref_solve(rows, rhs, field, ncols):
    red, pivots = ref_rref([list(r) + [b] for r, b in zip(rows, rhs)],
                           field, ncols + 1)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return tuple(x)


def ref_det(rows, field):
    # Laplace expansion along the first row
    if not rows:
        return field.one
    total = field.zero
    for j, a in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = field.mul(a, ref_det(minor, field))
        total = field.sub(total, term) if j % 2 else field.add(total, term)
    return total


def scalars(field):
    # small entries give many zero pivots, above all over GF(7)
    small = st.integers(-3, 3).map(field.from_int)
    if field is QQ:
        return st.one_of(small, st.builds(Fraction, st.integers(-40, 40),
                                          st.integers(1, 9)))
    return st.one_of(small, st.integers(0, field.p - 1))


@st.composite
def matrices(draw, field, square=False):
    nrows = draw(st.integers(0 if not square else 1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(scalars(field), min_size=ncols,
                                  max_size=ncols),
                         min_size=nrows, max_size=nrows))
    # repeat a scaled row now and then, so rank deficiency is common
    if nrows >= 2 and draw(st.booleans()):
        c = draw(scalars(field))
        rows[-1] = [field.mul(c, a) for a in rows[0]]
    return [tuple(r) for r in rows], ncols


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(4407)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kernels_match_elementwise_reference(name, data):
    field = FIELDS[name]
    rows, ncols = data.draw(matrices(field))
    want_red, want_pivots = ref_rref(rows, field, ncols)
    assert linalg.rref(rows, field, ncols) == (want_red, want_pivots)
    assert linalg.nullspace(rows, field, ncols) == ref_nullspace(rows, field, ncols)


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(4410)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_affine_solve_matches_solve_and_nullspace(name, data):
    # half the right-hand sides are A x0, so rank-deficient systems are
    # consistent as often as not
    field = FIELDS[name]
    rows, ncols = data.draw(matrices(field))
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(scalars(field), min_size=ncols,
                                max_size=ncols))
        rhs = linalg.mat_vec(rows, x0, field)
    else:
        rhs = tuple(data.draw(st.lists(scalars(field), min_size=len(rows),
                                       max_size=len(rows))))
    x = ref_solve(rows, rhs, field, ncols)
    got = linalg.affine_solve(rows, rhs, field, ncols)
    assert got == (None if x is None
                   else (x, ref_nullspace(rows, field, ncols)))
    if got is not None:
        assert linalg.mat_vec(rows, got[0], field) == tuple(rhs)


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(4408)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_matches_rref_and_laplace_expansion(name, data):
    field = FIELDS[name]
    square = data.draw(st.booleans())
    rows, ncols = data.draw(matrices(field, square=square))
    rank = linalg.rank(rows, field)
    assert rank == len(ref_rref(rows, field, ncols)[1])
    if square:
        assert (rank == len(rows)) == (not field.is_zero(ref_det(rows, field)))


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(4409)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_kernels_match_scalar_ops(name, data):
    field = FIELDS[name]
    n = data.draw(st.integers(0, 6))
    u, v = (data.draw(st.lists(scalars(field), min_size=n, max_size=n))
            for _ in range(2))
    c = data.draw(scalars(field))
    assert field.scale_row(c, u) == [field.mul(c, a) for a in u]
    assert field.sub_scaled_row(u, c, v) == [field.sub(a, field.mul(c, b))
                                            for a, b in zip(u, v)]
