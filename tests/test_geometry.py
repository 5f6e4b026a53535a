import functools
import gc
import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, seed, settings
from hypothesis import strategies as st

from hjoints import (GF, QQ, Flat, Hypergraph, HyperplaneFamily,
                     JointsConfiguration, SimpleHypergraph, WitnessTuple,
                     axis_parallel_from_functions,
                     axis_parallel_pattern, cone_pattern, detect_joints,
                     enumerate_witness_tuples, generic_hyperplanes,
                     generically_induced, intersect_flats,
                     projected_generically_induced, witness_check)
from hjoints.errors import (BudgetExceeded, DimensionMismatch,
                            PointNotOnFlat, SizeMismatch)
from hjoints.geometry import candidate_points_from_flats, has_witness_tuple
from hjoints import geometry, linalg
from test_kernels import ref_det, ref_nullspace

F = GF()
ORACLE_FIELDS = [GF(2), GF(3), GF(7), F, QQ]
K3 = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))
C5 = Hypergraph.cycle(5)


def fl(base, dirs, field=F, d=None):
    d = d if d is not None else len(base)
    return Flat(field, d, tuple(field.from_int(x) for x in base),
                [tuple(field.from_int(x) for x in row) for row in dirs])


def line(base, direction, field=F):
    return fl(base, [direction], field=field)


def test_canonicalization_idempotent_and_equal():
    a = fl((1, 2, 3), [(1, 1, 0), (0, 0, 1)])
    b = fl((1, 2, 7), [(2, 2, 0), (1, 1, 5)])  # same plane, messier data
    assert a == b
    assert hash(a) == hash(b)
    c = Flat(a.field, a.d, a.base, a.dirs)  # canonical(canonical) = canonical
    assert c.base == a.base and c.dirs == a.dirs


def _point_at(flat, coords):
    """The point of `flat` with the given chart coordinates."""
    f = flat.field
    out = list(flat.base)
    for t, row in zip(coords, flat.dirs):
        out = [f.add(x, f.mul(t, r)) for x, r in zip(out, row)]
    return tuple(out)


def test_contains_and_chart_coords():
    plane = fl((0, 0, 5), [(1, 0, 0), (0, 1, 0)])
    assert plane.contains((F.from_int(3), F.from_int(9), F.from_int(5)))
    assert not plane.contains((F.from_int(0), F.from_int(0), F.from_int(4)))
    coords = plane.coords_of_point((F.from_int(3), F.from_int(9), F.from_int(5)))
    assert _point_at(plane, coords) == (3, 9, 5)


def _reduced_contains(flat, point):
    """Membership by reducing point - base against the canonical directions:
    the oracle for the equation test of Flat.contains."""
    f = flat.field
    v = list(linalg.vec_sub(point, flat.base, f))
    for row, c in zip(flat.dirs, flat._pivots):
        if not f.is_zero(v[c]):
            v = f.sub_scaled_row(v, v[c], row)
    return all(f.is_zero(a) for a in v)


CONTAINS_FIELDS = {"Q": QQ, "GF7": GF(7), "GF61": F}


@pytest.mark.parametrize("name", sorted(CONTAINS_FIELDS))
@seed(2414)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_contains_matches_reduction(name, data):
    # flats of every dimension 0..d (the full space included, which has no
    # equations), points on them, points moved off them and random points
    field = CONTAINS_FIELDS[name]
    d = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, d))
    scalar = st.integers(-3, 3) if field is QQ else st.integers(0, 6)

    def vec():
        return tuple(field.from_int(x) for x in data.draw(
            st.lists(scalar, min_size=d, max_size=d)))

    if k == d:
        dirs = linalg.identity_rows(d, field)
    else:
        dirs = [vec() for _ in range(k)]
    flat = Flat(field, d, vec(), dirs)
    on = _point_at(flat, [field.from_int(data.draw(scalar))
                          for _ in range(flat.dim)])
    # a unit vector at a column without a pivot leaves the direction space
    free = [c for c in range(d) if c not in flat._pivots]
    j = data.draw(st.sampled_from(free)) if free else 0
    off = on[:j] + (field.add(on[j], field.one),) + on[j + 1:]
    for point in (on, off, vec()):
        assert flat.contains(point) == _reduced_contains(flat, point)
    assert flat.contains(on)
    assert flat.contains(off) == (not free)


def test_intersect_two_hyperplanes_is_line():
    h1 = fl((0, 0, 0), [(1, 0, 0), (0, 1, 0)])  # z = 0
    h2 = fl((0, 0, 0), [(1, 0, 0), (0, 0, 1)])  # y = 0
    inter = intersect_flats([h1, h2])
    assert inter is not None and inter.dim == 1
    assert inter == line((0, 0, 0), (1, 0, 0))


def test_intersect_parallel_hyperplanes_empty():
    h1 = fl((0, 0, 0), [(1, 0, 0), (0, 1, 0)])
    h2 = fl((0, 0, 1), [(1, 0, 0), (0, 1, 0)])
    assert intersect_flats([h1, h2]) is None


def test_intersect_coordinate_planes_gives_axis():
    x0 = fl((0, 0, 0), [(0, 1, 0), (0, 0, 1)])  # x = 0
    y0 = fl((0, 0, 0), [(1, 0, 0), (0, 0, 1)])  # y = 0
    inter = intersect_flats([x0, y0])
    assert inter == line((0, 0, 0), (0, 0, 1))


def _small_vectors(data, field, d, count):
    return [tuple(field.from_int(x) for x in data.draw(
                st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
            for _ in range(count)]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@seed(2415)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_annihilator_read_off_the_flat_matches_nullspace(field, data):
    # flats of every dimension 0..d; the full space, which has no
    # equations, leaves any flat unchanged under intersection
    d = data.draw(st.integers(1, 5))
    base, *dirs = _small_vectors(data, field, d, 1 + data.draw(
        st.integers(0, d + 1)))
    flat = Flat(field, d, base, dirs)
    assert flat.direction_annihilator() == linalg.nullspace(
        list(flat.dirs), field, d)
    full = Flat(field, d, base, linalg.identity_rows(d, field))
    assert full.direction_annihilator() == []
    assert intersect_flats([full, flat]) == intersect_flats([flat]) == flat


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@seed(2416)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_family_intersection_matches_intersect_flats(field, data):
    # uncertified families over every field, so parallel and dependent
    # hyperplanes come up; each hyperplane is built from a point on it and
    # the reference nullspace of its normal
    D = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 5))
    normals = [n for n in _small_vectors(data, field, D, m)
               if any(not field.is_zero(a) for a in n)]
    assume(normals)
    offsets = [v for v, in _small_vectors(data, field, 1, len(normals))]
    family = HyperplaneFamily(field, D, tuple(normals), tuple(offsets),
                              "none")
    hyperplanes = []
    for n, o in zip(normals, offsets):
        c = next(c for c, a in enumerate(n) if not field.is_zero(a))
        base = [field.zero] * D
        base[c] = field.mul(o, field.inv(n[c]))
        hyperplanes.append(Flat(field, D, base, ref_nullspace([n], field, D)))
    labels = data.draw(st.lists(st.integers(0, len(normals) - 1),
                                min_size=1, max_size=4))
    assert family.intersection(labels) == intersect_flats(
        [hyperplanes[i] for i in labels])


def test_witness_three_concurrent_independent_lines():
    p = (F.zero, F.zero, F.zero)
    flats = (line((0, 0, 0), (1, 0, 0)),
             line((0, 0, 0), (0, 1, 0)),
             line((0, 0, 0), (1, 1, 1)))
    # oracle: det[(1,0,0),(0,1,0),(1,1,1)] = 1, so a witness must exist
    wit = witness_check(K3, p, flats)
    assert wit is not None
    matrix = [list(col) for col in zip(*wit.columns)]
    assert not F.is_zero(ref_det(matrix, F))


def test_witness_coplanar_lines_rejected():
    p = (F.zero, F.zero, F.zero)
    flats = (line((0, 0, 0), (1, 0, 0)),
             line((0, 0, 0), (0, 1, 0)),
             line((0, 0, 0), (1, 1, 0)))
    # determinant is identically zero: any v_j assignment is coplanar
    assert witness_check(K3, p, flats) is None


def _transversal_det_poly_nonzero(spaces, d, field) -> bool:
    """Exact existence test: is det(sum_t c_{j,t} basis_j[t])_{j} nonzero
    as a polynomial in the c variables? Subset DP over rows; monomials are
    one basis choice per column, so the state stays small for slim spaces.
    """
    full = (1 << d) - 1
    # dp maps row-subset -> {monomial(tuple of t per processed column): coeff}
    dp = {0: {(): field.one}}
    for col in range(d):
        basis = spaces[col]
        if not basis:
            return False
        ndp: dict[int, dict[tuple, object]] = {}
        for subset, poly in dp.items():
            for i in range(d):
                bit = 1 << i
                if subset & bit:
                    continue
                # sign: parity of rows below i already used
                sign_flips = bin(subset >> (i + 1)).count("1")
                for t, vec in enumerate(basis):
                    entry = vec[i]
                    if field.is_zero(entry):
                        continue
                    if sign_flips % 2:
                        entry = field.neg(entry)
                    tgt = ndp.setdefault(subset | bit, {})
                    for mono, coeff in poly.items():
                        key = mono + (t,)
                        val = field.mul(coeff, entry)
                        if key in tgt:
                            tgt[key] = field.add(tgt[key], val)
                        else:
                            tgt[key] = val
        dp = {s: {m: c for m, c in poly.items() if not field.is_zero(c)}
              for s, poly in ndp.items()}
        dp = {s: poly for s, poly in dp.items() if poly}
        if not dp:
            return False
    return bool(dp.get(full))



@st.composite
def subspace_families(draw):
    """(field, d, W_1..W_d): each W_j a basis drawn from a small pool of
    spaces, so spaces repeat; entries in {0, 1, 2} make dependencies
    common over every field."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    d = draw(st.integers(1, 5))
    pool = []
    for _ in range(draw(st.integers(1, d))):
        rows = [tuple(field.from_int(x) for x in draw(
                    st.lists(st.integers(0, 2), min_size=d, max_size=d)))
                for _ in range(draw(st.integers(0, d)))]
        pool.append(linalg.rref(rows, field, d)[0] if rows else [])
    return field, d, [draw(st.sampled_from(pool)) for _ in range(d)]


def _unit_rows(field, d, *indices):
    return [tuple(field.one if k == i else field.zero for k in range(d))
            for i in indices]


@seed(8808)
@settings(max_examples=300, deadline=None)
@given(family=subspace_families())
@example(family=(GF(3), 4, [_unit_rows(GF(3), 4, 0, 1)] * 3
                 + [_unit_rows(GF(3), 4, 2, 3)]))
@example(family=(QQ, 5, [_unit_rows(QQ, 5, 0, 1, 2)] * 4
                 + [_unit_rows(QQ, 5, 3, 4)]))
def test_rado_condition_matches_symbolic_determinant(family):
    # the examples span F^d with every W_j nonzero, yet a group of vertices
    # shares a space too small for it: the spanning filter passes them and
    # only the grouped rank condition can reject them
    field, d, spaces = family
    spans = all(spaces) and linalg.rank(
        [row for basis in spaces for row in basis], field) == d
    want = _transversal_det_poly_nonzero(spaces, d, field)
    event(f"spans={spans}, transversal={want}")
    assert geometry._has_transversal(spaces, d, field) is want


@st.composite
def direct_sums(draw):
    """(field, d, W_1..W_d, groups): vertex groups of sizes 1-3, not
    necessarily adjacent, each sharing the span of its own rows of an
    invertible matrix, so the W_j form a direct sum of F^d with dim W_j
    equal to the group's size."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    d = sum(sizes)
    rows = [tuple(field.from_int(x) for x in draw(
                st.lists(st.integers(0, 2), min_size=d, max_size=d)))
            for _ in range(d)]
    basis = []  # the independent drawn rows, completed by unit rows
    for row in rows + _unit_rows(field, d, *range(d)):
        if linalg.rank(basis + [row], field) > len(basis):
            basis.append(row)
    order = draw(st.permutations(range(d)))
    spaces, groups, start = [None] * d, [], 0
    for size in sizes:
        group = sorted(order[start:start + size])
        for j in group:
            spaces[j] = basis[start:start + size]
        groups.append(group)
        start += size
    return field, d, spaces, groups


@seed(8809)
@settings(max_examples=300, deadline=None)
@given(family=direct_sums().filter(
           lambda family: len(family[3]) > 1 and family[1] <= 6),
       rng_seed=st.integers(0, 1 << 16))
def test_direct_sum_witness_is_the_stacked_bases(family, rng_seed):
    # one edge per group, holding every other vertex: each group's vertices
    # avoid only their own edge, whose flat has the group's W as directions;
    # d <= 6, as in K3 and the 2-flats pattern, since ref_det expands d! terms
    field, d, spaces, groups = family
    point = tuple(field.from_int(x) for x in range(d))
    h = Hypergraph(d, tuple(tuple(j + 1 for j in range(d) if j not in g)
                            for g in groups), (1,) * len(groups))
    flats = [Flat(field, d, point, spaces[g[0]]) for g in groups]
    # a direct-sum leaf draws nothing, so the walk never makes its rng
    with mock.patch.object(geometry.random, "Random",
                           side_effect=AssertionError("rng made")):
        [wt] = geometry._walk(h, point, field, [[(0, f)] for f in flats],
                              rng_seed, geometry._SpanMemo(field, d))
    want = [None] * d
    for g, f in zip(groups, flats):
        for j, row in zip(g, f.direction_basis()):
            want[j] = row
    assert wt.witness == geometry.Witness(point, tuple(want))
    assert not field.is_zero(ref_det(list(wt.witness.columns), field))
    for j, v in enumerate(wt.witness.columns):
        assert linalg.rank(spaces[j] + [v], field) == len(spaces[j])


@pytest.mark.parametrize("field", [QQ, F], ids=["Q", "GF"])
@pytest.mark.parametrize("case", ["K3-K6", "C5", "cone-K6"])
def test_witnesses_read_out_of_order_match_uncached_loop(case, field):
    # a witness is fixed when the walk yields it: reading backwards at one
    # point, or alternating between two points, reads the uncached loop's
    h, cfg, points = _memo_fixture(case, field)
    first, second = points[0], points[-1]
    backwards = enumerate_witness_tuples(h, first, cfg, seed=3)
    assert all(wt.witness is not None for wt in reversed(backwards))
    assert backwards == _uncached_tuples(h, first, cfg, 3)
    a = enumerate_witness_tuples(h, first, cfg, seed=4)
    b = enumerate_witness_tuples(h, second, cfg, seed=5)
    for i in range(max(len(a), len(b))):
        for tuples in (b, a):
            if i < len(tuples):
                assert tuples[i].witness is not None
    assert a == _uncached_tuples(h, first, cfg, 4)
    assert b == _uncached_tuples(h, second, cfg, 5)


@seed(8810)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_span_extend_matches_rref(data):
    # the rank _Span.extend returns, and the span it keeps, against rref
    # of the stacked rows, with the need below and above the rank
    field = data.draw(st.sampled_from(ORACLE_FIELDS))
    d = data.draw(st.integers(1, 6))
    vec = st.lists(st.integers(0, 2), min_size=d, max_size=d).map(
        lambda xs: tuple(field.from_int(x) for x in xs))
    first = data.draw(st.lists(vec, max_size=d))
    second = data.draw(st.lists(vec, max_size=3))
    need = data.draw(st.integers(-1, d))

    def check(got, rows, need):
        red, pivots = linalg.rref(rows, field, d)
        if len(pivots) < need:
            assert got == len(pivots)
        elif len(pivots) == d:
            assert got.pivots == tuple(range(d)) and not got.free
        else:
            assert sorted(zip(got.pivots, map(tuple, got.rows))) == list(
                zip(pivots, red))
        return len(pivots)

    span = geometry._Span((), [], d).extend(first, 0, field)
    check(span, first, 0)
    rank = check(span.extend(second, need, field), first + second, need)
    event(f"need {'<=' if need <= rank else '>'} rank, "
          f"{'full' if rank == d else 'kept' if need <= rank else 'short'}")


@seed(8811)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_span_memo_matches_rref(data):
    # chains of extensions by a pool of bases, each basis under one key as
    # a flat set's W is, at drawn needs, so chains meet again at one span
    # and ask a short rank again at a smaller need: an id comes back
    # exactly when the rank meets the need, its span is the rref of the
    # stacked rows, and equal spans share one id
    field = data.draw(st.sampled_from(ORACLE_FIELDS))
    d = data.draw(st.integers(1, 5))
    vec = st.lists(st.integers(0, 2), min_size=d, max_size=d).map(
        lambda xs: tuple(field.from_int(x) for x in xs))
    pool = data.draw(st.lists(st.lists(vec, max_size=3), min_size=1,
                              max_size=4))
    memo = geometry._SpanMemo(field, d)
    ids = {}  # rref rows -> id
    for _ in range(data.draw(st.integers(1, 8))):
        sid, rows = memo.zero, []
        for key in data.draw(st.lists(st.integers(0, len(pool) - 1),
                                      min_size=1, max_size=3)):
            need = data.draw(st.integers(0, d))
            rows = rows + pool[key]
            red, pivots = linalg.rref(rows, field, d)
            got = memo.extend(sid, key, pool[key], need)
            # a short rank comes back as ~rank, or as the id of a span kept
            # for this key at a smaller need
            assert (~got if got < 0 else memo.ranks[got]) == len(pivots)
            if len(pivots) < need:
                break
            assert got >= 0
            span = memo.spans[got]
            if len(pivots) < d:
                assert span.pivots == tuple(pivots)
                assert span.rows == tuple(red)
            assert ids.setdefault(tuple(red), got) == got
            sid = got


STAR = Hypergraph(3, ((1, 2), (1, 3)), (1, 1))  # vertex 1 in every edge


@pytest.mark.parametrize("field", [QQ, F], ids=["Q", "GF"])
@seed(5518)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_shared_span_memo_matches_uncached_loop(field, data):
    # the span memo lives on the configuration and outlives each walk: on a
    # fresh copy, every point under K3 and under STAR, whose walk starts
    # from F^d and whose leaves draw, in a drawn order, must read the
    # uncached loop's tuples, witnesses and draws included
    _, stored, points = _memo_fixture("K3-K6", field)
    cfg = JointsConfiguration.from_dict(stored.to_dict())
    visits = data.draw(st.permutations(
        [(h, point) for h in (K3, STAR) for point in points]))
    for h, point in visits:
        rng_seed = data.draw(st.integers(0, 1 << 16))
        assert enumerate_witness_tuples(h, point, cfg, seed=rng_seed) == \
            _uncached_tuples(h, point, cfg, rng_seed)
    # witness_check keeps a memo of its own, whatever the configuration's
    h, point = visits[0]
    flats = [data.draw(st.sampled_from(
        [fl for fl in cfg.classes[c - 1] if fl.contains(point)]))
        for c in h.colors]
    assert witness_check(h, point, flats, seed=7) == _oracle_witness(
        h, point, flats, random.Random(7))


def test_shared_span_memo_extends_each_span_once():
    # the 2-flats pattern over K7 at seed 0: a memo per walk made 3,465
    # _Span.extend calls over the 7 points; shared, it makes about one per
    # distinct (span, flat set)
    cfg = generically_induced(SimpleHypergraph.complete(7, 4), JOINTS6,
                              generic_hyperplanes(7, 6, seed=0))
    calls = []
    extend = geometry._Span.extend

    def counted(self, *args):
        calls.append(None)
        return extend(self, *args)

    with mock.patch.object(geometry._Span, "extend", counted):
        counts = [len(cfg.tuples_at(JOINTS6, i))
                  for i in range(len(cfg.points))]
    assert counts == [90] * 7
    assert len(calls) <= 1300


def test_witness_validation_errors():
    p = (F.zero, F.zero, F.zero)
    plane = fl((0, 0, 0), [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(DimensionMismatch):
        witness_check(K3, p, (plane,) * 3)
    off = line((0, 0, 1), (1, 0, 0))
    good = line((0, 0, 0), (0, 1, 0))
    with pytest.raises(PointNotOnFlat):
        witness_check(K3, p, (off, good, good))


def _random_affine(rng, d, field):
    while True:
        m = [[field.rand(rng) for _ in range(d)] for _ in range(d)]
        if not field.is_zero(ref_det(m, field)):
            shift = tuple(field.rand(rng) for _ in range(d))
            return m, shift


def _apply_affine(m, shift, flat):
    field = flat.field
    nb = tuple(field.add(a, b)
               for a, b in zip(linalg.mat_vec(m, flat.base, field), shift))
    nd = [linalg.mat_vec(m, row, field) for row in flat.dirs]
    return Flat(field, flat.d, nb, nd)


def test_witness_invariant_under_affine_maps():
    rng = random.Random(2)
    p = (F.zero, F.zero, F.zero)
    yes = (line((0, 0, 0), (1, 0, 0)), line((0, 0, 0), (0, 1, 0)),
           line((0, 0, 0), (1, 1, 1)))
    no = (line((0, 0, 0), (1, 0, 0)), line((0, 0, 0), (0, 1, 0)),
          line((0, 0, 0), (1, 1, 0)))
    for flats, expect in ((yes, True), (no, False)):
        for _ in range(4):
            m, shift = _random_affine(rng, 3, F)
            q = tuple(F.add(a, b) for a, b in zip(linalg.mat_vec(m, p, F), shift))
            moved = tuple(_apply_affine(m, shift, flp) for flp in flats)
            got = witness_check(K3, q, moved) is not None
            assert got is expect


def test_joints_of_flats_direct_criterion_agreement():
    # pattern whose edge complements partition [6]: witness iff the three
    # 2-flats pass through p, dims sum to 6, and their directions span
    h = Hypergraph(6, ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)), (1, 1, 1))
    rng = random.Random(9)
    for trial in range(6):
        m, shift = _random_affine(rng, 6, F)
        p = tuple(shift)
        spans = [((0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)),
                 ((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)),
                 ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))]
        if trial % 2 == 0:
            flats = [
                _apply_affine(m, shift, fl((0,) * 6, rows)) for rows in spans]
            expect = True
        else:
            # degenerate: all three inside one hyperplane
            degen = [((0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)),
                     ((0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
                     ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))]
            flats = [
                _apply_affine(m, shift, fl((0,) * 6, rows)) for rows in degen]
            expect = False
        got = witness_check(h, p, flats) is not None
        # direct criterion
        stacked = [row for flp in flats for row in flp.dirs]
        direct = (all(flp.contains(p) for flp in flats)
                  and sum(flp.dim for flp in flats) == 6
                  and linalg.rank(stacked, F) == 6)
        assert got is direct is expect


def test_five_cycle_witness_and_equivalent_condition():
    rng = random.Random(4)
    m, shift = _random_affine(rng, 5, F)
    p = tuple(shift)
    flats = []
    for e in C5.edges:
        rows = [tuple(F.one if k == j - 1 else F.zero for k in range(5))
                for j in range(1, 6) if j not in e]
        flats.append(_apply_affine(m, shift, fl((0,) * 5, rows)))
    assert witness_check(C5, p, flats) is not None
    # second oracle: F_i cap F_{i+2} is a line inside F_{i+1}, and the five
    # lines are linearly independent (indices along the cycle order)
    cyc = {}
    for idx, e in enumerate(C5.edges):
        lo, hi = e
        pos = lo if (lo % 5) + 1 == hi else hi  # edge {i, i+1} -> i
        cyc[pos] = flats[idx]
    directions = []
    for i in range(1, 6):
        a = cyc[i]
        b = cyc[(i + 1) % 5 + 1]  # i+2 with wraparound
        mid = cyc[i % 5 + 1]
        inter = intersect_flats([a, b])
        assert inter is not None and inter.dim == 1
        assert all(mid.contains(_point_at(inter, (t,)))
                   for t in (F.one, F.from_int(7)))
        directions.append(inter.dirs[0])
    assert linalg.rank(directions, F) == 5


def _axis_config(a, b):
    from hjoints import axis_parallel_from_functions
    f1 = {(0,): a}
    f2 = {(0,): b}
    return axis_parallel_from_functions(2, [(1,), (2,)], [f1, f2], 1)


def test_enumerate_tuples_counts_multiset_copies():
    from hjoints import axis_parallel_pattern
    h = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = _axis_config(2, 2)
    assert cfg.class_sizes() == (2, 2)
    tuples = enumerate_witness_tuples(h, cfg.points[0], cfg)
    assert len(tuples) == 4  # 2 x 2 instance combinations, all witnesses


def test_enumerate_tuples_simple_and_empty():
    from hjoints import axis_parallel_pattern
    h = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = _axis_config(1, 1)
    assert len(enumerate_witness_tuples(h, cfg.points[0], cfg)) == 1
    off_point = (F.from_int(5), F.from_int(5))
    assert enumerate_witness_tuples(h, off_point, cfg) == []


def test_loomis_whitney_axis_joints_found_at_every_seed():
    # over GF(3) each W_j is a line, so a random transversal is invertible
    # with probability (2/3)^3 and eight draws all miss with probability
    # about 0.06 per point: sampling alone drops joints at some seeds
    from hjoints import axis_parallel_from_functions, axis_parallel_pattern
    subsets = [(2, 3), (1, 3), (1, 2)]
    ones = {v: 1 for v in itertools.product(range(2), repeat=2)}
    cfg = axis_parallel_from_functions(3, subsets, [ones] * 3, 2, field=GF(3))
    h = axis_parallel_pattern(3, subsets)
    assert len(cfg.points) == 8
    assert detect_joints(h, cfg, list(cfg.points)) == sorted(cfg.points)
    for rng_seed in range(20):
        assert all(enumerate_witness_tuples(h, p, cfg, seed=rng_seed)
                   for p in cfg.points), rng_seed


def test_detect_joints_axis_grid():
    from hjoints import axis_parallel_from_functions, axis_parallel_pattern
    h = axis_parallel_pattern(2, [(1,), (2,)])
    ones = {(v,): 1 for v in range(2)}
    cfg = axis_parallel_from_functions(2, [(1,), (2,)], [ones, ones], 2)
    # candidates auto-generated from flat intersections
    joints = detect_joints(h, cfg)
    assert len(joints) == 4
    assert set(joints) == set(cfg.points)


@pytest.mark.parametrize("data", [
    {"basepoint": [0, 0], "directions": [[1, 0, 0]]},
    {"basepoint": [0, 0, 0, 0], "directions": []},
    {"basepoint": [0, 0, 0], "directions": [[1, 0]]},
], ids=["short-base", "long-base", "short-direction"])
def test_flat_from_dict_rejects_wrong_lengths(data):
    with pytest.raises(SizeMismatch):
        Flat.from_dict(F, 3, data)


JOINTS6 = Hypergraph(6, ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)), (1, 1, 1))
LW_SUBSETS = [(1, 2), (2, 3), (1, 3)]
FOUR_COLOUR_SUBSETS = [(1,), (2, 3), (3, 4), (1, 2, 4)]


@functools.cache
def _memo_fixture(case, field):
    """(pattern, configuration, points to test)."""
    if case == "joints-K7":
        cfg = generically_induced(SimpleHypergraph.complete(7, 4), JOINTS6,
                                  generic_hyperplanes(7, 6, field=field))
        return JOINTS6, cfg, cfg.points
    if case == "cone-K6":  # the apex lies in every edge: W = F^d for it
        h = cone_pattern(3, 1)
        cfg = generically_induced(SimpleHypergraph.complete(6, 3), h,
                                  generic_hyperplanes(6, 4, field=field))
        # candidate_points_from_flats returns exactly these 15 points
        return h, cfg, cfg.points
    if case == "C5":  # one class, so a flat is a candidate for every edge
        host = SimpleHypergraph.from_sets(5, [(1, 2), (2, 3), (3, 4), (4, 5),
                                              (1, 5), (1, 3)])
        cfg = generically_induced(host, C5, generic_hyperplanes(5, 5, field=field))
        return C5, cfg, cfg.points
    if case == "projected-K5":
        cfg = projected_generically_induced(
            SimpleHypergraph.complete(5, 3), K3, 1,
            generic_hyperplanes(5, 4, field=field))
        return K3, cfg, candidate_points_from_flats(cfg)
    m = int(case[-1])
    cfg = generically_induced(SimpleHypergraph.complete(m, 2), K3,
                              generic_hyperplanes(m, 3, field=field))
    return K3, cfg, candidate_points_from_flats(cfg)


def _oracle_witness(h, point, flats, rng, meets=None):
    """The witness core from scratch for one assignment: each W_j as the
    nullspace of the direction annihilators of the flats on edges avoiding
    j, and the stacked-rank spanning filter. Where every group of vertices
    with the same avoiding edges has a W of the group's size, the witness
    is the stacked bases, row i of the W for the group's i-th vertex;
    otherwise the draws and, when all of them are singular, Rado's
    condition. meets, when given, keeps each W across calls, keyed on the
    ordered flats whose rows it is the nullspace of: a function of its key,
    so keeping it changes no result."""
    d, field = h.d, flats[0].field
    meets = {} if meets is None else meets
    spaces, groups = [], {}
    for j in range(1, d + 1):
        key = tuple(flats[i] for i, e in enumerate(h.edges) if j not in e)
        if key not in meets:
            rows = [row for fl in key for row in fl.direction_annihilator()]
            meets[key] = (linalg.nullspace(rows, field, d) if rows
                          else linalg.identity_rows(d, field))
        spaces.append(meets[key])
        groups.setdefault(tuple(i for i, e in enumerate(h.edges)
                                if j not in e), []).append(j - 1)
    if not all(spaces) or linalg.rank(
            [row for basis in spaces for row in basis], field) < d:
        return None
    if all(len(spaces[g[0]]) == len(g) for g in groups.values()):
        cols = [None] * d
        for g in groups.values():
            for i, j in enumerate(g):
                cols[j] = spaces[j][i]
        return geometry.Witness(tuple(point), tuple(cols))
    wit = geometry._sample_witness(point, spaces, d, field, rng)
    if wit is None and geometry._has_transversal(spaces, d, field):
        while wit is None:
            wit = geometry._sample_witness(point, spaces, d, field, rng)
    return wit


def _uncached_tuples(h, point, cfg, seed):
    """The enumeration as one loop over every assignment in product order:
    identical flat tuples checked once, one rng throughout."""
    candidates = [[k for k, fl in enumerate(cfg.classes[c - 1]) if fl.contains(point)]
                  for c in h.colors]
    rng = random.Random(seed)
    checked, meets, out = {}, {}, []
    for assignment in itertools.product(*candidates):
        flats = tuple(cfg.classes[c - 1][k] for c, k in zip(h.colors, assignment))
        if flats not in checked:
            checked[flats] = _oracle_witness(h, point, flats, rng, meets)
        if checked[flats] is not None:
            out.append(WitnessTuple(assignment, flats, checked[flats]))
    return out


def _check_against_uncached_loop(h, cfg, points, data):
    # the depth-first walk prunes partial assignments that cannot span;
    # witnesses, rng draws included, must equal the per-assignment loop's,
    # and witness_check must equal the oracle on one assignment. Walks just
    # before, at drawn points (the same one too) and seeds, share the
    # configuration's span memo and must not change what the walk reads
    if not points:
        return
    index = st.integers(0, len(points) - 1)
    for before in data.draw(st.lists(index, min_size=1, max_size=2)):
        enumerate_witness_tuples(h, points[before], cfg,
                                 seed=data.draw(st.integers(0, 1 << 16)))
    point = points[data.draw(index)]
    rng_seed = data.draw(st.integers(0, 1 << 16))
    want = _uncached_tuples(h, point, cfg, rng_seed)
    event(f"tuples={len(want) > 0}")
    assert enumerate_witness_tuples(h, point, cfg, seed=rng_seed) == want
    assert has_witness_tuple(h, point, cfg) == bool(want)
    candidates = [[fl for fl in cfg.classes[c - 1] if fl.contains(point)]
                  for c in h.colors]
    if all(candidates):
        flats = [data.draw(st.sampled_from(cls)) for cls in candidates]
        assert witness_check(h, point, flats, seed=rng_seed) == _oracle_witness(
            h, point, flats, random.Random(rng_seed))


def _check_case(case, field, data):
    _check_against_uncached_loop(*_memo_fixture(case, field), data)


@pytest.mark.parametrize("field", [QQ, F], ids=["Q", "GF"])
@pytest.mark.parametrize("case", ["K3-K5", "K3-K6"])
@seed(5512)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_k3_enumeration_matches_uncached_loop(case, field, data):
    _check_case(case, field, data)


@pytest.mark.parametrize("field", [QQ, F], ids=["Q", "GF"])
@seed(5513)
@settings(max_examples=1, deadline=None)  # one point: about 5 s over Q
@given(data=st.data())
def test_joints_enumeration_matches_uncached_loop(field, data):
    _check_case("joints-K7", field, data)


@pytest.mark.parametrize("field", [QQ, F], ids=["Q", "GF"])
@seed(5516)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_c5_enumeration_matches_uncached_loop(field, data):
    # the five W_j each meet three flats, so the span memo sees every order
    # of a set of flat sets, and repeats of one flat across edges
    _check_case("C5", field, data)


def test_span_memo_extends_a_short_rank_at_a_smaller_need():
    # vertex 4's group is final at edge 2 (need -3), vertex 1's and vertex
    # 3's at edge 3 (needs 0 and 3) and vertex 2's at edge 4 (need 4); with
    # these planes a set of flat sets first met at vertex 3's group falls
    # short of rank 3 there, and comes back at vertex 1's group, where its
    # rank meets the need: the walk must extend that branch, which holds
    # one of the two tuples, not prune it for the stored rank
    gf7 = GF(7)
    h = Hypergraph(4, ((3,), (2,), (3,), (4,), (1, 3, 4)), (1, 1, 1, 1, 2))
    planes = tuple(fl((0,) * 4, dirs, field=gf7) for dirs in (
        [(1, 0, 0, 4), (0, 1, 0, 5), (0, 0, 1, 0)],
        [(1, 0, 0, 6), (0, 1, 0, 5), (0, 0, 1, 4)],
        [(1, 0, 5, 0), (0, 1, 4, 0), (0, 0, 0, 1)]))
    cfg = JointsConfiguration(gf7, 4, (3, 1),
                              (planes, (fl((0,) * 4, [(1, 6, 3, 6)], field=gf7),)),
                              ((gf7.zero,) * 4,))
    point = cfg.points[0]
    want = _uncached_tuples(h, point, cfg, 0)
    assert len(want) == 2
    assert enumerate_witness_tuples(h, point, cfg, seed=0) == want


@pytest.mark.parametrize("field", [QQ, F], ids=["Q", "GF"])
@pytest.mark.parametrize("case", ["cone-K6", "projected-K5"])
@seed(5514)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_cone_and_projected_enumeration_match_uncached_loop(case, field, data):
    _check_case(case, field, data)


@pytest.mark.parametrize("field", [QQ, F, GF(7)], ids=["Q", "GF", "GF7"])
@pytest.mark.parametrize("subsets", [LW_SUBSETS, FOUR_COLOUR_SUBSETS],
                         ids=["LW", "four-colour"])
@seed(5515)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_axis_enumeration_matches_uncached_loop(subsets, field, data):
    # multiplicities 0-2 give duplicate flats and empty fibres; in the
    # four-colour pattern the groups of vertices with equal avoiding sets
    # are final at edges 1, 2 and 3, and every vertex avoids two edges
    d = max(max(I) for I in subsets)
    functions = [{v: data.draw(st.integers(0, 2))
                  for v in itertools.product(range(2), repeat=len(I))}
                 for I in subsets]
    cfg = axis_parallel_from_functions(d, subsets, functions, 2, field=field)
    _check_against_uncached_loop(axis_parallel_pattern(d, subsets), cfg,
                                 candidate_points_from_flats(cfg), data)


@pytest.mark.parametrize("case", ["K3-K5", "C5"])
def test_enumeration_leaves_nothing_for_the_collector(case):
    # the walk's state lives in its generator's frame, not in a closure
    # that refers to itself, so it is freed when the walk ends, whether the
    # walk ran out or was dropped after its first witness
    h, cfg, points = _memo_fixture(case, F)
    flats = [next(fl for fl in cfg.classes[c - 1] if fl.contains(points[0]))
             for c in h.colors]
    gc.collect()
    gc.disable()
    try:
        for point in points:
            enumerate_witness_tuples(h, point, cfg, seed=1)
            has_witness_tuple(h, point, cfg)
        witness_check(h, points[0], flats, seed=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dimension_mismatch_raised_at_every_point():
    # K3 asks for lines; against planes it must raise whether or not the
    # point lies on a flat of the class
    plane = fl((0, 0, 0), [(1, 0, 0), (0, 1, 0)])  # z = 0
    cfg = JointsConfiguration(F, 3, (2,), ((plane,),), ((F.zero,) * 3,))
    for point in ((0, 0, 0), (0, 0, 5)):
        point = tuple(F.from_int(x) for x in point)
        with pytest.raises(DimensionMismatch):
            enumerate_witness_tuples(K3, point, cfg)
        with pytest.raises(DimensionMismatch):
            has_witness_tuple(K3, point, cfg)


def test_pattern_of_another_dimension_is_rejected():
    # K3 lives in F^3, the cone's configuration holds lines of F^4: the
    # walk read their 4-vectors in 3 coordinates and gave 24 tuples at a
    # point, and a span memo kept for F^4 would mix the two
    _, cfg, points = _memo_fixture("cone-K6", F)
    with pytest.raises(SizeMismatch, match="d = 3, configuration d = 4"):
        enumerate_witness_tuples(K3, points[0], cfg)
    with pytest.raises(SizeMismatch):
        has_witness_tuple(K3, points[0], cfg)


# ---------------------------------------------------------------------------
# candidate points against the per-subset loop
# ---------------------------------------------------------------------------

def _oracle_candidate_points(config):
    """Every subset of 2..d distinct flats intersected from scratch, in
    order of size then lexicographically; (points, intersections made)."""
    flats = list(dict.fromkeys(f for cls in config.classes for f in cls))
    points, made = [], 0
    for size in range(2, config.d + 1):
        for combo in itertools.combinations(flats, size):
            inter = combo[0]
            for other in combo[1:]:
                inter = intersect_flats([inter, other])
                made += 1
                if inter is None:
                    break
            if inter is not None and inter.dim == 0 and inter.base not in points:
                points.append(inter.base)
    return points, made


def _check_candidates(config):
    want, made = _oracle_candidate_points(config)
    assert candidate_points_from_flats(config) == want
    # the budget counts intersections; pruning never makes more than the loop
    assert candidate_points_from_flats(config, budget=made) == want
    if made:
        with pytest.raises(BudgetExceeded):
            candidate_points_from_flats(config, budget=0)


@pytest.mark.parametrize("field", [QQ, F], ids=["Q", "GF"])
@seed(5516)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_candidate_points_match_subset_loop_on_k3_hosts(field, data):
    m = data.draw(st.integers(3, 6))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=m,
                               max_size=len(pairs), unique=True))
    host = SimpleHypergraph.from_sets(m, edges)
    cfg = generically_induced(
        host, K3, generic_hyperplanes(m, 3, seed=data.draw(st.integers(0, 99)),
                                      field=field))
    event(f"joints={len(cfg.points) > 0}")
    _check_candidates(cfg)


def test_candidate_points_match_subset_loop_on_the_cone():
    cfg = _memo_fixture("cone-K6", F)[1]
    _check_candidates(cfg)
    # 20 lines in F^4: the loop makes 10,057 intersections, the live
    # prefixes 190
    assert len(candidate_points_from_flats(cfg, budget=190)) == 15


@seed(5517)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_candidate_points_with_duplicate_flats_and_a_class_of_points(data):
    # random lines, planes and 0-flats of F^3 over small coordinates, with
    # repeats: duplicates are merged, and a 0-flat is a prefix of size one
    def rand_flat(dim):
        base = [data.draw(st.integers(0, 2)) for _ in range(3)]
        dirs = [[data.draw(st.integers(0, 1)) for _ in range(3)]
                for _ in range(dim)]
        return fl(base, dirs)

    classes = []
    for dim in (0, 1, 2):
        pool = [rand_flat(dim) for _ in range(data.draw(st.integers(1, 3)))]
        cls = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                       max_size=5)))
        classes.append(tuple(f for f in cls if f.dim == dim) or (pool[0],))
    cfg = JointsConfiguration(F, 3, tuple(c[0].dim for c in classes),
                              tuple(classes), ())
    event(f"points={len(_oracle_candidate_points(cfg)[0])}")
    _check_candidates(cfg)


def test_candidate_points_hand_built_class_of_points():
    # two points on the x-axis, the x-axis itself and the plane z = 0: the
    # points come from the size-2 subsets, in subset order
    p, q = fl((1, 0, 0), []), fl((2, 0, 0), [])
    x_axis = line((0, 0, 0), (1, 0, 0))
    plane = fl((0, 0, 0), [(1, 0, 0), (0, 1, 0)])
    cfg = JointsConfiguration(F, 3, (0, 1, 2), ((q, p, q), (x_axis,), (plane,)),
                              ())
    want, _ = _oracle_candidate_points(cfg)
    assert want == [q.base, p.base]
    assert candidate_points_from_flats(cfg) == want
