import math
from fractions import Fraction

import pytest

from hjoints import (Hypergraph, Log2Value, WeightFunction, cone,
                     covering_constant, joint_count_bound)
from hjoints.errors import (DuplicateEdge, EmptyColor, MixedUniformity,
                            NotCovering)

K3 = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))


def test_k3_profile():
    profile = K3.validate_uniform_coloring()
    assert profile.edge_sizes == (2,)
    assert profile.flat_dims == (1,)


def test_joints_of_flats_profile():
    h = Hypergraph(6, ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)), (1, 1, 1))
    profile = h.validate_uniform_coloring()
    assert profile.edge_sizes == (4,)
    assert profile.flat_dims == (2,)


def test_mixed_uniformity_rejected():
    h = Hypergraph(4, ((1, 2), (1, 2, 3)), (1, 1))
    with pytest.raises(MixedUniformity):
        h.validate_uniform_coloring()


def test_duplicate_within_color_rejected():
    h = Hypergraph(3, ((1, 2), (1, 2)), (1, 1))
    with pytest.raises(DuplicateEdge):
        h.validate_uniform_coloring()


def test_duplicate_across_colors_allowed():
    h = Hypergraph(3, ((1, 2), (1, 2)), (1, 2))
    profile = h.validate_uniform_coloring()
    assert profile.edge_sizes == (2, 2)


def test_empty_color_flagged():
    h = Hypergraph(3, ((1, 2),), (2,))
    with pytest.raises(EmptyColor):
        h.validate_uniform_coloring()


def test_file_colors_bounded_by_edge_count():
    data = K3.to_dict() | {"colors": [1, 1, 10 ** 30]}
    with pytest.raises(ValueError, match="colors must lie in 1..3"):
        Hypergraph.from_dict(data)


def test_joint_count_bound_zero_and_empty_class_conventions():
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    assert joint_count_bound(K3, w, (4,)) == \
        covering_constant(K3, w).log2 + Log2Value.of_int_log(4, Fraction(3, 2))
    assert joint_count_bound(K3, w, (0,)) is None  # wbar > 0: bound 0
    h = Hypergraph(2, ((1,), (2,), (1,)), (1, 2, 3))
    w0 = WeightFunction.for_hypergraph(h, [1, 1, 0])
    # an empty class of weight 0 contributes 0^0 = 1
    assert joint_count_bound(h, w0, (2, 3, 0)) == \
        joint_count_bound(h, w0, (2, 3, 1))


def test_structural_validation():
    with pytest.raises(ValueError):
        Hypergraph(3, ((1, 2, 3),), (1,))  # size d not allowed
    with pytest.raises(ValueError):
        Hypergraph(3, ((0, 1),), (1,))


def test_cone_zero_is_identity():
    assert cone(K3, 0) is K3


def test_cone_k3_once():
    c = cone(K3, 1)
    assert c.d == 4
    assert c.edges == ((1, 2, 4), (1, 3, 4), (2, 3, 4))
    assert c.colors == (1, 1, 1)
    # every new vertex lies in every edge
    assert all(4 in e for e in c.edges)


def test_cone_k4_tetrahedron():
    k4 = Hypergraph.complete_uniform(4, 3)
    c = cone(k4, 1)
    assert c.d == 5
    assert c.n_edges == 4
    assert all(len(e) == 4 and 5 in e for e in c.edges)
    profile = c.validate_uniform_coloring()
    assert profile.flat_dims == (1,)  # k preserved by coning


def test_cone_preserves_profile_dims():
    h = Hypergraph(4, ((1, 2), (3, 4)), (1, 2))
    p0 = h.validate_uniform_coloring()
    p2 = cone(h, 2).validate_uniform_coloring()
    assert p0.flat_dims == p2.flat_dims
    assert p2.edge_sizes == tuple(s + 2 for s in p0.edge_sizes)


def test_weights_and_subtotals():
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    assert w.total == Fraction(3, 2)
    assert w.subtotals == (Fraction(3, 2),)
    assert w.covering
    h2 = Hypergraph(4, ((1, 2), (3, 4)), (1, 2))
    w2 = WeightFunction.uniform(h2, 1)
    assert w2.subtotals == (Fraction(1), Fraction(1))
    assert w2.total == 2
    # zero-weight edge contributes zero to its subtotal
    w3 = WeightFunction.for_hypergraph(K3, [Fraction(1), Fraction(1), Fraction(0)])
    assert w3.subtotals == (Fraction(2),)


def test_covering_flag():
    assert not WeightFunction.uniform(K3, Fraction(1, 3)).covering
    assert WeightFunction.uniform(K3, Fraction(1, 2)).covering


def test_constant_k3_half_is_sqrt2_over_3():
    # oracle: C = 6^(1/2) * (1/3)^(3/2) = sqrt(2)/3
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    c = covering_constant(K3, w)
    expected = math.sqrt(2) / 3
    assert abs(c.value - expected) < 1e-14
    # 12+ digits through the exact log decomposition
    approx = c.approx(digits=14)
    assert abs(float(approx) - expected) < 1e-13
    # canonical form is 1/2 - log2(3): exactly two prime terms
    terms = dict((p, q) for q, p in c.log2.terms())
    assert terms == {2: Fraction(1, 2), 3: Fraction(-1)}


def test_constant_two_disjoint_edges():
    # d=4, separate colors, w = 1: C = 24 * (1/2)(1/2) * 1 = 6
    h = Hypergraph(4, ((1, 2), (3, 4)), (1, 2))
    w = WeightFunction.uniform(h, 1)
    c = covering_constant(h, w)
    assert (c.log2 - Log2Value.of_int_log(6)).sign() == 0
    assert abs(c.value - 6.0) < 1e-12


def test_constant_zero_weight_convention():
    # K3 plus one duplicate edge in a second color with weight zero:
    # wbar_2 = 0 and (0/0)^0 must contribute 1, keeping C = sqrt(2)/3
    h = Hypergraph(3, ((1, 2), (1, 3), (2, 3), (1, 2)), (1, 1, 1, 2))
    w = WeightFunction.for_hypergraph(
        h, [Fraction(1, 2)] * 3 + [Fraction(0)])
    c = covering_constant(h, w)
    assert abs(c.value - math.sqrt(2) / 3) < 1e-14


def test_constant_requires_covering():
    w = WeightFunction.uniform(K3, Fraction(1, 3))
    with pytest.raises(NotCovering):
        covering_constant(K3, w)


def test_log_decomposition_splits_per_color():
    # sum of per-color terms plus the d!^(|w|-1) term
    h = Hypergraph(4, ((1, 2), (3, 4)), (1, 2))
    w = WeightFunction.uniform(h, 1)
    total = Log2Value.of_factorial_log(4, w.total - 1)
    for c_idx in (0, 1):
        total = total - Log2Value.of_factorial_log(2, w.subtotals[c_idx])
    assert (covering_constant(h, w).log2 - total).sign() == 0


def test_equality_cover_identity():
    # w covering with equality at every vertex: sum wbar_i (d - k_i) = d
    def identity(h, w):
        sizes = h.validate_uniform_coloring().edge_sizes
        return sum(wbar * size for wbar, size in zip(w.subtotals, sizes))

    assert identity(K3, WeightFunction.uniform(K3, Fraction(1, 2))) == 3
    h = Hypergraph(6, ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)), (1, 1, 1))
    assert identity(h, WeightFunction.uniform(h, Fraction(1, 2))) == 6


def test_serialization_roundtrip():
    data = K3.to_dict()
    assert Hypergraph.from_dict(data) == K3
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    assert w.to_dict() == {"weights": ["1/2", "1/2", "1/2"]}
