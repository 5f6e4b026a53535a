import itertools

import pytest

from hjoints import (GF, QQ, Hypergraph, SimpleHypergraph,
                     axis_parallel_from_functions, count_inducing_sets,
                     detect_joints, generic_hyperplanes, generically_induced,
                     projected_generically_induced)
from hjoints.errors import (FieldTooSmall, GenericityFailure, NegativeValue,
                            SizeMismatch)

K3 = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))


def test_generic_family_m_equals_d():
    fam = generic_hyperplanes(3, 3, seed=0)
    pt = fam.intersection([0, 1, 2])
    assert pt is not None and pt.dim == 0


def test_generic_family_distinct_triple_points():
    fam = generic_hyperplanes(4, 3, seed=1)
    points = set()
    for combo in itertools.combinations(range(4), 3):
        flp = fam.intersection(list(combo))
        assert flp is not None and flp.dim == 0
        points.add(flp.base)
    assert len(points) == 4
    # no point on four hyperplanes
    assert fam.intersection([0, 1, 2, 3]) is None


def test_generic_family_small_field_exhaustive():
    fam = generic_hyperplanes(5, 3, seed=0, field=GF(7))
    assert fam.certificate == "exhaustive"
    with pytest.raises(FieldTooSmall):
        generic_hyperplanes(7, 3, seed=0, field=GF(7))


def test_generic_family_rational():
    fam = generic_hyperplanes(4, 3, seed=2, field=QQ)
    pt = fam.intersection([0, 1, 2])
    assert pt is not None and pt.dim == 0


def test_generically_induced_k4_k3():
    host = SimpleHypergraph.complete(4, 2)
    fam = generic_hyperplanes(4, 3, seed=0)
    cfg = generically_induced(host, K3, fam)
    assert cfg.class_sizes() == (6,)  # C(4,2) lines
    assert len(cfg.points) == 4       # C(4,3) joints
    assert cfg.provenance == "generic"
    # every claimed joint re-passes a fresh witness check via enumeration
    for idx in range(len(cfg.points)):
        assert cfg.tuples_at(K3, idx)


def test_tuples_at_cache_key_covers_every_input(monkeypatch):
    from hjoints import configs
    cfg = generically_induced(SimpleHypergraph.complete(4, 2), K3,
                              generic_hyperplanes(4, 3, seed=0))
    real = configs.enumerate_witness_tuples
    calls = []

    def counting(h, point, config):
        calls.append(point)
        return real(h, point, config)

    monkeypatch.setattr(configs, "enumerate_witness_tuples", counting)
    first = cfg.tuples_at(K3, 0)
    # an equal hypergraph built separately is the same key
    twin = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))
    assert twin is not K3 and cfg.tuples_at(twin, 0) is first
    assert calls == [cfg.points[0]]
    cfg.tuples_at(K3, 1)
    assert calls == [cfg.points[0], cfg.points[1]]


def test_generically_induced_no_triangle_no_joints():
    host = SimpleHypergraph.from_sets(3, [(1, 2), (2, 3)])
    fam = generic_hyperplanes(3, 3, seed=0)
    cfg = generically_induced(host, K3, fam)
    assert cfg.points == ()


def test_generically_induced_k5_tetrahedra():
    host = SimpleHypergraph.complete(5, 3)
    h = Hypergraph.complete_uniform(4, 3)
    fam = generic_hyperplanes(5, 4, seed=0)
    cfg = generically_induced(host, h, fam)
    assert cfg.class_sizes() == (10,)   # C(5,3) flats
    assert cfg.dims == (1,)             # 4 - 3
    assert len(cfg.points) == 5         # C(5,4)


def test_detect_matches_combinatorics_on_k4():
    host = SimpleHypergraph.complete(4, 2)
    fam = generic_hyperplanes(4, 3, seed=0)
    cfg = generically_induced(host, K3, fam)
    candidates = [fam.intersection(list(c)).base
                  for c in itertools.combinations(range(4), 3)]
    joints = detect_joints(K3, cfg, candidates)
    assert len(joints) == count_inducing_sets(host, K3) == 4


P3 = Hypergraph(3, ((1, 2), (2, 3)), (1, 1))
FLATS6 = Hypergraph(6, ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)), (1, 1, 1))


def test_projected_t0_reduces_to_generic():
    cases = [(K3, SimpleHypergraph.complete(4, 2)),
             (P3, SimpleHypergraph.complete(5, 2)),
             (Hypergraph.cycle(5), SimpleHypergraph.complete(6, 2)),
             (FLATS6, SimpleHypergraph.complete(7, 4))]
    for (pattern, host), field in itertools.product(cases, [GF(), QQ]):
        fam = generic_hyperplanes(host.n, pattern.d, seed=0, field=field)
        direct = generically_induced(host, pattern, fam)
        projected = projected_generically_induced(host, pattern, 0, fam)
        assert projected == direct  # classes, point order and provenance
        assert projected.provenance == "generic"
        assert projected.meta["attempts"] == 1


def test_projected_t1_counts_and_witnesses():
    host = SimpleHypergraph.complete(5, 3)
    fam = generic_hyperplanes(5, 4, seed=3)
    cfg = projected_generically_induced(host, K3, 1, fam, projection_seed=1)
    assert cfg.d == 3
    assert cfg.dims == (1,)
    assert cfg.class_sizes() == (10,)          # C(5,3) host edges
    assert len(cfg.points) == 5                # C(5,4) cone-inducing sets
    for idx in range(len(cfg.points)):
        assert cfg.tuples_at(K3, idx)


def test_projected_counts_preserved_from_upstairs():
    host = SimpleHypergraph.complete(6, 3)
    fam = generic_hyperplanes(6, 4, seed=5)
    cfg = projected_generically_induced(host, K3, 1, fam, projection_seed=0)
    from hjoints.extremal import inducing_sets
    assert len(cfg.points) == len(inducing_sets(host, K3.cone(1)))
    assert cfg.class_sizes() == (20,)


def test_projected_adversarial_zero_matrix():
    host = SimpleHypergraph.complete(4, 3)
    fam = generic_hyperplanes(4, 4, seed=0)
    field = fam.field
    zero = [tuple(field.zero for _ in range(4)) for _ in range(3)]
    with pytest.raises(GenericityFailure, match="not full rank") as info:
        projected_generically_induced(host, K3, 1, fam,
                                      projection_override=zero)
    assert "attempts" not in str(info.value)  # a fixed map is tried once


def test_axis_parallel_grid_and_multiplicity():
    ones = {(v,): 1 for v in range(2)}
    cfg = axis_parallel_from_functions(2, [(1,), (2,)], [ones, ones], 2)
    assert cfg.class_sizes() == (2, 2)
    assert len(cfg.points) == 4
    doubled = axis_parallel_from_functions(2, [(1,), (2,)],
                                           [{(0,): 2}, {(0,): 1}], 2)
    assert doubled.class_sizes() == (2, 1)
    assert doubled.classes[0][0] == doubled.classes[0][1]  # two copies


def test_axis_parallel_diagonal_support():
    # indicator of the diagonal of S^2 via two coordinate projections:
    # joints = support of the product = the full grid where both fibers hit
    s = 3
    diag1 = {(v,): 1 for v in range(s)}
    cfg = axis_parallel_from_functions(2, [(1,), (2,)], [diag1, diag1], s)
    assert len(cfg.points) == s * s
    # now kill one fiber: f1(2) = 0
    f1 = {(0,): 1, (1,): 1}
    cfg2 = axis_parallel_from_functions(2, [(1,), (2,)], [f1, diag1], s)
    assert len(cfg2.points) == 2 * s


def test_axis_parallel_negative_rejected():
    with pytest.raises(NegativeValue):
        axis_parallel_from_functions(2, [(1,), (2,)],
                                     [{(0,): -1}, {(0,): 1}], 1)


def test_config_serialization_roundtrip():
    from hjoints.configs import JointsConfiguration
    host = SimpleHypergraph.complete(4, 2)
    fam = generic_hyperplanes(4, 3, seed=0)
    cfg = generically_induced(host, K3, fam)
    data = cfg.to_dict()
    back = JointsConfiguration.from_dict(data)
    assert back.classes == cfg.classes
    assert back.points == cfg.points
    assert back.d == cfg.d
    data["points"][0] = data["points"][0][:-1]
    with pytest.raises(SizeMismatch, match="points must have length"):
        JointsConfiguration.from_dict(data)
    # a pattern with more colours than the configuration has classes
    rainbow = Hypergraph(3, K3.edges, (1, 2, 3))
    with pytest.raises(SizeMismatch, match="3 colours"):
        detect_joints(rainbow, cfg, list(cfg.points))
