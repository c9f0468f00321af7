"""Metric-space validation, derived sets, Lipschitz data."""

from fractions import Fraction as F

import pytest

from qiso.metric import (AsymmetricMatrix, NegativeDistance, NonFiniteDistance,
                         NonzeroDiagonal, PairSet, TriangleViolation, ball, level_set,
                         lipschitz_constant, random_metric_space,
                         sublevel_set, validate_metric)
from qiso.errors import DimensionMismatch


THREE = [[F(0), F(1), F(2)], [F(1), F(0), F(2)], [F(2), F(2), F(0)]]


def test_minimal_two_point_space():
    sp = validate_metric([[F(0), F(1)], [F(1), F(0)]])
    assert sp.n == 2 and sp.dist[0][1] == 1


def test_triangle_violation_with_witness():
    with pytest.raises(TriangleViolation) as exc:
        validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]], mode="rational")
    i, j, k = exc.value.witness
    assert {i, k} == {0, 2} and j == 1


def test_valid_three_point_space_exhaustive_oracle():
    sp = validate_metric(THREE)
    # hand oracle: every ordered triple satisfies the triangle inequality
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert sp.dist[i][k] <= sp.dist[i][j] + sp.dist[j][k]


def test_asymmetric_and_diagonal_and_negative_rejected():
    with pytest.raises(AsymmetricMatrix):
        validate_metric([[0, 1], [2, 0]], mode="rational")
    with pytest.raises(NonzeroDiagonal):
        validate_metric([[1, 1], [1, 0]], mode="rational")
    with pytest.raises(NegativeDistance):
        validate_metric([[0, -1], [-1, 0]], mode="rational")
    with pytest.raises(DimensionMismatch):
        validate_metric([[0, 1, 2], [1, 0, 1]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_distance_rejected(bad):
    """NaN passes every comparison the other checks make, and inf passes
    all but the triangle's, so a non-finite entry is rejected first."""
    for matrix in ([[0.0, bad], [bad, 0.0]],
                   [[0.0, 1.0, bad], [1.0, 0.0, 1.0], [bad, 1.0, 0.0]]):
        for mode in ("float", None):
            with pytest.raises(NonFiniteDistance) as exc:
                validate_metric(matrix, mode=mode)
            assert exc.value.witness == (0, len(matrix) - 1)


def test_lipschitz_constant_examples():
    sp2 = validate_metric([[F(0), F(1)], [F(1), F(0)]])
    assert lipschitz_constant(sp2, [F(5), F(5)]) == 0
    assert lipschitz_constant(sp2, [F(0), F(1)]) == 1
    sp3 = validate_metric(THREE)
    # max of 1/1, 2/2, 1/2 by enumeration
    assert lipschitz_constant(sp3, [F(0), F(1), F(2)]) == 1
    with pytest.raises(DimensionMismatch):
        lipschitz_constant(sp3, [F(0), F(1)])


def test_ball_examples():
    sp = validate_metric(THREE)
    assert ball(sp, 0, (F(0), F(0))) == {0}
    assert ball(sp, 0, (F(0), sp.max_distance)) == {0, 1, 2}
    assert ball(sp, 0, (F(1), F(1))) == {1}


def test_level_and_sublevel_sets():
    sp2 = validate_metric([[F(0), F(1)], [F(1), F(0)]])
    assert set(level_set(sp2, F(0)).pairs()) == {(0, 0), (1, 1)}
    assert set(level_set(sp2, F(1)).pairs()) == {(0, 1), (1, 0)}
    sp3 = validate_metric(THREE)
    assert sublevel_set(sp3, sp3.max_distance).member == PairSet.all_pairs(3).member


def test_sublevel_is_union_of_levels():
    sp = random_metric_space(5, seed=11)
    for r in sp.realized_distances:
        union = PairSet.from_pairs(5, [])
        for rp in sp.realized_distances:
            if rp <= r:
                union = union.union(level_set(sp, rp))
        assert union.member == sublevel_set(sp, r).member


@pytest.mark.parametrize("model", ["euclidean-sample", "shortest-path-graph"])
def test_random_spaces_valid_and_deterministic(model):
    for seed in range(8):
        sp1 = random_metric_space(5, seed, model)
        sp2 = random_metric_space(5, seed, model)
        assert sp1.dist == sp2.dist
        validate_metric(sp1.dist, mode=sp1.mode)  # idempotent revalidation


def test_two_point_random_space():
    sp = random_metric_space(2, 3)
    assert sp.n == 2 and sp.dist[0][1] == sp.dist[1][0] > 0


def test_distance_rows_are_one_lipschitz():
    # triangle inequality corollary, on random spaces
    for seed in range(6):
        sp = random_metric_space(5, seed, "shortest-path-graph")
        for x in range(sp.n):
            assert lipschitz_constant(sp, sp.row(x)) <= 1


def test_graph_model_is_rational_and_euclid_is_float():
    assert random_metric_space(4, 0, "shortest-path-graph").mode == "rational"
    assert random_metric_space(4, 0, "euclidean-sample").mode == "float"
