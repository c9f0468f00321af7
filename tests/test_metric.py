"""Metric-space validation, derived sets, Lipschitz data."""

import ast
import math
import pathlib
import random
from fractions import Fraction as F

import pytest

import qiso
from qiso.metric import (AsymmetricMatrix, NegativeDistance, NonFiniteDistance,
                         NonzeroDiagonal, PairSet, TriangleViolation,
                         random_metric_space, validate_metric)
from qiso.errors import DimensionMismatch

from oracles import (all_pairs, ball, level_set, lipschitz_constant,
                     metric_violation_reference, near_tie_chain,
                     shortest_path_metric_fractions, sublevel_set)


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


def test_float_mode_space_holds_floats():
    """validate_metric in float mode converts each entry to float once:
    int and Fraction entries give the space that a float-mode file gives,
    whose W_1 and W_p^p come back as floats, and an entry beyond the float
    range is not finite."""
    from qiso.fileio import space_from_dict
    from qiso.transport import ProbVector, kantorovich_w1, transport_with_power
    given = validate_metric([[0, F(1, 3)], [F(1, 3), 0]], mode="float")
    read = space_from_dict({"n": 2, "mode": "float",
                            "dist": [[0, "1/3"], ["1/3", 0]]})
    assert given.dist == read.dist == ((0.0, 1 / 3), (1 / 3, 0.0))
    assert all(type(v) is float for row in given.dist for v in row)
    mu, nu = ProbVector.dirac(2, 0), ProbVector.dirac(2, 1)
    for sp in (given, read):
        value, witness = kantorovich_w1(sp, mu, nu)
        res = transport_with_power(sp, mu, nu, 2)
        assert (value, res.value) == (1 / 3, 1 / 9)
        assert all(type(v) is float for v in (value, *witness, res.value))
    with pytest.raises(NonFiniteDistance) as exc:
        validate_metric([[0, 10 ** 400], [10 ** 400, 0]], mode="float")
    assert exc.value.witness == (0, 1)


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
    assert sublevel_set(sp3, sp3.max_distance).member == all_pairs(3).member


def test_sublevel_is_union_of_levels():
    sp = random_metric_space(5, seed=11)
    for r in sp.realized_distances:
        levels = [level_set(sp, rp).member
                  for rp in sp.realized_distances if rp <= r]
        union = tuple(tuple(any(level[i][j] for level in levels)
                            for j in range(5)) for i in range(5))
        assert union == sublevel_set(sp, r).member


@pytest.mark.parametrize("pair", [(-1, 0), (0, -3), (3, 0), (1, 7)])
def test_pair_set_rejects_indices_outside_the_points(pair):
    """A negative index would read the row from its end (-1 opening the
    pair (2, 0) on 3 points) and one >= n would raise IndexError: both
    raise ValueError naming the pair."""
    with pytest.raises(ValueError, match=rf"\({pair[0]}, {pair[1]}\)"):
        PairSet.from_pairs(3, [(0, 1), pair])
    assert set(PairSet.from_pairs(3, [(2, 0), (0, 2)]).pairs()) == {(0, 2), (2, 0)}


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
            assert lipschitz_constant(sp, sp.dist[x]) <= 1


def test_graph_model_is_rational_and_euclid_is_float():
    assert random_metric_space(4, 0, "shortest-path-graph").mode == "rational"
    assert random_metric_space(4, 0, "euclidean-sample").mode == "float"


def test_axiom_checks_on_integer_form_match_fraction_oracle():
    """validate_metric checks a rational matrix on its integer form; on
    seeded broken matrices (asymmetric, a zero off-diagonal pair, a
    triangle violation, a nonzero diagonal or a negative pair) with int,
    Fraction and mixed entries it raises the error class, witness and
    message of the entry-by-entry Fraction oracle, and it accepts what
    the oracle accepts."""
    rng = random.Random(17)
    raised = set()
    for trial in range(150):
        n = rng.randint(2, 7)
        base = random_metric_space(n, rng.randint(0, 9999))
        factor = F(rng.randint(1, 5), rng.choice((1, 3, 7, 11)))
        m = [[v * factor for v in row] for row in base.dist]
        i, j = rng.sample(range(n), 2)
        fault = trial % 6
        if fault == 0:                     # asymmetric
            m[i][j] += F(1, rng.choice((2, 5, 13)))
        elif fault == 1:                   # zero off-diagonal pair
            m[i][j] = m[j][i] = F(0)
        elif fault == 2 and n >= 3:        # d(i,k) > d(i,j) + d(j,k)
            k = next(k for k in range(n) if k not in (i, j))
            m[i][k] = m[k][i] = m[i][j] + m[j][k] + F(1, rng.choice((1, 3, 9)))
        elif fault == 3:                   # nonzero diagonal
            m[i][i] = F(1, 7)
        elif fault == 4:                   # negative pair
            m[i][j] = m[j][i] = -m[i][j]
        kind = rng.choice(("int", "fraction", "mixed"))
        if kind == "int":
            scale = math.lcm(*(v.denominator for row in m for v in row))
            m = [[int(v * scale) for v in row] for row in m]
        elif kind == "mixed":
            m = [[int(v) if v.denominator == 1 else v for v in row] for row in m]
        want = metric_violation_reference(m)
        if want is None:
            assert validate_metric(m).dist == tuple(map(tuple, m))
            raised.add(None)
            continue
        with pytest.raises(want[0]) as exc:
            validate_metric(m)
        assert (exc.value.witness, str(exc.value)) == want[1:]
        raised.add(want[0])
    assert raised == {AsymmetricMatrix, NegativeDistance, TriangleViolation,
                      NonzeroDiagonal, None}


def test_shortest_path_model_matches_fraction_floyd_warshall():
    """The shortest-path model runs Floyd-Warshall on four times the
    weights in ints; its spaces equal those of the Fraction version,
    entry by entry and in type, over n = 2-20 and 20 seeds."""
    for n in range(2, 21):
        for seed in range(20):
            got = random_metric_space(n, seed)
            want = shortest_path_metric_fractions(n, seed)
            assert got == want and got.mode == "rational", (n, seed)
            assert all(type(v) is F for row in got.dist for v in row)


def _table_spaces():
    """Int, Fraction, non-dyadic and more-than-2^63 integer forms, and float
    spaces, one of them a near-tie chain."""
    a, b, c = (1 + F(1, q) for q in (2147483647, 1000000007, 998244353))
    big = validate_metric([[0, a, c, b], [a, 0, b, c], [c, b, 0, a],
                           [b, c, a, 0]])
    assert max(max(row) for row in big.integer_form[0]) > 2 ** 63
    return [validate_metric([[0, 1, 3], [1, 0, 2], [3, 2, 0]]),
            validate_metric(THREE),
            validate_metric([[0, F(1, 10), F(1, 5)], [F(1, 10), 0, F(1, 10)],
                             [F(1, 5), F(1, 10), 0]]),
            big,
            random_metric_space(6, 4),
            random_metric_space(6, 5, "euclidean-sample"),
            validate_metric([[float(v) for v in row] for row in THREE]),
            near_tie_chain()]


def test_distance_tables_match_entrywise_powers_and_sublevel_sets():
    """power(p), float_power(p) and sublevel_tops against each entry of d:
    on a rational space and an integral p (int, Fraction or float) the
    ints k^p at scale s^p are d^p exactly and their floats are float(d^p);
    otherwise both are float(d) ** float(p).  The pairs of rank at most
    tops[k] are the oracle's sublevel_set(r_k), compared on raw distances
    within dtol, near-ties included."""
    for space in _table_spaces():
        ranks = space.distance_ranks
        for p in (1, 2, 3, 2.0, F(3), 1.5):
            values, scale = space.power(p)
            floats = space.float_power(p)
            exact = space.mode == "rational" and p != 1.5
            assert (scale is not None) == exact
            assert len(values) == len(floats) == len(space.realized_distances)
            for i, row in enumerate(space.dist):
                for j, d in enumerate(row):
                    k = ranks[i][j]
                    if exact:
                        assert type(values[k]) is int
                        assert F(values[k], scale) == F(d) ** int(p)
                        assert floats[k] == float(F(d) ** int(p))
                    else:
                        assert values[k] == floats[k] == float(d) ** float(p)
        tops = space.sublevel_tops
        assert list(tops) == sorted(tops)
        for k, r in enumerate(space.realized_distances):
            below = sublevel_set(space, r).member
            assert all(below[i][j] == (ranks[i][j] <= tops[k])
                       for i in range(space.n) for j in range(space.n))
    assert near_tie_chain().sublevel_tops == (0, 2, 3, 3, 4)


def test_dtol_is_read_only_by_sublevel_tops():
    """One distance relation in src/qiso: every comparison of distances
    within the space's dtol goes through `FiniteMetricSpace.sublevel_tops`,
    the only function there that reads the attribute dtol."""
    readers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "dtol":
                readers.append(scope)
            visit(child, scope)

    root = pathlib.Path(qiso.__file__).parent
    for path in sorted(root.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.name,))
    assert readers == [("metric.py", "FiniteMetricSpace", "sublevel_tops")]
