"""Finite metric spaces, their pair sets, and their distance tables.

Points are dense indices 0..n-1; labels are cosmetic.  Distances are either
all rational (exact mode) or all float.  The space owns the one distance
tolerance, `dtol`: 0 in rational mode, so that every comparison is exact,
and tol x max d in float mode, so that no comparison of distances depends
on their units.  `validate_metric` checks the axioms at the same relative
scale.  The space also owns the distance tables that every condition
reads: the rank of each distance (`distance_ranks`), d^p on each rank
(`power`, `float_power`) and the sublevel top of each rank
(`sublevel_tops`), the one place where dtol is read.  Balls, level and
sublevel sets compared on raw distances, and the Lipschitz seminorm, are
the test suite's references (`tests/oracles.py`), not the program's.
"""

from __future__ import annotations

import math
import numbers
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

from .errors import DimensionMismatch, QisoError
from .scalars import DEFAULT_TOL, FLOAT, RATIONAL, Scalar, is_rational


class MetricError(QisoError):
    """A distance matrix failed validation; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class AsymmetricMatrix(MetricError):
    pass


class NegativeDistance(MetricError):
    pass


class NonzeroDiagonal(MetricError):
    pass


class NonFiniteDistance(MetricError):
    pass


class TriangleViolation(MetricError):
    pass


@dataclass(frozen=True)
class PairSet:
    """A subset of X x X as an n x n boolean membership matrix."""

    member: Tuple[Tuple[bool, ...], ...]

    @property
    def n(self) -> int:
        return len(self.member)

    def __contains__(self, pair) -> bool:
        i, j = pair
        return self.member[i][j]

    def pairs(self):
        for i, row in enumerate(self.member):
            for j, m in enumerate(row):
                if m:
                    yield (i, j)

    @staticmethod
    def from_pairs(n: int, pairs) -> "PairSet":
        """The pairs (i, j) given, each index in [0, n); any other index
        raises ValueError naming its pair."""
        grid = [[False] * n for _ in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) has an index outside [0, {n})")
            grid[i][j] = True
        return PairSet(tuple(tuple(row) for row in grid))


@dataclass(frozen=True)
class FiniteMetricSpace:
    """n points with a validated symmetric distance matrix."""

    n: int
    dist: Tuple[Tuple[Scalar, ...], ...]
    labels: Optional[Tuple[str, ...]] = None
    mode: str = RATIONAL
    tol: float = field(default=DEFAULT_TOL, compare=False)

    @cached_property
    def integer_form(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        """Ints k and the least scale s > 0 with d(i, j) = k[i][j] / s, for a
        rational space.  The axiom checks, the realized distances and exact
        transport all run on these ints instead of on Fractions."""
        if self.mode != RATIONAL:
            raise ValueError("only a rational space has an integer form")
        denominators = {v.denominator for row in self.dist for v in row}
        scale = math.lcm(*denominators)
        factor = {q: scale // q for q in denominators}
        return (tuple(tuple(v.numerator * factor[v.denominator] for v in row)
                      for row in self.dist), scale)

    @cached_property
    def _distance_keys(self):
        """The matrix that distances are compared and hashed through (the
        integer form in rational mode, d itself in float mode) and its
        sorted distinct entries."""
        matrix = self.integer_form[0] if self.mode == RATIONAL else self.dist
        return matrix, sorted({v for row in matrix for v in row})

    @cached_property
    def realized_distances(self) -> Tuple[Scalar, ...]:
        """Sorted distinct values of d, including 0."""
        matrix, keys = self._distance_keys
        if matrix is self.dist:
            return tuple(keys)
        # each value as the first entry of d, row by row, that holds it, so
        # that an int matrix keeps int values
        entry = {}
        for krow, row in zip(reversed(matrix), reversed(self.dist)):
            entry.update(zip(reversed(krow), reversed(row)))
        return tuple(entry[k] for k in keys)

    @cached_property
    def distance_ranks(self) -> Tuple[Tuple[int, ...], ...]:
        """The index of each d(i, j) among the realized distances, so that
        d(i, j) <= realized_distances[k] iff distance_ranks[i][j] <= k."""
        matrix, keys = self._distance_keys
        index = {v: k for k, v in enumerate(keys)}
        return tuple(tuple(index[v] for v in row) for row in matrix)

    @cached_property
    def max_distance(self) -> Scalar:
        return self.realized_distances[-1]

    @cached_property
    def dtol(self) -> Scalar:
        """Two distances within dtol of each other compare equal: 0 in
        rational mode, tol x max d in float mode."""
        if self.mode == RATIONAL:
            return Fraction(0)
        return self.tol * float(self.max_distance)

    @cached_property
    def sublevel_tops(self) -> Tuple[int, ...]:
        """tops[k]: the last rank whose distance is <= realized_distances[k]
        + dtol, so that {d <= d_k} within dtol is the pairs of rank at most
        tops[k].  Nondecreasing, and tops[k] = k in rational mode.  The one
        rule for comparing distances: d_a <= d_k within dtol iff a <=
        tops[k], and d_a = d_k within dtol iff also k <= tops[a]."""
        values = self.realized_distances
        return tuple(bisect_right(values, v + self.dtol) - 1 for v in values)

    def power(self, p) -> Tuple[tuple, Optional[int]]:
        """d^p on each distance rank, as (values, scale).  A rational space
        and a positive integer p (an int, or an integral Fraction or float)
        give the ints k^p at the scale s^p, with d = k / s the integer form,
        so that d^p = k^p / s^p exactly; anything else gives the floats
        float(d) ** float(p) and scale None.  p must be a finite number
        >= 1, the range of the Lip_p conditions."""
        if not (isinstance(p, numbers.Real) and 1 <= p < math.inf):
            raise ValueError(f"p must be a finite number >= 1, got {p!r}")
        if self.mode == RATIONAL and isinstance(p, (int, Fraction, float)) \
                and p == int(p):
            p = int(p)
            return (tuple(k ** p for k in self._distance_keys[1]),
                    self.integer_form[1] ** p)
        floats = tuple(float(d) ** float(p) for d in self.realized_distances)
        return floats, None

    def float_power(self, p) -> Tuple[float, ...]:
        """The floats of `power(p)`: each int k^p at scale s^p as k^p / s^p,
        which is correctly rounded and so equals the float of the exact
        d^p."""
        values, scale = self.power(p)
        return values if scale is None else tuple(v / scale for v in values)


def validate_metric(matrix, tolerance: Scalar = None, labels=None,
                    mode: str = None) -> FiniteMetricSpace:
    """Check the metric axioms and return the validated space.

    In float mode each axiom holds within `tolerance` (default 1e-9; the
    space's `tol`, finite and > 0) times the largest |entry|; in rational
    mode exactly, on the space's integer form.  A float space holds floats
    only: each entry is converted once, and one beyond the float range
    raises NonFiniteDistance, as inf does.  Errors carry a witness: the
    offending pair or triple.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DimensionMismatch("distance matrix is not square")
    if n < 1:
        raise DimensionMismatch("empty distance matrix")
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n:
            raise DimensionMismatch("label count differs from point count")
    if mode is None:
        mode = RATIONAL if all(is_rational(v) for row in matrix for v in row) else FLOAT
    rel = DEFAULT_TOL if tolerance is None else tolerance
    if not (math.isfinite(rel) and rel > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {rel}")

    rows = []
    for i, row in enumerate(matrix):
        rows.append([])
        for j, v in enumerate(row):
            try:
                w = float(v) if mode == FLOAT else v
            except OverflowError:
                w = math.inf
            if isinstance(w, float) and not math.isfinite(w):
                raise NonFiniteDistance(f"d({i},{j}) = {v} is not finite",
                                        witness=(i, j))
            rows[-1].append(w)
    dist = tuple(map(tuple, rows))
    space = FiniteMetricSpace(n=n, dist=dist, labels=labels, mode=mode,
                              tol=float(rel))
    if mode == RATIONAL:
        if not all(is_rational(v) for row in dist for v in row):
            raise ValueError("rational mode takes int or Fraction distances only")
        # k[i][j] = s d(i, j) with s > 0: every axiom holds of k iff of d
        x, tol = space.integer_form[0], 0
    else:
        x, tol = dist, rel * max(abs(v) for row in dist for v in row)
    for i in range(n):
        if abs(x[i][i]) > tol:
            raise NonzeroDiagonal(f"d({i},{i}) = {dist[i][i]} != 0", witness=(i,))
        for j in range(n):
            if abs(x[i][j] - x[j][i]) > tol:
                raise AsymmetricMatrix(
                    f"d({i},{j}) = {dist[i][j]} != {dist[j][i]} = d({j},{i})",
                    witness=(i, j))
            if x[i][j] < -tol:
                raise NegativeDistance(f"d({i},{j}) = {dist[i][j]} < 0", witness=(i, j))
            if i != j and x[i][j] <= tol:
                raise NegativeDistance(
                    f"d({i},{j}) = {dist[i][j]} vanishes for distinct points",
                    witness=(i, j))
    for i, xi in enumerate(x):
        for j, xj in enumerate(x):
            xij = xi[j]
            for k in range(n):
                if xi[k] - (xij + xj[k]) > tol:
                    raise TriangleViolation(
                        f"d({i},{k}) > d({i},{j}) + d({j},{k}): "
                        f"{dist[i][k]} > {dist[i][j]} + {dist[j][k]}",
                        witness=(i, j, k))
    return space


def _euclidean_sample(n: int, rng: random.Random) -> FiniteMetricSpace:
    """Distances of points sampled in the plane (float mode)."""
    pts = []
    while len(pts) < n:
        p = (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) > 1e-2 for q in pts):
            pts.append(p)
    dist = [[math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
             for j in range(n)] for i in range(n)]
    return validate_metric(dist, mode=FLOAT)


def _shortest_path_graph(n: int, rng: random.Random) -> FiniteMetricSpace:
    """All-pairs shortest paths of a random connected weighted graph with
    small dyadic weights (rational mode), so entries stay exact even after
    conversion to float."""
    # every weight has denominator 1, 2 or 4: the paths run on
    # 4 x weight in ints, and each entry becomes one Fraction at the end
    def weight():
        return 4 * rng.randint(1, 12) // rng.choice((1, 2, 4))

    big = 4 * 10 ** 6
    w = [[big] * n for _ in range(n)]
    for i in range(n):
        w[i][i] = 0
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):  # random spanning path: connected
        w[a][b] = w[b][a] = weight()
    for i in range(n):
        for j in range(i + 1, n):
            if w[i][j] == big and rng.random() < 0.4:
                w[i][j] = w[j][i] = weight()
    for k in range(n):
        wk = w[k]
        for row in w:
            rk = row[k]
            for j in range(n):
                through = rk + wk[j]
                if through < row[j]:
                    row[j] = through
    return validate_metric([[Fraction(v, 4) for v in row] for row in w],
                           mode=RATIONAL)


# the models of random_metric_space: name -> builder from (n, rng)
METRIC_MODELS = {"euclidean-sample": _euclidean_sample,
                 "shortest-path-graph": _shortest_path_graph}


def random_metric_space(n: int, seed: int, model: str = "shortest-path-graph",
                        mode: str = None) -> FiniteMetricSpace:
    """Deterministic-in-seed generator of valid spaces of a METRIC_MODELS
    model."""
    if n < 2:
        raise ValueError("need at least 2 points")
    if model not in METRIC_MODELS:
        raise ValueError(f"unknown model {model!r}")
    space = METRIC_MODELS[model](n, random.Random(seed))
    if mode is not None and mode != space.mode:
        if mode == FLOAT:
            space = validate_metric(
                [[float(v) for v in row] for row in space.dist], mode=FLOAT)
        else:
            raise ValueError("cannot promote float samples to rational mode")
    return space
