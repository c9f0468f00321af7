"""Coupling feasibility as a marriage theorem, at finite scale.

A coupling of (mu, nu) supported on a pair set Y exists iff every subset S
satisfies nu(p12^Y(S)) >= mu(S); on a finite space every subset is closed,
so the subset condition is checked by powerset exhaustion and the coupling
side by max-flow.  The classical marriage corollary falls out by taking
uniform marginals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import DimensionMismatch, QisoError, SizeGuardExceeded
from .metric import PairSet
from .transport import CouplingFeasibility, ProbVector, feasible_coupling_on


class NonSquareBipartition(QisoError):
    pass


@dataclass(frozen=True)
class HallInstance:
    mu: ProbVector
    nu: ProbVector
    Y: PairSet

    def __post_init__(self):
        if not (self.mu.n == self.nu.n == self.Y.n):
            raise DimensionMismatch("marginals and pair set sizes differ")


def neighborhood(Y: PairSet, S, direction: str = "forward") -> frozenset:
    """forward: p12^Y(S) = {x' : (x, x') in Y for some x in S};
    backward: p21^Y(S) = {x' : (x', x) in Y for some x in S}."""
    n = Y.n
    if direction == "forward":
        return frozenset(j for i in S for j in range(n) if (i, j) in Y)
    if direction == "backward":
        return frozenset(j for i in S for j in range(n) if (j, i) in Y)
    raise ValueError(f"unknown direction {direction!r}")


def hall_condition(instance: HallInstance,
                   max_points: int = 20) -> Tuple[bool, Optional[frozenset]]:
    """Exhaust all 2^n subsets; returns (holds, first violator or None)."""
    n = instance.mu.n
    if n > max_points:
        raise SizeGuardExceeded(f"subset exhaustion guarded at n <= {max_points}")
    for size in range(n + 1):
        for S in itertools.combinations(range(n), size):
            T = neighborhood(instance.Y, S)
            if instance.nu(T) < instance.mu(S):
                return False, frozenset(S)
    return True, None


def decide_hall(instance: HallInstance) -> CouplingFeasibility:
    """Coupling-or-certificate form, delegated to the max-flow solver."""
    return feasible_coupling_on(instance.mu, instance.nu, instance.Y)


def perfect_matching(adjacency):
    """Find a perfect matching of a bipartite graph with equal part sizes,
    or return a violating set S with |N(S)| < |S|.

    Reduction: take both marginals to be the normalized counting measure
    and ask for a coupling supported on the edge set; the flow solution is
    integral (all capacities are multiples of 1/n), so a feasible coupling
    rounds to a permutation.  Returns ("matching", perm) or ("violator", S).
    """
    n = len(adjacency)
    if any(len(row) != n for row in adjacency):
        raise NonSquareBipartition("bipartition classes differ in size")
    uniform = ProbVector.uniform(n)
    Y = PairSet(tuple(tuple(bool(v) for v in row) for row in adjacency))
    verdict = decide_hall(HallInstance(uniform, uniform, Y))
    if not verdict.feasible:
        return "violator", verdict.violator
    matching = [None] * n
    for i, row in enumerate(verdict.coupling.plan):
        for j, v in enumerate(row):
            if v == Fraction(1, n):
                matching[i] = j
                break
    if any(m is None for m in matching) or len(set(matching)) != n:
        raise QisoError("flow failed to round to a permutation")
    return "matching", tuple(matching)
