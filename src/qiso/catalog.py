"""Built-in metric spaces, quantum groups, and coactions.

Classical entries are function algebras C(G) of permutation groups with
the tautological magic unitary u_ij = 1_{g.j = i}.  Genuinely quantum
coactions come from dihedral group algebras: two reflections r, s give
projections (1+r)/2 and (1+s)/2 whose 2x2 rotation pattern on a 2+2 point
space is a magic unitary with noncommutative entries; it is faithful
because the reflections generate.  Everything is admitted to the catalog
only if the verifiers accept it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

import numpy as np

from .coaction import CoAction, verify_coaction
from .errors import QisoError
from .metric import FiniteMetricSpace, validate_metric
from .quantum_group import (QuantumGroup, close_generators,
                            function_algebra_of_group, group_algebra,
                            verify_quantum_group)


class CatalogEntryInvalid(QisoError):
    pass


# ---------------------------------------------------------------------------
# metric spaces


def cycle_metric(n: int) -> FiniteMetricSpace:
    """Shortest-path metric of the n-cycle."""
    return validate_metric([[Fraction(min(abs(i - j), n - abs(i - j)))
                             for j in range(n)] for i in range(n)])


def equilateral_metric(n: int) -> FiniteMetricSpace:
    return validate_metric([[Fraction(0 if i == j else 1) for j in range(n)]
                            for i in range(n)])


def three_point_isosceles() -> FiniteMetricSpace:
    """d(0,1) = 1, d(0,2) = d(1,2) = 2: only the transposition (01) is an
    isometry besides the identity."""
    return validate_metric([[0, 1, 2], [1, 0, 2], [2, 2, 0]],
                           mode="rational")


def rectangle_metric(w=Fraction(1), h=Fraction(2)) -> FiniteMetricSpace:
    """Corners 0,1 on top (width w), 2,3 below (heights h), graph metric."""
    diag = w + h
    return validate_metric([
        [0 * w, w, h, diag],
        [w, 0 * w, diag, h],
        [h, diag, 0 * w, w],
        [diag, h, w, 0 * w]])


def four_point_blocks(a=Fraction(1), b=Fraction(1), c=Fraction(2)) -> FiniteMetricSpace:
    """d(0,1) = a, d(2,3) = b, all cross distances c (needs a, b <= 2c)."""
    z = 0 * a
    return validate_metric([
        [z, a, c, c],
        [a, z, c, c],
        [c, c, z, b],
        [c, c, b, z]])


def four_point_asymmetric() -> FiniteMetricSpace:
    """Blocks {0,1} and {2,3} with unequal cross distances; breaks the
    two-projection symmetry."""
    return validate_metric([
        [0, 1, 2, 3],
        [1, 0, 2, 3],
        [2, 2, 0, 1],
        [3, 3, 1, 0]], mode="rational")


def four_cycle_broken_diagonal() -> FiniteMetricSpace:
    """4-cycle with one shortened diagonal: only rotation by 2 survives."""
    return validate_metric([
        [0, 1, 2, 1],
        [1, 0, 1, Fraction(3, 2)],
        [2, 1, 0, 1],
        [1, Fraction(3, 2), 1, 0]])


# ---------------------------------------------------------------------------
# classical actions


def permutation_action(space: FiniteMetricSpace, generators,
                       name: str = "") -> CoAction:
    """C(G) for the generated permutation group, with u_ij = 1_{g.j = i}."""
    group = close_generators(space.n, generators)
    qg = function_algebra_of_group(group, name=name or "C(G)")
    coeffs = np.arange(space.n)[:, None, None] == np.array(group).T
    return CoAction(qg, space, coeffs, name=name)


def trivial_action(space: FiniteMetricSpace, name: str = "trivial") -> CoAction:
    return permutation_action(space, [], name=name)


# ---------------------------------------------------------------------------
# dihedral groups, their algebras, and two-projection coactions


def dihedral_perms(m: int):
    """D_m as permutations of the m-gon: rotation j -> j+1, reflection
    j -> -j."""
    rot = tuple((j + 1) % m for j in range(m))
    ref = tuple((-j) % m for j in range(m))
    return close_generators(m, [rot, ref])


def _dihedral_word(g, m: int):
    """(c, flag): g = rotation^c (reflection^flag) on the m-gon."""
    c = g[0]
    if g[1] == (c + 1) % m:
        return c, 0
    return c, 1


_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


def dihedral_irreps(m: int, group) -> List[np.ndarray]:
    """A complete family of unitary irreps of D_m (m >= 3)."""
    order = len(group)
    irreps = []
    one_dims = [(1, 1), (1, -1)]
    if m % 2 == 0:
        one_dims += [(-1, 1), (-1, -1)]
    for (ra, sa) in one_dims:
        U = np.zeros((order, 1, 1), dtype=complex)
        for a, g in enumerate(group):
            c, f = _dihedral_word(g, m)
            U[a, 0, 0] = (ra ** c) * (sa ** f)
        irreps.append(U)
    omega = np.exp(2j * np.pi / m)
    for k in range(1, (m - 1) // 2 + 1):
        U = np.zeros((order, 2, 2), dtype=complex)
        for a, g in enumerate(group):
            c, f = _dihedral_word(g, m)
            # omega^(kc) is a power of i, taken exactly, when m divides 4kc
            w = _QUARTER_TURNS[4 * k * c // m % 4] if 4 * k * c % m == 0 \
                else omega ** (k * c)
            if f == 0:
                U[a] = np.array([[w, 0], [0, w.conjugate()]])
            else:
                U[a] = np.array([[0, w], [w.conjugate(), 0]])
        irreps.append(U)
    return irreps


def dihedral_group_algebra(m: int, name: str = "") -> QuantumGroup:
    group = dihedral_perms(m)
    return group_algebra(group, dihedral_irreps(m, group),
                         name=name or f"dual-D{m}")


def dihedral_projection_action(space: FiniteMetricSpace, m: int,
                               name: str = "") -> CoAction:
    """The two-projection magic unitary over the group algebra of D_m.

    p = (1 + reflection)/2 and q = (1 + rotation.reflection)/2 swap points
    0,1 and 2,3 respectively; for m >= 3 the entries do not commute and the
    action is faithful.  Needs a 4-point space."""
    if space.n != 4:
        raise CatalogEntryInvalid("two-projection action needs 4 points")
    qg = dihedral_group_algebra(m)
    unit = qg.unit_vec()
    # (1 + lambda_r)/2 for the reflections r: j -> -j and j -> 1 - j
    p, q = (0.5 * (unit + qg.group_embedding[:, qg.group_elements.index(
        tuple((s - j) % m for j in range(m)))]) for s in (0, 1))
    zero = np.zeros_like(unit)
    u = [[p, unit - p, zero, zero],
         [unit - p, p, zero, zero],
         [zero, zero, q, unit - q],
         [zero, zero, unit - q, q]]
    return CoAction(qg, space, u, name=name or f"dual-D{m}-projections")


# ---------------------------------------------------------------------------
# the catalog


@dataclass
class CatalogAction:
    name: str
    action: CoAction


# name -> constructor of the named coaction; each builds only its own entry
CATALOG: Dict[str, Callable[[str], CoAction]] = {
    "trivial-3": lambda name: trivial_action(three_point_isosceles(), name=name),
    "cyclic-3": lambda name: permutation_action(
        cycle_metric(3), [(1, 2, 0)], name=name),
    "cyclic-4": lambda name: permutation_action(
        cycle_metric(4), [(1, 2, 3, 0)], name=name),
    "cyclic-5": lambda name: permutation_action(
        cycle_metric(5), [(1, 2, 3, 4, 0)], name=name),
    "s3-equilateral": lambda name: permutation_action(
        equilateral_metric(3), [(1, 2, 0), (1, 0, 2)], name=name),
    "s3-isosceles": lambda name: permutation_action(
        three_point_isosceles(), [(1, 2, 0), (1, 0, 2)], name=name),
    "d4-square": lambda name: permutation_action(
        cycle_metric(4), [(1, 2, 3, 0), (0, 3, 2, 1)], name=name),
    "z4-broken-diagonal": lambda name: permutation_action(
        four_cycle_broken_diagonal(), [(1, 2, 3, 0)], name=name),
    "klein-rectangle": lambda name: permutation_action(
        rectangle_metric(), [(1, 0, 3, 2), (2, 3, 0, 1)], name=name),
    "dual-d4-blocks": lambda name: dihedral_projection_action(
        four_point_blocks(), 4, name=name),
    "dual-d4-mixed": lambda name: dihedral_projection_action(
        four_point_blocks(a=Fraction(1), b=Fraction(3, 2), c=Fraction(2)), 4,
        name=name),
    "dual-d4-asymmetric": lambda name: dihedral_projection_action(
        four_point_asymmetric(), 4, name=name),
    "dual-d3-blocks": lambda name: dihedral_projection_action(
        four_point_blocks(b=Fraction(2)), 3, name=name),
}


def catalog_action(name: str) -> CoAction:
    """The named catalog coaction, built alone."""
    if name not in CATALOG:
        raise KeyError(f"no catalog entry named {name!r}")
    return CATALOG[name](name)


def standard_actions() -> List[CatalogAction]:
    """Named coactions used across the verification and search suites."""
    return [CatalogAction(name, catalog_action(name)) for name in CATALOG]


def standard_groups() -> List[QuantumGroup]:
    """Standalone quantum groups (beyond those carried by the actions)."""
    return [
        function_algebra_of_group(close_generators(2, [(1, 0)]), name="C(Z2)"),
        dihedral_group_algebra(3, name="dual-S3"),
        dihedral_group_algebra(4, name="dual-D4"),
    ]


def verified_catalog(tol: float = 1e-9) -> List[CatalogAction]:
    """The standard actions, gated by their verifiers."""
    out = []
    for entry in standard_actions():
        qrep = verify_quantum_group(entry.action.group)
        crep = verify_coaction(entry.action)
        if not qrep.passed(max(tol, 1e-10)) or not crep.passed(tol):
            raise CatalogEntryInvalid(
                f"{entry.name}: qg {qrep.failing(tol)} coaction {crep.failing(tol)}")
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# random actions for the search harness


_MAX_ORDER = 12


def random_permutation_action(space: FiniteMetricSpace, seed: int) -> CoAction:
    """A random permutation group of order at most _MAX_ORDER acting
    tautologically."""
    rng = random.Random(seed)
    n = space.n
    for attempt in range(200):
        k = rng.choice((1, 1, 2))
        gens = []
        for _ in range(k):
            kind = rng.random()
            perm = list(range(n))
            if kind < 0.45:
                i, j = rng.sample(range(n), 2)
                perm[i], perm[j] = perm[j], perm[i]
            elif kind < 0.8 and n >= 3:
                i, j, l = rng.sample(range(n), 3)
                perm[i], perm[j], perm[l] = perm[j], perm[l], perm[i]
            else:
                rng.shuffle(perm)
            gens.append(tuple(perm))
        if len(close_generators(n, gens, _MAX_ORDER)) <= _MAX_ORDER:
            return permutation_action(space, gens,
                                      name=f"random-perm-{seed}")
    raise CatalogEntryInvalid("could not sample a small permutation group")


# (a, b, c, c2) for the 4-point block metric: d(0,1)=a, d(2,3)=b, upper
# cross distances c, lower cross distances c2.  Random quantum actions draw
# their metric from this fixed list; entries with c != c2 break the
# two-projection symmetry, so condition (D) genuinely varies.
_QUANTUM_METRIC_POOL = [
    (Fraction(1), Fraction(1), Fraction(2), Fraction(2)),
    (Fraction(1), Fraction(2), Fraction(2), Fraction(2)),
    (Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(2)),
    (Fraction(2), Fraction(3), Fraction(2), Fraction(2)),
    (Fraction(1), Fraction(1), Fraction(2), Fraction(5, 2)),
    (Fraction(1), Fraction(1), Fraction(1), Fraction(2)),
    (Fraction(1), Fraction(2), Fraction(3), Fraction(2)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(3, 2)),
    (Fraction(3), Fraction(1), Fraction(2), Fraction(2)),
    (Fraction(2), Fraction(2), Fraction(3, 2), Fraction(5, 2)),
]


def random_quantum_action(seed: int) -> CoAction:
    """A random two-projection dihedral action on a 4-point block metric
    drawn from a fixed pool (deterministic in the seed)."""
    rng = random.Random(seed)
    m = rng.choice((3, 4))
    a, b, c, c2 = _QUANTUM_METRIC_POOL[rng.randrange(len(_QUANTUM_METRIC_POOL))]
    z = 0 * a
    space = validate_metric([
        [z, a, c, c2],
        [a, z, c, c2],
        [c, c, z, b],
        [c2, c2, b, z]])
    return dihedral_projection_action(space, m, name=f"random-quantum-{seed}")
