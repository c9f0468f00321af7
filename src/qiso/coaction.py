"""Magic-unitary coactions of finite quantum groups on finite metric spaces.

The coaction rho: C(X) -> C(X) (x) A is stored as one coefficient tensor
of its magic unitary u = (u_ij), convention rho(e_j) = sum_i e_i (x) u_ij:
coeffs[i, j] is u_ij's coefficient vector over the matrix-unit basis of
A.  Every constructor builds that tensor directly, and `CoAction.u`, the
entries as algebra elements, is a view derived from it on first use.  The
axioms, condition (D) and the state actions are linear in the u_ij, so
they are array expressions in the tensor; products of entries use its
per-block views.  States act on points from the right: x <| psi is the
distribution j -> psi(u_xj)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .algebra import AlgElement, StateFunctional, element_norms, max_operator_norms
from .errors import QisoError, ShapeMismatch
from .metric import FiniteMetricSpace
from .quantum_group import QGReport, QuantumGroup
from .scalars import integer_scale
from .transport import ProbVector


class NotAPartition(QisoError):
    pass


@dataclass(eq=False)
class CoAction:
    group: QuantumGroup
    space: FiniteMetricSpace
    # coeffs[i, j]: u_ij over the matrix-unit basis, shape (n, n, dim);
    # stacks[k]: its (n, n, b_k, b_k) view on block k.  Both read-only.
    coeffs: np.ndarray = field(repr=False)
    name: str = ""
    stacks: List[np.ndarray] = field(init=False, repr=False)
    # (block, antipode) -> its exact form, as `exact_block` reads it on
    # first use
    _exact_forms: Dict[Tuple[int, bool], Optional[Tuple[np.ndarray, int]]] = field(
        init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        n = self.space.n
        alg = self.group.algebra
        # a read-only complex tensor of the right shape, such as another
        # action's, is shared, since no one can change it; the rest is copied
        coeffs = self.coeffs
        if not (isinstance(coeffs, np.ndarray) and coeffs.dtype == complex
                and not coeffs.flags.writeable and coeffs.shape == (n, n, alg.dim)):
            self.coeffs = np.array(coeffs, dtype=complex)
        if self.coeffs.shape != (n, n, alg.dim):
            raise ShapeMismatch(f"coefficient tensor of shape {self.coeffs.shape}, "
                                f"need ({n}, {n}, {alg.dim})")
        self.coeffs.flags.writeable = False
        self.stacks = alg.split(self.coeffs)

    @cached_property
    def u(self) -> Tuple[Tuple[AlgElement, ...], ...]:
        """The entries u_ij as algebra elements, copied out of `coeffs`."""
        alg = self.group.algebra
        return tuple(tuple(alg.from_vec(vec) for vec in row) for row in self.coeffs)

    @property
    def n(self) -> int:
        return self.space.n

    @cached_property
    def block_supports(self) -> np.ndarray:
        """supports[k, x]: the j, in increasing order, whose projection u_xj
        has trace >= 1 on block k (the others vanish there), padded with -1
        to the longest such row of any block.  The traces are one product
        with the algebra's `trace_matrix`, taken on first use: the universal
        checks share it, and the envelope's induced actions, which never
        read it, do not pay for it."""
        traces = self.coeffs.real @ self.group.algebra.trace_matrix
        live = np.moveaxis(traces > 0.5, 2, 0)
        place = np.cumsum(live, axis=2) - 1    # each live j's place in its row
        k, x, j = np.nonzero(live)
        supports = np.full(live.shape[:2] + (place.max() + 1,), -1)
        supports[k, x, place[k, x, j]] = j
        return supports

    @cached_property
    def kappa_coeffs(self) -> np.ndarray:
        """kappa(u_ij) over the matrix-unit basis, U kappa^T on coefficients:
        a read-only (n, n, dim) tensor formed on first read, which the
        defects of (D) and the exact forms of kappa(u) both read."""
        kappa_u = self.coeffs @ self.group.kappa.T
        kappa_u.flags.writeable = False
        return kappa_u

    def exact_block(self, k: int, antipode: bool = False
                    ) -> Optional[Tuple[np.ndarray, int]]:
        """(R, q) with R[i, j] the real form [[Re, -Im], [Im, Re]] of u_ij
        on block k times the common denominator q, an (n, n, 2b, 2b) array
        of Python ints; None when some entry of the block is not a rational
        with denominator <= 4096.  Read on first use, each distinct float of
        the block once, as `limit_denominator` finds it, up to the first
        that is no such rational: every exact decision of the isometry
        checks reads this one form, and only for the blocks it decides.
        With `antipode`, the same form of kappa(u_ij) on block k, which the
        exact decision of (D) reads beside u's."""
        if (k, antipode) not in self._exact_forms:
            stacks = self.group.algebra.split(
                self.kappa_coeffs) if antipode else self.stacks
            self._exact_forms[k, antipode] = exact_form(stacks[k])
        return self._exact_forms[k, antipode]


def exact_form(stack: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """`CoAction.exact_block` of an (n, n, b, b) stack of one block's
    coefficients."""
    parts = np.stack([stack.real, stack.imag])
    values, inverse = np.unique(parts, return_inverse=True)
    fracs = []
    for v in values.tolist():
        f = Fraction(v).limit_denominator(4096) if math.isfinite(v) else None
        if f is None or float(f) != v:
            return None
        fracs.append(f)
    ints, q = integer_scale(fracs)
    re, im = np.array(ints, dtype=object)[inverse.reshape(parts.shape)]
    return np.concatenate([np.concatenate([re, -im], axis=-1),
                           np.concatenate([im, re], axis=-1)], axis=-2), q


def verify_coaction(action: CoAction, check_faithful: bool = True) -> QGReport:
    """All magic-unitary and coaction axioms as residuals, each an array
    expression in the coefficient tensor.

    Faithfulness is tested by saturating the linear span of products of
    u-entries: the action is faithful iff the span reaches the whole
    algebra.  The faithfulness entry of the report is the dimension
    deficit of `generation_deficit` (0.0 when faithful)."""
    qg = action.group
    U = action.coeffs
    rep = QGReport()
    stacks = action.stacks
    rep.residuals.update(max_operator_norms({
        "entries_idempotent": [S @ S - S for S in stacks],
        "entries_selfadjoint": [S.conj().swapaxes(-1, -2) - S for S in stacks],
        "row_sums": [S.sum(axis=1) - np.eye(S.shape[-1]) for S in stacks],
        "column_sums": [S.sum(axis=0) - np.eye(S.shape[-1]) for S in stacks]}))
    # Delta(u_ij) = sum_k u_ik (x) u_kj on coefficients, two matrix
    # products: delta as a (dim^2, dim) matrix against the entries, in
    # [b, g, i, j] order, and the [i, b] x k rows against the k x [j, g]
    # columns, in [i, b, j, g] order
    n, dim = action.n, qg.dim
    image = (qg.delta.reshape(dim * dim, dim) @ U.reshape(n * n, dim).T
             ).reshape(dim, dim, n, n)
    square = (U.transpose(0, 2, 1).reshape(n * dim, n) @ U.reshape(n, n * dim)
              ).reshape(n, dim, n, dim)
    rep.residuals["coaction_square"] = float(np.abs(
        image.transpose(2, 3, 0, 1) - square.transpose(0, 2, 1, 3)).max())
    rep.residuals["counit_compatibility"] = float(np.abs(
        U @ qg.epsilon - np.eye(action.n)).max())

    if check_faithful:
        rep.residuals["faithfulness_deficit"] = float(generation_deficit(action))
    return rep


def generation_deficit(action: CoAction) -> float:
    """dim A minus the dimension of the algebra generated by the u-entries:
    an orthonormal basis of the span of the unit and the entries is
    multiplied by every entry, block by block, and re-ranked by SVD (cut
    at max(tol, 1e-10), tol the space's) until the rank stops growing.
    NaN when an entry of u is not finite, since the rank is then
    undefined."""
    if not np.isfinite(action.coeffs).all():
        return float("nan")
    alg = action.group.algebra
    n2 = action.n * action.n
    vecs = np.vstack([alg.unit_vector, action.coeffs.reshape(n2, alg.dim)])
    rank = None
    while True:
        _, s, vh = np.linalg.svd(vecs, full_matrices=False)
        basis = vh[s > max(action.space.tol, 1e-10)]
        if len(basis) in (rank, alg.dim):
            return alg.dim - len(basis)
        rank = len(basis)
        vecs = np.vstack([basis, np.hstack([
            (B[:, None] @ stack.reshape(n2, b, b)).reshape(-1, b * b)
            for B, stack, b in zip(alg.split(basis), action.stacks, alg.blocks)])])


def act_on_point(action: CoAction, x: int, psi: StateFunctional) -> ProbVector:
    """x <| psi: the distribution with mass psi(u_xj) at j, row x of
    `act_on_points` on psi alone, which validates every row of psi."""
    return ProbVector(tuple(act_on_points(action, [psi])[0, x].tolist()))


def act_on_points(action: CoAction, states) -> np.ndarray:
    """x <| psi for every state and point: masses[s, x, j] = psi_s(u_xj),
    from one contraction of the coefficient tensor with the stacked state
    vectors.  Every row is then validated as `prob_vector` validates a
    float row, with the space's tol as eps: ValueError on a mass below
    -eps or a sum off 1 by more than eps, else negative fuzz clamped to 0
    and the row divided by its sum."""
    tol = action.space.tol
    n, dim = action.n, action.group.dim
    vecs = np.array([psi.as_vector() for psi in states]).reshape(-1, dim)
    masses = np.ascontiguousarray(
        (vecs @ action.coeffs.reshape(n * n, dim).T).real).reshape(-1, n, n)
    negative = (masses < -tol).any(axis=-1)
    if negative.any():
        raise ValueError(f"negative mass in {tuple(masses[negative][0].tolist())}")
    total = masses.sum(axis=-1)
    off = np.abs(total - 1) > tol
    if off.any():
        raise ValueError(f"mass sums to {total[off][0]}, not 1")
    np.maximum(masses, 0.0, out=masses)
    masses /= masses.sum(axis=-1)[..., None]
    return masses


def orbits(action: CoAction) -> List[FrozenSet[int]]:
    """O_x = {j : ||u_xj|| > the space's tol}; verified to be a partition."""
    n = action.n
    live = element_norms(action.group.algebra, action.coeffs) > action.space.tol
    sets = [frozenset(np.flatnonzero(row).tolist()) for row in live]
    for x in range(n):
        if x not in sets[x]:
            raise NotAPartition(f"{x} not in its own orbit")
        for y in range(n):
            if sets[x] & sets[y] and sets[x] != sets[y]:
                raise NotAPartition(f"orbits of {x} and {y} overlap but differ")
    out = []
    for s in sets:
        if s not in out:
            out.append(s)
    return out
