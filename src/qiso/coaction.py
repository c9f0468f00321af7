"""Magic-unitary coactions of finite quantum groups on finite metric spaces.

The coaction rho: C(X) -> C(X) (x) A is stored through its magic unitary
u = (u_ij), convention rho(e_j) = sum_i e_i (x) u_ij, and through one
coefficient tensor built from it: coeffs[i, j] is u_ij's coefficient
vector over the matrix-unit basis of A.  The axioms, condition (D) and
the state actions are linear in the u_ij, so they are array expressions
in that tensor; products of entries use its per-block views.  States act
on points from the right (x <| psi is the distribution j -> psi(u_xj))
and on functions from the left ((psi |> f)(x) = sum_j f_j psi(u_xj))."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, List, Tuple

import numpy as np

from .algebra import AlgElement, StateFunctional, element_norms, max_operator_norms
from .errors import QisoError, ShapeMismatch
from .metric import FiniteMetricSpace
from .quantum_group import QGReport, QuantumGroup
from .transport import ProbVector, prob_vector


class NotAPartition(QisoError):
    pass


@dataclass
class CoAction:
    group: QuantumGroup
    space: FiniteMetricSpace
    u: Tuple[Tuple[AlgElement, ...], ...]
    name: str = ""
    # coeffs[i, j]: u_ij over the matrix-unit basis, shape (n, n, dim);
    # stacks[k]: its (n, n, b_k, b_k) view on block k.  Both read-only.
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    stacks: List[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.space.n
        if len(self.u) != n or any(len(row) != n for row in self.u):
            raise ShapeMismatch("magic unitary size differs from the space")
        self.u = tuple(tuple(row) for row in self.u)
        alg = self.group.algebra
        self.coeffs = np.array([[e.vec() for e in row] for row in self.u])
        self.coeffs.flags.writeable = False
        self.stacks = [self.coeffs[..., off:off + b * b].reshape(n, n, b, b)
                       for off, b in zip(alg.offsets, alg.blocks)]

    @property
    def n(self) -> int:
        return self.space.n

    @cached_property
    def block_supports(self) -> np.ndarray:
        """supports[k, x]: the j, in increasing order, whose projection u_xj
        has trace >= 1 on block k (the others vanish there), padded with -1
        to the longest such row of any block.  One trace per block, taken
        on first use: the universal checks share it, and the envelope's
        induced actions, which never read it, do not pay for it."""
        alg = self.group.algebra
        diagonal = [off + a * (b + 1) for off, b in zip(alg.offsets, alg.blocks)
                    for a in range(b)]
        starts = np.cumsum((0,) + tuple(alg.blocks[:-1]))
        live = np.moveaxis(np.add.reduceat(
            self.coeffs[..., diagonal].real, starts, axis=2) > 0.5, 2, 0)
        place = np.cumsum(live, axis=2) - 1    # each live j's place in its row
        k, x, j = np.nonzero(live)
        supports = np.full(live.shape[:2] + (place.max() + 1,), -1)
        supports[k, x, place[k, x, j]] = j
        return supports


def verify_coaction(action: CoAction, tol: float = 1e-9,
                    check_faithful: bool = True) -> QGReport:
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
    # Delta(u_ij) = sum_k u_ik (x) u_kj on coefficients
    rep.residuals["coaction_square"] = float(np.abs(
        np.einsum("bga,ija->ijbg", qg.delta, U, optimize=True)
        - np.einsum("ikb,kjg->ijbg", U, U, optimize=True)).max())
    rep.residuals["counit_compatibility"] = float(np.abs(
        U @ qg.epsilon - np.eye(action.n)).max())

    if check_faithful:
        rep.residuals["faithfulness_deficit"] = float(generation_deficit(action, tol))
    return rep


def generation_deficit(action: CoAction, tol: float = 1e-9) -> float:
    """dim A minus the dimension of the algebra generated by the u-entries:
    an orthonormal basis of the span of the unit and the entries is
    multiplied by every entry, block by block, and re-ranked by SVD (cut
    at max(tol, 1e-10)) until the rank stops growing.  NaN when an entry
    of u is not finite, since the rank is then undefined."""
    if not np.isfinite(action.coeffs).all():
        return float("nan")
    alg = action.group.algebra
    n2 = action.n * action.n
    vecs = np.vstack([action.group.unit_vec(), action.coeffs.reshape(n2, alg.dim)])
    rank = None
    while True:
        _, s, vh = np.linalg.svd(vecs, full_matrices=False)
        basis = vh[s > max(tol, 1e-10)]
        if len(basis) in (rank, alg.dim):
            return alg.dim - len(basis)
        rank = len(basis)
        vecs = np.vstack([basis, np.hstack([
            (basis[:, off:off + b * b].reshape(-1, 1, b, b)
             @ stack.reshape(1, n2, b, b)).reshape(-1, b * b)
            for off, b, stack in zip(alg.offsets, alg.blocks, action.stacks)])])


def act_on_point(action: CoAction, x: int, psi: StateFunctional,
                 tol: float = 1e-9) -> ProbVector:
    """x <| psi: the distribution with mass psi(u_xj) at j."""
    return prob_vector((action.coeffs[x] @ psi.as_vector()).real.tolist(),
                       tol=tol)


def act_on_function(action: CoAction, psi: StateFunctional, f) -> Tuple[float, ...]:
    """psi |> f = (id (x) psi) rho(f); satisfies (psi|>f)(x) = (x <| psi)(f)."""
    if len(f) != action.n:
        raise ShapeMismatch("function length differs from the space")
    values = (action.coeffs @ psi.as_vector()).real
    return tuple((values @ np.array([float(v) for v in f])).tolist())


def orbits(action: CoAction, tol: float = 1e-9) -> List[FrozenSet[int]]:
    """O_x = {j : u_xj != 0}; verified to be a partition of the points."""
    n = action.n
    live = element_norms(action.group.algebra, action.coeffs) > tol
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
