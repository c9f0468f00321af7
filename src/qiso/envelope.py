"""The largest quantum-group quotient acting (D)-isometrically.

For a magic-unitary coaction (Delta(u_ij) = sum_k u_ik (x) u_kj,
kappa(u_ij) = u_ji, eps(u_ij) = [i = j]) on a symmetric d, the defects
c = ud - du of (D) (`isometry.commutator_defects`) satisfy
Delta(c)_xy = sum_k u_xk (x) c_ky + c_xk (x) u_ky, kappa(c_xy) = -c_yx
and eps(c) = 0.  So the ideal I they generate is a Hopf ideal, and A/I
is the largest Hopf quotient whose induced action satisfies (D).  By
simplicity of each block, I is the set of blocks where some defect does
not vanish.

The envelope cuts where `check_D` cuts, at a block norm above
tol x max d, and the theorem covers exact defects only: near-isometries
need not be closed under products (nor is a float d symmetric beyond
tol x max d).  Then the cut is no Hopf ideal and a largest isometric
quotient need not exist: on the float triangle with sides 1, 1 + e,
1 + 2e, e just below the bound, the transpositions (01) and (02) of
C(S3) pass (D) and the 3-cycles do not, so C({e, (01)}) and
C({e, (02)}) are both maximal.  So the Hopf property is asserted: a cut
that fails it raises `QisoError` naming the first violation.  The
quotient's structure maps and induced action are verified on the first
read of `EnvelopeResult.reports` (`qiso envelope` reads it; the search
records only the dimension and the cut).  The verifiers only report
residuals, NaN for a non-finite entry, and raise for no quotient the
envelope returns, so deferring them defers no rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .algebra import FinDimCStarAlgebra, operator_norms_above
from .coaction import CoAction, verify_coaction
from .errors import QisoError
from .isometry import check_D, commutator_defects
from .quantum_group import QGReport, QuantumGroup, verify_quantum_group


@dataclass(frozen=True)
class BlockIdeal:
    """The two-sided ideal (+)_{k in included} M_{n_k}."""

    included_blocks: FrozenSet[int]

    def __contains__(self, k: int) -> bool:
        return k in self.included_blocks

    def __len__(self) -> int:
        return len(self.included_blocks)


def generated_ideal(qg: QuantumGroup, generators: np.ndarray,
                    tol: float = 1e-9) -> BlockIdeal:
    """Blocks where some generator, a coefficient vector on the last axis,
    has spectral norm above tol: by simplicity of each block, the ideal the
    generators generate.  These are the block norms `check_D` takes, and
    `operator_norms_above` decomposes only the blocks that neither their
    largest entry nor their Frobenius norm decides."""
    alg = qg.algebra
    X = np.asarray(generators).reshape(-1, alg.dim)
    killed = np.zeros(len(alg.blocks), dtype=bool)
    for n, idx in alg.blocks_by_size.items():
        killed[np.array(alg.blocks) == n] = operator_norms_above(
            X[:, idx], tol).any(axis=0)
    return BlockIdeal(frozenset(int(k) for k in np.flatnonzero(killed)))


def _block_peaks(alg: FinDimCStarAlgebra, A: np.ndarray) -> np.ndarray:
    """The (K, K) largest entries of the block pairs of a (dim, dim) A >= 0."""
    starts = np.array(alg.offsets)
    return np.maximum.reduceat(np.maximum.reduceat(A, starts, axis=0),
                               starts, axis=1)


def kappa_block_map(qg: QuantumGroup, tol: float = 1e-9) -> Dict[int, FrozenSet[int]]:
    """Which blocks the antipode sends each block into: the images of
    block k's matrix units are kappa's columns there."""
    reach = _block_peaks(qg.algebra, np.abs(qg.kappa)) > tol
    return {k: frozenset(int(l) for l in np.flatnonzero(reach[:, k]))
            for k in range(len(qg.algebra.blocks))}


def _delta_violations(qg: QuantumGroup, included: FrozenSet[int],
                      tol: float) -> List[Tuple[int, int]]:
    """Surviving block pairs, in row-major order, that Delta of some basis
    element of the ideal reaches: where Delta(I) escapes I(x)A + A(x)I."""
    killed = np.zeros(len(qg.algebra.blocks), dtype=bool)
    killed[list(included)] = True
    in_ideal = np.repeat(killed, np.square(qg.algebra.blocks))
    reach = _block_peaks(qg.algebra, np.abs(qg.delta[:, :, in_ideal]).max(
        axis=2, initial=0.0)) > tol
    return [(int(k), int(l)) for k, l in
            np.argwhere(reach & ~killed[:, None] & ~killed[None, :])]


def _hopf_violation(qg: QuantumGroup, included: FrozenSet[int],
                    tol: float) -> Optional[str]:
    """The first way a block ideal fails to be a Hopf ideal, or None."""
    if qg.counit_block() in included:
        return f"the counit block {qg.counit_block()} is in the ideal"
    kmap = kappa_block_map(qg, tol)
    escapes = [(k, l) for k in sorted(included) for l in sorted(kmap[k] - included)]
    if escapes:
        return "kappa sends block {} to survivor {}".format(*escapes[0])
    pairs = _delta_violations(qg, included, tol)
    return f"Delta of the ideal reaches survivor pair {pairs[0]}" if pairs else None


# ---------------------------------------------------------------------------
# quotient construction


def _block_indices(alg: FinDimCStarAlgebra, blocks: List[int]) -> np.ndarray:
    """The basis indices of the given blocks, in order."""
    return np.concatenate([alg.offsets[k] + np.arange(alg.blocks[k] ** 2)
                           for k in blocks])


def quotient_quantum_group(qg: QuantumGroup, ideal: BlockIdeal,
                           name: str = "") -> Tuple[QuantumGroup, List[int]]:
    """Compress the structure maps to the surviving blocks.  Returns the
    quotient and the list of surviving original block indices."""
    alg = qg.algebra
    survivors = [k for k in range(len(alg.blocks)) if k not in ideal]
    sub_alg = FinDimCStarAlgebra(tuple(alg.blocks[k] for k in survivors))
    keep = _block_indices(alg, survivors)
    return QuantumGroup(sub_alg, qg.delta[np.ix_(keep, keep, keep)], qg.epsilon[keep],
                        qg.kappa[np.ix_(keep, keep)],
                        name=name or f"{qg.name}/I"), survivors


def induced_action(action: CoAction, quotient: QuantumGroup,
                   survivors: List[int], name: str = "") -> CoAction:
    """Compress the magic unitary to the surviving blocks (the functorial
    triangle commutes by construction; verified downstream)."""
    keep = _block_indices(action.group.algebra, survivors)
    return CoAction(quotient, action.space, action.coeffs[..., keep],
                    name=name or f"{action.name}-envelope")


@dataclass
class EnvelopeResult:
    ideal: BlockIdeal
    quotient: QuantumGroup
    survivors: List[int]
    induced: CoAction

    @property
    def dimension(self) -> int:
        return self.quotient.dim

    @cached_property
    def reports(self) -> Dict[str, QGReport]:
        """The quotient's axioms and the induced action's, verified on
        first read: residual reports, which raise for no quotient that
        `envelope` returns."""
        return {"quantum_group": verify_quantum_group(self.quotient),
                "coaction": verify_coaction(self.induced, tol=self.induced.space.tol,
                                            check_faithful=False)}


def envelope(action: CoAction) -> EnvelopeResult:
    """Defects -> generated ideal -> asserted Hopf ideal -> quotient and
    induced action, checked for (D).  The ideal is cut at the space's
    tol x max d, as `check_D` cuts the defects; the structure maps are cut
    at tol.  Raises `QisoError` when that cut is no Hopf ideal (see the
    module docstring) or the induced action fails (D).  The quotient and
    the induced action are verified on the first read of the result's
    `reports`, which `qiso envelope` prints.  A non-finite entry of u or
    of a structure map raises `QisoError` before the cut, which could not
    decide its blocks."""
    qg = action.group
    for name, entries in (("u", action.coeffs), ("delta", qg.delta),
                          ("epsilon", qg.epsilon), ("kappa", qg.kappa)):
        if not np.isfinite(entries).all():
            raise QisoError(f"{name} has a non-finite entry, so no envelope "
                            "can be cut")
    tol = action.space.tol
    ideal = generated_ideal(qg, commutator_defects(action),
                            tol * float(action.space.max_distance))
    violation = _hopf_violation(qg, ideal.included_blocks, tol)
    if violation:
        raise QisoError("the blocks where the (D) defects exceed tol x max d form "
                        f"no Hopf ideal, so this tolerance decides no envelope: {violation}")
    quotient, survivors = quotient_quantum_group(qg, ideal)
    induced = induced_action(action, quotient, survivors)
    if not check_D(induced).holds:
        raise QisoError("induced action is not (D)-isometric; "
                        "envelope construction is broken")
    return EnvelopeResult(ideal=ideal, quotient=quotient, survivors=survivors,
                          induced=induced)
