"""The largest quantum-group quotient acting (D)-isometrically.

For a magic-unitary coaction (Delta(u_ij) = sum_k u_ik (x) u_kj,
kappa(u_ij) = u_ji, eps(u_ij) = [i = j]) on a symmetric d, the defects
c = ud - du of (D) (`isometry.commutator_defects`) satisfy
Delta(c)_xy = sum_k u_xk (x) c_ky + c_xk (x) u_ky, kappa(c_xy) = -c_yx
and eps(c) = 0.  So the ideal I they generate is a Hopf ideal, and A/I
is the largest Hopf quotient whose induced action satisfies (D).  By
simplicity of each block, I is the set of blocks where some defect does
not vanish: the blocks where `check_D` fails, which
`isometry.defect_blocks` decides for both, so the envelope keeps no cut
of its own.

On a rational space whose blocks have exact forms that decision is
exact, and the theorem applies.  Elsewhere a block is cut at a defect
norm above tol x max d, and the theorem covers exact defects only:
near-isometries need not be closed under products (nor is a float d
symmetric beyond tol x max d).  Then the cut may be no Hopf ideal, and
a largest isometric quotient need not exist: on the float triangle with
sides 1, 1 + e, 1 + 2e, e just below the bound, the transpositions (01)
and (02) of C(S3) pass (D) and the 3-cycles do not, so C({e, (01)}) and
C({e, (02)}) are both maximal.  So the Hopf property is asserted: a cut
that fails it raises `QisoError` naming the first violation.  The
quotient's structure maps and induced action are verified on the first
read of `EnvelopeResult.reports` (`qiso envelope` reads it; the search
records only the dimension and the cut).  The verifiers only report
residuals, NaN for a non-finite entry, and raise for no quotient the
envelope returns, so deferring them defers no rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .algebra import FinDimCStarAlgebra
from .coaction import CoAction, verify_coaction
from .errors import QisoError
from .isometry import check_D, defect_blocks
from .quantum_group import QGReport, QuantumGroup, verify_quantum_group


@dataclass(frozen=True)
class BlockIdeal:
    """The two-sided ideal (+)_{k in included} M_{n_k}."""

    included_blocks: FrozenSet[int]

    def __contains__(self, k: int) -> bool:
        return k in self.included_blocks

    def __len__(self) -> int:
        return len(self.included_blocks)


def kappa_block_map(qg: QuantumGroup, tol: float = 1e-9) -> Dict[int, FrozenSet[int]]:
    """Which blocks the antipode sends each block into: the images of
    block k's matrix units are kappa's columns there."""
    reach = qg.algebra.block_any(np.abs(qg.kappa) > tol)
    return {k: frozenset(int(l) for l in np.flatnonzero(reach[:, k]))
            for k in range(len(qg.algebra.blocks))}


def _delta_violations(qg: QuantumGroup, included: FrozenSet[int],
                      tol: float) -> List[Tuple[int, int]]:
    """Surviving block pairs, in row-major order, that Delta of some basis
    element of the ideal reaches: where Delta(I) escapes I(x)A + A(x)I."""
    alg = qg.algebra
    killed = np.zeros(len(alg.blocks), dtype=bool)
    killed[list(included)] = True
    reach = alg.block_any(np.abs(qg.delta[:, :, killed[alg.block_of]]).max(
        axis=2, initial=0.0) > tol)
    return [(int(k), int(l)) for k, l in
            np.argwhere(reach & ~killed[:, None] & ~killed[None, :])]


def _hopf_violation(qg: QuantumGroup, included: FrozenSet[int],
                    tol: float) -> Optional[str]:
    """The first way a block ideal fails to be a Hopf ideal, or None.
    The counit block is found first, which raises when there is none,
    even for the empty ideal, which is otherwise a Hopf ideal."""
    counit = qg.counit_block()
    if counit in included:
        return f"the counit block {counit} is in the ideal"
    if not included:
        return None
    kmap = kappa_block_map(qg, tol)
    escapes = [(k, l) for k in sorted(included) for l in sorted(kmap[k] - included)]
    if escapes:
        return "kappa sends block {} to survivor {}".format(*escapes[0])
    pairs = _delta_violations(qg, included, tol)
    return f"Delta of the ideal reaches survivor pair {pairs[0]}" if pairs else None


# ---------------------------------------------------------------------------
# quotient construction


def quotient_quantum_group(qg: QuantumGroup, ideal: BlockIdeal,
                           name: str = "") -> Tuple[QuantumGroup, List[int]]:
    """Compress the structure maps to the surviving blocks.  Returns the
    quotient and the list of surviving original block indices.  When
    every block survives the quotient is qg renamed: it shares qg's
    algebra and structure maps, and keeps the group a group dual was
    built from, against which it is verified."""
    alg = qg.algebra
    name = name or f"{qg.name}/I"
    survivors = [k for k in range(len(alg.blocks)) if k not in ideal]
    if len(survivors) == len(alg.blocks):
        return replace(qg, name=name), survivors
    sub_alg = FinDimCStarAlgebra(tuple(alg.blocks[k] for k in survivors))
    keep = alg.block_indices(survivors)
    return QuantumGroup(sub_alg, qg.delta[np.ix_(keep, keep, keep)], qg.epsilon[keep],
                        qg.kappa[np.ix_(keep, keep)], name=name), survivors


def induced_action(action: CoAction, quotient: QuantumGroup,
                   survivors: List[int], name: str = "") -> CoAction:
    """Compress the magic unitary to the surviving blocks (the functorial
    triangle commutes by construction; verified downstream).  When every
    block survives the coefficients are the action's, unsliced."""
    coeffs = action.coeffs
    if len(survivors) < len(action.group.algebra.blocks):
        coeffs = coeffs[..., action.group.algebra.block_indices(survivors)]
    return CoAction(quotient, action.space, coeffs,
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
                "coaction": verify_coaction(self.induced, check_faithful=False)}


def envelope(action: CoAction) -> EnvelopeResult:
    """Failing blocks of (D) -> asserted Hopf ideal -> quotient and
    induced action, checked for (D).  The ideal is the blocks where
    `check_D` fails (`isometry.defect_blocks`); the structure maps are
    cut at the space's tol.  Raises `QisoError` when that cut is no Hopf
    ideal (see the module docstring) or the induced action fails (D).
    An empty cut skips that (D) check: its induced action has the
    action's coefficients, on which (D) was just decided.  The quotient and
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
    ideal = BlockIdeal(defect_blocks(action).blocks)
    violation = _hopf_violation(qg, ideal.included_blocks, action.space.tol)
    if violation:
        raise QisoError("the blocks where (D) fails form no Hopf ideal, so "
                        f"this tolerance decides no envelope: {violation}")
    quotient, survivors = quotient_quantum_group(qg, ideal)
    induced = induced_action(action, quotient, survivors)
    if ideal and not check_D(induced).holds:
        raise QisoError("induced action is not (D)-isometric; "
                        "envelope construction is broken")
    return EnvelopeResult(ideal=ideal, quotient=quotient, survivors=survivors,
                          induced=induced)
