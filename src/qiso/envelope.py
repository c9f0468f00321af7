"""The largest quantum-group quotient acting (D)-isometrically.

Pipeline: the defect elements of condition (D), the coefficient vectors
of `isometry.commutator_defects`, generate a two-sided ideal
(a set of blocks, by block simplicity); the ideal is saturated into the
smallest Hopf ideal containing it (closure under the antipode block
permutation plus the comultiplication condition Delta(I) <= I(x)A + A(x)I,
resolved by branching when a violation can be repaired two ways); the
quotient inherits the structure maps by compression, and the compressed
magic unitary is the induced (D)-isometric action.  Every step is
verified, not assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .algebra import AlgElement, FinDimCStarAlgebra
from .coaction import CoAction, verify_coaction
from .errors import QisoError, SizeGuardExceeded
from .isometry import check_D, commutator_defects
from .quantum_group import QGReport, QuantumGroup, verify_quantum_group


class SaturationReachedFullAlgebra(QisoError):
    pass


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
    """Blocks where some generator does not vanish; by simplicity of each
    block this is exactly the two-sided ideal the generators generate.
    The generators are coefficient vectors on the last axis, such as the
    (n, n, dim) defect tensor of condition (D)."""
    alg = qg.algebra
    peak = np.abs(np.asarray(generators)).reshape(-1, alg.dim).max(
        axis=0, initial=0.0)
    return BlockIdeal(frozenset(
        k for k, (off, b) in enumerate(zip(alg.offsets, alg.blocks))
        if peak[off:off + b * b].max() > tol))


def kappa_block_map(qg: QuantumGroup, tol: float = 1e-9) -> Dict[int, FrozenSet[int]]:
    """Which blocks the antipode sends each block into: the images of
    block k's matrix units are kappa's columns there."""
    alg = qg.algebra
    spans = [slice(off, off + b * b) for off, b in zip(alg.offsets, alg.blocks)]
    return {k: frozenset(l for l, rows in enumerate(spans)
                         if np.abs(qg.kappa[rows, cols]).max() > tol)
            for k, cols in enumerate(spans)}


def _delta_violations(qg: QuantumGroup, included: FrozenSet[int],
                      tol: float) -> List[Tuple[int, int]]:
    """Surviving block pairs (k, l) where Delta of some ideal element has a
    residual, i.e. Delta(I) escapes I(x)A + A(x)I."""
    alg = qg.algebra
    survivors = [k for k in range(len(alg.blocks)) if k not in included]
    bad = set()
    for k in included:
        off, b = alg.offsets[k], alg.blocks[k]
        for idx in range(off, off + b * b):
            M = qg.delta[:, :, idx]
            for k1 in survivors:
                o1, b1 = alg.offsets[k1], alg.blocks[k1]
                for k2 in survivors:
                    o2, b2 = alg.offsets[k2], alg.blocks[k2]
                    if np.abs(M[o1:o1 + b1 * b1, o2:o2 + b2 * b2]).max() > tol:
                        bad.add((k1, k2))
    return sorted(bad)


def is_hopf_ideal(qg: QuantumGroup, included: FrozenSet[int],
                  tol: float = 1e-9) -> bool:
    """Delta-, kappa- and counit-compatibility of a block ideal."""
    if qg.counit_block() in included:
        return False
    kmap = kappa_block_map(qg, tol)
    if any(not kmap[k] <= included for k in included):
        return False
    return not _delta_violations(qg, included, tol)


def hopf_saturate(qg: QuantumGroup, ideal: BlockIdeal,
                  tol: float = 1e-9) -> Tuple[BlockIdeal, int]:
    """The smallest Hopf ideal containing the given one, plus the number of
    blocks that had to be added (expected to be zero for defect-generated
    ideals; a nonzero count is surfaced, not hidden).

    Closure under the antipode is a block-set closure; the
    comultiplication condition may be repairable by killing either member
    of a violating survivor pair, so the minimum is found by branching
    (the minimum is unique: Hopf ideals of a finite-dimensional Hopf
    algebra are closed under intersection)."""
    counit_block = qg.counit_block()
    kmap = kappa_block_map(qg, tol)
    memo: Dict[FrozenSet[int], Optional[FrozenSet[int]]] = {}

    def close_kappa(inc: FrozenSet[int]) -> FrozenSet[int]:
        out = set(inc)
        changed = True
        while changed:
            changed = False
            for k in list(out):
                extra = kmap[k] - out
                if extra:
                    out |= extra
                    changed = True
        return frozenset(out)

    def search(inc: FrozenSet[int]) -> Optional[FrozenSet[int]]:
        inc = close_kappa(inc)
        if counit_block in inc:
            return None
        if inc in memo:
            return memo[inc]
        memo[inc] = None  # cycle guard; overwritten below
        violations = _delta_violations(qg, inc, tol)
        if not violations:
            memo[inc] = inc
            return inc
        k1, k2 = violations[0]
        candidates = [search(inc | {k1}), search(inc | {k2})]
        candidates = [c for c in candidates if c is not None]
        best = min(candidates, key=len) if candidates else None
        memo[inc] = best
        return best

    result = search(ideal.included_blocks)
    if result is None:
        raise SaturationReachedFullAlgebra(
            "no proper Hopf ideal contains the generators")
    return BlockIdeal(result), len(result) - len(ideal.included_blocks)


# ---------------------------------------------------------------------------
# quotient construction


def quotient_quantum_group(qg: QuantumGroup, ideal: BlockIdeal,
                           name: str = "") -> Tuple[QuantumGroup, List[int]]:
    """Compress the structure maps to the surviving blocks.  Returns the
    quotient and the list of surviving original block indices."""
    alg = qg.algebra
    survivors = [k for k in range(len(alg.blocks)) if k not in ideal]
    if not survivors:
        raise SaturationReachedFullAlgebra("the ideal is the whole algebra")
    keep = []
    for k in survivors:
        off, b = alg.offsets[k], alg.blocks[k]
        keep.extend(range(off, off + b * b))
    keep = np.array(keep)
    sub_alg = FinDimCStarAlgebra(tuple(alg.blocks[k] for k in survivors))
    delta = qg.delta[np.ix_(keep, keep, keep)]
    epsilon = qg.epsilon[keep]
    kappa = qg.kappa[np.ix_(keep, keep)]
    return QuantumGroup(sub_alg, delta, epsilon, kappa,
                        name=name or f"{qg.name}/I"), survivors


def induced_action(action: CoAction, quotient: QuantumGroup,
                   survivors: List[int], name: str = "") -> CoAction:
    """Compress the magic unitary blockwise (the functorial triangle
    commutes by construction; verified downstream)."""
    n = action.n
    u = tuple(tuple(AlgElement(quotient.algebra,
                               tuple(action.u[i][j].data[k] for k in survivors))
                    for j in range(n)) for i in range(n))
    return CoAction(quotient, action.space, u,
                    name=name or f"{action.name}-envelope")


@dataclass
class EnvelopeResult:
    ideal: BlockIdeal
    quotient: QuantumGroup
    survivors: List[int]
    induced: CoAction
    iterations: int
    reports: Dict[str, QGReport]

    @property
    def dimension(self) -> int:
        return self.quotient.dim


def envelope(action: CoAction) -> EnvelopeResult:
    """Defects -> generated ideal -> Hopf saturation -> verified quotient.
    The defects are linear in d, so the ideal is cut at the space's tol x
    max d, as `check_D` cuts them; the structure maps are cut at tol."""
    qg = action.group
    tol = action.space.tol
    ideal0 = generated_ideal(qg, commutator_defects(action),
                             tol * float(action.space.max_distance))
    ideal, added = hopf_saturate(qg, ideal0, tol)
    quotient, survivors = quotient_quantum_group(qg, ideal)
    induced = induced_action(action, quotient, survivors)
    reports: Dict[str, QGReport] = {
        "quantum_group": verify_quantum_group(quotient),
        "coaction": verify_coaction(induced, tol=tol, check_faithful=False)}
    if not check_D(induced).holds:
        raise QisoError("induced action is not (D)-isometric; "
                        "envelope construction is broken")
    return EnvelopeResult(ideal=ideal, quotient=quotient, survivors=survivors,
                          induced=induced, iterations=added, reports=reports)


# ---------------------------------------------------------------------------
# the universal property, checked by exhaustion at desk scale


def verify_universal_property(action: CoAction, env: EnvelopeResult,
                              max_blocks: int = 12) -> dict:
    """Enumerate every block subset defining a Hopf quotient; every one
    whose induced action passes condition (D) must contain the envelope's
    ideal (i.e. factor through it).  Reports violations (there must be
    none) and the lattice of (D)-isometric quotients found."""
    qg = action.group
    K = len(qg.algebra.blocks)
    if K > max_blocks:
        raise SizeGuardExceeded(f"universal property exhaustion needs <= {max_blocks} blocks")
    violations = []
    isometric_quotients = []
    for size in range(K):
        for subset in itertools.combinations(range(K), size):
            J = frozenset(subset)
            if not is_hopf_ideal(qg, J, action.space.tol):
                continue
            quotient, survivors = quotient_quantum_group(qg, BlockIdeal(J))
            act = induced_action(action, quotient, survivors)
            if not check_D(act).holds:
                continue
            isometric_quotients.append(sorted(J))
            if not env.ideal.included_blocks <= J:
                violations.append(sorted(J))
    return {"violations": violations,
            "isometric_quotients": isometric_quotients}


def annihilator_convolution_check(qg: QuantumGroup, ideal: BlockIdeal,
                                  samples: int = 100, seed: int = 0,
                                  tol: float = 1e-8) -> bool:
    """Functionals vanishing on the ideal must be closed under convolution."""
    rng = np.random.default_rng(seed)
    alg = qg.algebra
    mask = np.zeros(alg.dim)
    for k in range(len(alg.blocks)):
        if k not in ideal:
            off, b = alg.offsets[k], alg.blocks[k]
            mask[off:off + b * b] = 1.0
    for _ in range(samples):
        phi = (rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim)) * mask
        psi = (rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim)) * mask
        conv = qg.convolve_vectors(phi, psi)
        if np.abs(conv * (1.0 - mask)).max() > tol:
            return False
    return True
