"""Direct sums of complex matrix blocks: elements, states, positivity.

An element is a tuple of complex block matrices.  The canonical basis is
the family of matrix units, enumerated block by block in row-major order;
an element's coefficient vector with respect to that basis is just its
entries flattened, which keeps conversions trivial.  The algebra owns its
per-basis tables (the dimension, the unit's coefficients, each basis
element's block size, the permutation that * induces), each built on
first read.

A state is its coefficient vector psi(b_alpha) over the matrix units,
read-only; its block densities are derived from that vector on first
read.  The samplers and the Haar state write the vector directly, with no
per-block density.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import QisoError, ShapeMismatch


class BadVector(QisoError):
    pass


@dataclass(frozen=True)
class FinDimCStarAlgebra:
    """A direct sum of full matrix blocks of the given sizes."""

    blocks: Tuple[int, ...]

    def __post_init__(self):
        if not self.blocks or any(b < 1 for b in self.blocks):
            raise ShapeMismatch("block sizes must be positive")

    @cached_property
    def dim(self) -> int:
        return sum(b * b for b in self.blocks)

    @cached_property
    def offsets(self) -> Tuple[int, ...]:
        """The basis index of each block's first matrix unit."""
        out, acc = [], 0
        for b in self.blocks:
            out.append(acc)
            acc += b * b
        return tuple(out)

    @cached_property
    def block_of(self) -> np.ndarray:
        """block_of[a]: the block of basis element a."""
        return np.repeat(np.arange(len(self.blocks)), np.square(self.blocks))

    @cached_property
    def blocks_by_size(self) -> Dict[int, np.ndarray]:
        """{n: basis indices of the blocks of size n, as a (K, n, n) array}."""
        groups: Dict[int, list] = {}
        for off, n in zip(self.offsets, self.blocks):
            groups.setdefault(n, []).append(off + np.arange(n * n).reshape(n, n))
        return {n: np.array(idx) for n, idx in groups.items()}

    @cached_property
    def basis_sizes(self) -> np.ndarray:
        """basis_sizes[a]: the size n_k of the block of basis element a
        (read-only)."""
        return _read_only(np.repeat(self.blocks, np.square(self.blocks)))

    def _unit_positions(self) -> np.ndarray:
        """i n + j for the matrix unit E_ij of a block of size n, at each
        basis index."""
        return np.arange(self.dim) - np.array(self.offsets)[self.block_of]

    @cached_property
    def unit_vector(self) -> np.ndarray:
        """The unit's coefficients: 1 on every diagonal matrix unit, where
        i n + j = i (n + 1) (read-only, complex)."""
        diagonal = self._unit_positions() % (self.basis_sizes + 1) == 0
        return _read_only(diagonal.astype(complex))

    @cached_property
    def star_index(self) -> np.ndarray:
        """The permutation of basis indices that * induces: (E^k_ij)* =
        E^k_ji, so the coefficients of x* are x.conj()[star_index]
        (read-only)."""
        ij = self._unit_positions()
        i, j = np.divmod(ij, self.basis_sizes)
        return _read_only(np.arange(self.dim) - ij + j * self.basis_sizes + i)

    def block_indices(self, blocks: Sequence[int]) -> np.ndarray:
        """The basis indices of the given blocks, one block after another."""
        sizes = np.square(self.blocks)[np.asarray(blocks, dtype=int)]
        return np.arange(sizes.sum()) + np.repeat(
            np.array(self.offsets)[blocks] - np.cumsum(sizes) + sizes, sizes)

    def block_any(self, mask: np.ndarray) -> np.ndarray:
        """A boolean array indexed by the basis on every axis, reduced to
        the blocks: out[k, l, ...] is whether mask holds anywhere on the
        basis elements of blocks k, l, ... ."""
        if len(self.blocks) < self.dim:
            for axis in range(mask.ndim):
                mask = np.logical_or.reduceat(mask, self.offsets, axis=axis)
        return mask

    def split(self, X: np.ndarray) -> List[np.ndarray]:
        """The blocks of the elements X[..., a] (coefficient vectors on the
        last axis), one (..., b, b) array per block, in block order: views
        of X where its last axis is contiguous.  The one slicing of the
        basis by block that other modules read."""
        lead = X.shape[:-1]
        return [X[..., off:off + b * b].reshape(lead + (b, b))
                for off, b in zip(self.offsets, self.blocks)]

    @cached_property
    def trace_matrix(self) -> np.ndarray:
        """(dim, K): the block traces of coefficient vectors X are X @
        trace_matrix, column k summing the diagonal units of block k."""
        rows = np.zeros((len(self.blocks), self.dim))
        for k, view in enumerate(self.split(rows)):
            view[k] = np.eye(self.blocks[k])
        return rows.T

    def element_blocks(self, X: np.ndarray) -> List[np.ndarray]:
        """The blocks of the elements X[..., a] (coefficient vectors on the
        last axis), one stack of shape (..., K, n, n) per block size n, in
        the order of `blocks_by_size`."""
        return [X[..., idx] for idx in self.blocks_by_size.values()]

    def index_of(self, k: int, i: int, j: int) -> int:
        """Basis index of the matrix unit E_ij in block k."""
        return self.offsets[k] + i * self.blocks[k] + j

    def zero(self) -> "AlgElement":
        return AlgElement(self, tuple(np.zeros((b, b), dtype=complex)
                                      for b in self.blocks))

    def unit(self) -> "AlgElement":
        return AlgElement(self, tuple(np.eye(b, dtype=complex)
                                      for b in self.blocks))

    def from_vec(self, vec) -> "AlgElement":
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (self.dim,):
            raise ShapeMismatch(f"vector of length {vec.shape}, need {self.dim}")
        return AlgElement(self, tuple(m.copy() for m in self.split(vec)))

    def basis_element(self, idx: int) -> "AlgElement":
        vec = np.zeros(self.dim, dtype=complex)
        vec[idx] = 1.0
        return self.from_vec(vec)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class AlgElement:
    """An element of a block algebra; immutable by convention."""

    __slots__ = ("owner", "data")

    def __init__(self, owner: FinDimCStarAlgebra, data: Sequence[np.ndarray]):
        if len(data) != len(owner.blocks):
            raise ShapeMismatch("wrong number of blocks")
        for m, b in zip(data, owner.blocks):
            if m.shape != (b, b):
                raise ShapeMismatch(f"block shape {m.shape}, need ({b},{b})")
        self.owner = owner
        self.data = tuple(np.asarray(m, dtype=complex) for m in data)

    def vec(self) -> np.ndarray:
        return np.concatenate([m.ravel() for m in self.data])

    def __add__(self, other: "AlgElement") -> "AlgElement":
        return AlgElement(self.owner, tuple(a + b for a, b in zip(self.data, other.data)))

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        return AlgElement(self.owner, tuple(a - b for a, b in zip(self.data, other.data)))

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            return AlgElement(self.owner, tuple(a @ b for a, b in zip(self.data, other.data)))
        return AlgElement(self.owner, tuple(complex(other) * a for a in self.data))

    def __rmul__(self, scalar) -> "AlgElement":
        return AlgElement(self.owner, tuple(complex(scalar) * a for a in self.data))

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.owner, tuple(-a for a in self.data))

    def star(self) -> "AlgElement":
        return AlgElement(self.owner, tuple(a.conj().T for a in self.data))

    def norm(self) -> float:
        """Operator norm: the largest block spectral norm."""
        out = 0.0
        for m in self.data:
            if m.shape == (1, 1):
                out = max(out, abs(m[0, 0]))
            else:
                out = max(out, float(np.linalg.norm(m, 2)))
        return out


def operator_norms(mats: np.ndarray) -> np.ndarray:
    """The spectral norms of a stack of square matrices (..., m, m); a 1x1
    matrix takes abs, as `AlgElement.norm` does."""
    if mats.shape[-1] == 1:
        return np.abs(mats[..., 0, 0])
    return np.linalg.norm(mats, 2, axis=(-2, -1))


def max_operator_norms(named: Dict[str, Sequence[np.ndarray]]) -> Dict[str, float]:
    """For each name, the largest of `operator_norms` over its stacks of
    square matrices (..., m, m), or NaN when an entry of one is not
    finite, on which the SVD would not converge."""
    return {name: float(np.max([operator_norms(mats).max() if np.isfinite(mats).all()
                                else np.nan for mats in stacks]))
            for name, stacks in named.items()}


def element_norms(algebra: FinDimCStarAlgebra, X: np.ndarray) -> np.ndarray:
    """The operator norms of the elements X[..., a] of the algebra (their
    coefficient vectors on the last axis): the largest spectral norm over
    blocks, taken one stack of equal-sized blocks at a time."""
    return np.max([operator_norms(stack).max(axis=-1)
                   for stack in algebra.element_blocks(X)], axis=0)


# ---------------------------------------------------------------------------
# exact positivity

def exact_psd(M) -> bool:
    """Whether a symmetric int matrix (a sequence of rows) is PSD, by
    fraction-free symmetric elimination (Bareiss 1968): a negative pivot
    means not PSD; a zero pivot needs a zero row, which is dropped;
    otherwise the rest is replaced by its Schur complement times the
    pivot, divided exactly by the previous pivot.  Each step keeps
    PSD-ness both ways.  A Hermitian matrix is PSD iff its real form
    [[Re, -Im], [Im, Re]] is, which `CoAction.exact_block` stores."""
    M = [list(row) for row in M]
    prev = 1
    while M:
        pivot, head = M[0][0], M[0]
        if pivot < 0 or (pivot == 0 and any(head)):
            return False
        if pivot:
            M = [[(pivot * v - row[0] * h) // prev
                  for v, h in zip(row[1:], head[1:])] for row in M[1:]]
            prev = pivot
        else:
            M = [row[1:] for row in M[1:]]
    return True


# ---------------------------------------------------------------------------
# states and general functionals

class StateFunctional:
    """A linear functional a -> sum_k tr(rho_k a_k); a state when every
    rho_k is PSD and the traces sum to 1.  Stored as its coefficient
    vector psi(b_alpha) over the matrix units, which `as_vector` returns
    read-only; the densities rho_k are derived from it on first read."""

    __slots__ = ("owner", "_vector", "_densities")

    def __init__(self, owner: FinDimCStarAlgebra, densities: Sequence[np.ndarray]):
        if len(densities) != len(owner.blocks):
            raise ShapeMismatch("wrong number of density blocks")
        self.owner = owner
        self._densities = tuple(np.asarray(m, dtype=complex) for m in densities)
        # tr(rho E_ij) = rho[j, i]
        self._vector = _read_only(np.concatenate([rho.T.ravel() for rho in self._densities]))

    @classmethod
    def _of_vector(cls, owner: FinDimCStarAlgebra, vec: np.ndarray) -> "StateFunctional":
        """The functional with coefficient vector `vec`, a complex array of
        length dim that the state takes over."""
        psi = cls.__new__(cls)
        psi.owner, psi._vector, psi._densities = owner, _read_only(vec), None
        return psi

    @property
    def densities(self) -> Tuple[np.ndarray, ...]:
        """The block densities rho_k, derived from the vector on first read."""
        if self._densities is None:
            self._densities = tuple(m.T.copy() for m in self.owner.split(self._vector))
        return self._densities

    def as_vector(self) -> np.ndarray:
        """psi(b_alpha) over the matrix-unit basis, read-only."""
        return self._vector

    @staticmethod
    def from_vector(owner: FinDimCStarAlgebra, vec) -> "StateFunctional":
        vec = np.array(vec, dtype=complex)
        if vec.shape != (owner.dim,):
            raise ShapeMismatch(f"vector of length {vec.shape}, need {owner.dim}")
        return StateFunctional._of_vector(owner, vec)

    def is_state(self, tol: float) -> bool:
        total = 0.0
        for rho in self.densities:
            if np.linalg.norm(rho - rho.conj().T) > tol:
                return False
            if np.linalg.eigvalsh(rho)[0] < -tol:
                return False
            total += float(np.trace(rho).real)
        return abs(total - 1.0) <= tol


def random_state(algebra: FinDimCStarAlgebra, seed: int) -> StateFunctional:
    """Full-support sampler: Ginibre-normalized block densities with
    Dirichlet block weights, drawn from `random.Random(seed)`.  The weights
    are normalized `expovariate(1.0)` draws, one per block; then each block
    of size b > 1, in order, draws a Ginibre matrix G from `gauss` (real and
    imaginary part in turn) and takes G G* / tr(G G*) times its weight.  A
    1x1 block's density is its weight, so it draws none.  The state's
    vector is written directly: the weights on every block, then each
    larger block's density over them.  Deterministic in the seed, which
    is an int >= 0 as for numpy's generators: a float raises TypeError, a
    negative int ValueError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    weights = np.array([rng.expovariate(1.0) for _ in algebra.blocks])
    weights /= weights.sum()
    vec = weights[algebra.block_of].astype(complex)
    for k, (off, b) in enumerate(zip(algebra.offsets, algebra.blocks)):
        if b > 1:
            G = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * b * b)]
                         ).view(complex).reshape(b, b)
            rho = G @ G.conj().T
            vec[off:off + b * b] = (rho / np.trace(rho).real * weights[k]).T.ravel()
    return StateFunctional._of_vector(algebra, vec)


def extreme_state(algebra: FinDimCStarAlgebra, block: int, xi) -> StateFunctional:
    """The vector state on one block; on a 1x1 block, its character."""
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (algebra.blocks[block],):
        raise BadVector(f"vector length {xi.shape} for block size "
                        f"{algebra.blocks[block]}")
    if abs(np.linalg.norm(xi) - 1.0) > 1e-9:
        raise BadVector("vector state needs a unit vector")
    off, b = algebra.offsets[block], algebra.blocks[block]
    vec = np.zeros(algebra.dim, dtype=complex)
    vec[off:off + b * b] = np.outer(xi, xi.conj()).T.ravel()
    return StateFunctional._of_vector(algebra, vec)
