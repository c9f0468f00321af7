"""Finite quantum groups as block algebras with explicit structure maps.

The comultiplication, counit and antipode are plain linear maps over the
canonical matrix-unit basis, so every Hopf axiom is a finite linear-algebra
residual.  Verification reports the worst violation per axiom; catalog
constructors (function algebras of permutation groups, group algebras of
finite groups presented by unitary irreps) are exact by construction and
must pass at 1e-10.  A group dual keeps the group it is built from and
is verified against it on the group basis; a commutative one is verified
against the Cayley table its comultiplication defines, and any other
against the group of its group-likes when it is cocommutative.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import FinDimCStarAlgebra, StateFunctional, max_operator_norms
from .errors import QisoError, ShapeMismatch


class KacViolation(QisoError):
    pass


class NoInvariantState(QisoError):
    pass


class NotAGroup(QisoError):
    pass


class InconsistentIrreps(QisoError):
    pass


@dataclass
class QuantumGroup:
    """Structure maps over the matrix-unit basis of the block algebra.

    delta[b, g, a] is the coefficient of basis_b (x) basis_g in the image
    of basis_a; kappa[:, a] is the image of basis_a; epsilon[a] evaluates
    the counit on basis_a.

    A group dual C*(G) built by `group_algebra` keeps G, which
    `verify_quantum_group` checks it against: `group_table`, the Cayley
    table of G (group_table[g, h] indexes gh), the elements, and
    `group_embedding`, V with column g the coefficient vector of
    lambda_g.  Any other quantum group has none; C(G) needs none, since
    its Delta defines its table.
    """

    algebra: FinDimCStarAlgebra
    delta: np.ndarray
    epsilon: np.ndarray
    kappa: np.ndarray
    name: str = ""
    group_table: Optional[np.ndarray] = None
    group_elements: Optional[List[Permutation]] = None
    group_embedding: Optional[np.ndarray] = None

    def __post_init__(self):
        d = self.algebra.dim
        self.delta = np.asarray(self.delta, dtype=complex)
        self.epsilon = np.asarray(self.epsilon, dtype=complex)
        self.kappa = np.asarray(self.kappa, dtype=complex)
        if self.delta.shape != (d, d, d) or self.epsilon.shape != (d,) \
                or self.kappa.shape != (d, d):
            raise ShapeMismatch("structure map shapes do not match the algebra")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def unit_vec(self) -> np.ndarray:
        """The unit's coefficients, the algebra's read-only `unit_vector`."""
        return self.algebra.unit_vector

    def counit_block(self) -> int:
        """The first 1x1 block carrying the counit character."""
        alg = self.algebra
        hits = np.flatnonzero((alg.basis_sizes == 1) & (np.abs(self.epsilon - 1) < 1e-6))
        if not len(hits):
            raise QisoError("no 1x1 counit block found; not a C*-Hopf algebra?")
        return int(alg.block_of[hits[0]])


# ---------------------------------------------------------------------------
# verification, block by block
#
# An element of A is a coefficient vector over the matrix units, and an
# element of A (x) A a coefficient matrix over pairs of them.  The (k, l)
# block of A (x) A is M_{n_k} (x) M_{n_l}: E^k_ij (x) E^l_pq sits at row
# (i, p) and column (j, q) of an n_k n_l square matrix.  Operator norms are
# the largest spectral norm over blocks: each residual that is one lists
# its stacks of equal-sized blocks, which `max_operator_norms` norms.

# A cancellation rank counts the singular values above this bound.
_RANK_TOL = 1e-8

# The largest defect of a group basis that `group_algebra` accepts from
# irreps, and that a group recovered from Delta needs for its certificate.
_GROUP_TOL = 1e-9


def _product_table(alg: FinDimCStarAlgebra):
    """Every nonzero product of matrix units, e_left e_right = e_into, as
    three index arrays: E^k_ij E^k_jq = E^k_iq; all other products are 0.
    Each block's products come in (i, j, q) order, the order in which
    `_multiply` sums the terms of one E^k_iq."""
    parts = [np.broadcast_arrays(idx[:, :, :, None], idx[:, None, :, :],
                                 idx[:, :, None, :])
             for idx in alg.blocks_by_size.values()]
    return tuple(np.concatenate([part.ravel() for part in table])
                 for table in zip(*parts))


def _multiply(into: np.ndarray, terms: np.ndarray, dim: int) -> np.ndarray:
    """The multiplication A (x) A -> A: terms[p, ...] is the coefficient of
    e_left[p] (x) e_right[p]; the result has the basis on its last axis."""
    out = np.zeros(terms.shape[1:] + (dim,), dtype=complex)
    np.add.at(np.moveaxis(out, -1, 0), into, terms)
    return out


def _block_pairs(alg):
    """For each pair of block sizes (m, n): the blocks K of size m (as a
    column), the blocks L of size n, and the offsets in delta.ravel() of
    the block pairs (K, L), so that the (K, L) block of Delta(e_a), of
    shape (mn, mn) with E^K_ij (x) E^L_pq at row (i, p) and column (j, q),
    is delta.ravel()[offsets[K, L] + a]; that of an element X of A (x) A,
    X.ravel()[offsets[K, L] // dim]."""
    dim, block_of = alg.dim, alg.block_of
    for (m, rows), (n, cols) in itertools.product(alg.blocks_by_size.items(), repeat=2):
        offsets = (rows[:, None, :, None, :, None] * dim + cols[None, :, None, :, None, :]) * dim
        yield (block_of[rows[:, 0, 0]][:, None], block_of[cols[:, 0, 0]],
               offsets.reshape(len(rows), len(cols), m * n, m * n))


def _kappa_star_defects(star: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """kappa(e_a*) - kappa(e_a)* for every a, with the coefficients on the
    last axis: zero iff kappa commutes with *."""
    return (kappa[:, star] - kappa[star].conj()).T


def _kappa_antimultiplicative_defects(table, kappa: np.ndarray) -> np.ndarray:
    """kappa(e_a e_b) - kappa(e_b) kappa(e_a) for every a, b, with the
    coefficients on the last axis, in the one dim^3 array of the products:
    kappa(e_a e_b) is 0 unless e_a e_b is in the product table."""
    left, right, into = table
    out = _multiply(into, kappa[left][:, None, :] * kappa[right][:, :, None], len(kappa))
    on_table = kappa.T[into] - out[left, right]
    np.subtract(0, out, out=out)
    out[left, right] = on_table
    return out


def _coassociativity(delta: np.ndarray) -> float:
    """max |(Delta (x) id) Delta(e_a) - (id (x) Delta) Delta(e_a)| over the
    coefficients of a finite delta.  At e_x (x) e_y (x) e_z the left side
    is the sum of delta[x, y, c] delta[c, z, a] over c, the right side
    that of delta[y, z, c] delta[x, c, a].  So for each row x the left
    side is delta[x] times delta as a (dim, dim^2) matrix, and the right
    side delta as a (dim^2, dim) matrix times delta[x]."""
    dim = len(delta)
    pairs = delta.reshape(dim * dim, dim)
    worst = 0.0
    for x in range(dim):
        lhs = delta[x] @ delta.reshape(dim, dim * dim)      # y, z a
        rhs = pairs @ delta[x]                              # y z, a
        worst = max(worst, float(np.abs(lhs.reshape(rhs.shape) - rhs).max()))
    return worst


@dataclass
class QGReport:
    residuals: Dict[str, float] = field(default_factory=dict)

    def worst(self) -> float:
        """The largest residual, NaN when any residual is NaN."""
        return float(np.max(list(self.residuals.values()))) if self.residuals else 0.0

    def passed(self, tol: float = 1e-10) -> bool:
        return self.worst() <= tol

    def failing(self, tol: float = 1e-10) -> Dict[str, float]:
        """The residuals above tol, NaN ones included."""
        return {k: v for k, v in self.residuals.items() if not v <= tol}


# ---------------------------------------------------------------------------
# verification against the group a quantum group was built from


def _largest(entries: np.ndarray) -> float:
    """max |entry|, NaN when that is not finite: a non-finite entry of a
    structure map or of V makes some entry of each defect it enters so."""
    worst = float(np.abs(entries).max(initial=0.0))
    return worst if np.isfinite(worst) else np.nan


def _group_structure(table: np.ndarray) -> Optional[Tuple[int, np.ndarray]]:
    """The identity and the inverses of a group's Cayley table, or None
    when `table` is none: square over 0..|G|-1, associative, with an
    identity and inverses.  Associativity takes two |G|^3 gathers."""
    if table.ndim != 2 or table.shape[0] != table.shape[1] or not table.size \
            or table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= len(table):
        return None
    every = np.arange(len(table))
    identity = np.flatnonzero((table == every).all(axis=1) & (table.T == every).all(axis=1))
    if not len(identity):
        return None
    inverse = np.argmax(table == identity[0], axis=1)
    if (table[every, inverse] != identity[0]).any() \
            or (table[inverse, every] != identity[0]).any() \
            or not np.array_equal(table[table], table[every[:, None, None], table[None]]):
        return None
    return int(identity[0]), inverse


def _group_products(alg: FinDimCStarAlgebra, V: np.ndarray) -> np.ndarray:
    """lambda_g lambda_h under A's product for the columns lambda_g of V
    (dim, |G|), as a (|G|, |G|, dim) array with the coefficients on the
    last axis: one (|G| n, n) @ (n, n |G|) product per block of size n,
    rows g i and columns h j."""
    order = V.shape[1]
    out = np.empty((order, order, alg.dim), dtype=complex)
    for n, idx in alg.blocks_by_size.items():
        U = V[idx].transpose(0, 3, 1, 2)                   # K g i j
        K = len(U)
        prod = U.reshape(K, order * n, n) @ U.transpose(0, 2, 1, 3).reshape(K, n, n * order)
        out[:, :, idx] = prod.reshape(K, order, n, order, n).transpose(1, 3, 0, 2, 4)
    return out


def _group_basis_defects(alg: FinDimCStarAlgebra, table: np.ndarray, V: np.ndarray,
                         identity: int, inverse: np.ndarray) -> Dict[str, float]:
    """How far the columns lambda_g of V (dim, |G|) are from a unitary
    group basis of A under A's own product, as the largest entry of each
    defect:
    - group_basis: V V^H D / |G| - I, with D = diag(n_k) over the basis,
      which Schur orthogonality makes 0 (V is a basis, V^-1 = V^H D/|G|);
    - group_identity: lambda_e - 1;
    - group_multiplicative: lambda_g lambda_h - lambda_{gh};
    - group_star: lambda_g^* - lambda_{g^-1}.
    Given the other three, the last says that each lambda_g is unitary."""
    return {"group_basis": _largest(V @ V.conj().T * (alg.basis_sizes / len(table))
                                    - np.eye(alg.dim)),
            "group_identity": _largest(V[:, identity] - alg.unit_vector),
            "group_multiplicative": _largest(_group_products(alg, V) - V.T[table]),
            "group_star": _largest(V.conj()[alg.star_index] - V[:, inverse])}


def _dual_certificate(qg: QuantumGroup) -> Dict[str, float]:
    """The residuals of `verify_quantum_group` on a group dual C*(G),
    against the Cayley table T and the embedding V it keeps (see there).
    A failed shape or table check is 1 and leaves the other residuals
    NaN."""
    alg, dim = qg.algebra, qg.dim
    res = dict.fromkeys(["group_shape", "group_table", "group_basis", "group_identity",
                         "group_multiplicative", "group_star", "delta_grouplike",
                         "counit_grouplike", "antipode_grouplike"], np.nan)
    table, V = np.asarray(qg.group_table), np.asarray(qg.group_embedding)
    shaped = table.shape == V.shape == (dim, dim)
    res["group_shape"] = 0.0 if shaped else 1.0
    structure = _group_structure(table) if shaped else None
    if structure is None:
        res["group_table"] = 1.0 if shaped else np.nan
        return res
    res["group_table"] = 0.0
    identity, inverse = structure
    # Delta(lambda_g) = lambda_g (x) lambda_g, one (dim^2, dim) @ (dim,
    # |G|) product, eps(lambda_g) = 1 and kappa(lambda_g) = lambda_{g^-1}
    res.update(_group_basis_defects(alg, table, V, identity, inverse))
    res["delta_grouplike"] = _largest(
        (qg.delta.reshape(dim * dim, dim) @ V).reshape(dim, dim, dim) - V[:, None] * V[None])
    res["counit_grouplike"] = _largest(qg.epsilon @ V - 1)
    res["antipode_grouplike"] = _largest(qg.kappa @ V - V[:, inverse])
    return res


def _cayley_certificate(qg: QuantumGroup) -> Dict[str, float]:
    """The residuals of `verify_quantum_group` on an algebra of 1x1
    blocks, against the table T[b, g] = argmax_a |Delta[b, g, a]| that
    Delta defines (see there).  When T is no group table, group_table is
    1 and the other residuals NaN."""
    table = np.abs(qg.delta).argmax(axis=2)
    structure = _group_structure(table)
    if structure is None:
        return {"group_table": 1.0, "delta_cayley": np.nan, "counit_identity": np.nan,
                "antipode_inverse": np.nan}
    # e_a the point mass at a: Delta(e_a) = sum_{T[b,g] = a} e_b (x) e_g,
    # the tensor eye[T]; eps = e_identity and kappa(e_a) = e_{a^-1}
    identity, inverse = structure
    eye = np.eye(qg.dim)
    return {"group_table": 0.0, "delta_cayley": _largest(qg.delta - eye[table]),
            "counit_identity": _largest(qg.epsilon - eye[identity]),
            "antipode_inverse": _largest(qg.kappa - eye[:, inverse])}


def _recovered_group(qg: QuantumGroup) -> Optional[QuantumGroup]:
    """qg with the group-likes of Delta as `group_embedding` V and their
    Cayley table as `group_table`, for `_dual_certificate` to check; None
    when a structure map has a non-finite entry, a decomposition fails or
    an eigenvector has counit 0.

    A cocommutative finite quantum group is C*(G), spanned by its
    group-likes lambda_g, Delta(lambda_g) = lambda_g (x) lambda_g.  So for
    weights r, M = sum_b r_b Delta[b, :, :] has M lambda_g = (r . lambda_g)
    lambda_g, and with fixed random weights the eigenvalues are distinct
    and the eigenvectors are the group-likes up to scale.  Schur
    orthogonality, V^H D V = |G| I with D = diag(n_k) over the basis,
    makes D^1/2 M D^-1/2 normal: its eigenvectors are replaced by the
    nearest unitary (one SVD), mapped back and scaled so that eps = 1.
    T[g, h] is the largest coefficient of lambda_g lambda_h in the basis
    V, through V^-1 = V^H D / |G|.  On any other input V and T are some
    arrays, which the certificate then rejects."""
    if not all(np.isfinite(m).all() for m in (qg.delta, qg.epsilon, qg.kappa)):
        return None        # eig raises on NaN
    alg, dim = qg.algebra, qg.dim
    rng = random.Random(0)
    weights = np.array([rng.gauss(0.0, 1.0) for _ in range(dim)])
    sizes = alg.basis_sizes
    root = np.sqrt(sizes)[:, None]
    M = (weights @ qg.delta.reshape(dim, dim * dim)).reshape(dim, dim)
    try:
        W = np.linalg.eig(root * M / root.T)[1]
        left, _, right = np.linalg.svd(W)
    except np.linalg.LinAlgError:
        return None
    V = left @ right / root
    counits = qg.epsilon @ V
    if not counits.all():          # no group-like has eps 0
        return None
    V /= counits
    coefficients = _group_products(alg, V) @ (V.conj() * (sizes / dim)[:, None])
    return replace(qg, group_table=np.abs(coefficients).argmax(axis=2), group_embedding=V)


def verify_quantum_group(qg: QuantumGroup) -> QGReport:
    """Check every axiom; the report lists the max violation per axiom.

    The path depends on the input alone, and each certificate checks its
    group on every call rather than trusting it:
    - a group dual, which keeps `group_embedding` V and `group_table` T
      (built by `group_algebra`, or the quotient of one by the empty
      ideal): the C*(G) certificate;
    - otherwise, an algebra whose blocks are all 1x1: the C(G)
      certificate, against the table T[b, g] = argmax_a |Delta[b, g, a]|
      that Delta defines.  A commutative finite quantum group is C(G)
      (Gelfand duality), its matrix units the points of G, so its Delta
      is the 0/1 tensor of G's Cayley table, the table it defines;
    - otherwise the C*(G) certificate against the group-likes V and the
      table T that `_recovered_group` finds in Delta, when every residual
      is within _GROUP_TOL.  A cocommutative finite quantum group is C*(G)
      and spanned by its group-likes, so a dual loaded from a file,
      conjugated by a unitary or left by a proper quotient passes here;
    - otherwise, a faulty input, a genuinely quantum one, or a recovery
      that fails the bound: the generic path of `_verify_axioms`, so that
      no valid input fails and no faulty one passes.
    A certificate's residuals are each the largest entry of a defect:
    - C*(G): group_shape and group_table, 0 or 1: the arrays fit together
      and T is a group table (associative, identity, inverses); the four
      residuals of `_group_basis_defects`, which say that the columns
      lambda_g of V are a unitary group basis of A under A's own product;
      then delta_grouplike, counit_grouplike and antipode_grouplike, the
      defects of Delta(lambda_g) = lambda_g (x) lambda_g, eps(lambda_g) =
      1 and kappa(lambda_g) = lambda_{g^-1};
    - C(G): group_table as above, then delta_cayley, counit_identity and
      antipode_inverse, delta, epsilon and kappa against the 0/1 maps of
      T: Delta(e_a) = sum_{T[b,g] = a} e_b (x) e_g, eps = e_identity,
      kappa(e_a) = e_{a^-1}.
    When all are 0 the maps are those of C*(G) or C(G), so every Hopf
    axiom holds, with Kac type and cancellation.  A defect r on the group
    basis is at most max_k n_k r on the matrix units: V^-1 = V^H D/|G|
    has entries of size at most max_k n_k/|G|, since the irreps are
    unitary.  A non-finite entry gives a NaN residual, and a NaN residual
    fails the report.
    """
    if qg.group_embedding is not None:
        return QGReport(_dual_certificate(qg))
    if max(qg.algebra.blocks) == 1:
        return QGReport(_cayley_certificate(qg))
    recovered = _recovered_group(qg)
    if recovered is not None:
        res = _dual_certificate(recovered)
        if all(v <= _GROUP_TOL for v in res.values()):
            return QGReport(res)
    return _verify_axioms(qg)


def _verify_axioms(qg: QuantumGroup) -> QGReport:
    """The residuals of every Hopf axiom, on the generic path of
    `verify_quantum_group`, which only faulty and genuinely quantum inputs
    reach.  Every residual comes from the coefficient tensors: products
    of matrix units from one table, and operator norms block by block,
    the stacks of every residual normed by `max_operator_norms`.  The
    contractions run on BLAS matrix products: counit and antipode with
    delta as a (dim^2, dim) or (dim, dim^2) matrix, the products
    Delta(e_a) Delta(e_b) as one product per pair of block sizes, and
    coassociativity one row x at a time (`_coassociativity`).  The
    cancellation ranks are `matrix_rank`'s, one batched SVD per block
    size and side.  The Haar state needs no solve here: for a Hopf algebra
    it is the Plancherel trace (Larson-Radford, see `haar_state`).

    The products and the star defects run on the block support of delta,
    taken anew on every call: S_KL is the set of blocks k for which delta
    has a coefficient other than 0 (a NaN or inf counts) on some basis
    element of block k and the block pair (K, L).  Delta(e_a) is 0 on (K,
    L) unless the block of a is in S_KL, and a block is closed under *
    and under products of matrix units, so Delta(e_a*) - Delta(e_a)* and
    Delta(e_a) Delta(e_b) - Delta(e_a e_b) are exactly 0 on (K, L) unless
    a and b lie in S_KL.

    Working set: delta and every other residual's arrays are dim^3
    entries, but for two.  The products and the star defects take the
    basis of S_KL on each block pair (K, L), |S_KL|^2 and |S_KL| blocks,
    up to the largest S_KL of its pair of block sizes: sum_KL |S_KL|^2
    n_K^2 n_L^2 entries, dim^4 only for a full support (3.3 GB for
    C(S5)).  Coassociativity holds two products of dim^3 entries, one
    row x at a time.  The dim^3 arrays of a rank or residual die once it
    is taken or its blocks are gathered, as do the support lists once the
    products are formed.  A non-finite entry in a structure map makes the
    residuals it reaches NaN.
    """
    alg = qg.algebra
    dim = alg.dim
    left, right, into = _product_table(alg)
    star = alg.star_index
    unit = alg.unit_vector
    delta, epsilon, kappa = qg.delta, qg.epsilon, qg.kappa
    eye = np.eye(dim)
    res: Dict[str, float] = {}
    blocks: Dict[str, List[np.ndarray]] = {}  # the residuals that are norms

    def norm_of(name: str, stacks: Iterable[np.ndarray]) -> None:
        res[name] = np.nan  # keeps the report's order until the norms are in
        blocks[name] = list(stacks)

    # Delta is a unital *-homomorphism; (E^k_ij)* = E^k_ji.  Each block
    # pair (K, L) takes the basis of S_KL, then other basis elements (on
    # which Delta is 0 there) up to the largest S_KL of its pair of block
    # sizes
    finite = bool(np.isfinite(delta).all())
    support = alg.block_any(delta != 0)     # a NaN or inf counts
    reached = support[..., alg.block_of]
    counts = reached.sum(axis=-1)
    lists = np.argsort(~reached, axis=-1, kind="stable")
    product = np.full((dim, dim), -1)      # product[a, b]: e_a e_b, or -1 for 0
    product[left, right] = into
    pairs = list(_block_pairs(alg))
    unital = (delta @ unit - np.outer(unit, unit)).ravel()
    norm_of("delta_unital", [unital[offsets // dim] for _, _, offsets in pairs])
    stars, products = [], []
    flat = delta.ravel()
    for rows, cols, offsets in pairs:
        basis = lists[rows, cols][..., :max(int(counts[rows, cols].max()), 1)]
        K, L, s = basis.shape
        mn = offsets.shape[-1]
        sub = flat[offsets[:, :, None] + basis[..., None, None]]     # K L a i j
        stars.append(flat[offsets[:, :, None] + star[basis][..., None, None]]
                     - sub.conj().swapaxes(-1, -2))
        # one matrix product per block pair, the a-stack of its rows
        # against the b-stack of columns, minus Delta(e_a e_b)
        prod = (sub.reshape(K, L, s * mn, mn)
                @ sub.transpose(0, 1, 3, 2, 4).reshape(K, L, mn, s * mn)
                ).reshape(K, L, s, mn, s, mn).transpose(0, 1, 2, 4, 3, 5)  # K L a b i j
        ab = product[basis[..., :, None], basis[..., None, :]][..., None, None]
        prod -= np.where(ab >= 0, flat[offsets[:, :, None, None] + np.maximum(ab, 0)], 0)
        products.append(prod)
    del lists, reached, counts, product    # only the loop reads them
    norm_of("delta_star", stars)
    norm_of("delta_multiplicative", products)
    res["coassociativity"] = _coassociativity(delta) if finite else np.nan

    # cancellation: spans {(a (x) 1) Delta(b)} and {(1 (x) a) Delta(b)} full.
    # For a = E^k_ij, (a (x) 1) Delta(e_b) has coefficient delta[E^k_jq, g, b]
    # at E^k_iq (x) e_g whatever i is, so the left span is n_k disjoint
    # copies of the row space of one (n_k dim)-square matrix per block k;
    # the right span mirrors this on the second leg.  With a non-finite
    # entry in delta the ranks are undefined and both deficits are NaN.
    left_rank = right_rank = np.nan
    if finite:
        left_rank = right_rank = 0
        for n, idx in alg.blocks_by_size.items():
            side = n * dim    # each copy of delta dies once it is ranked
            left_rank += n * np.linalg.matrix_rank(delta[idx].transpose(   # K j b q g
                0, 1, 4, 2, 3).reshape(-1, side, side), tol=_RANK_TOL).sum()
            right_rank += n * np.linalg.matrix_rank(delta[:, idx].transpose(  # K j b q c
                1, 2, 4, 3, 0).reshape(-1, side, side), tol=_RANK_TOL).sum()
    res["cancellation_left"] = float(dim * dim - left_rank)
    res["cancellation_right"] = float(dim * dim - right_rank)

    # counit axioms
    res["counit_left"] = float(np.abs(
        (epsilon @ delta.reshape(dim, dim * dim)).reshape(dim, dim) - eye).max())
    res["counit_right"] = float(np.abs(epsilon @ delta - eye).max())
    eps_prod = np.zeros((dim, dim), dtype=complex)
    eps_prod[left, right] = epsilon[into]
    res["counit_multiplicative"] = float(np.abs(
        eps_prod - np.outer(epsilon, epsilon)).max())
    res["counit_unital"] = float(abs(epsilon @ unit - 1.0))

    # antipode axioms: m(kappa (x) id)Delta = eps(.)1 = m(id (x) kappa)Delta;
    # each dim^3 contraction dies once its products are gathered
    target = np.outer(epsilon, unit)
    norm_of("antipode_left", alg.element_blocks(_multiply(
        into, (kappa @ delta.reshape(dim, dim * dim)).reshape(dim, dim, dim)[left, right],
        dim) - target))
    norm_of("antipode_right", alg.element_blocks(_multiply(
        into, (kappa @ delta)[left, right], dim) - target))   # [b, c, a]

    # Kac type: involutive, *-preserving, multiplication-reversing
    res["kappa_involutive"] = float(np.abs(kappa @ kappa - eye).max())
    norm_of("kappa_star", alg.element_blocks(_kappa_star_defects(star, kappa)))
    norm_of("kappa_antimultiplicative", alg.element_blocks(
        _kappa_antimultiplicative_defects((left, right, into), kappa)))
    norm_of("kappa_unital", alg.element_blocks(kappa @ unit - unit))
    res.update(max_operator_norms(blocks))
    return QGReport(res)


def require_kac(qg: QuantumGroup) -> None:
    """Raise KacViolation unless kappa is involutive and commutes with *,
    by the residuals `verify_quantum_group` reports for the two, each
    within 1e-9."""
    if not np.abs(qg.kappa @ qg.kappa - np.eye(qg.dim)).max() <= 1e-9:
        raise KacViolation("antipode is not involutive")
    alg = qg.algebra
    star = max_operator_norms({"kappa_star": alg.element_blocks(
        _kappa_star_defects(alg.star_index, qg.kappa))})["kappa_star"]
    if not star <= 1e-9:
        raise KacViolation("antipode does not commute with *")


# ---------------------------------------------------------------------------
# Haar state


@dataclass
class HaarResult:
    state: StateFunctional
    reduced: bool
    residual: float


def haar_state(qg: QuantumGroup) -> HaarResult:
    """The unique bi-invariant state, in closed form.  The regular
    character of a finite-dimensional semisimple cosemisimple Hopf algebra
    is a two-sided integral (Larson and Radford, Amer. J. Math. 110, 1988;
    for finite quantum groups cf. Van Daele, Proc. AMS 125, 1997), and
    left multiplication by a on the block M_{n_k} has trace n_k Tr_k(a_k).
    So the Haar state is the Plancherel trace h = sum_k (n_k / dim) Tr_k,
    whose densities (n_k / dim) I are positive definite: `reduced` is
    always True.  Its vector is the unit's coefficients times n_k / dim.

    The theorem needs a Hopf algebra, so h is checked: the residual is the
    largest of (h (x) id)Delta(a) - h(a)1, its mirror (id (x) h)Delta(a) -
    h(a)1 over the basis, and h(1) - 1.  Raises NoInvariantState when it
    exceeds 1e-7, or when delta has a non-finite entry."""
    alg = qg.algebra
    dim = qg.dim
    delta = qg.delta
    if not np.isfinite(delta).all():
        raise NoInvariantState("delta has a non-finite entry")
    unit = alg.unit_vector
    h = unit * alg.basis_sizes / dim
    state = StateFunctional._of_vector(alg, h)
    expected = np.outer(unit, h)   # h(e_a) 1 at [leg, a]
    left = (h @ delta.reshape(dim, dim * dim)).reshape(dim, dim) - expected
    right = h @ delta - expected  # [b, a]: sum_g delta[b, g, a] h_g
    residual = float(max(np.abs(left).max(), np.abs(right).max(), abs(h @ unit - 1)))
    if not residual <= 1e-7:
        raise NoInvariantState(f"no bi-invariant state (residual {residual:.2e})")
    return HaarResult(state=state, reduced=True, residual=residual)


# ---------------------------------------------------------------------------
# permutation groups and their function algebras

Permutation = Tuple[int, ...]


def compose(g: Permutation, h: Permutation) -> Permutation:
    """(g h)(j) = g(h(j)): apply h first."""
    return tuple(g[h[j]] for j in range(len(g)))


def close_generators(n: int, generators: Sequence[Sequence[int]],
                     max_order: Optional[int] = None) -> List[Permutation]:
    """BFS closure; identity first, then in discovery order.  With
    max_order, the search stops as soon as it has found more elements than
    that and returns those, a prefix of the closure: a caller comparing
    the length with max_order decides as it would on the whole group."""
    gens = []
    for g in generators:
        g = tuple(g)
        if sorted(g) != list(range(n)):
            raise NotAGroup(f"{g} is not a permutation of 0..{n - 1}")
        gens.append(g)
    identity = tuple(range(n))
    group = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = compose(s, g)
                if h not in seen:
                    seen.add(h)
                    group.append(h)
                    nxt.append(h)
                    if max_order is not None and len(group) > max_order:
                        return group
        frontier = nxt
    return group


def function_algebra_of_group(group: List[Permutation],
                              name: str = "") -> QuantumGroup:
    """C(G): one 1x1 block per element; Delta dual to composition, kappa
    dual to inversion, epsilon evaluation at the identity."""
    order = len(group)
    alg = FinDimCStarAlgebra(tuple([1] * order))
    table, identity, inverse = _cayley_table(group)
    every = np.arange(order)
    delta = np.zeros((order, order, order), dtype=complex)
    delta[every[:, None], every, table] = 1.0
    epsilon = np.zeros(order, dtype=complex)
    epsilon[identity] = 1.0
    kappa = np.zeros((order, order), dtype=complex)
    kappa[inverse, every] = 1.0
    return QuantumGroup(alg, delta, epsilon, kappa, name=name)


def _cayley_table(group: List[Permutation]) -> Tuple[np.ndarray, int, np.ndarray]:
    """table[a, b]: the index of compose(group[a], group[b]), from one
    stacked composition and one dict lookup of each product's bytes; with
    the identity's index and the inverses (`_group_structure`).  Raises
    NotAGroup unless the permutations are a group, each listed once."""
    perms = np.array(group, dtype=np.int64)
    order, n = perms.shape
    as_bytes = np.dtype((np.void, perms.itemsize * n))
    index = {row: a for a, row in enumerate(perms.view(as_bytes).ravel().tolist())}
    products = perms[np.arange(order)[:, None, None], perms[None]]
    table = np.array([index.get(row, -1) for row in products.view(as_bytes).ravel().tolist()])
    if (table < 0).any():
        raise NotAGroup("the permutations are not closed under composition")
    table = table.reshape(order, order)
    structure = _group_structure(table)
    if structure is None:
        raise NotAGroup("the permutations are not a group, each listed once")
    return (table,) + structure


def group_algebra(group: List[Permutation], irreps: Sequence[np.ndarray],
                  name: str = "") -> QuantumGroup:
    """The dual object: blocks M_{d_r} from a complete family of unitary
    irreps, with the group-like comultiplication carried through the
    Artin-Wedderburn isomorphism.  The irreps must give a unitary group
    basis, each residual of `_group_basis_defects` within _GROUP_TOL, the
    check `verify_quantum_group` repeats on the group it keeps.

    The orthogonality relations make V^-1 = V^* diag(n_k / |G|), so the
    coefficient of E^K_ij (x) E^L_pq in Delta(E^k_rs) is (n_k / |G|)
    sum_g U_K(g)_ij U_L(g)_pq conj(U_k(g)_rs): an inner product of a
    matrix coefficient of U_K (x) U_L with one of U_k.  The former lie in
    the span of the matrix coefficients of the irreducible summands of
    U_K (x) U_L, which Schur orthogonality makes orthogonal to those of
    U_k unless U_k is one of them, that is unless the multiplicity
    <chi_K chi_L, chi_k> = (1/|G|) sum_g chi_K(g) chi_L(g) conj(chi_k(g))
    is positive.  So Delta is summed over g as the loop constructor does
    and set to exactly 0 on the block triples of multiplicity 0, where the
    sum only leaves rounding; a multiplicity is an integer, which the
    characters give to within rounding, so it is compared with 1/2."""
    order = len(group)
    dims = [U.shape[1] for U in irreps]
    if sum(d * d for d in dims) != order:
        raise InconsistentIrreps("irrep dimensions do not sum to the order")
    if any(U.shape[0] != order for U in irreps):
        raise InconsistentIrreps("each irrep needs one matrix per element")
    table, identity, inverse = _cayley_table(group)
    alg = FinDimCStarAlgebra(tuple(dims))
    V = np.vstack([U.reshape(order, -1).T for U in irreps])  # column a: element a
    defects = _group_basis_defects(alg, table, V, identity, inverse)
    failing = {k: v for k, v in defects.items() if not v <= _GROUP_TOL}
    if failing:
        raise InconsistentIrreps(f"the irreps give no unitary group basis: {failing}")
    Vinv = np.linalg.inv(V)
    # Delta(lambda_g) = lambda_g (x) lambda_g, so Delta(e_alpha) is the sum
    # over g of Vinv[g, alpha] V[:, g] V[:, g]^T, accumulated in g order,
    # and exactly 0 on the block triples of multiplicity 0
    delta = np.zeros((order, order, order), dtype=complex)
    for g in range(order):
        delta += Vinv[g] * np.outer(V[:, g], V[:, g])[:, :, None]
    chars = np.array([U.trace(axis1=1, axis2=2) for U in irreps])
    multiplicity = ((chars[:, None] * chars).reshape(-1, order) @ chars.conj().T).real / order
    block_of = alg.block_of
    delta[multiplicity.reshape((len(dims),) * 3)[
        block_of[:, None, None], block_of[None, :, None], block_of] < 0.5] = 0
    epsilon = np.ones(order, dtype=complex) @ Vinv
    P = np.zeros((order, order))
    P[inverse, np.arange(order)] = 1.0
    kappa = V @ P @ Vinv
    return QuantumGroup(alg, delta, epsilon, kappa, name=name, group_table=table,
                        group_elements=list(group), group_embedding=V)
