"""Finite quantum groups as block algebras with explicit structure maps.

The comultiplication, counit and antipode are plain linear maps over the
canonical matrix-unit basis, so every Hopf axiom is a finite linear-algebra
residual.  Verification reports the worst violation per axiom; catalog
constructors (function algebras of permutation groups, group algebras of
finite groups presented by unitary irreps) are exact by construction and
must pass at 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """

    algebra: FinDimCStarAlgebra
    delta: np.ndarray
    epsilon: np.ndarray
    kappa: np.ndarray
    name: str = ""

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
        vec = np.zeros(self.dim, dtype=complex)
        for n, idx in self.algebra.blocks_by_size.items():
            vec[idx[:, np.arange(n), np.arange(n)]] = 1.0
        return vec

    def convolve_vectors(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        return np.einsum("bga,b,g->a", self.delta, phi, psi)

    def convolve(self, phi: StateFunctional, psi: StateFunctional) -> StateFunctional:
        out = self.convolve_vectors(phi.as_vector(), psi.as_vector())
        return StateFunctional.from_vector(self.algebra, out)

    def counit_state(self) -> StateFunctional:
        return StateFunctional.from_vector(self.algebra, self.epsilon)

    def counit_block(self) -> int:
        """The 1x1 block carrying the counit character."""
        for k, b in enumerate(self.algebra.blocks):
            if b == 1 and abs(self.epsilon[self.algebra.index_of(k, 0, 0)] - 1) < 1e-6:
                return k
        raise QisoError("no 1x1 counit block found; not a C*-Hopf algebra?")


# ---------------------------------------------------------------------------
# verification, block by block
#
# An element of A is a coefficient vector over the matrix units, and an
# element of A (x) A a coefficient matrix over pairs of them.  The (k, l)
# block of A (x) A is M_{n_k} (x) M_{n_l}: E^k_ij (x) E^l_pq sits at row
# (i, p) and column (j, q) of an n_k n_l square matrix.  Operator norms are
# the largest spectral norm over blocks: each residual that is one lists
# its stacks of equal-sized blocks, and `max_operator_norms` norms the
# stacks of every residual together, one matrix size at a time.

# Coassociativity compares two dim^4 tensors a slab of their first leg at
# a time; a slab holds about this many entries (512 KB of complex).
_COASSOCIATIVITY_SLAB = 2 ** 15

# A cancellation rank counts the singular values above this bound.
_RANK_TOL = 1e-8

# The Gram matrices of cancellation matrices up to this side are shifted
# down by this multiple of their traces before the Cholesky certificate of
# `_total_rank`, whose rounding analysis needs both.
_GRAM_SHIFT = 1e-12
_CERTIFIED_SIDE = 240


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


def _star_index(alg) -> np.ndarray:
    """The permutation of basis indices that * induces: (E^k_ij)* = E^k_ji,
    so the coefficients of x* are x.conj()[star]."""
    star = np.empty(alg.dim, dtype=int)
    for idx in alg.blocks_by_size.values():
        star[idx] = idx.transpose(0, 2, 1)
    return star


def _kappa_star_defects(star: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """kappa(e_a*) - kappa(e_a)* for every a, with the coefficients on the
    last axis: zero iff kappa commutes with *."""
    return (kappa[:, star] - kappa[star].conj()).T


def _element_blocks(alg, X: np.ndarray) -> List[np.ndarray]:
    """The blocks of the elements X[..., a] of A, one stack of shape
    (..., K, n, n) per block size n."""
    return [X[..., idx] for idx in alg.blocks_by_size.values()]


def _tensor_blocks(groups, X: np.ndarray):
    """The blocks of the elements X[..., b, g] of A (x) A, one stack of
    shape (..., K, L, mn, mn) per pair of block sizes (m, n)."""
    for m, rows in groups.items():
        for n, cols in groups.items():
            sub = X[..., rows[:, None, :, None, :, None],
                    cols[None, :, None, :, None, :]]
            yield sub.reshape(sub.shape[:-4] + (m * n, m * n))


def _total_rank(mats: np.ndarray) -> int:
    """The sum of the ranks of a stack of finite square matrices (K, s, s),
    counting singular values above _RANK_TOL: the integer
    `np.linalg.matrix_rank(mats, tol=_RANK_TOL).sum()` gives.

    A stack of side s <= _CERTIFIED_SIDE is first certified full rank by
    one batched Cholesky factorization of G - t I, where G = fl(M^H M),
    F = ||M||_F^2 (the trace of G up to rounding) and t = 2 _RANK_TOL^2 +
    _GRAM_SHIFT F.  Success puts every singular value above _RANK_TOL by a
    margin no SVD rounding crosses.  With u = 2^-53 and g_m = m u/(1 - m u):
    - forming G errs by at most g_{s+2} F in norm (complex inner products,
      entrywise bound |M|^H |M|);
    - subtracting t rounds the diagonal by at most u F;
    - a factorization that completes gives R^H R = A + E for the matrix A
      it was given, |E| <= g_{s+1} |R|^H |R|, so ||E||_2 <= g_{s+1}
      ||R||_F^2 <= 2 g_{s+1} F (Demmel 1989; Higham, Accuracy and
      Stability of Numerical Algorithms, Thm 10.5).
    Since R^H R >= 0, lambda_min(M^H M) >= t - 4 g_{s+2} F, and 4 g_{s+2}
    < 1.1e-13 for s <= 240, a ninth of _GRAM_SHIFT, which leaves room for
    the constant factors of complex arithmetic.  So sigma_min(M)^2 >
    2 _RANK_TOL^2 + 8.9e-13 F >= (_RANK_TOL + d)^2 for every d <=
    6.6e-7 sqrt(F).  A backward stable SVD gets each singular value to
    within p(s) u ||M||_2 <= p(s) u sqrt(F), below such a d for any p(s) <
    5e9, so it counts full rank too.  The shift is relative: a matrix with
    sigma_min^2 below about 1e-12 F fails the certificate, and its stack
    takes its ranks from `matrix_rank`, as do stacks of larger sides."""
    side = mats.shape[-1]
    if side <= _CERTIFIED_SIDE:
        gram = mats.conj().swapaxes(-1, -2) @ mats
        shift = 2 * _RANK_TOL ** 2 + _GRAM_SHIFT * np.trace(gram, axis1=1, axis2=2).real
        gram[:, np.arange(side), np.arange(side)] -= shift[:, None]
        try:
            np.linalg.cholesky(gram)
            return len(mats) * side
        except np.linalg.LinAlgError:
            pass
    return int(np.linalg.matrix_rank(mats, tol=_RANK_TOL).sum())


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


def verify_quantum_group(qg: QuantumGroup) -> QGReport:
    """Check every axiom; the report lists the max violation per axiom.

    Every residual comes from the coefficient tensors: products of matrix
    units from one table, and operator norms block by block, the stacks
    of every residual normed together by `max_operator_norms` (bitwise
    the largest spectral norm of each).  The contractions run on BLAS
    matrix products: counit and antipode with delta as a (dim^2, dim) or
    (dim, dim^2) matrix, coassociativity one slab of its first leg at a
    time, and the products Delta(e_a) Delta(e_b) over all pairs as one
    product per pair of blocks.  The cancellation ranks take one batched
    Cholesky certificate of full rank per block size and side, and
    `matrix_rank` only for a stack the certificate does not decide
    (`_total_rank`); either way they are the SVD's ranks.  The Haar state
    needs no solve here: for a Hopf algebra it is the Plancherel trace
    (Larson-Radford, see `haar_state`).

    Working set: delta and every other residual's arrays are dim^3
    entries, but for two.  Coassociativity compares its two dim^4 sides
    one slab of the first leg at a time, about 2^15 entries (at least
    dim^3) per side.  The products Delta(e_a) Delta(e_b) are dim^4
    entries over all pairs, normed in place (their 1x1 blocks through one
    dim^4-sized array of moduli).  A non-finite entry in a structure map
    makes the residuals it reaches NaN, and a NaN residual fails the
    report.
    """
    alg = qg.algebra
    dim = alg.dim
    groups = alg.blocks_by_size
    left, right, into = _product_table(alg)
    star = _star_index(alg)
    unit = qg.unit_vec()
    delta, epsilon, kappa = qg.delta, qg.epsilon, qg.kappa
    by_a = delta.transpose(2, 0, 1)  # by_a[a]: coefficient matrix of Delta(e_a)
    eye = np.eye(dim)
    res: Dict[str, float] = {}
    blocks: Dict[str, List[np.ndarray]] = {}  # the residuals that are norms

    def norm_of(name: str, stacks: Iterable[np.ndarray]) -> None:
        res[name] = np.nan  # keeps the report's order until the norms are in
        blocks[name] = list(stacks)

    # Delta is a unital *-homomorphism; (E^k_ij)* = E^k_ji
    norm_of("delta_unital", _tensor_blocks(groups, delta @ unit - np.outer(unit, unit)))
    norm_of("delta_star", _tensor_blocks(
        groups, by_a[star] - by_a[:, star][:, :, star].conj()))
    products = []
    for tensor in _tensor_blocks(groups, by_a):
        # Delta(e_a) Delta(e_b) for all a, b: one matrix product per block
        # pair (K, L), the a-stack of its rows against the b-stack of
        # columns, minus Delta(e_a e_b) in the product's own layout
        K, L, mn = tensor.shape[1], tensor.shape[2], tensor.shape[-1]
        stack = tensor.transpose(1, 2, 0, 3, 4)                     # K L a i j
        prod = (stack.reshape(K, L, dim * mn, mn)
                @ stack.transpose(0, 1, 3, 2, 4).reshape(K, L, mn, dim * mn)
                ).reshape(K, L, dim, mn, dim, mn)                   # K L a i b j
        prod[:, :, left, :, right, :] -= tensor[into]
        products.append(prod.transpose(0, 1, 2, 4, 3, 5))           # K L a b i j
    norm_of("delta_multiplicative", products)

    # coassociativity on coefficients, a slab of the first leg x at a time:
    # at e_x (x) e_y (x) e_z, (Delta (x) id) Delta(e_a) is rows xy of one
    # matrix product with delta as a (dim^2, dim) matrix and (id (x) Delta)
    # Delta(e_a) one such product per x, both in [x, y, z, a] order
    flat = delta.reshape(dim * dim, dim)
    wide = delta.reshape(dim, dim * dim)
    width = max(1, _COASSOCIATIVITY_SLAB // dim ** 3)
    coass = []
    for x in range(0, dim, width):
        side = flat[x * dim:(x + width) * dim] @ wide         # [xy, za]
        side -= (flat @ delta[x:x + width]).reshape(side.shape)  # [x, yz, a]
        coass.append(np.abs(side).max())
    res["coassociativity"] = float(np.max(coass))

    # cancellation: spans {(a (x) 1) Delta(b)} and {(1 (x) a) Delta(b)} full.
    # For a = E^k_ij, (a (x) 1) Delta(e_b) has coefficient delta[E^k_jq, g, b]
    # at E^k_iq (x) e_g whatever i is, so the left span is n_k disjoint
    # copies of the row space of one (n_k dim)-square matrix per block k;
    # the right span mirrors this on the second leg.  With a non-finite
    # entry in delta the ranks are undefined and both deficits are NaN.
    left_rank = right_rank = np.nan
    if np.isfinite(delta).all():
        left_rank = right_rank = 0
        for n, idx in groups.items():
            side = n * dim
            rows = delta[idx].transpose(0, 1, 4, 2, 3)    # K j b q g
            cols = delta[:, idx].transpose(1, 2, 4, 3, 0)  # K j b q c
            left_rank += n * _total_rank(rows.reshape(-1, side, side))
            right_rank += n * _total_rank(cols.reshape(-1, side, side))
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

    # antipode axioms: m(kappa (x) id)Delta = eps(.)1 = m(id (x) kappa)Delta
    target = np.outer(epsilon, unit)
    kappa_left = (kappa @ delta.reshape(dim, dim * dim)).reshape(dim, dim, dim)
    kappa_right = kappa @ delta  # [b, c, a]
    norm_of("antipode_left", _element_blocks(
        alg, _multiply(into, kappa_left[left, right], dim) - target))
    norm_of("antipode_right", _element_blocks(
        alg, _multiply(into, kappa_right[left, right], dim) - target))

    # Kac type: involutive, *-preserving, multiplication-reversing
    res["kappa_involutive"] = float(np.abs(kappa @ kappa - eye).max())
    norm_of("kappa_star", _element_blocks(alg, _kappa_star_defects(star, kappa)))
    of_product = np.zeros((dim, dim, dim), dtype=complex)  # kappa(e_a e_b)
    of_product[left, right] = kappa.T[into]
    reversed_product = _multiply(   # kappa(e_b) kappa(e_a)
        into, kappa[left][:, None, :] * kappa[right][:, :, None], dim)
    norm_of("kappa_antimultiplicative", _element_blocks(
        alg, of_product - reversed_product))
    norm_of("kappa_unital", _element_blocks(alg, kappa @ unit - unit))
    res.update(max_operator_norms(blocks))
    return QGReport(res)


def require_kac(qg: QuantumGroup, tol: float = 1e-9) -> None:
    """Raise KacViolation unless kappa is involutive and commutes with *,
    by the residuals `verify_quantum_group` reports for the two."""
    if not np.abs(qg.kappa @ qg.kappa - np.eye(qg.dim)).max() <= tol:
        raise KacViolation("antipode is not involutive")
    alg = qg.algebra
    star = max_operator_norms({"kappa_star": _element_blocks(
        alg, _kappa_star_defects(_star_index(alg), qg.kappa))})["kappa_star"]
    if not star <= tol:
        raise KacViolation("antipode does not commute with *")


# ---------------------------------------------------------------------------
# Haar state


@dataclass
class HaarResult:
    state: StateFunctional
    reduced: bool
    residual: float


def haar_state(qg: QuantumGroup, tol: float = 1e-9) -> HaarResult:
    """The unique bi-invariant state, in closed form.  The regular
    character of a finite-dimensional semisimple cosemisimple Hopf algebra
    is a two-sided integral (Larson and Radford, Amer. J. Math. 110, 1988;
    for finite quantum groups cf. Van Daele, Proc. AMS 125, 1997), and
    left multiplication by a on the block M_{n_k} has trace n_k Tr_k(a_k).
    So the Haar state is the Plancherel trace h = sum_k (n_k / dim) Tr_k,
    whose densities (n_k / dim) I are positive definite: `reduced` is
    always True.

    The theorem needs a Hopf algebra, so h is checked: the residual is the
    largest of (h (x) id)Delta(a) - h(a)1, its mirror (id (x) h)Delta(a) -
    h(a)1 over the basis, and h(1) - 1.  Raises NoInvariantState when it
    exceeds max(tol, 1e-7), or when delta has a non-finite entry."""
    alg = qg.algebra
    dim = qg.dim
    delta = qg.delta
    if not np.isfinite(delta).all():
        raise NoInvariantState("delta has a non-finite entry")
    state = StateFunctional(alg, [np.eye(n) * (n / dim) for n in alg.blocks])
    h = state.as_vector()
    unit = qg.unit_vec()
    expected = np.outer(unit, h)   # h(e_a) 1 at [leg, a]
    left = (h @ delta.reshape(dim, dim * dim)).reshape(dim, dim) - expected
    right = h @ delta - expected  # [b, a]: sum_g delta[b, g, a] h_g
    residual = float(max(np.abs(left).max(), np.abs(right).max(), abs(h @ unit - 1)))
    if not residual <= max(tol, 1e-7):
        raise NoInvariantState(f"no bi-invariant state (residual {residual:.2e})")
    return HaarResult(state=state, reduced=True, residual=residual)


# ---------------------------------------------------------------------------
# permutation groups and their function algebras

Permutation = Tuple[int, ...]


def compose(g: Permutation, h: Permutation) -> Permutation:
    """(g h)(j) = g(h(j)): apply h first."""
    return tuple(g[h[j]] for j in range(len(g)))


def invert(g: Permutation) -> Permutation:
    out = [0] * len(g)
    for j, v in enumerate(g):
        out[v] = j
    return tuple(out)


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
    index = {g: a for a, g in enumerate(group)}
    alg = FinDimCStarAlgebra(tuple([1] * order))
    delta = np.zeros((order, order, order), dtype=complex)
    for b, gb in enumerate(group):
        for g, gg in enumerate(group):
            delta[b, g, index[compose(gb, gg)]] = 1.0
    epsilon = np.zeros(order, dtype=complex)
    epsilon[index[tuple(range(len(group[0])))]] = 1.0
    kappa = np.zeros((order, order), dtype=complex)
    for a, ga in enumerate(group):
        kappa[index[invert(ga)], a] = 1.0
    return QuantumGroup(alg, delta, epsilon, kappa, name=name)


def _cayley_table(group: List[Permutation]) -> np.ndarray:
    """table[a, b]: the index of compose(group[a], group[b]), from one
    stacked composition and one sort of the permutations' rows."""
    perms = np.array(group)
    order, n = perms.shape
    products = perms[np.arange(order)[:, None, None], perms[None]].reshape(-1, n)
    _, key = np.unique(np.concatenate([perms, products]), axis=0, return_inverse=True)
    key = key.ravel()
    element = np.full(key.max() + 1, -1)
    element[key[:order]] = np.arange(order)
    table = element[key[order:]].reshape(order, order)
    if (table < 0).any():
        raise NotAGroup("the permutations are not closed under composition")
    return table


def group_algebra(group: List[Permutation], irreps: Sequence[np.ndarray],
                  name: str = "") -> QuantumGroup:
    """The dual object: blocks M_{d_r} from a complete family of unitary
    irreps, with the group-like comultiplication carried through the
    Artin-Wedderburn isomorphism.  Unitarity and the homomorphism property
    are checked on stacked products over the Cayley table."""
    order = len(group)
    index = {g: a for a, g in enumerate(group)}
    dims = [U.shape[1] for U in irreps]
    if sum(d * d for d in dims) != order:
        raise InconsistentIrreps("irrep dimensions do not sum to the order")
    table = _cayley_table(group)
    for U in irreps:
        if U.shape[0] != order:
            raise InconsistentIrreps("each irrep needs one matrix per element")
        gram = U @ U.conj().swapaxes(1, 2) - np.eye(U.shape[1])
        if (np.linalg.norm(gram, axis=(1, 2)) > 1e-9).any():
            raise InconsistentIrreps("irrep matrices must be unitary")
        if (np.linalg.norm(U[:, None] @ U[None] - U[table], axis=(2, 3)) > 1e-9).any():
            raise InconsistentIrreps("irrep is not a homomorphism")
    alg = FinDimCStarAlgebra(tuple(dims))
    V = np.vstack([U.reshape(order, -1).T for U in irreps])  # column a: element a
    Vinv = np.linalg.inv(V)
    # Delta(lambda_g) = lambda_g (x) lambda_g, so Delta(e_alpha) is the sum
    # over g of Vinv[g, alpha] V[:, g] V[:, g]^T, accumulated in g order
    delta = np.zeros((order, order, order), dtype=complex)
    for g in range(order):
        delta += Vinv[g] * np.outer(V[:, g], V[:, g])[:, :, None]
    epsilon = np.ones(order, dtype=complex) @ Vinv
    P = np.zeros((order, order))
    for a, ga in enumerate(group):
        P[index[invert(ga)], a] = 1.0
    kappa = V @ P @ Vinv
    qg = QuantumGroup(alg, delta, epsilon, kappa, name=name)
    qg.group_embedding = V  # group element g -> its block coefficient vector
    qg.group_elements = list(group)
    return qg
