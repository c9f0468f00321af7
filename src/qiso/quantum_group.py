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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebra import AlgElement, FinDimCStarAlgebra, StateFunctional
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
        return self.algebra.unit().vec()

    def apply_delta(self, elem: AlgElement) -> np.ndarray:
        """Coefficient matrix of Delta(elem) over basis (x) basis."""
        return np.einsum("bga,a->bg", self.delta, elem.vec())

    def apply_kappa(self, elem: AlgElement) -> AlgElement:
        return self.algebra.from_vec(self.kappa @ elem.vec())

    def counit(self, elem: AlgElement) -> complex:
        return complex(self.epsilon @ elem.vec())

    def convolve_vectors(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        return np.einsum("bga,b,g->a", self.delta, phi, psi)

    def convolve(self, phi: StateFunctional, psi: StateFunctional) -> StateFunctional:
        out = self.convolve_vectors(phi.as_vector(), psi.as_vector())
        return StateFunctional.from_vector(self.algebra, out)

    def bar(self, psi: StateFunctional) -> StateFunctional:
        """psi composed with the antipode."""
        return StateFunctional.from_vector(self.algebra, psi.as_vector() @ self.kappa)

    def counit_state(self) -> StateFunctional:
        return StateFunctional.from_vector(self.algebra, self.epsilon)

    def counit_block(self) -> int:
        """The 1x1 block carrying the counit character."""
        for k, b in enumerate(self.algebra.blocks):
            if b == 1 and abs(self.epsilon[self.algebra.index_of(k, 0, 0)] - 1) < 1e-6:
                return k
        raise QisoError("no 1x1 counit block found; not a C*-Hopf algebra?")


# ---------------------------------------------------------------------------
# tensor-square handling: A (x) A as one block-diagonal dense matrix

def _pair_layout(algebra: FinDimCStarAlgebra):
    layout = []
    pos = 0
    for k, nk in enumerate(algebra.blocks):
        for l, nl in enumerate(algebra.blocks):
            layout.append((k, l, pos, nk, nl))
            pos += nk * nl
    return layout, pos


def coeff_to_dense(algebra: FinDimCStarAlgebra, M: np.ndarray) -> np.ndarray:
    """Coefficient matrix over basis (x) basis -> block-diagonal matrix of
    the product algebra (+)_{k,l} M_{n_k n_l}."""
    layout, N = _pair_layout(algebra)
    off = algebra.offsets
    out = np.zeros((N, N), dtype=complex)
    for k, l, pos, nk, nl in layout:
        sub = M[off[k]:off[k] + nk * nk, off[l]:off[l] + nl * nl]
        four = sub.reshape(nk, nk, nl, nl).transpose(0, 2, 1, 3)
        out[pos:pos + nk * nl, pos:pos + nk * nl] = four.reshape(nk * nl, nk * nl)
    return out


def dense_to_coeff(algebra: FinDimCStarAlgebra, D: np.ndarray) -> np.ndarray:
    layout, _ = _pair_layout(algebra)
    off = algebra.offsets
    dim = algebra.dim
    M = np.zeros((dim, dim), dtype=complex)
    for k, l, pos, nk, nl in layout:
        four = D[pos:pos + nk * nl, pos:pos + nk * nl].reshape(nk, nl, nk, nl)
        M[off[k]:off[k] + nk * nk, off[l]:off[l] + nl * nl] = \
            four.transpose(0, 2, 1, 3).reshape(nk * nk, nl * nl)
    return M


# ---------------------------------------------------------------------------
# verification


@dataclass
class QGReport:
    residuals: Dict[str, float] = field(default_factory=dict)

    def worst(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    def passed(self, tol: float = 1e-10) -> bool:
        return self.worst() <= tol

    def failing(self, tol: float = 1e-10) -> Dict[str, float]:
        return {k: v for k, v in self.residuals.items() if v > tol}


def verify_quantum_group(qg: QuantumGroup, tol: float = 1e-10,
                         check_cancellation: bool = True) -> QGReport:
    """Check every axiom; the report lists the max violation per axiom."""
    alg = qg.algebra
    dim = alg.dim
    basis = [alg.basis_element(a) for a in range(dim)]
    kbasis = [alg.from_vec(qg.kappa[:, a]) for a in range(dim)]
    unit = alg.unit()
    unit_vec = unit.vec()
    rep = QGReport()

    dense_delta = [coeff_to_dense(alg, qg.apply_delta(b)) for b in basis]

    def dense_of(elem: AlgElement) -> np.ndarray:
        out = np.zeros_like(dense_delta[0])
        for c, D in zip(elem.vec(), dense_delta):
            if c != 0:
                out += c * D
        return out

    # Delta is a unital *-homomorphism
    unit_tensor = coeff_to_dense(alg, np.outer(unit_vec, unit_vec))
    rep.residuals["delta_unital"] = float(np.linalg.norm(
        dense_of(unit) - unit_tensor, 2))

    star_res = 0.0
    for a in range(dim):
        lhs = dense_of(basis[a].star())
        rhs = dense_of(basis[a]).conj().T
        star_res = max(star_res, float(np.linalg.norm(lhs - rhs, 2)))
    rep.residuals["delta_star"] = star_res

    commutative = all(b == 1 for b in alg.blocks)
    if commutative:
        # all tensor blocks are scalars: products in A (x) A are Hadamard
        # products of coefficient matrices, and e_a e_b = delta_ab e_a
        prods = np.einsum("xya,xyb->abxy", qg.delta, qg.delta)
        target = np.zeros_like(prods)
        for a in range(dim):
            target[a, a] = qg.delta[:, :, a]
        rep.residuals["delta_multiplicative"] = float(np.abs(prods - target).max())
    else:
        mult_res = 0.0
        for a in range(dim):
            Da = dense_delta[a]
            for b in range(dim):
                prod = basis[a] * basis[b]
                lhs = dense_of(prod)
                mult_res = max(mult_res, float(np.linalg.norm(
                    lhs - Da @ dense_delta[b], 2)))
        rep.residuals["delta_multiplicative"] = mult_res

    # coassociativity on coefficients: contract the leg being re-expanded
    D3 = qg.delta
    left = np.einsum("bga,rsb->rsga", D3, D3)   # (Delta (x) id) Delta
    right = np.einsum("bga,rsg->brsa", D3, D3)  # (id (x) Delta) Delta
    rep.residuals["coassociativity"] = float(np.abs(left - right).max())

    # cancellation: spans {(a (x) 1) Delta(b)} and {(1 (x) a) Delta(b)} full
    if check_cancellation and commutative:
        # (e_a (x) 1) . Delta(b) keeps row a of the coefficient matrix, so
        # vectors with different a have disjoint support and the total rank
        # splits as a sum of per-slice ranks
        left_rank = sum(np.linalg.matrix_rank(qg.delta[a, :, :], tol=1e-8)
                        for a in range(dim))
        right_rank = sum(np.linalg.matrix_rank(qg.delta[:, a, :], tol=1e-8)
                         for a in range(dim))
        rep.residuals["cancellation_left"] = float(dim * dim - left_rank)
        rep.residuals["cancellation_right"] = float(dim * dim - right_rank)
    elif check_cancellation:
        for tag, left_leg in (("cancellation_left", True),
                              ("cancellation_right", False)):
            cols = []
            for a in range(dim):
                avec = np.zeros(dim, dtype=complex)
                avec[a] = 1.0
                mult = np.outer(avec, unit_vec) if left_leg else np.outer(unit_vec, avec)
                dense_mult = coeff_to_dense(alg, mult)
                for b in range(dim):
                    cols.append(dense_to_coeff(
                        alg, dense_mult @ dense_delta[b]).ravel())
            mat = np.array(cols)
            rank = np.linalg.matrix_rank(mat, tol=1e-8)
            rep.residuals[tag] = float(dim * dim - rank)

    # counit axioms
    left_c = np.einsum("b,bga->ga", qg.epsilon, D3)
    right_c = np.einsum("g,bga->ba", qg.epsilon, D3)
    eye = np.eye(dim)
    rep.residuals["counit_left"] = float(np.abs(left_c - eye).max())
    rep.residuals["counit_right"] = float(np.abs(right_c - eye).max())
    eps_mult = 0.0
    for a in range(dim):
        for b in range(dim):
            prod = basis[a] * basis[b]
            eps_mult = max(eps_mult, abs(qg.counit(prod)
                                         - qg.counit(basis[a]) * qg.counit(basis[b])))
    rep.residuals["counit_multiplicative"] = eps_mult
    rep.residuals["counit_unital"] = abs(qg.counit(unit) - 1.0)

    # antipode axioms: m(kappa (x) id)Delta = eps(.)1 = m(id (x) kappa)Delta
    anti_l = anti_r = 0.0
    for a in range(dim):
        M = qg.apply_delta(basis[a])
        acc_l = alg.zero()
        acc_r = alg.zero()
        for b in range(dim):
            row = M[b, :]
            if np.any(row):
                acc_l = acc_l + kbasis[b] * alg.from_vec(row)
            col = M[:, b]
            if np.any(col):
                acc_r = acc_r + alg.from_vec(col) * kbasis[b]
        target = qg.counit(basis[a]) * unit
        anti_l = max(anti_l, (acc_l - target).norm())
        anti_r = max(anti_r, (acc_r - target).norm())
    rep.residuals["antipode_left"] = anti_l
    rep.residuals["antipode_right"] = anti_r

    # Kac type: involutive, *-preserving, multiplication-reversing
    rep.residuals["kappa_involutive"] = float(np.abs(qg.kappa @ qg.kappa - eye).max())
    kac_star = 0.0
    anti_mult = 0.0
    for a in range(dim):
        kac_star = max(kac_star, (qg.apply_kappa(basis[a].star())
                                  - kbasis[a].star()).norm())
        for b in range(dim):
            lhs = qg.apply_kappa(basis[a] * basis[b])
            anti_mult = max(anti_mult, (lhs - kbasis[b] * kbasis[a]).norm())
    rep.residuals["kappa_star"] = kac_star
    rep.residuals["kappa_antimultiplicative"] = anti_mult
    rep.residuals["kappa_unital"] = (qg.apply_kappa(unit) - unit).norm()
    return rep


def require_kac(qg: QuantumGroup, tol: float = 1e-9) -> None:
    eye = np.eye(qg.dim)
    if np.abs(qg.kappa @ qg.kappa - eye).max() > tol:
        raise KacViolation("antipode is not involutive")
    for a in range(qg.dim):
        b = qg.algebra.basis_element(a)
        if (qg.apply_kappa(b.star()) - qg.apply_kappa(b).star()).norm() > tol:
            raise KacViolation("antipode does not commute with *")


# ---------------------------------------------------------------------------
# Haar state


@dataclass
class HaarResult:
    state: StateFunctional
    reduced: bool
    residual: float


def haar_state(qg: QuantumGroup, tol: float = 1e-9) -> HaarResult:
    """The unique bi-invariant state, by solving (h (x) id)Delta(a) = h(a)1
    and its mirror as one least-squares system over the basis."""
    dim = qg.dim
    unit_vec = qg.unit_vec()
    D3 = qg.delta
    rows: List[np.ndarray] = []
    rhs: List[complex] = []
    # left invariance: sum_b D3[b,g,a] h_b - h_a unit[g] = 0
    for a in range(dim):
        for g in range(dim):
            row = D3[:, g, a].copy()
            row[a] -= unit_vec[g]
            rows.append(row)
            rhs.append(0.0)
    # right invariance
    for a in range(dim):
        for b in range(dim):
            row = D3[b, :, a].copy()
            row[a] -= unit_vec[b]
            rows.append(row)
            rhs.append(0.0)
    rows.append(unit_vec.copy())  # normalization h(1) = 1
    rhs.append(1.0)
    A = np.array(rows)
    b = np.array(rhs)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.abs(A @ sol - b).max())
    if residual > max(tol, 1e-7):
        raise NoInvariantState(f"no bi-invariant state (residual {residual:.2e})")
    state = StateFunctional.from_vector(qg.algebra, sol)
    if not state.is_state(tol=1e-7):
        raise NoInvariantState("invariant functional is not a state")
    reduced = all(float(np.linalg.eigvalsh(rho)[0]) > tol for rho in state.densities)
    return HaarResult(state=state, reduced=reduced, residual=residual)


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


def close_generators(n: int, generators: Sequence[Sequence[int]]) -> List[Permutation]:
    """BFS closure; identity first, then in discovery order."""
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


def group_algebra(group: List[Permutation], irreps: Sequence[np.ndarray],
                  name: str = "") -> QuantumGroup:
    """The dual object: blocks M_{d_r} from a complete family of unitary
    irreps, with the group-like comultiplication carried through the
    Artin-Wedderburn isomorphism."""
    order = len(group)
    index = {g: a for a, g in enumerate(group)}
    dims = [U.shape[1] for U in irreps]
    if sum(d * d for d in dims) != order:
        raise InconsistentIrreps("irrep dimensions do not sum to the order")
    for U in irreps:
        if U.shape[0] != order:
            raise InconsistentIrreps("each irrep needs one matrix per element")
        for a, ga in enumerate(group):
            if np.linalg.norm(U[a] @ U[a].conj().T - np.eye(U.shape[1])) > 1e-9:
                raise InconsistentIrreps("irrep matrices must be unitary")
            for b, gb in enumerate(group):
                if np.linalg.norm(U[a] @ U[b] - U[index[compose(ga, gb)]]) > 1e-9:
                    raise InconsistentIrreps("irrep is not a homomorphism")
    alg = FinDimCStarAlgebra(tuple(dims))

    def embed(a: int) -> np.ndarray:
        return np.concatenate([U[a].ravel() for U in irreps])

    V = np.column_stack([embed(a) for a in range(order)])
    Vinv = np.linalg.inv(V)
    delta = np.zeros((order, order, order), dtype=complex)
    for alpha in range(order):
        coeffs = Vinv @ np.eye(order)[alpha]
        M = sum(c * np.outer(V[:, g], V[:, g]) for g, c in enumerate(coeffs))
        delta[:, :, alpha] = M
    epsilon = np.ones(order, dtype=complex) @ Vinv
    P = np.zeros((order, order))
    for a, ga in enumerate(group):
        P[index[invert(ga)], a] = 1.0
    kappa = V @ P @ Vinv
    qg = QuantumGroup(alg, delta, epsilon, kappa, name=name)
    qg.group_embedding = V  # group element g -> its block coefficient vector
    qg.group_elements = list(group)
    return qg
