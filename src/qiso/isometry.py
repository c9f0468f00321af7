"""Decision procedures for the isometry conditions of a coaction.

Conditions checked per state or universally over all states of the algebra:

  D         the distance row identity rho(d_y)(x) = kappa(rho(d_x)(y))
  Lip_p     every state contracts the Wasserstein-p distance (p in [1, inf])
  Lip_inf   a coupling of (x <| psi, y <| psi) lives on {d <= d(x,y)}
  main      a coupling lives on the level set {d = d(x,y)}

Universal quantification over states is resolved exactly: the sup of
psi(a) over states of a block algebra is the largest block eigenvalue, so
each universal condition reduces to finitely many extremal-eigenvalue
bounds over the vertices of the Kantorovich dual polyhedron (finite p,
from `transport.enumerate_dual_vertices`; at p = 1 their f's are the
vertices of the Lipschitz polytope), or to the vanishing of the pairwise
products u_xj u_yk off the (sub)level set (the coupling-support
conditions).  In rational mode near-ties are re-decided by exact
fraction-free elimination on the rationalized blocks; float mode uses
Hermitian eigensolvers with one tolerance.  The (D) residuals are
compared with the tolerance times the largest distance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from .algebra import (AlgElement, StateFunctional, exact_psd_pairs,
                      extreme_state, hermitian_max_eig)
from .coaction import CoAction, a_element, act_on_function, act_on_point
from .errors import QisoError
from .metric import (ball, level_set, lipschitz_constant, sublevel_set)
from .scalars import RATIONAL
from .transport import (ProbVector, _power_cost, enumerate_dual_vertices,
                        prob_vector, solve_transport, transport_with_power,
                        wasserstein_inf)


class KappaConventionMismatch(QisoError):
    pass


class HypothesisViolated(QisoError):
    pass


@dataclass
class IsometryVerdict:
    condition: str
    holds: bool
    witness: Optional[dict] = None      # present iff holds is False
    certificate: Optional[dict] = None  # the quantity family when it holds

    def as_dict(self) -> dict:
        return {"condition": self.condition, "holds": self.holds,
                "witness": self.witness, "certificate": self.certificate}


# ---------------------------------------------------------------------------
# shared helpers

def _rationalize(x: float, max_den: int = 4096) -> Optional[Fraction]:
    """The exact small-denominator rational equal to x, if there is one."""
    f = Fraction(x).limit_denominator(max_den)
    return f if float(f) == x else None


def _exact_entries(mat: np.ndarray) -> Optional[list]:
    """Matrix of (re, im) Fraction pairs when every entry is exactly a
    small rational; None otherwise."""
    out = []
    for row in np.atleast_2d(mat):
        orow = []
        for v in row:
            re = _rationalize(float(v.real))
            im = _rationalize(float(v.imag))
            if re is None or im is None:
                return None
            orow.append((re, im))
        out.append(orow)
    return out


_BORDERLINE = 1e-6  # only near-ties are re-decided exactly


def _lambda_max_leq(mat: np.ndarray, bound, tol: float, exact: bool) -> Tuple[bool, float]:
    """Decide lambda_max(mat) <= bound; returns (verdict, float margin).

    Away from the boundary the float eigenvalue is decisive; inside the
    borderline window, rational mode re-decides by an exact PSD test of
    bound - mat (falling back to the tolerance when some entry is not
    a recognizable rational)."""
    lam = hermitian_max_eig(mat)
    margin = lam - float(bound)
    if not exact or abs(margin) > _BORDERLINE:
        return margin <= tol, margin
    entries = _exact_entries(mat)
    if entries is None:
        return margin <= tol, margin
    b = Fraction(bound)
    shifted = [[((b - re) if i == j else -re, -im)
                for j, (re, im) in enumerate(row)]
               for i, row in enumerate(entries)]
    return exact_psd_pairs(shifted), margin


def _pairs(n: int):
    return [(x, y) for x in range(n) for y in range(n) if x != y]


def _use_exact(action: CoAction, mode: str) -> bool:
    if mode == "float":
        return False
    return action.space.mode == RATIONAL


# ---------------------------------------------------------------------------
# condition (D)


def commutator_defects(action: CoAction) -> Dict[Tuple[int, int], AlgElement]:
    """The defect elements c_xy = sum_j d(y,j) u_xj - sum_j d(x,j) kappa(u_yj);
    all zero exactly when condition (D) holds."""
    qg = action.group
    d = action.space.dist
    n = action.n
    out = {}
    for x in range(n):
        for y in range(n):
            lhs = qg.algebra.zero()
            rhs = qg.algebra.zero()
            for j in range(n):
                lhs = lhs + float(d[y][j]) * action.u[x][j]
                rhs = rhs + float(d[x][j]) * qg.apply_kappa(action.u[y][j])
            out[(x, y)] = lhs - rhs
    return out


def _defect_verdict(tag: str, residuals, space, tol: float) -> IsometryVerdict:
    """The verdict on the largest of the ((x, y), residual) pairs.  The
    residuals scale with the metric, so tol is taken relative to the
    largest distance and the verdict does not depend on its units."""
    worst, worst_pair = 0.0, None
    for pair, r in residuals:
        if r > worst:
            worst, worst_pair = r, pair
    if worst <= tol * float(max(map(max, space.dist))):
        return IsometryVerdict(tag, True, certificate={"max_residual": worst})
    return IsometryVerdict(tag, False,
                           witness={"pair": worst_pair, "residual": worst})


def check_D(action: CoAction, tol: float = 1e-9) -> IsometryVerdict:
    """Compare rho(d_y)(x) with kappa(rho(d_x)(y)) in norm, all pairs."""
    return _defect_verdict("D", ((xy, c.norm()) for xy, c in
                                 sorted(commutator_defects(action).items())),
                           action.space, tol)


def check_D_commutant(action: CoAction, tol: float = 1e-9) -> IsometryVerdict:
    """Equivalent form when kappa(u_ij) = u_ji: the magic unitary commutes
    with the scalar distance matrix."""
    qg = action.group
    n = action.n
    for i in range(n):
        for j in range(n):
            if (qg.apply_kappa(action.u[i][j]) - action.u[j][i]).norm() > tol:
                raise KappaConventionMismatch(
                    f"kappa(u[{i}][{j}]) != u[{j}][{i}]")
    d = action.space.dist

    def residuals():
        for x in range(n):
            for y in range(n):
                ud = qg.algebra.zero()
                du = qg.algebra.zero()
                for j in range(n):
                    ud = ud + action.u[x][j] * float(d[j][y])
                    du = du + float(d[x][j]) * action.u[j][y]
                yield (x, y), (ud - du).norm()

    return _defect_verdict("D", residuals(), action.space, tol)


def check_ball_identity(action: CoAction, tol: float = 1e-9) -> float:
    """Max residual of a_{x;B(y,I)} = kappa(a_{y;B(x,I)}) over all pairs and
    all realized closed balls and realized intervals I."""
    space = action.space
    qg = action.group
    radii = space.realized_distances
    intervals = [(radii[0], r) for r in radii] + \
        [(r1, r2) for r1 in radii for r2 in radii if 0 < r1 <= r2]
    worst = 0.0
    for x in range(space.n):
        for y in range(space.n):
            for I in intervals:
                lhs = a_element(action, x, ball(space, y, I))
                rhs = qg.apply_kappa(a_element(action, y, ball(space, x, I)))
                worst = max(worst, (lhs - rhs).norm())
    return worst


# ---------------------------------------------------------------------------
# per-state conditions


def check_D_state(action: CoAction, psi: StateFunctional,
                  tol: float = 1e-9) -> IsometryVerdict:
    """Membership of psi in the (D)-isometric functionals: psi kills every
    defect element, i.e. (x <| psi)(d_y) = (y <| bar psi)(d_x)."""
    return _defect_verdict("D(state)", ((xy, abs(psi.value(c))) for xy, c in
                                        sorted(commutator_defects(action).items())),
                           action.space, tol)


def check_lip_p_state(action: CoAction, psi: StateFunctional, p,
                      tol: float = 1e-9) -> IsometryVerdict:
    """W_p(x <| psi, y <| psi) <= d(x,y) for all pairs, one state.

    Each x <| psi is computed once.  Its masses are floats, so every
    transport problem here runs in floats; for finite p the cost matrix
    float(d^p) is built once, which is the cost the simplex would convert
    the exact d^p to on every call.  The margins W_p - d(x,y) scale with
    the metric, so tol is taken relative to the largest distance, as for
    (D), and the verdict does not depend on the metric's units.
    """
    space = action.space
    tag = f"Lip_{p}(state)"
    images = [act_on_point(action, x, psi, tol=tol) for x in range(space.n)]
    finite = not (p == float("inf") or p == "inf")
    if finite:
        if p < 1:
            raise ValueError("p must be >= 1")
        cost = [[float(c) for c in row] for row in _power_cost(space, p)]
    worst = None
    for x, y in _pairs(space.n):
        mu, nu = images[x], images[y]
        if finite:
            w = float(solve_transport(mu, nu, cost).value) ** (1.0 / p)
        else:
            w = float(wasserstein_inf(space, mu, nu).r)
        margin = w - float(space.dist[x][y])
        if worst is None or margin > worst[0]:
            worst = (margin, (x, y), w)
    if worst[0] <= tol * float(max(map(max, space.dist))):
        return IsometryVerdict(tag, True, certificate={"max_margin": worst[0]})
    return IsometryVerdict(tag, False, witness={
        "pair": worst[1], "wasserstein": worst[2], "margin": worst[0]})


def check_lip_seminorm_state(action: CoAction, psi: StateFunctional,
                             samples: int = 50, seed: int = 0,
                             tol: float = 1e-9) -> bool:
    """L(psi |> f) <= L(f) on random functions and all polytope vertices."""
    space = action.space
    rng = random.Random(seed)
    fns = [tuple(rng.uniform(-1.0, 1.0) for _ in range(space.n))
           for _ in range(samples)]
    fns += [tuple(float(v) for v in vert.f)
            for vert in enumerate_dual_vertices(space, 1)]
    for f in fns:
        lf = lipschitz_constant(space, f)
        lg = lipschitz_constant(space, act_on_function(action, psi, f))
        if float(lg) > float(lf) + tol:
            return False
    return True


# ---------------------------------------------------------------------------
# universal conditions, finite p


def _block_stack(action: CoAction, k: int) -> np.ndarray:
    """u entries of block k as an (n, n, b, b) array."""
    n = action.n
    return np.array([[action.u[i][j].data[k] for j in range(n)]
                     for i in range(n)])


def check_lip1_universal(action: CoAction, tol: float = 1e-9,
                         mode: str = "auto") -> IsometryVerdict:
    """For every pair and every vertex f of the Lipschitz polytope (the f's
    of the dual vertices at p = 1), the largest eigenvalue of
    sum_j f_j (u_xj - u_yj) must stay below d(x,y)."""
    space = action.space
    exact = _use_exact(action, mode)
    vertices = [vert.f for vert in enumerate_dual_vertices(space, 1)]
    blocks = action.group.algebra.blocks
    stacks = [_block_stack(action, k) for k in range(len(blocks))]
    worst = None
    for x, y in _pairs(space.n):
        bound = space.dist[x][y]
        for f in vertices:
            fv = np.array([float(v) for v in f])
            for k in range(len(blocks)):
                mat = np.einsum("j,jab->ab", fv, stacks[k][x] - stacks[k][y])
                ok, margin = _lambda_max_leq(mat, bound, tol, exact)
                if worst is None or margin > worst[0]:
                    worst = (margin, (x, y), f, k)
                if not ok:
                    state = _eigen_state(action, k, mat)
                    return IsometryVerdict(
                        "Lip_1(universal)", False,
                        witness={"pair": (x, y), "vertex": [str(v) for v in f],
                                 "block": k, "margin": margin,
                                 "state": state})
    return IsometryVerdict("Lip_1(universal)", True,
                           certificate={"max_margin": worst[0] if worst else 0.0})


def _eigen_state(action: CoAction, k: int, mat: np.ndarray) -> StateFunctional:
    """The vector state on block k induced by the top eigenvector."""
    if mat.shape == (1, 1):
        xi = np.array([1.0 + 0j])
    else:
        _, vecs = np.linalg.eigh(mat)
        xi = vecs[:, -1]
    return extreme_state(action.group.algebra, k, xi)


def _exact_prob(mass) -> Optional[ProbVector]:
    fracs = [_rationalize(float(m)) for m in mass]
    if any(f is None for f in fracs) or sum(fracs) != 1:
        return None
    return ProbVector(tuple(fracs))


def check_lip_p_universal(action: CoAction, p, tol: float = 1e-9,
                          mode: str = "auto") -> IsometryVerdict:
    """Exact universal (Lip_p) decision, blockwise.

    The map psi -> W_p^p(x <| psi, y <| psi) is convex, so its sup over
    the state space sits on pure states, which live on single blocks.  A
    1x1 block carries exactly one state (its character): solve that
    transport problem outright.  A larger block is handled through the
    Kantorovich dual polyhedron: for each vertex (f, g) the sup over block
    states of psi(sum f_j u_xj + sum g_j u_yj) is the top block
    eigenvalue, and the sup over the polyhedron of that convex, monotone,
    shift-invariant objective is attained at one of its vertices.
    """
    if p == float("inf") or p == "inf":
        return check_winf_universal(action, tol=tol, mode=mode)
    if p < 1:
        raise ValueError("p must be >= 1")
    space = action.space
    exact = _use_exact(action, mode) and float(p).is_integer()
    tag = f"Lip_{p}(universal)"
    blocks = action.group.algebra.blocks
    stacks = [_block_stack(action, k) for k in range(len(blocks))]
    big_blocks = [k for k, b in enumerate(blocks) if b > 1]
    vertices = enumerate_dual_vertices(space, p) if big_blocks else []
    worst = None

    for x, y in _pairs(space.n):
        d_xy = space.dist[x][y]
        bound_pow = d_xy ** int(p) if exact else float(d_xy) ** float(p)
        # 1x1 blocks: one state each
        for k, b in enumerate(blocks):
            if b != 1:
                continue
            chi = extreme_state(action.group.algebra, k, np.array([1.0 + 0j]))
            mu_f = [float(chi.value(action.u[x][j]).real) for j in range(space.n)]
            nu_f = [float(chi.value(action.u[y][j]).real) for j in range(space.n)]
            mu = _exact_prob(mu_f) if exact else None
            nu = _exact_prob(nu_f) if exact else None
            if mu is None or nu is None:
                mu, nu = prob_vector(mu_f, tol), prob_vector(nu_f, tol)
            value = transport_with_power(space, mu, nu, p).value
            margin = float(value) ** (1 / float(p)) - float(d_xy)
            ok = (value <= bound_pow) if exact and isinstance(value, Fraction) \
                else margin <= tol
            if worst is None or margin > worst[0]:
                worst = (margin, (x, y), k)
            if not ok:
                return IsometryVerdict(tag, False, witness={
                    "pair": (x, y), "block": k, "kind": "character",
                    "wasserstein_power": float(value), "margin": margin})
        # bigger blocks: vertex sweep with blockwise lambda_max
        for k in big_blocks:
            for vert in vertices:
                fv = np.array([float(v) for v in vert.f])
                gv = np.array([float(v) for v in vert.g])
                mat = np.einsum("j,jab->ab", fv, stacks[k][x]) + \
                    np.einsum("j,jab->ab", gv, stacks[k][y])
                ok, margin_pow = _lambda_max_leq(mat, bound_pow, tol, exact)
                if worst is None or margin_pow > worst[0]:
                    worst = (margin_pow, (x, y), k)
                if not ok:
                    state = _eigen_state(action, k, mat)
                    return IsometryVerdict(tag, False, witness={
                        "pair": (x, y), "block": k, "kind": "dual-vertex",
                        "vertex": ([str(v) for v in vert.f],
                                   [str(v) for v in vert.g]),
                        "margin": margin_pow, "state": state})
    return IsometryVerdict(tag, True,
                           certificate={"max_margin": worst[0] if worst else 0.0})


# ---------------------------------------------------------------------------
# universal coupling-support conditions (p = inf and the level-set theorem)


def _support_universal(action: CoAction, tag: str, level_only: bool,
                       tol: float, mode: str) -> IsometryVerdict:
    """Every state admits a coupling of (x <| psi, y <| psi) on Y, the
    (sub)level set of d(x,y), iff u_xj u_yk = 0 for every (j, k) outside Y.

    Over all states at once, the marriage theorem's subset condition is
    the operator inequality a_{x;S} <= a_{y;N(S)} for every S.  Both sides
    are projections, since each row of u is an orthogonal family of
    projections summing to 1, so the inequality says a_{x;S} u_yk = 0 for
    every k outside N(S); that holds for all S iff it holds for singletons
    (Banica 2005).  Each product is decided blockwise as
    lambda_max(P Q P) = ||P Q||^2 <= 0 with P = u_xj, Q = u_yk."""
    space = action.space
    n = space.n
    exact = _use_exact(action, mode)
    stacks = [_block_stack(action, b)
              for b in range(len(action.group.algebra.blocks))]
    live = [[[j for j in range(n) if stack[x, j].any()] for x in range(n)]
            for stack in stacks]
    worst = 0.0
    for x, y in _pairs(n):
        Y = (level_set if level_only else sublevel_set)(space, space.dist[x][y])
        for b, stack in enumerate(stacks):
            for j in live[b][x]:
                P = stack[x, j]
                for k in live[b][y]:
                    if (j, k) in Y:
                        continue
                    mat = P @ stack[y, k] @ P
                    ok, margin = _lambda_max_leq(mat, 0, tol, exact)
                    worst = max(worst, margin)
                    if not ok:
                        return IsometryVerdict(tag, False, witness={
                            "pair": (x, y), "points": (j, k), "block": b,
                            "residual": margin,
                            "state": _eigen_state(action, b, mat)})
    return IsometryVerdict(tag, True, certificate={"max_residual": worst})


def check_winf_universal(action: CoAction, tol: float = 1e-9,
                         mode: str = "auto") -> IsometryVerdict:
    """All states admit a coupling supported on pairs at distance <= d(x,y)."""
    return _support_universal(action, "Lip_inf(universal)", False, tol, mode)


def check_theorem_main(action: CoAction, tol: float = 1e-9,
                       mode: str = "auto") -> IsometryVerdict:
    """All states admit a coupling supported on the exact level set."""
    return _support_universal(action, "main(universal)", True, tol, mode)


def check_level_coupling_state(action: CoAction, psi: StateFunctional,
                               tol: float = 1e-9) -> IsometryVerdict:
    """Per-state version of the level-set coupling, via the feasibility
    solver on each pair."""
    from .hall import HallInstance, decide_hall
    space = action.space
    images = [act_on_point(action, x, psi, tol=tol) for x in range(space.n)]
    for x, y in _pairs(space.n):
        Y = level_set(space, space.dist[x][y])
        verdict = decide_hall(HallInstance(images[x], images[y], Y))
        if not verdict.feasible:
            return IsometryVerdict("main(state)", False, witness={
                "pair": (x, y), "violating_subset": sorted(verdict.violator)})
    return IsometryVerdict("main(state)", True, certificate={})


# ---------------------------------------------------------------------------
# structural consequences


def check_orthogonality(action: CoAction, x: int, y: int, S, T, delta,
                        tol: float = 1e-9) -> bool:
    """a_{x;S} a_{y;T} = 0 whenever every (s, t) has |d(s,t) - d(x,y)| >= delta."""
    space = action.space
    d_xy = space.dist[x][y]
    for s in S:
        for t in T:
            if abs(space.dist[s][t] - d_xy) < delta:
                raise HypothesisViolated(
                    f"|d({s},{t}) - d({x},{y})| < delta")
    prod = a_element(action, x, S) * a_element(action, y, T)
    return prod.norm() <= tol


def sample_orthogonality_inputs(action: CoAction, count: int, seed: int):
    """Admissible (x, y, S, T, delta) tuples for the orthogonality check."""
    space = action.space
    n = space.n
    rng = random.Random(seed)
    realized = space.realized_distances
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        x, y = rng.randrange(n), rng.randrange(n)
        d_xy = space.dist[x][y]
        gaps = [abs(r - d_xy) for r in realized if r != d_xy]
        if not gaps:
            continue
        delta = min(gaps)
        size = rng.randint(1, n)
        S = frozenset(rng.sample(range(n), size))
        allowed = [t for t in range(n)
                   if all(abs(space.dist[s][t] - d_xy) >= delta for s in S)]
        if not allowed:
            continue
        T = frozenset(rng.sample(allowed, rng.randint(1, len(allowed))))
        out.append((x, y, S, T, delta))
    return out


def check_injectivity(action: CoAction, tol: float = 1e-9) -> bool:
    """rho is one-to-one iff f -> (sum_j f_j u_xj)_x has full rank n."""
    n = action.n
    cols = []
    for j in range(n):
        cols.append(np.concatenate([action.u[x][j].vec() for x in range(n)]))
    rank = np.linalg.matrix_rank(np.column_stack(cols), tol=tol)
    return int(rank) == n
