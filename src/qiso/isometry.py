"""Decision procedures for the isometry conditions of a coaction.

Conditions checked per state or universally over all states of the algebra:

  D         the distance row identity rho(d_y)(x) = kappa(rho(d_x)(y))
  Lip_p     every state contracts the Wasserstein-p distance (p in [1, inf])
  Lip_inf   a coupling of (x <| psi, y <| psi) lives on {d <= d(x,y)}
  main      a coupling lives on the level set {d = d(x,y)}

(D) and its commutant form are linear in the u_xj: their defects are
einsums over the coaction's coefficient tensor, and their norms are
taken block by block.  Every pairwise check visits the pairs of
`_state_pairs`: x < y on an exactly symmetric d, every ordered pair
otherwise.  A failing (D) or sampled Lip_p check reports the first pair
in that order whose residual or margin is within 1e-12 (relative to the
largest residual, or times max d) of the worst, so pairs that tie up to
rounding give one witness.

The sampled per-state Lip_p sweep takes all states of an instance at
once and reads W_p off precomputed dual data as array maxima: for finite
p, the largest f.mu + g.nu over the dual vertices of d^p on the whole
space; for p = inf, the least realized radius whose Hall deficiency
max_S mu(S) - nu(N(S)) is within the max-flow tolerance.
Where a measured cost model says that costs more than one transport
problem per pair (few states, or large n, or Hall tables with many
entries per pair or over a memory cap) it solves those instead.  Each
verdict records its route.

Universal quantification over states is resolved exactly, block by
block: the sup of psi(a) over states of a block is its largest
eigenvalue.  The universal checks read the block supports that the
action computes once (`CoAction.block_supports`) and decide as arrays
over all pairs and blocks.  For finite p (p = 1 included) a 1x1 block is
a character, a permutation of the points, checked as
d(sigma x, sigma y) <= d(x, y) for every pair and character by one
gather; a larger block reduces to extremal-eigenvalue bounds over the
vertices of the Kantorovich dual polyhedron restricted to the supports
of rows x and y on that block (`transport.enumerate_dual_vertices`, at
most block size points each), one batched eigvalsh per pair and block.
The coupling-support conditions reduce to the vanishing of the pairwise
products u_xj u_yk off the (sub)level set, one stacked matmul and
eigvalsh per block size.  In rational mode near-ties are re-decided by
exact fraction-free elimination on ints (`algebra.exact_psd`), in loop
order up to the first failure, which is the witness; each reads the
block's one exact form (`CoAction.exact_blocks`), and a block without
one keeps the float verdict.  Float mode uses Hermitian eigensolvers
with one tolerance; the space's mode says which.  Every check reads the space's
`tol`, relative to the largest distance (its p-th power for the Lip_p
eigenvalue bounds), and distances compare within the space's `dtol`, so
no verdict depends on the caller or on the metric's units.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, List, Optional

import numpy as np

from .algebra import (StateFunctional, element_norms, exact_psd,
                      extreme_state, operator_norms)
from .coaction import CoAction, act_on_point, act_on_points
from .errors import QisoError
from .metric import level_set
from .scalars import RATIONAL
from .transport import (ProbVector, _dual_vertex_search, _integer_power,
                        _power_cost, feasible_coupling_on, solve_transport,
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

_BORDERLINE = 1e-6  # only near-ties are re-decided exactly


def _first_failure(margins: np.ndarray, limit: float, window: float,
                   exact: Optional[Callable[[int], Optional[bool]]]
                   ) -> Optional[int]:
    """The index of the first margin that fails, or None.  A margin fails
    when it is not <= limit.  With `exact`, each margin within `window` of
    0 is re-decided instead, in order and only up to the first failure, by
    exact(i), whether the margin's matrix inequality holds exactly; where
    exact(i) is None the float verdict stands."""
    ok = margins <= limit
    near = ~(np.abs(margins) > window) if exact else np.zeros_like(ok)
    for i in np.flatnonzero(~ok | near):
        verdict = exact(i) if near[i] else None
        if verdict is not None:
            ok[i] = verdict
        if not ok[i]:
            return int(i)
    return None


def _state_pairs(space):
    """The pairs (x, y) that every pairwise check visits, in x-major
    order: x < y when d is exactly symmetric, every ordered pair otherwise.

    When d(x, y) == d(y, x) for all points the pair (y, x) repeats (x, y):
    transposing a coupling of (mu, nu) gives a coupling of (nu, mu) of the
    same cost on the transposed, equal, (sub)level set; ||u_xj u_yk|| =
    ||u_yk u_xj||; and the dual vertices on (L_y, L_x) are those on
    (L_x, L_y) with f and g swapped, up to a shift.  The first failing
    ordered pair then has x < y, so the witnesses are those of the ordered
    sweep.  A float space validated with an asymmetry within tol keeps
    every ordered pair.  Symmetry is read on the distance ranks, equal
    exactly where the distances are."""
    n = space.n
    ranks = space.distance_ranks
    symmetric = ranks == tuple(zip(*ranks))
    return [(x, y) for x in range(n) for y in range(n)
            if (x < y if symmetric else x != y)]


# ---------------------------------------------------------------------------
# condition (D)


def commutator_defects(action: CoAction) -> np.ndarray:
    """The defect elements c_xy = sum_j d(y,j) u_xj - sum_j d(x,j) kappa(u_yj)
    as an (n, n, dim) tensor of coefficient vectors; all zero exactly when
    condition (D) holds."""
    d = np.array(action.space.dist, dtype=float)
    U = action.coeffs
    return np.einsum("yj,xja->xya", d, U) - \
        np.einsum("xj,yja->xya", d, U @ action.group.kappa.T)


def _defect_verdict(tag: str, residuals: np.ndarray, space) -> IsometryVerdict:
    """The verdict on the largest of the (n, n) residuals.  A failure's
    witness is the first pair in x-major order whose residual is within a
    relative 1e-12 of the largest: the defects of (x, y) and (y, x) have
    equal norms, which rounding tells apart only in the last bits.  The
    residuals scale with the metric, so the space's tol is taken relative
    to the largest distance and the verdict does not depend on its units."""
    worst = float(residuals.max())
    if worst <= space.tol * float(space.max_distance):
        return IsometryVerdict(tag, True, certificate={"max_residual": worst})
    x, y = divmod(int(np.argmax(residuals >= worst * (1 - 1e-12))), space.n)
    return IsometryVerdict(tag, False, witness={
        "pair": (x, y), "residual": float(residuals[x, y])})


def check_D(action: CoAction) -> IsometryVerdict:
    """Compare rho(d_y)(x) with kappa(rho(d_x)(y)) in norm, all pairs."""
    return _defect_verdict("D", element_norms(action.group.algebra,
                                              commutator_defects(action)),
                           action.space)


def check_D_commutant(action: CoAction) -> IsometryVerdict:
    """Equivalent form when kappa(u_ij) = u_ji: the magic unitary commutes
    with the scalar distance matrix."""
    alg = action.group.algebra
    U = action.coeffs
    mismatch = np.argwhere(element_norms(
        alg, U @ action.group.kappa.T - U.swapaxes(0, 1)) > action.space.tol)
    if len(mismatch):
        i, j = mismatch[0]
        raise KappaConventionMismatch(f"kappa(u[{i}][{j}]) != u[{j}][{i}]")
    d = np.array(action.space.dist, dtype=float)
    residual = np.einsum("xja,jy->xya", U, d) - np.einsum("xj,jya->xya", d, U)
    return _defect_verdict("D", element_norms(alg, residual), action.space)


# ---------------------------------------------------------------------------
# per-state conditions


def check_D_state(action: CoAction, psi: StateFunctional) -> IsometryVerdict:
    """Membership of psi in the (D)-isometric functionals: psi kills every
    defect element, i.e. (x <| psi)(d_y) = (y <| bar psi)(d_x)."""
    return _defect_verdict("D(state)",
                           np.abs(commutator_defects(action) @ psi.as_vector()),
                           action.space)


# The route choice of `check_lip_p_state_sweep`, whose docstring gives
# the measurements behind these four constants.
_TREE_COST = 0.3            # one enumerated tree, in per-pair simplex solves
_VERTEX_MAX_N = 7           # the largest n at which that cost was measured
_HALL_MAX_CELLS = 2 ** 22   # the most Hall table entries, (K n + pairs)(2^n - 1)
_HALL_CELLS_PER_PAIR = 30_000   # Hall table entries costing one W_inf solve

# The most (state, pair, vertex) sums that `_dual_vertex_sweep` forms at
# once, 2 MB of floats: a bound on its memory whatever the state count.
_VERTEX_CELLS = 2 ** 18


def _sweep_route(space, n_states: int, n_pairs: int, finite: bool) -> str:
    """The route that `check_lip_p_state_sweep` takes for one p."""
    n = space.n
    if finite:
        if n <= _VERTEX_MAX_N and \
                _TREE_COST * comb(2 * n - 2, n - 1) <= n_states * n_pairs:
            return "dual-vertices"
        return "simplex"
    cells = (len(space.realized_distances) * n + n_pairs) * (2 ** n - 1)
    if cells <= min(_HALL_MAX_CELLS, _HALL_CELLS_PER_PAIR * n_pairs):
        return "hall-subsets"
    return "max-flow"


def _vertex_floats(vertices, scale) -> np.ndarray:
    """The raw potentials of `transport._dual_vertex_search` as a float
    array, one row per vertex: ints v at the scale s of a rational space
    as v / s, which is correctly rounded and so equals the float of the
    Fraction v / s; floats as they are."""
    if scale is not None:
        vertices = [[v / scale for v in vert] for vert in vertices]
    return np.array(vertices, dtype=float)


def _dual_vertex_sweep(space, masses, xs, ys, p) -> np.ndarray:
    """W_p for every state and pair, as the largest f.mu + g.nu over the
    vertices (f, g) of the dual polyhedron of d^p on the whole space:
    the dual LP's value, attained at a vertex because the polyhedron is
    pointed and the objective bounded above on it.  The vertices are the
    raw potentials of the pivot search, read by `_vertex_floats`.  The
    sums f.mu + g.nu are formed for as many states at once as keep them
    within _VERTEX_CELLS entries (every state of a catalog instance)."""
    V = _vertex_floats(*_dual_vertex_search(space, p))
    F, G = V[:, :space.n].T, V[:, space.n:].T
    step = max(1, _VERTEX_CELLS // (len(xs) * len(V)))
    power = np.concatenate([
        ((chunk @ F)[:, xs] + (chunk @ G)[:, ys]).max(-1)
        for chunk in np.split(masses, range(step, len(masses), step))])
    return np.maximum(power, 0.0) ** (1.0 / float(p))


def _hall_sweep(space, masses, xs, ys) -> np.ndarray:
    """W_inf for every state and pair: the least realized radius r_k at
    which a coupling of (mu, nu) lives on {d <= r_k}.  By Hall's theorem
    that holds iff the deficiency max_S mu(S) - nu(N_k(S)) over nonempty S
    is <= 0, with N_k(S) the points within r_k of S; the deficiency is
    1 minus the max flow of `feasible_coupling_on`, so its float acceptance
    test reads deficiency <= max(n, 1) 1e-9.  N_k takes the pairs of
    `space.distance_ranks` at most `top`, as `wasserstein_inf` does, and
    every pair bisects on k from the whole range (where `wasserstein_inf`
    starts at its single-point Hall bound): nu(N_k(S)) is a sum of more
    nonnegative terms as k grows, so feasibility is monotone in floats too.

    `_hall_ranks` bisects a chunk of states at a time: as many as keep
    its tables, (K n + 3 P)(2^n - 1) entries a state, within
    _HALL_MAX_CELLS, and at least one.  The neighbourhood table N_k(S),
    K (2^n - 1) n entries, is shared by every chunk.
    """
    n = space.n
    values = space.realized_distances
    ranks = np.array(space.distance_ranks)
    near = np.array([ranks <= bisect_right(values, v + space.dtol) - 1
                     for v in values], dtype=float)          # (K, n, n)
    subsets = (np.arange(1, 2 ** n)[:, None] >> np.arange(n)) & 1
    reach = subsets @ near                                   # (K, 2^n-1, n)
    np.minimum(reach, 1.0, out=reach)
    radii = np.array([float(v) for v in values])
    step = max(1, _HALL_MAX_CELLS // ((len(values) * n + 3 * len(xs))
                                      * len(subsets)))
    return np.concatenate([
        radii[_hall_ranks(reach, subsets, chunk, xs, ys, max(n, 1) * 1e-9)]
        for chunk in np.split(masses, range(step, len(masses), step))])


def _hall_ranks(reach, subsets, masses, xs, ys, tol) -> np.ndarray:
    """The least k at which every (state, pair) passes Hall's test, all
    bisecting at once on (S, P) arrays.  Its tables are nu (S K (2^n - 1) n
    entries), mu and two deficiencies (S P (2^n - 1) each)."""
    mu = masses[:, xs] @ subsets.T                           # (S, P, 2^n-1)
    nu = reach @ masses.transpose(0, 2, 1)[:, None]          # (S, K, 2^n-1, n)
    states = np.arange(len(masses))[:, None]
    lo = np.zeros(mu.shape[:2], dtype=int)
    hi = np.full(mu.shape[:2], len(reach) - 1)  # {d <= max d} always feasible
    while (lo < hi).any():
        mid = (lo + hi) // 2
        deficiency = nu[states, mid, :, ys]                  # (S, P, 2^n-1)
        np.subtract(mu, deficiency, out=deficiency)
        feasible = deficiency.max(-1) <= tol
        hi = np.where(feasible, mid, hi)
        lo = np.where(feasible, lo, np.minimum(mid + 1, hi))
    return lo


def _pair_sweep(space, masses, pairs, p) -> np.ndarray:
    """W_p for every state and pair, one transport problem per pair: the
    simplex on float(d^p) for finite p, `wasserstein_inf` otherwise."""
    images = [[ProbVector(tuple(row)) for row in state]
              for state in masses.tolist()]
    if p == float("inf") or p == "inf":
        def w(mu, nu):
            return float(wasserstein_inf(space, mu, nu).r)
    else:
        cost = [[float(c) for c in row] for row in _power_cost(space, p)]

        def w(mu, nu):
            return float(solve_transport(mu, nu, cost).value) ** (1.0 / p)
    return np.array([[w(row[x], row[y]) for x, y in pairs] for row in images])


def _sweep_verdict(tag: str, route: str, pairs, w: np.ndarray,
                   margins: np.ndarray, bound: float,
                   tie: float) -> IsometryVerdict:
    """The verdict on one state's margins W_p - d(x, y); a failure's
    witness is the first pair whose margin is within `tie` of the largest,
    so that pairs whose margins agree to the last bits give one witness
    whichever route computed them."""
    worst = float(margins.max()) if len(margins) else 0.0
    if worst <= bound:
        return IsometryVerdict(tag, True, certificate={"max_margin": worst,
                                                       "route": route})
    i = int(np.argmax(margins >= worst - tie))
    return IsometryVerdict(tag, False, witness={
        "pair": pairs[i], "wasserstein": float(w[i]),
        "margin": float(margins[i]), "route": route})


def check_lip_p_state_sweep(action: CoAction, states, ps) -> List[List[IsometryVerdict]]:
    """W_p(x <| psi, y <| psi) <= d(x,y) for all pairs: verdicts[s][i] for
    the state states[s] and p = ps[i] (a number >= 1, or inf).

    Every x <| psi of every state is computed once, by one
    `act_on_points` contraction, for every p; `ProbVector`s of them are
    built only for the per-pair route.  The pairs are those of
    `_state_pairs`.  For each p, `_sweep_route` picks how W_p is computed,
    and each verdict records it as its "route":

      dual-vertices  finite p, n <= _VERTEX_MAX_N and _TREE_COST x
                     C(2n-2, n-1) <= states x pairs: `_dual_vertex_sweep`
                     over the dual vertices of d^p, enumerated once for
                     every state and pair
      hall-subsets   p = inf and, with K realized distances, the Hall
                     table entries (K n + pairs)(2^n - 1) at most
                     _HALL_MAX_CELLS and _HALL_CELLS_PER_PAIR x pairs:
                     `_hall_sweep` over the 2^n - 1 subsets and every
                     realized radius
      simplex,       otherwise: one float transport problem per state and
      max-flow       pair (`_pair_sweep`)

    The constants come from timing each route on one and on ten random
    states (for p = inf also three) of C(G) acting on random n-point
    shortest-path and euclidean-sample metrics (G cyclic),
    and for p = inf of the rotations acting on the n-cycle, on a 2-CPU
    Xeon host with one BLAS thread.  For finite p the array route's cost is
    the enumeration, at most C(2n-2, n-1) trees, and each tree cost 0.16
    to 0.40 simplex solves from n = 5 to 7 for p = 1, 2 and 3 (median
    0.27; 0.23 to 0.78 at n = 4, where the fixed costs weigh more).  At
    p = 2 and n = 5 that is 3.1 against 1.8 ms for one state and 4.2
    against 17.9 ms for ten; at n = 6, 9.6 to 15.3 against 22 to 32 ms
    for ten; at n = 7, 61 against 55 ms for ten.  So a one-state call
    takes the simplex unless its pairs outnumber 0.3 x the trees.
    For p = inf a state costs the Hall route 2.5 to 9 ns per table entry,
    less with more states (`_hall_ranks` bisects them together), and the
    max-flow route, one `wasserstein_inf` per pair started at its
    single-point Hall bound, 0.11 to 0.42 ms per pair at n = 8 to 13, so
    the two cross near 30,000 entries per pair for one state and beyond
    54,000 for ten.  At 25,000 or fewer Hall won with 1, 3 and 10 states
    (5.8 against 12.0 ms for one and 36 against 121 ms for ten at n = 11
    with K = 56; 10 against 33 and 76 against 296 ms on the 13-cycle); at
    33,000 it tied with one state (33 against 32 ms at n = 13 with K = 18)
    and won with three and ten; on the 14-cycle (36,500) the routes tied
    within the noise of single runs with 1, 3 and 10 states; from 35,000
    to 54,000 it lost with one state (27 against 21 ms at n = 13 with
    K = 20, 48 against 32 ms with K = 31, 29 against 22 ms at n = 12 with
    K = 67) and won by 19 to 40% with ten (179 against 283, 230 against
    297 and 150 against 248 ms).  The Hall tables are the
    neighbourhood table, K n (2^n - 1) entries, within the cap, and those
    of one chunk of states (`_hall_sweep`), within the cap too unless a
    single state's exceed it (many ordered pairs).  So where one state's
    tables fit, the cap bounds their floats by 64 MB.  At the cap they
    peaked at 57 MB (n = 12 with K = 67, one state a chunk) for 1, 10 and
    40 states, as when the states ran one at a time; at n = 10 with K = 46
    (six states a chunk) at 32 MB against 8 MB one at a time.

    The margins W_p - d(x,y) scale with the metric, so the space's tol is
    taken relative to the largest distance, as for (D); x <| psi is
    validated within the same tol.  A failure's witness is the first
    pair whose margin is within 1e-12 x max d of the largest.
    """
    space = action.space
    finite = [not (p == float("inf") or p == "inf") for p in ps]
    if any(fin and not p >= 1 for p, fin in zip(ps, finite)):
        raise ValueError("p must be >= 1")
    if not len(states):
        return []
    masses = act_on_points(action, states, space.tol)
    pairs = _state_pairs(space)
    xs = np.array([x for x, _ in pairs], dtype=int)
    ys = np.array([y for _, y in pairs], dtype=int)
    dist = np.array([float(space.dist[x][y]) for x, y in pairs])
    scale = float(space.max_distance)
    bound = space.tol * scale
    out = [[] for _ in states]
    for p, fin in zip(ps, finite):
        route = _sweep_route(space, len(states), len(pairs), fin)
        if route == "dual-vertices":
            w = _dual_vertex_sweep(space, masses, xs, ys, p)
        elif route == "hall-subsets":
            w = _hall_sweep(space, masses, xs, ys)
        else:
            w = _pair_sweep(space, masses, pairs, p)
        for verdicts, ws in zip(out, w):
            verdicts.append(_sweep_verdict(f"Lip_{p}(state)", route, pairs, ws,
                                           ws - dist, bound, 1e-12 * scale))
    return out


def check_lip_p_state(action: CoAction, psi: StateFunctional, p) -> IsometryVerdict:
    """W_p(x <| psi, y <| psi) <= d(x,y) for all pairs, one state: the
    one-state, one-p call of `check_lip_p_state_sweep`."""
    return check_lip_p_state_sweep(action, [psi], [p])[0][0]


# ---------------------------------------------------------------------------
# universal conditions, finite p


def _eigen_state(action: CoAction, k: int, mat: np.ndarray) -> StateFunctional:
    """The vector state on block k induced by the top eigenvector."""
    if mat.shape == (1, 1):
        xi = np.array([1.0 + 0j])
    else:
        _, vecs = np.linalg.eigh(mat)
        xi = vecs[:, -1]
    return extreme_state(action.group.algebra, k, xi)


def check_lip_p_universal(action: CoAction, p) -> IsometryVerdict:
    """Exact universal (Lip_p) decision for finite p, block by block.

    The map psi -> W_p^p(x <| psi, y <| psi) is convex, so its sup sits on
    pure states, which live on single blocks.  On block k, row x of u is a
    family of projections summing to 1 whose support L_x (the u_xj of trace
    >= 1 there, `CoAction.block_supports`) has at most b_k points.  A 1x1
    block is a character, which sends x to the Dirac mass at sigma(x): the
    condition there is d(sigma x, sigma y) <= d(x, y).  Every pair of
    `_state_pairs` and every character is decided at once, through the
    index array sigma[c, x]: in rational mode exactly, on the ranks of the
    space's integer form; in float mode as d(sigma x, sigma y)^p -
    d(x, y)^p within the tolerance.  On a larger block, the top eigenvalue
    of sum_a f_a u_{x,L_x[a]} + sum_b g_b u_{y,L_y[b]} must stay below
    d(x,y)^p for every vertex (f, g) of the dual polyhedron of the cost d^p
    on L_x x L_y (both sums of projections are 1 on the block, so the
    objective is shift-invariant); those are found once per support pair,
    from at most C(2b_k - 2, b_k - 1) trees whatever n is, and each
    (pair, block) takes one batched eigvalsh over its vertex matrices.

    Margins are in units of d^p (d(sigma x, sigma y)^p or the eigenvalue,
    minus d(x,y)^p) and the space's tol is relative to the largest d^p.  In
    rational mode and for integer p, eigenvalue near-ties are re-decided in
    loop order up to the first failure, on ints: with d^p = k^p / s^p, the
    raw vertex (at the scale s^p) and block k's exact form (R, q),
    k^p q I - sum_a f_a R[x, L_x[a]] - sum_b g_b R[y, L_y[b]] must be PSD.
    The witness is the first failure in the order (pair, block, vertex).
    """
    if p == float("inf") or p == "inf":
        return check_winf_universal(action)
    if not p >= 1:
        raise ValueError("p must be >= 1")
    space = action.space
    rational = space.mode == RATIONAL
    integer = _integer_power(space, p)    # d^p as k^p / s^p, or None
    exact = integer is not None
    tag = f"Lip_{p}(universal)"
    scale = float(space.max_distance) ** float(p)
    stacks = action.stacks
    blocks = action.group.algebra.blocks
    supports = action.block_supports
    pairs = _state_pairs(space)
    xs, ys = np.array(pairs, dtype=int).reshape(-1, 2).T
    ranks = np.array(space.distance_ranks)
    r_xy = ranks[xs, ys]
    # d^p of each realized distance, as the float of the exact power when
    # the bound is exact
    values = space.realized_distances
    power = np.array([float(v) ** float(p) for v in values])
    bounds = np.array([float(v ** int(p)) for v in values]) if exact else power

    chars = [k for k, b in enumerate(blocks) if b == 1]
    sigma = supports[chars, :, 0]
    if (sigma < 0).any() or (supports[chars, :, 1:] >= 0).any():
        raise ValueError("a 1x1 block of u is not a permutation of the points")
    r_image = ranks[sigma[:, xs], sigma[:, ys]].T          # (pair, character)
    char_margins = power[r_image] - bounds[r_xy][:, None]
    char_fails = np.flatnonzero(~(r_image <= r_xy[:, None]) if rational
                                else ~(char_margins <= space.tol * scale))
    # the first failing character as (pair, block); larger blocks are
    # decided in loop order up to it
    if len(char_fails):
        stop_pair, c = divmod(int(char_fails[0]), len(chars))
        stop = (stop_pair, chars[c])
    else:
        stop = (len(pairs), 0)
    rows = {k: [tuple(row[row >= 0].tolist()) for row in supports[k]]
            for k, b in enumerate(blocks) if b > 1}
    vertices = {}        # (L_x, L_y) -> (raw vertices, scale, float f, float g)
    worst = [float(char_margins.max())] if char_margins.size else []

    def vertex_psd(k, x, y, vert):
        """Whether k^p q I - sum_a f_a R[x, L_x[a]] - sum_b g_b R[y, L_y[b]]
        is PSD, for a raw vertex (f, g) and k^p at the scale s^p of d^p,
        on block k's exact form (R, q); None when the block has none."""
        form = action.exact_blocks[k]
        if form is None:
            return None
        R, q = form
        terms = np.concatenate([R[x, list(rows[k][x])], R[y, list(rows[k][y])]])
        return exact_psd(integer[0][x][y] * q * np.eye(R.shape[-1], dtype=object)
                         - sum(c * m for c, m in zip(vert, terms)))

    for i, (x, y) in enumerate(pairs[:stop[0] + 1]):
        for k in rows:
            if (i, k) > stop:
                break
            lx, ly = rows[k][x], rows[k][y]
            cut = len(lx)
            if (lx, ly) not in vertices:
                raw, vscale = _dual_vertex_search(space, p, lx, ly)
                fg = _vertex_floats(raw, vscale)
                vertices[lx, ly] = raw, vscale, fg[:, :cut].copy(), fg[:, cut:].copy()
            raw, vscale, F, G = vertices[lx, ly]
            ux, uy = stacks[k][x, list(lx)], stacks[k][y, list(ly)]
            mats = np.einsum("vj,jab->vab", F, ux) + np.einsum("vj,jab->vab", G, uy)
            margins = np.linalg.eigvalsh(mats)[:, -1] - bounds[r_xy[i]]
            worst.append(float(margins.max()))
            failed = _first_failure(
                margins, space.tol * scale, _BORDERLINE * scale,
                (lambda v: vertex_psd(k, x, y, raw[v])) if exact else None)
            if failed is not None:
                vert = [str(v if vscale is None else Fraction(v, vscale))
                        for v in raw[failed]]
                return IsometryVerdict(tag, False, witness={
                    "pair": (x, y), "block": k, "kind": "dual-vertex",
                    "supports": (lx, ly),
                    "vertex": (vert[:cut], vert[cut:]),
                    "margin": float(margins[failed]),
                    "state": _eigen_state(action, k, mats[failed])})
    if len(char_fails):
        (x, y), k = pairs[stop[0]], stop[1]
        sx, sy = int(sigma[c, x]), int(sigma[c, y])
        return IsometryVerdict(tag, False, witness={
            "pair": (x, y), "block": k, "kind": "character",
            "points": (sx, sy), "margin": float(char_margins[stop[0], c]),
            "state": _eigen_state(action, k, stacks[k][x, sx])})
    return IsometryVerdict(tag, True,
                           certificate={"max_margin": max(worst, default=0.0)})


def check_lip1_universal(action: CoAction) -> IsometryVerdict:
    """`check_lip_p_universal` at p = 1, under the name that the package
    exports and the benchmark's condition table calls."""
    return check_lip_p_universal(action, 1)


# ---------------------------------------------------------------------------
# universal coupling-support conditions (p = inf and the level-set theorem)


def _support_universal(action: CoAction, tag: str, level_only: bool) -> IsometryVerdict:
    """Every state admits a coupling of (x <| psi, y <| psi) on Y, the
    (sub)level set of d(x,y), iff u_xj u_yk = 0 for every (j, k) outside Y.

    Over all states at once, the marriage theorem's subset condition is
    the operator inequality a_{x;S} <= a_{y;N(S)} for every S.  Both sides
    are projections, since each row of u is an orthogonal family of
    projections summing to 1, so the inequality says a_{x;S} u_yk = 0 for
    every k outside N(S); that holds for all S iff it holds for singletons
    (Banica 2005).  Each product is decided blockwise as
    lambda_max(P Q P) = ||P Q||^2 <= 0 with P = u_xj, Q = u_yk, for every
    pair of `_state_pairs`, block and (j, k) of `CoAction.block_supports`
    off Y at once: d(j, k) is compared with d(x, y) on the distance ranks
    in rational mode and within the space's `dtol` in float mode, the
    products of one block size are one stacked matmul, and their
    lambda_max one batched eigvalsh (the real entry on 1x1 blocks).  In
    rational mode the products within _BORDERLINE of 0 are re-decided
    exactly, in the order (pair, block, j, k) up to the first failure,
    which is the witness: -(R_P R_Q R_P) must be PSD, with R_P and R_Q
    read from the block's exact form (`CoAction.exact_blocks`)."""
    space = action.space
    alg = action.group.algebra
    pairs = _state_pairs(space)
    xs, ys = np.array(pairs, dtype=int).reshape(-1, 2).T
    if space.mode == RATIONAL:
        keys, dtol = np.array(space.distance_ranks), 0
    else:
        keys, dtol = np.array(space.dist, dtype=float), space.dtol
    supports = action.block_supports
    js = supports[:, xs].swapaxes(0, 1)[..., :, None]   # (pair, block, j, 1)
    ks = supports[:, ys].swapaxes(0, 1)[..., None, :]   # (pair, block, 1, k)
    d_jk, d_xy = keys[js, ks], keys[xs, ys][:, None, None, None]
    off = np.abs(d_jk - d_xy) > dtol if level_only else d_jk > d_xy + dtol
    pair, block, a, c = np.nonzero(off & (js >= 0) & (ks >= 0))
    j, k = supports[block, xs[pair], a], supports[block, ys[pair], c]
    sizes = np.array(alg.blocks)[block]
    margins = np.empty(len(pair))
    for b in set(sizes.tolist()):
        sel = np.flatnonzero(sizes == b)
        cols = np.array(alg.offsets)[block[sel], None] + np.arange(b * b)
        P = action.coeffs[xs[pair[sel], None], j[sel, None], cols].reshape(-1, b, b)
        Q = action.coeffs[ys[pair[sel], None], k[sel, None], cols].reshape(-1, b, b)
        products = P @ Q @ P
        margins[sel] = products[:, 0, 0].real if b == 1 else \
            np.linalg.eigvalsh(products)[:, -1]

    def product(i, stack):
        """P Q P of product i, from its block's (n, n, ., .) stack."""
        P = stack[xs[pair[i]], j[i]]
        return P @ stack[ys[pair[i]], k[i]] @ P

    def product_psd(i):
        """Whether -P Q P is PSD exactly, on the block's exact form (the
        real form of a product is the product of the real forms); None
        when the block has none."""
        form = action.exact_blocks[block[i]]
        return None if form is None else exact_psd(-product(i, form[0]))

    failed = _first_failure(margins, space.tol, _BORDERLINE,
                            product_psd if space.mode == RATIONAL else None)
    if failed is None:
        return IsometryVerdict(tag, True, certificate={
            "max_residual": max([0.0] + margins.tolist())})
    return IsometryVerdict(tag, False, witness={
        "pair": pairs[pair[failed]], "points": (int(j[failed]), int(k[failed])),
        "block": int(block[failed]), "residual": float(margins[failed]),
        "state": _eigen_state(action, int(block[failed]),
                              product(failed, action.stacks[block[failed]]))})


def check_winf_universal(action: CoAction) -> IsometryVerdict:
    """All states admit a coupling supported on pairs at distance <= d(x,y)."""
    return _support_universal(action, "Lip_inf(universal)", False)


def check_theorem_main(action: CoAction) -> IsometryVerdict:
    """All states admit a coupling supported on the exact level set."""
    return _support_universal(action, "main(universal)", True)


def check_level_coupling_state(action: CoAction, psi: StateFunctional) -> IsometryVerdict:
    """Per-state version of the level-set coupling, via the feasibility
    solver on each pair of `_state_pairs`.  On an exactly symmetric d the
    level set is symmetric, so (y, x) repeats (x, y), and the first failing
    pair in x-major order over all ordered pairs has x < y anyway."""
    space = action.space
    images = [act_on_point(action, x, psi, space.tol) for x in range(space.n)]
    for x, y in _state_pairs(space):
        Y = level_set(space, space.dist[x][y])
        verdict = feasible_coupling_on(images[x], images[y], Y)
        if not verdict.feasible:
            return IsometryVerdict("main(state)", False, witness={
                "pair": (x, y), "violating_subset": sorted(verdict.violator)})
    return IsometryVerdict("main(state)", True, certificate={})


# ---------------------------------------------------------------------------
# structural consequences


def check_orthogonality(action: CoAction, x: int, y: int, S, T, delta) -> bool:
    """a_{x;S} a_{y;T} = 0 whenever every (s, t) has |d(s,t) - d(x,y)| >= delta,
    with a_{x;S} = sum_{j in S} u_xj, formed and normed block by block."""
    space = action.space
    d_xy = space.dist[x][y]
    for s in S:
        for t in T:
            if abs(space.dist[s][t] - d_xy) < delta:
                raise HypothesisViolated(
                    f"|d({s},{t}) - d({x},{y})| < delta")
    S, T = list(S), list(T)
    return all(float(operator_norms(stack[x, S].sum(0) @ stack[y, T].sum(0)))
               <= space.tol for stack in action.stacks)


def check_injectivity(action: CoAction) -> bool:
    """rho is one-to-one iff f -> (sum_j f_j u_xj)_x has full rank n."""
    n = action.n
    cols = action.coeffs.transpose(0, 2, 1).reshape(-1, n)
    return int(np.linalg.matrix_rank(cols, tol=action.space.tol)) == n
