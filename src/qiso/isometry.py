"""Decision procedures for the isometry conditions of a coaction.

Conditions checked per state or universally over all states of the algebra:

  D         the distance row identity rho(d_y)(x) = kappa(rho(d_x)(y))
  Lip_p     every state contracts the Wasserstein-p distance (p in [1, inf])
  Lip_inf   a coupling of (x <| psi, y <| psi) lives on {d <= d(x,y)}
  main      a coupling lives on the level set {d = d(x,y)}

(D) is linear in the u_xj: its defects are einsums over the coaction's
coefficient tensor, and their norms are taken block by block.
`defect_blocks` is the one decision of (D): `check_D` reports it and
`envelope` quotients by its failing blocks.  On a rational space it
re-decides near-tie blocks exactly, on the exact forms of u and kappa(u)
and the integer form of d; a character only where two distances are
close enough for that to matter.  Every
pairwise check visits the pairs of `_state_pairs`: x < y on an exactly
symmetric d, every ordered pair otherwise.  A failing (D) or per-state
Lip_p check reports the first pair in that order whose residual or
margin is within 1e-12 (relative to the largest residual, or times max
d) of the worst, so pairs that tie up to rounding give one witness.

The per-state Lip_p check solves one transport problem per pair
(`_pair_margins`), by the simplex for finite p and by max-flow for
p = inf.  It shares no step with the universal checks below, which find
their states through dual vertices and eigenvectors, so a universal
verdict replayed on its own state (`reports.verify_instance`) is decided
a second time: a failing verdict's witness state at its witness pair
alone, the one pair it claims, and a holding verdict's state at its
largest margin or residual on a block of size > 1 at every pair.

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
products u_xj u_yk off the (sub)level set, one sweep for main and
Lip_inf together.  In rational mode near-ties are re-decided by
exact fraction-free elimination on ints (`algebra.exact_psd`), in loop
order up to the first failure, which is the witness; each reads the
block's one exact form (`CoAction.exact_block`), and a block without
one keeps the float verdict.  Float mode uses Hermitian eigensolvers
with one tolerance; the space's mode says which.  Every check reads the
space's `tol`, relative to the largest distance (its p-th power for the
Lip_p eigenvalue bounds), and compares W_p or a distance with d(x, y) in
both modes by the space's `sublevel_tops` (within `dtol`): a larger
Lip_p block's eigenvalues are bounded by d_top^p, d_top the largest
distance within dtol of d(x, y).  So no verdict depends on the caller or
on the metric's units, and Lip_inf => Lip_p holds in float mode too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, FrozenSet, NamedTuple, Optional, Tuple

import numpy as np

from .algebra import StateFunctional, exact_psd, extreme_state, operator_norms
from .coaction import CoAction, act_on_points
from .metric import PairSet
from .scalars import RATIONAL
from .transport import (ProbVector, _dual_vertex_search, feasible_coupling_on,
                        wasserstein_inf, wasserstein_p)


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
    condition (D) holds.  kappa(u_yj) is U kappa^T on coefficients."""
    d = np.array(action.space.dist, dtype=float)
    return np.einsum("yj,xja->xya", d, action.coeffs) - \
        np.einsum("xj,yja->xya", d, action.coeffs @ action.group.kappa.T)


def _defect_verdict(tag: str, residuals: np.ndarray, space,
                    failing: Optional[np.ndarray] = None) -> IsometryVerdict:
    """The verdict on the (n, n) residuals.  `failing` holds, per pair,
    the residual by which it fails, -inf where it does not; by default a
    pair fails by its residual when that is not within tol x max d.  A
    failure's witness is the first failing pair in x-major order whose
    residual there is within a relative 1e-12 of the largest: the defects
    of (x, y) and (y, x) have equal norms, which rounding tells apart only
    in the last bits.  The residuals scale with the metric, so the space's
    tol is taken relative to the largest distance and the verdict does not
    depend on its units."""
    if failing is None:
        failing = np.where(residuals <= space.tol * float(space.max_distance),
                           -np.inf, residuals)
    fails = failing != -np.inf
    if not fails.any():
        return IsometryVerdict(tag, True, certificate={
            "max_residual": float(residuals.max())})
    worst = failing.max()
    x, y = divmod(int(np.argmax(fails & ~(failing < worst * (1 - 1e-12)))),
                  space.n)
    return IsometryVerdict(tag, False, witness={
        "pair": (x, y), "residual": float(failing[x, y])})


class DefectCut(NamedTuple):
    """Where (D) fails, as `defect_blocks` decides it."""

    residuals: np.ndarray    # (n, n): ||c_xy||, its largest block norm
    failing: np.ndarray      # (n, n): the largest norm of c_xy over the
    #                          failing blocks where it is nonzero, else -inf
    blocks: FrozenSet[int]   # the blocks on which some c_xy is nonzero


def _form_defects(action: CoAction, k: int) -> Optional[np.ndarray]:
    """Whether c_xy is exactly nonzero on block k, an (n, n) array, or
    None when either term of c_xy has no exact form there.  With the
    block's exact forms (R, q) of u and (S, r) of kappa(u), each read once
    per action (`CoAction.exact_block`), and the space's integer form K
    (d = K / s):
    c_xy s = sum_j K[y, j] R[x, j] / q - sum_j K[x, j] S[y, j] / r, on
    ints once both sides are taken to the denominator lcm(q, r).  No
    identity between kappa(u_yj) and u_jy is assumed: it holds for a
    magic unitary, and (D) is decided on any action."""
    form = action.exact_block(k)
    if form is None:
        return None
    kappa_form = action.exact_block(k, antipode=True)
    if kappa_form is None:
        return None
    (R, q), (S, r) = form, kappa_form
    common = lcm(q, r)
    R, S = R * (common // q), S * (common // r)
    K = action.space.integer_form[0]
    # int64 holds both sums when n max|R, S| max|K| < 2^62
    top = action.n * np.abs(np.concatenate([R.ravel(), S.ravel()])).max() * \
        max(abs(v) for row in K for v in row)
    dtype = np.int64 if top < 2 ** 62 else object
    R, S, K = R.astype(dtype), S.astype(dtype), np.array(K, dtype=dtype)
    defects = np.einsum("yj,xjab->xyab", K, R) - np.einsum("xj,yjab->xyab", K, S)
    return defects.any(axis=(-2, -1))


def defect_blocks(action: CoAction) -> DefectCut:
    """The (D) decision that `check_D` reports and `envelope` cuts by: the
    defects' norms, one `operator_norms` per stack of equal-sized blocks,
    and the blocks where some defect does not vanish.  A block fails when
    some defect's norm exceeds the space's tol x max d.  On a rational
    space a block whose largest norm is within _BORDERLINE x max d (0
    included) is re-decided exactly instead, by `_form_defects` on the
    exact forms of both terms of its defects; a block without them keeps
    the float decision, and so does a character unless the space has two
    distances within 2 x _BORDERLINE x max d."""
    space = action.space
    alg = action.group.algebra
    scale = float(space.max_distance)
    norms = np.empty((action.n, action.n, len(alg.blocks)))
    for idx, stack in zip(alg.blocks_by_size.values(),
                          alg.element_blocks(commutator_defects(action))):
        norms[..., alg.block_of[idx[:, 0, 0]]] = operator_norms(stack)
    nonzero = ~(norms <= space.tol * scale)
    if space.mode == RATIONAL:
        near = np.flatnonzero(norms.max(axis=(0, 1)) <= _BORDERLINE * scale)
        # a magic unitary's character has permutation matrices u and
        # kappa(u), so its defects are differences of two distances: where
        # no two distances lie within _BORDERLINE x max d (twice that, for
        # rounding) they all vanish, as the float norms of a near one say
        gaps = np.diff(np.array(space.realized_distances, dtype=float))
        if not (gaps <= 2 * _BORDERLINE * scale).any():
            near = near[np.array(alg.blocks)[near] > 1]
        for k in near.tolist():
            exact = _form_defects(action, k)
            if exact is not None:
                nonzero[..., k] = exact
    return DefectCut(norms.max(axis=-1),
                     np.where(nonzero, norms, -np.inf).max(axis=-1),
                     frozenset(np.flatnonzero(nonzero.any(axis=(0, 1))).tolist()))


def check_D(action: CoAction) -> IsometryVerdict:
    """Compare rho(d_y)(x) with kappa(rho(d_x)(y)) in norm, all pairs: the
    verdict of `defect_blocks`, which fails at the pairs whose defect is
    nonzero on a failing block, by their largest norm there."""
    cut = defect_blocks(action)
    return _defect_verdict("D", cut.residuals, action.space, cut.failing)


# ---------------------------------------------------------------------------
# per-state conditions


def check_D_state(action: CoAction, psi: StateFunctional) -> IsometryVerdict:
    """Membership of psi in the (D)-isometric functionals: psi kills every
    defect element, i.e. (x <| psi)(d_y) = (y <| bar psi)(d_x)."""
    return _defect_verdict("D(state)",
                           np.abs(commutator_defects(action) @ psi.as_vector()),
                           action.space)


def _pair_margins(space, images: np.ndarray, p, pairs):
    """(W_p(x <| psi, y <| psi), W_p - d(x, y)) for each pair (x, y) of
    `pairs`, from one state's (n, n) images (row x is x <| psi): one
    transport problem per pair, `wasserstein_p` (the simplex on the float
    d^p of the float masses) for finite p >= 1, `wasserstein_inf` for
    p = inf."""
    if p == float("inf") or p == "inf":
        def distance(mu, nu):
            return float(wasserstein_inf(space, mu, nu).r)
    elif not p >= 1:
        raise ValueError("p must be >= 1")
    else:
        def distance(mu, nu):
            return float(wasserstein_p(space, mu, nu, p))
    mass = [ProbVector(tuple(row)) for row in images.tolist()]
    out = []
    for x, y in pairs:
        w = distance(mass[x], mass[y])
        out.append((w, w - float(space.dist[x][y])))
    return out


def check_lip_p_state(action: CoAction, psi: StateFunctional, p) -> IsometryVerdict:
    """W_p(x <| psi, y <| psi) <= d(x,y) for every pair of `_state_pairs`,
    one transport problem per pair (`_pair_margins`).  Every x <| psi
    comes from one `act_on_points` call, which validates it within the
    space's tol.

    The margins W_p - d(x,y) scale with the metric, so the space's tol is
    taken relative to the largest distance, as for (D).  A failure's
    witness is the first pair whose margin is within 1e-12 x max d of the
    largest."""
    space = action.space
    pairs = _state_pairs(space)
    replayed = _pair_margins(space, act_on_points(action, [psi])[0], p, pairs)
    margins = [margin for _, margin in replayed]
    scale = float(space.max_distance)
    worst = max(margins, default=0.0)
    tag = f"Lip_{p}(state)"
    if worst <= space.tol * scale:
        return IsometryVerdict(tag, True, certificate={"max_margin": worst})
    i = next(i for i, m in enumerate(margins) if m >= worst - 1e-12 * scale)
    return IsometryVerdict(tag, False, witness={
        "pair": pairs[i], "wasserstein": replayed[i][0], "margin": margins[i]})


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


def _vertex_floats(vertices, scale) -> np.ndarray:
    """The raw potentials of `transport._dual_vertex_search` as a float
    array, one row per vertex: ints v at the scale s of a rational space
    as v / s, which is correctly rounded and so equals the float of the
    Fraction v / s; floats as they are."""
    if scale is not None:
        vertices = [[v / scale for v in vert] for vert in vertices]
    return np.array(vertices, dtype=float)


def check_lip_p_universal(action: CoAction, p) -> IsometryVerdict:
    """Exact universal (Lip_p) decision for finite p, block by block.

    The map psi -> W_p^p(x <| psi, y <| psi) is convex, so its sup sits on
    pure states, which live on single blocks.  On block k, row x of u is a
    family of projections summing to 1 whose support L_x (the u_xj of trace
    >= 1 there, `CoAction.block_supports`) has at most b_k points.  A 1x1
    block is a character, which sends x to the Dirac mass at sigma(x): the
    condition there is d(sigma x, sigma y) <= d(x, y).  Every pair of
    `_state_pairs` and every character is decided at once, through the
    index array sigma[c, x], on the distance ranks and `sublevel_tops` in
    both modes: W_p of two Dirac masses is their distance at every p.  On
    a larger block, the top eigenvalue of sum_a f_a u_{x,L_x[a]} +
    sum_b g_b u_{y,L_y[b]} must stay below d_top^p, d_top the largest
    distance within dtol of d(x,y) (rank `sublevel_tops`[r_xy]; d(x,y)
    itself in rational mode), for every vertex
    (f, g) of the dual polyhedron of the cost d^p on L_x x L_y (both sums
    of projections are 1 on the block, so the objective is
    shift-invariant); those are found once per support pair, from at most
    C(2b_k - 2, b_k - 1) trees whatever n is, and each (pair, block)
    takes one batched eigvalsh over its vertex matrices.

    So every block compares W_p with d(x,y) as Lip_inf compares
    distances, and Lip_inf => Lip_p holds in both modes (W_p <= W_inf).
    Margins are in units of d^p (d(sigma x, sigma y)^p minus d(x,y)^p,
    or the eigenvalue minus d_top^p, every d^p read from
    `space.float_power(p)`) and a larger block's bound is the space's
    tol x the largest d^p.  In rational mode and for integer p,
    eigenvalue near-ties are re-decided in loop order up to the first
    failure, on ints: with d_top^p = k^p / s^p (`space.power(p)`), the
    raw vertex (at the scale s^p) and block k's exact form (R, q),
    k^p q I - sum_a f_a R[x, L_x[a]] - sum_b g_b R[y, L_y[b]] must be
    PSD.
    The witness is the first failure in the order (pair, block, vertex),
    with the state of the top eigenvector of its vertex matrix.  A holding
    verdict's certificate carries the same state at the largest margin on
    a larger block, the first in that order, or none when every block is
    a character: it is the state on which the verdict is tightest, and a
    character's verdict is a comparison of distance ranks.
    """
    if p == float("inf") or p == "inf":
        return check_winf_universal(action)
    space = action.space
    exact_power, power_scale = space.power(p)   # d^p as k^p / s^p, or floats
    exact = power_scale is not None
    # d^p of each rank, as the float of the exact power when it is exact
    power = np.array(space.float_power(p))
    tag = f"Lip_{p}(universal)"
    scale = float(power[-1])
    stacks = action.stacks
    blocks = action.group.algebra.blocks
    supports = action.block_supports
    pairs = _state_pairs(space)
    xs, ys = np.array(pairs, dtype=int).reshape(-1, 2).T
    ranks, tops = np.array(space.distance_ranks), np.array(space.sublevel_tops)
    r_xy = ranks[xs, ys]
    r_top = tops[r_xy]      # the rank of d_top, which bounds a larger block

    chars = [k for k, b in enumerate(blocks) if b == 1]
    sigma = supports[chars, :, 0]
    if (sigma < 0).any() or (supports[chars, :, 1:] >= 0).any():
        raise ValueError("a 1x1 block of u is not a permutation of the points")
    r_image = ranks[sigma[:, xs], sigma[:, ys]].T          # (pair, character)
    char_margins = power[r_image] - power[r_xy][:, None]
    char_fails = np.flatnonzero(~(r_image <= tops[r_xy][:, None]))
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
    tightest = None      # (margin, block, matrix) at a larger block's largest margin

    def vertex_psd(k, i, vert):
        """Whether k^p q I - sum_a f_a R[x, L_x[a]] - sum_b g_b R[y, L_y[b]]
        is PSD, for pair i = (x, y), a raw vertex (f, g) and k^p at the
        scale s^p of d_top^p, on block k's exact form (R, q); None when the
        block has none."""
        form = action.exact_block(k)
        if form is None:
            return None
        R, q = form
        x, y = pairs[i]
        terms = np.concatenate([R[x, list(rows[k][x])], R[y, list(rows[k][y])]])
        d_p = exact_power[r_top[i]]
        return exact_psd(d_p * q * np.eye(R.shape[-1], dtype=object)
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
            margins = np.linalg.eigvalsh(mats)[:, -1] - power[r_top[i]]
            top = int(np.argmax(margins))
            worst.append(float(margins[top]))
            if tightest is None or worst[-1] > tightest[0]:
                tightest = worst[-1], k, mats[top]
            failed = _first_failure(
                margins, space.tol * scale, _BORDERLINE * scale,
                (lambda v: vertex_psd(k, i, raw[v])) if exact else None)
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
    certificate = {"max_margin": max(worst, default=0.0)}
    if tightest is not None:
        certificate["state"] = _eigen_state(action, tightest[1], tightest[2])
    return IsometryVerdict(tag, True, certificate=certificate)


def check_lip1_universal(action: CoAction) -> IsometryVerdict:
    """`check_lip_p_universal` at p = 1, under the name that the package
    exports and the benchmark's condition table calls."""
    return check_lip_p_universal(action, 1)


# ---------------------------------------------------------------------------
# universal coupling-support conditions (p = inf and the level-set theorem)


def _support_sweep(action: CoAction) -> Callable[[bool], IsometryVerdict]:
    """verdict(lip_inf): every state admits a coupling of (x <| psi,
    y <| psi) on Y, the level set (main) or sublevel set (Lip_inf) of
    d(x,y), iff u_xj u_yk = 0 for every (j, k) outside Y.

    Over all states at once, the marriage theorem's subset condition is
    the operator inequality a_{x;S} <= a_{y;N(S)} for every S.  Both sides
    are projections, since each row of u is an orthogonal family of
    projections summing to 1, so the inequality says a_{x;S} u_yk = 0 for
    every k outside N(S); that holds for all S iff it holds for singletons
    (Banica 2005).  Each product is decided blockwise as
    lambda_max(P Q P) = ||P Q||^2 <= 0 with P = u_xj, Q = u_yk, in one
    sweep over every pair of `_state_pairs`, block and (j, k) of
    `CoAction.block_supports` off the level set, Lip_inf's being those with
    d(j, k) > d(x, y), both on the space's `sublevel_tops` in both modes:
    one stacked matmul and one batched eigvalsh per block size (the real
    entry on 1x1 blocks).  A verdict, formed when asked for, has as
    witness its first failure in the order (pair, block, j, k) and as
    certificate its largest residual.  Either carries the state of the top
    eigenvector of its P Q P: at the failure, or at the largest residual
    on a larger block, the first in that order (none when no product lies
    on one).  In rational mode a product within _BORDERLINE of 0 is
    re-decided exactly, once for both verdicts and only before their first
    failures: -(R_P R_Q R_P) must be PSD, on the block's exact form."""
    space = action.space
    alg = action.group.algebra
    pairs = _state_pairs(space)
    xs, ys = np.array(pairs, dtype=int).reshape(-1, 2).T
    ranks, tops = np.array(space.distance_ranks), np.array(space.sublevel_tops)
    supports = action.block_supports
    js = supports[:, xs].swapaxes(0, 1)[..., :, None]   # (pair, block, j, 1)
    ks = supports[:, ys].swapaxes(0, 1)[..., None, :]   # (pair, block, 1, k)
    r_jk, r_xy = ranks[js, ks], ranks[xs, ys][:, None, None, None]
    off = (r_jk > tops[r_xy]) | (r_xy > tops[r_jk])
    pair, block, a, c = np.nonzero(off & (js >= 0) & (ks >= 0))
    j, k = supports[block, xs[pair], a], supports[block, ys[pair], c]
    sizes = np.array(alg.blocks)[block]
    margins = np.empty(len(pair))
    for b in set(sizes.tolist()):
        sel = np.flatnonzero(sizes == b)
        cols = alg.block_indices(block[sel]).reshape(-1, b * b)
        P = action.coeffs[xs[pair[sel], None], j[sel, None], cols].reshape(-1, b, b)
        Q = action.coeffs[ys[pair[sel], None], k[sel, None], cols].reshape(-1, b, b)
        products = P @ Q @ P
        margins[sel] = products[:, 0, 0].real if b == 1 else \
            np.linalg.eigvalsh(products)[:, -1]

    def product(i, stack):
        """P Q P of product i, from its block's (n, n, ., .) stack."""
        P = stack[xs[pair[i]], j[i]]
        return P @ stack[ys[pair[i]], k[i]] @ P

    def state(i):
        """The state of the top eigenvector of product i."""
        return _eigen_state(action, int(block[i]), product(i, action.stacks[block[i]]))

    decided = {}

    def product_psd(i):
        """Whether -P Q P is PSD exactly, on the block's exact form (the
        real form of a product is the product of the real forms); None
        when the block has none.  Each product is decided once."""
        if i not in decided:
            form = action.exact_block(block[i])
            decided[i] = None if form is None else exact_psd(-product(i, form[0]))
        return decided[i]

    def verdict(lip_inf):
        """Lip_inf's verdict (products off the sublevel set) or main's."""
        tag = "Lip_inf(universal)" if lip_inf else "main(universal)"
        chosen = (np.flatnonzero(ranks[j, k] > tops[ranks[xs[pair], ys[pair]]])
                  if lip_inf else np.arange(len(pair)))
        failed = _first_failure(margins[chosen], space.tol, _BORDERLINE,
                                (lambda f: product_psd(int(chosen[f])))
                                if space.mode == RATIONAL else None)
        if failed is None:
            certificate = {"max_residual": max([0.0] + margins[chosen].tolist())}
            larger = chosen[sizes[chosen] > 1]
            if len(larger):
                certificate["state"] = state(larger[np.argmax(margins[larger])])
            return IsometryVerdict(tag, True, certificate=certificate)
        i = chosen[failed]
        return IsometryVerdict(tag, False, witness={
            "pair": pairs[pair[i]], "points": (int(j[i]), int(k[i])),
            "block": int(block[i]), "residual": float(margins[i]),
            "state": state(i)})

    return verdict


def check_support_universal(action: CoAction) -> Tuple[IsometryVerdict, IsometryVerdict]:
    """The universal (main, Lip_inf) verdicts of one `_support_sweep`."""
    verdict = _support_sweep(action)
    return verdict(False), verdict(True)


def check_winf_universal(action: CoAction) -> IsometryVerdict:
    """All states admit a coupling supported on pairs at distance <= d(x,y)."""
    return _support_sweep(action)(True)


def check_theorem_main(action: CoAction) -> IsometryVerdict:
    """All states admit a coupling supported on the exact level set."""
    return _support_sweep(action)(False)


def check_level_coupling_state(action: CoAction, psi: StateFunctional) -> IsometryVerdict:
    """Per-state version of the level-set coupling, via the feasibility
    solver within the space's tol, on each pair of `_state_pairs`, with
    every x <| psi from one `act_on_points` call.  The level set of
    d(x, y) is read on the distance ranks as `_support_sweep` reads it:
    (j, k) is in it iff r_jk <= tops[r_xy] and r_xy <= tops[r_jk], with
    tops the space's `sublevel_tops`.  On an exactly symmetric d the level
    set is symmetric, so (y, x) repeats (x, y), and the first failing pair
    in x-major order over all ordered pairs has x < y anyway."""
    space = action.space
    ranks, tops = space.distance_ranks, space.sublevel_tops
    images = [ProbVector(tuple(row))
              for row in act_on_points(action, [psi])[0].tolist()]
    for x, y in _state_pairs(space):
        r = ranks[x][y]
        Y = PairSet(tuple(tuple(a <= tops[r] and r <= tops[a] for a in row)
                          for row in ranks))
        verdict = feasible_coupling_on(images[x], images[y], Y, space.tol)
        if not verdict.feasible:
            return IsometryVerdict("main(state)", False, witness={
                "pair": (x, y), "violating_subset": sorted(verdict.violator)})
    return IsometryVerdict("main(state)", True, certificate={})


# ---------------------------------------------------------------------------
# structural consequences


def check_injectivity(action: CoAction) -> bool:
    """rho is one-to-one iff f -> (sum_j f_j u_xj)_x has full rank n."""
    n = action.n
    cols = action.coeffs.transpose(0, 2, 1).reshape(-1, n)
    return int(np.linalg.matrix_rank(cols, tol=action.space.tol)) == n
