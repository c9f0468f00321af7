"""Optimal transport on finite spaces with primal/dual certificates.

The workhorse is a primal network simplex for uncapacitated min-cost flow
(spanning-tree bases kept as parent/depth arrays, block-search pricing,
Cunningham's strongly feasible trees against cycling), started from the
least-cost-first greedy tree of the problem in which every node also
sends an infinitesimal amount to a virtual root: a strongly feasible
tree a few pivots from the optimum, where an all-artificial start is
dozens of pivots away.  Rational data runs exactly on an integer
scale: a rational metric's costs d^p are the ints k^p at the scale s^p
of its integer form d = k / s (`FiniteMetricSpace.power`), other
rational data is scaled once by the lcm of its denominators, and
the pivots, the value, the potentials' shift and the dual objective are
all plain int arithmetic, converted to one Fraction each at the end.
Any other data is converted to float once, on entry, and runs the same
body: one for the transportation problem (W_p) and one for the
Kantorovich problem on the complete metric graph (W_1).
Transportation plans, Kantorovich potentials, coupling feasibility on a
restricted support (the marriage theorem at measure level), the
bottleneck distance, and the vertices of the Kantorovich dual polyhedron
between two sets of points (a pivot search over the spanning trees of
K_{m,n}, one enumerator for every p >= 1) all live here.  Coupling
feasibility and the bottleneck distance share one max-flow core
(`_FlowNetwork`, on the same integer scaling): a greedy fill pushes
min(residual mu_i, residual nu_j) on each open pair in order, then
shortest augmenting paths finish the flow.  The bottleneck
distance buckets all pairs by distance rank and sweeps upward from the
single-point Hall bound, probing only at lower bounds on it, on one flow
that only grows.  A float max flow is a coupling within `flow_slack` of
the caller's tol; the bottleneck distance reads the space's.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import DimensionMismatch, QisoError
from .metric import FiniteMetricSpace, PairSet
from .scalars import DEFAULT_TOL, RATIONAL, Scalar, is_rational, tol_for


class InfeasibleMarginals(QisoError):
    pass


class UnboundedFlow(QisoError):
    pass


# ---------------------------------------------------------------------------
# distributions, couplings, duals


@dataclass(frozen=True)
class ProbVector:
    """A probability distribution on the n points."""

    mass: Tuple[Scalar, ...]

    @property
    def n(self) -> int:
        return len(self.mass)

    def __call__(self, subset) -> Scalar:
        return sum((self.mass[i] for i in subset), start=_zero(self.mass))

    @staticmethod
    def dirac(n: int, x: int) -> "ProbVector":
        one = Fraction(1)
        return ProbVector(tuple(one if j == x else Fraction(0) for j in range(n)))

    @staticmethod
    def uniform(n: int) -> "ProbVector":
        return ProbVector(tuple(Fraction(1, n) for _ in range(n)))


def _zero(values) -> Scalar:
    return Fraction(0) if all(is_rational(v) for v in values) else 0.0


def _mode_of(*seqs) -> str:
    rational = all(is_rational(v) for seq in seqs for v in seq)
    return RATIONAL if rational else "float"


def prob_vector(mass, tol: float = 1e-9) -> ProbVector:
    """Validate entries >= 0 summing to 1 (exactly so for rational input)."""
    mass = tuple(mass)
    eps = tol_for(_mode_of(mass), tol)
    if any(m < -eps for m in mass):
        raise ValueError(f"negative mass in {mass}")
    total = sum(mass)
    if abs(total - 1) > eps:
        raise ValueError(f"mass sums to {total}, not 1")
    if eps:
        # Clamp float fuzz so downstream flow problems balance exactly.
        mass = tuple(max(m, 0.0) for m in mass)
        total = sum(mass)
        mass = tuple(m / total for m in mass)
    return ProbVector(mass)


@dataclass(frozen=True)
class Coupling:
    """A joint distribution on X x X with the given marginals."""

    plan: Tuple[Tuple[Scalar, ...], ...]
    mu: ProbVector
    nu: ProbVector


@dataclass(frozen=True)
class DualPotentials:
    """A feasible pair for the Kantorovich dual: f_i + g_j <= cost_ij."""

    f: Tuple[Scalar, ...]
    g: Tuple[Scalar, ...]
    objective: Optional[Scalar] = None


@dataclass(frozen=True)
class TransportResult:
    value: Scalar
    plan: Coupling
    duals: DualPotentials


# ---------------------------------------------------------------------------
# network simplex core

_MAX_PIVOTS = 200_000


def _integer_scale(values) -> Tuple[List[int], int]:
    """Integers k and the least s > 0 with values[i] == k[i] / s, for
    rational (int or Fraction) values."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _greedy_tree(num_nodes: int, tail, head, cost, demand):
    """The start tree of `_network_simplex`: the least-cost-first greedy
    tree of the problem in which every node v also sends eps 2^v to the
    root (Ahuja, Magnanti and Orlin 1993, section 11.5).  tail, head and
    cost list the m real arcs and then the artificial arc m + v of each
    node v: root -> v for a node of positive demand, v -> root otherwise.

    The real arcs are visited in cost order (a stable sort).  A node is
    live while it hangs from the root, and need[v] is the net demand left
    on the component of the forest that hangs from the live node v: a
    supplier's need stays <= 0 and a demander's > 0.  An arc from a live
    supplier to a live demander takes the smaller of the two needs; the
    node it exhausts hangs from the other endpoint, which stays live with
    the sum of the two.  The eps part of every need is minus a sum of
    distinct powers of two, never 0, so each step exhausts exactly one
    node, the demander exactly when the real parts sum to <= 0; only the
    real parts are kept.  The nodes still live at the end hang from the
    root by their artificial arcs with what they need: a leftover supply,
    or a demand that float rounding or arcs missing from the network left
    unmet.  Each tree arc thus carries a lexicographically positive flow
    of the perturbed problem, and an arc of zero real flow points to the
    root: the tree is strongly feasible (Cunningham 1976).  A float need
    within 8 ulps of the largest |demand| counts as 0, as it does in
    exact arithmetic, so that rounding does not pick the start tree.

    Returns (parent, parc, up): node v hangs from parent[v] (the root is
    num_nodes) by the arc parc[v], which carries the flow up[v] >= 0, the
    need of v when it was exhausted or at the end."""
    m = len(cost) - num_nodes
    need = list(demand)
    parent = [num_nodes] * num_nodes
    parc = [m + v for v in range(num_nodes)]
    ulps = 0 if type(need[0]) is int else 8 * math.ulp(max(map(abs, need)))
    for a in sorted(range(m), key=cost.__getitem__):
        u, v = tail[a], head[a]
        if parc[u] >= m and parc[v] >= m and need[u] <= 0 < need[v]:
            left = need[u] + need[v]
            if abs(left) <= ulps:
                left *= 0
            if left > 0:          # u is exhausted and hangs from v
                parent[u], parc[u], need[v] = v, a, left
            else:                 # v is exhausted and hangs from u
                parent[v], parc[v], need[u] = u, a, left
    return parent, parc, [abs(b) for b in need]


def _network_simplex(num_nodes: int, tail, head, cost, demand,
                     cost_scale: Optional[int]):
    """Primal network simplex for uncapacitated min-cost flow, arc a
    running from tail[a] to head[a] at cost[a].

    demand[v] is the required net inflow at v (negative for supply); the
    demands must balance.  Returns the raw (flows per arc, node
    potentials).  The potentials satisfy pi[v] - pi[u] <= cost(u,v) on
    every arc, with equality on arcs carrying flow.  The data is of one
    kind.  Exact: int costs k and int demands, cost_scale the int s of the
    costs k / s (the big-M below is the unscaled one times s, so the
    pivots do not depend on s); any positive scale of the demands gives
    the same pivots with the flows scaled.  Float: float costs and
    demands, cost_scale None; a reduced cost counts as negative below
    -1e-12 x the largest |cost|, so the result does not depend on the
    units of the costs.

    The start is the greedy tree of `_greedy_tree`, rooted at a virtual
    node: the cheapest arcs carry supplies to demands, and the nodes left
    over hang from the root by big-M artificial arcs, root -> v for a node
    with positive demand and v -> root otherwise; the `pivots` record of
    BENCH_simplex_start.json counts the pivots it saves over an
    all-artificial start.  Every arc of zero flow in it points to the
    root, which makes the tree strongly feasible: positive flow can be
    sent from every node to the root along the tree.  The leaving rule
    keeps it so (Cunningham 1976): walking the cycle from its apex in
    the entering arc's direction, the last blocking arc met leaves.  The
    tree path from the entering arc's head up to the apex then has no
    blocking arc in a degenerate pivot, so the arc that leaves cuts off a
    subtree holding the entering arc's tail, and re-hanging it from the
    head raises its potentials by minus the entering arc's reduced cost.
    The sum of potentials thus grows strictly over degenerate pivots and
    the objective falls strictly over the others, so no basis repeats
    and the simplex terminates under exact pivots whatever arc enters.
    Pricing is therefore free to be block search (Kovacs 2015; the LEMON
    default): the real arcs are scanned cyclically from where the
    previous scan stopped, in blocks of max(8, isqrt(m)), and the arc of
    most negative reduced cost in the first block that has one enters.
    Artificial arcs are not priced, so one outside the tree never enters
    it: at the end every real arc has a nonnegative reduced cost, and an
    artificial arc still carrying flow proves the demands infeasible,
    since big-M exceeds the cost of any path that could carry that flow
    instead.

    The spanning tree is kept as parent/parent-arc/depth arrays with
    child sets: a pivot walks the cycle up to the lowest common ancestor,
    re-roots the subtree cut off by the leaving arc at the entering arc's
    endpoint, and recomputes potentials in that subtree only, each from
    its parent's, so that float potentials equal those of a rebuild from
    the root.

    Two bodies call it: `_transport`, on the bipartite transportation
    network, and `kantorovich_w1`, on the complete metric graph.
    """
    exact = cost_scale is not None
    eps = 0 if exact else DEFAULT_TOL
    if abs(sum(demand)) > eps:
        raise InfeasibleMarginals("demands do not sum to 0")

    m = len(cost)
    # copies, which the artificial arcs extend
    tail, head, cost = list(tail), list(head), list(cost)
    if exact:
        # big is the unscaled big-M, sum |c| + 1, times the cost scale:
        # every reduced cost is the unscaled one times it, so every pivot
        # is unchanged.
        big = sum(map(abs, cost)) + cost_scale
        piv_eps = 0
    else:
        # in the costs' own units, so that small costs keep their digits
        # next to it; when every cost is 0 any positive value serves
        big = 2 * sum(map(abs, cost)) or 1.0
        piv_eps = 1e-12 * max(map(abs, cost), default=0.0)
    zero = big * 0
    work = list(zip(range(m), tail, head, cost)) * 2   # a block may wrap

    root = num_nodes
    for v in range(num_nodes):     # artificial arc m + v
        if demand[v] > 0:
            tail.append(root)
            head.append(v)
        else:
            tail.append(v)
            head.append(root)
        cost.append(big)
    parent, parc, up = _greedy_tree(num_nodes, tail, head, cost, demand)
    parent.append(root)
    parc.append(-1)
    flow = [zero] * (m + num_nodes)
    basic = [False] * (m + num_nodes)
    children = [set() for _ in range(num_nodes + 1)]
    for v in range(num_nodes):
        flow[parc[v]], basic[parc[v]] = up[v], True
        children[parent[v]].add(v)
    depth = [0] * (num_nodes + 1)
    pi = [zero] * (num_nodes + 1)

    def settle(stack):
        """Set depth and potential below the nodes of `stack`, each from
        its parent's."""
        while stack:
            x = stack.pop()
            p, a = parent[x], parc[x]
            depth[x] = depth[p] + 1
            pi[x] = pi[p] + cost[a] if tail[a] == p else pi[p] - cost[a]
            stack.extend(children[x])

    settle(list(children[root]))

    block = max(8, math.isqrt(m))
    nxt = 0
    for _ in range(_MAX_PIVOTS):
        entering, best, scanned = -1, -piv_eps, 0
        while entering < 0 and scanned < m:
            size = min(block, m - scanned)
            for a, u, v, c in work[nxt:nxt + size]:
                r = c + pi[u] - pi[v]
                if r < best and not basic[a]:
                    best, entering = r, a
            scanned += size
            nxt = (nxt + size) % m
        if entering < 0:
            break
        eu, ev = tail[entering], head[entering]
        # The cycle runs eu -> ev over the entering arc, then back along
        # the tree path ev -> lca -> eu.  A tree arc oriented with it gains
        # theta, one against it loses theta; a losing arc of least flow
        # blocks.  Walked from the apex (the lca), the cycle meets the eu
        # side top-down and then the ev side bottom-up, so the last
        # blocking arc is the ev side's highest if it has one and else the
        # eu side's lowest.  q is the child endpoint of the leaving arc;
        # the subtree under q holds w_in.
        gain, lose = [], []
        out_u = out_v = q_u = q_v = -1
        u, v = eu, ev
        while u != v:
            if depth[u] > depth[v]:
                a = parc[u]          # walked parent[u] -> u
                if head[a] == u:
                    gain.append(a)
                else:
                    lose.append(a)
                    if out_u < 0 or flow[a] < flow[out_u]:
                        out_u, q_u = a, u
                u = parent[u]
            else:
                a = parc[v]          # walked v -> parent[v]
                if tail[a] == v:
                    gain.append(a)
                else:
                    lose.append(a)
                    if out_v < 0 or flow[a] <= flow[out_v]:
                        out_v, q_v = a, v
                v = parent[v]
        if out_v >= 0 and (out_u < 0 or flow[out_v] <= flow[out_u]):
            leaving, q, w_in = out_v, q_v, ev
        elif out_u >= 0:
            leaving, q, w_in = out_u, q_u, eu
        else:
            raise UnboundedFlow("negative-cost cycle with no reverse arc")
        theta = flow[leaving]
        if theta < 0:  # float fuzz on a degenerate basis
            theta = 0 * theta
        flow[entering] = theta
        for a in gain:
            flow[a] += theta
        for a in lose:
            flow[a] -= theta
        flow[leaving] = zero
        basic[leaving] = False
        basic[entering] = True

        # Re-root the subtree under q at w_in, hanging it from the other
        # endpoint of the entering arc, then refresh depth and potentials
        # below w_in from each node's new parent.
        children[parent[q]].discard(q)
        x, p, a = w_in, (ev if w_in == eu else eu), entering
        while x != q:
            up, na = parent[x], parc[x]
            children[up].discard(x)
            parent[x], parc[x] = p, a
            children[p].add(x)
            x, p, a = up, x, na
        parent[q], parc[q] = p, a
        children[p].add(q)
        settle([w_in])
    else:
        raise QisoError("network simplex failed to terminate")

    if any(basic[a] and flow[a] > eps for a in range(m, m + num_nodes)):
        raise InfeasibleMarginals("artificial arc carries flow at optimum")
    return flow[:m], pi[:num_nodes]


# ---------------------------------------------------------------------------
# transportation problems


def solve_transport(mu: ProbVector, nu: ProbVector, cost) -> TransportResult:
    """Minimize sum cost_ij pi_ij over couplings of (mu, nu).

    Returns the optimal plan together with feasible dual potentials whose
    objective matches the primal value (exactly under rational data, with
    the costs scaled once to ints by the lcm of their denominators).
    """
    n = mu.n
    if nu.n != n or len(cost) != n or any(len(row) != n for row in cost):
        raise DimensionMismatch("marginals and cost must share one size n")
    flat = [c for row in cost for c in row]
    if _mode_of(mu.mass, nu.mass, flat) == RATIONAL:
        return _transport(mu, nu, *_integer_scale(flat))
    return _transport(mu, nu, flat, None)


def _transport(mu: ProbVector, nu: ProbVector, cost,
               scale: Optional[int]) -> TransportResult:
    """The body of `solve_transport` and `transport_with_power`, for
    marginals of checked sizes n and the row-major list `cost` of the n^2
    costs: ints k for the costs k / scale, with rational marginals, or
    any real numbers with scale None, converted to float once here, as
    are the masses.  The potentials are shifted to g_{n-1} = 0.  Exact:
    the masses are scaled to ints once, and the value, the potentials and
    the dual objective are int sums, each converted to one Fraction at the
    end, as is each nonzero flow."""
    n = mu.n
    if scale is not None:
        mass, ms = _integer_scale(mu.mass + nu.mass)
    else:
        cost = [float(c) for c in cost]
        mass = [float(m) for m in mu.mass + nu.mass]
    flows, pi = _network_simplex(2 * n, [i for i in range(n) for _ in range(n)],
                                 list(range(n, 2 * n)) * n, cost,
                                 [-m for m in mass[:n]] + mass[n:], scale)
    # The 2n - 1 basic flows at most are nonzero; skipping the other
    # products leaves the sum unchanged.
    value = sum(c * fl for c, fl in zip(cost, flows) if fl)
    top = pi[2 * n - 1]
    f = [top - v for v in pi[:n]]
    g = [v - top for v in pi[n:]]
    objective = sum(m * v for m, v in zip(mass, f)) + \
        sum(m * v for m, v in zip(mass[n:], g))
    if scale is not None:
        unit, zero = scale * ms, Fraction(0)
        flows = [Fraction(fl, ms) if fl else zero for fl in flows]
        value, objective = Fraction(value, unit), Fraction(objective, unit)
        f = [Fraction(v, scale) for v in f]
        g = [Fraction(v, scale) for v in g]
    plan = tuple(tuple(flows[i * n:(i + 1) * n]) for i in range(n))
    return TransportResult(value=value, plan=Coupling(plan, mu, nu),
                           duals=DualPotentials(tuple(f), tuple(g), objective))


def transport_with_power(space: FiniteMetricSpace, mu: ProbVector,
                         nu: ProbVector, p) -> TransportResult:
    """solve_transport with cost d^p; the result's value is W_p^p, exact
    when the space and marginals are rational and p is a positive integer,
    on the space's integer form (`FiniteMetricSpace.power`); float
    marginals take `float_power`."""
    power, scale = space.power(p)
    if mu.n != space.n or nu.n != space.n:
        raise DimensionMismatch("marginals and cost must share one size n")
    if scale is not None and _mode_of(mu.mass, nu.mass) != RATIONAL:
        power, scale = space.float_power(p), None
    return _transport(mu, nu, [power[k] for row in space.distance_ranks
                               for k in row], scale)


def wasserstein_p(space: FiniteMetricSpace, mu: ProbVector, nu: ProbVector,
                  p) -> Scalar:
    """W_p = (min sum d^p dpi)^(1/p); exact (rational) when p = 1."""
    result = transport_with_power(space, mu, nu, p)
    if p == 1:
        return result.value
    return float(result.value) ** (1.0 / float(p))


def kantorovich_w1(space: FiniteMetricSpace, mu: ProbVector, nu: ProbVector):
    """max mu(f) - nu(f) over 1-Lipschitz f, solved as min-cost flow on the
    complete metric graph (demands nu - mu, both arc directions).

    This is a different linear program from the bipartite transportation
    formulation in solve_transport; the two agreeing is the point of the
    Kantorovich-Rubinstein cross-check.  Returns (value, witness f) with
    f normalized by f_{n-1} = 0.  A rational space with rational marginals
    runs on the space's integer form and the masses scaled to ints once;
    otherwise the distances and the demands are converted to float once.
    """
    n = space.n
    if mu.n != n or nu.n != n:
        raise DimensionMismatch("marginals and space sizes differ")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if space.mode == RATIONAL and _mode_of(mu.mass, nu.mass) == RATIONAL:
        dist, scale = space.integer_form
        mass, ms = _integer_scale(mu.mass + nu.mass)
        demand = [mass[n + i] - mass[i] for i in range(n)]
        cost = [dist[i][j] for i, j in pairs]
    else:
        scale = None
        demand = [float(b - a) for a, b in zip(mu.mass, nu.mass)]
        cost = [float(space.dist[i][j]) for i, j in pairs]
    flows, pi = _network_simplex(n, [i for i, _ in pairs], [j for _, j in pairs],
                                 cost, demand, scale)
    value = sum(c * fl for c, fl in zip(cost, flows) if fl)
    top = pi[n - 1]
    witness = [top - v for v in pi]
    if scale is None:
        return value, tuple(witness)
    return (Fraction(value, scale * ms),
            tuple(Fraction(v, scale) for v in witness))


# ---------------------------------------------------------------------------
# coupling feasibility on a restricted support (max-flow / min-cut)


@dataclass(frozen=True)
class CouplingFeasibility:
    feasible: bool
    coupling: Optional[Coupling]
    violator: Optional[frozenset]          # S with nu(p12(S)) < mu(S)
    mu_S: Optional[Scalar] = None
    nu_neighborhood: Optional[Scalar] = None


def flow_slack(n: int, tol: float) -> float:
    """How far a float max flow on n rows may fall short of 1 and still be
    a coupling, in `_FlowNetwork` and in `isometry._hall_sweep`: tol per
    row, where tol is the caller's, a space's `tol` for W_inf and the
    isometry checks."""
    return max(tol * n, tol)


class _FlowNetwork:
    """The max-flow network of a coupling problem: source -> row i with
    capacity mu_i, column j -> sink with capacity nu_j, and uncapacitated
    arcs i -> j on the pairs a caller opens; a coupling exists iff the max
    flow is 1.  Rational marginals are scaled once to integers by the lcm
    of their denominators, so that the augmentations run on plain ints.

    A flow is the n x n list `plan` of its pair-arc flows; the source and
    sink arcs carry its row and column sums.
    """

    def __init__(self, mu: ProbVector, nu: ProbVector, n: int, tol: float):
        if mu.n != n or nu.n != n:
            raise DimensionMismatch("marginals and pair set sizes differ")
        self.n = n
        self.rational = _mode_of(mu.mass, nu.mass) == RATIONAL
        if self.rational:
            self.mass, self.scale = _integer_scale(mu.mass + nu.mass)
            # ints, so that the loops compare ints only
            self.eps = self.slack = 0
            unbalanced = sum(self.mass[:n]) != sum(self.mass[n:])
        else:
            self.mass, self.scale, self.eps = list(mu.mass + nu.mass), 1, tol
            self.slack = flow_slack(n, tol)
            unbalanced = abs(sum(mu.mass) - sum(nu.mass)) > tol
        if unbalanced:
            raise InfeasibleMarginals("marginal masses differ")

    def zero_flow(self) -> List[list]:
        zero = 0 * self.mass[0]
        return [[zero] * self.n for _ in range(self.n)]

    def max_flow(self, plan, fill, cols) -> Tuple[bool, List[bool]]:
        """Raise the flow `plan` to a maximum one in place.  cols[i] lists
        the columns whose arcs from row i are open; `fill` lists open pairs
        (i, j) in the order of a first greedy pass, which pushes
        min(residual mu_i, residual nu_j) on each.  Shortest augmenting
        paths, found breadth-first, then raise the flow until none is
        left.  Returns whether the flow is a coupling, and for each row
        whether the source reaches it in the final residual graph: those
        rows are the source side of the min cut nearest the source, the
        same for every max flow."""
        n, mass, eps = self.n, self.mass, self.eps
        sent = [sum(row) for row in plan]
        got = [sum(col) for col in zip(*plan)]
        for i, j in fill:
            push = min(mass[i] - sent[i], mass[n + j] - got[j])
            if push > eps:
                plan[i][j] += push
                sent[i] += push
                got[j] += push
        while True:
            # from_col[i]: the column that reached row i over a backward
            # arc, -1 for the source; from_row[j]: the row that reached j
            from_col = [-1 if mass[i] - sent[i] > eps else None
                        for i in range(n)]
            from_row = [None] * n
            queue = [i for i in range(n) if from_col[i] is not None]
            end = None
            for i in queue:
                for j in cols[i]:
                    if from_row[j] is not None:
                        continue
                    from_row[j] = i
                    if mass[n + j] - got[j] > eps:
                        end = j
                        break
                    for k in range(n):
                        if from_col[k] is None and plan[k][j] > eps:
                            from_col[k] = j
                            queue.append(k)
                if end is not None:
                    break
            if end is None:
                break
            bottleneck = mass[n + end] - got[end]
            j = end
            while True:
                i = from_row[j]
                j = from_col[i]
                if j < 0:
                    bottleneck = min(bottleneck, mass[i] - sent[i])
                    break
                bottleneck = min(bottleneck, plan[i][j])
            got[end] += bottleneck
            j = end
            while True:
                i = from_row[j]
                plan[i][j] += bottleneck
                j = from_col[i]
                if j < 0:
                    sent[i] += bottleneck
                    break
                plan[i][j] -= bottleneck
        feasible = abs(sum(sent) - self.scale) <= self.slack
        return feasible, [c is not None for c in from_col]

    def point_hall_rank(self, buckets) -> int:
        """The least t at which every single point passes Hall's test on
        the pairs of buckets[0..t]: each row's mass mu_i fits in the nu
        mass of the columns paired with it, and each column's nu_j in the
        mu mass of its rows.  A point counts as short only when its
        deficit exceeds twice the flow's acceptance slack, so that float
        rounding never makes a point short.  A max flow can pass no
        earlier t (Hall's theorem for |S| = 1), but it may need a later
        one."""
        n, mass = self.n, self.mass
        need = [m - 2 * self.slack for m in mass]
        short = sum(v > 0 for v in need)
        for t, bucket in enumerate(buckets):
            for i, j in bucket:
                if need[i] > 0:
                    need[i] -= mass[n + j]
                    if need[i] <= 0:
                        short -= 1
                if need[n + j] > 0:
                    need[n + j] -= mass[i]
                    if need[n + j] <= 0:
                        short -= 1
            if not short:
                return t
        return len(buckets) - 1

    def set_hall_rank(self, rows, ranks) -> int:
        """The least t at which the set `rows` passes Hall's test on the
        pairs of rank at most t, ranks[i][j] the rank of pair (i, j): its
        mu mass fits in the nu mass of the columns paired with one of its
        rows.  As in `point_hall_rank`, the set counts as short only when
        its deficit exceeds twice the acceptance slack, so that no max
        flow passes at an earlier t."""
        mass = self.mass
        need = sum(mass[i] for i in rows) - 2 * self.slack
        if need <= 0:
            return 0
        # reach[j]: the least rank of a pair joining a row of `rows` to j
        reach = [min(col) for col in zip(*[ranks[i] for i in rows])]
        for t, got in sorted(zip(reach, mass[self.n:])):
            need -= got
            if need <= 0:
                return t
        return max(reach)

    def coupling(self, plan, mu: ProbVector, nu: ProbVector) -> Coupling:
        if self.rational:
            zero, scale = Fraction(0), self.scale
            plan = [[Fraction(f, scale) if f else zero for f in row]
                    for row in plan]
        return Coupling(tuple(tuple(row) for row in plan), mu, nu)


def feasible_coupling_on(mu: ProbVector, nu: ProbVector, Y: PairSet,
                         tol: float) -> CouplingFeasibility:
    """Find a (mu, nu)-coupling supported on Y, or certify none exists.

    Max-flow on the network of `_FlowNetwork` with the arcs of Y open,
    from a greedy fill of Y's pairs in row-major order; a coupling exists
    iff the max flow is 1.  On failure the source side of the min cut
    nearest the source yields S with nu(p12^Y(S)) < mu(S).
    """
    n = Y.n
    net = _FlowNetwork(mu, nu, n, tol)
    cols = [[j for j in range(n) if Y.member[i][j]] for i in range(n)]
    plan = net.zero_flow()
    feasible, reached = net.max_flow(plan, list(Y.pairs()), cols)
    if feasible:
        return CouplingFeasibility(True, net.coupling(plan, mu, nu), None)
    S = frozenset(i for i in range(n) if reached[i])
    neighborhood = frozenset(j for i in S for j in cols[i])
    return CouplingFeasibility(False, None, S,
                               mu_S=mu(S), nu_neighborhood=nu(neighborhood))


@dataclass(frozen=True)
class WInfResult:
    r: Scalar
    plan: Coupling
    lower_violator: Optional[frozenset]  # certifies infeasibility below r


def wasserstein_inf(space: FiniteMetricSpace, mu: ProbVector,
                    nu: ProbVector) -> WInfResult:
    """The least r admitting a coupling supported on {d <= r}.

    Feasibility jumps only at realized distances.  The probe at index k
    opens the pairs of `space.distance_ranks` at most
    `space.sublevel_tops[k]`, the last index whose value is <= values[k] +
    space.dtol: exactly the pairs at distance <= values[k] within dtol,
    float near-ties included.  A float flow passes within
    `flow_slack(n, space.tol)`.

    The search is the threshold method for bottleneck problems (Gabow and
    Tarjan 1988): an upward sweep that probes only at lower bounds on r,
    so the first probe that passes gives r.  It probes just below the
    single-point Hall bound (`_FlowNetwork.point_hall_rank`), which fails,
    then at it; after a failed probe, at the next index that opens pairs
    or, if later, the Hall rank of the probe's min-cut side
    (`_FlowNetwork.set_hall_rank`).  One flow only grows: each probe fills
    only the pairs it opens (the parametric warm start of Gallo,
    Grigoriadis and Tarjan 1989).  The lower violator is the min-cut side
    just below r: the last failed probe's, or one probe there afresh.
    """
    values = space.realized_distances
    n = space.n
    net = _FlowNetwork(mu, nu, n, space.tol)
    buckets = [[] for _ in values]
    for i, row in enumerate(space.distance_ranks):
        for j, k in enumerate(row):
            buckets[k].append((i, j))

    tops = space.sublevel_tops

    def reaching(rank):
        """The least probe index whose top reaches `rank`: near-ties
        within dtol let a smaller index open the same pairs."""
        return bisect_left(tops, rank)

    def probe(k, plan, cols, opened):
        """Open the buckets after `opened` up to tops[k] and raise the
        flow `plan` to a maximum one on them."""
        top = tops[k]
        fill = [pair for bucket in buckets[opened + 1:top + 1]
                for pair in bucket]
        for i, j in fill:
            cols[i].append(j)
        feasible, reached = net.max_flow(plan, fill, cols)
        return feasible, top, frozenset(i for i in range(n) if reached[i])

    bound = reaching(net.point_hall_rank(buckets))
    plan, cols = net.zero_flow(), [[] for _ in range(n)]
    k, top, below, lower = max(bound - 1, 0), -1, -1, None
    while True:
        feasible, top, cut = probe(k, plan, cols, top)
        if feasible or top == len(values) - 1:
            break
        below, lower = k, cut
        # Below the bound, the bound is probed next and usually passes.
        k = bound if k < bound else max(
            reaching(top + 1),
            reaching(net.set_hall_rank(cut, space.distance_ranks)))
    if below < k - 1:  # the sweep jumped past the index just below r
        lower = probe(k - 1, net.zero_flow(), [[] for _ in range(n)], -1)[2]
    return WInfResult(values[k], net.coupling(plan, mu, nu), lower)


# ---------------------------------------------------------------------------
# dual polyhedron vertex enumeration


def enumerate_dual_vertices(space: FiniteMetricSpace, p, rows=None,
                            cols=None) -> List[DualPotentials]:
    """All vertices of the normalized Kantorovich dual polyhedron

        {(f, g) : f_a + g_b <= d(rows[a], cols[b])^p,  g_{n-1} = 0}

    of the transport problem between the points `rows` (m of them) and
    `cols` (n of them); both default to the whole space.  An objective that
    is convex, entrywise monotone in (f, g) and invariant under the shift
    (f - t, g + t) attains its sup over the polyhedron at one of these
    vertices: a ray direction r has r_f_a + r_g_b <= 0 for all a, b, and
    moving along it never increases such an objective.  On the whole space
    at p = 1 the vertices are the pairs (f, -f), f a vertex of the
    Lipschitz polytope {|f_i - f_j| <= d(i,j), f_{n-1} = 0}.

    A vertex is the potential of a feasible spanning tree of K_{m,n} on the
    nodes f_0..f_{m-1}, g_0..g_{n-1}, rooted at g_{n-1} = 0: f_a + g_b =
    c_ab on its edges and every other slack is >= 0.  Perturbing c_ab by
    eps^(a n + b + 1) gives every vertex of the perturbed polyhedron
    exactly one tree, and those trees are searched breadth-first by pivots
    (Avis-Fukuda 1992): drop a tree edge, let A be the side of the cut
    without the root, and enter the edge of least slack that crosses the
    cut in the other orientation; a drop with no such edge runs along a
    ray.  A slack is the pair (value, eps coefficients), compared
    lexicographically.  There are always C(m+n-2, m-1) such trees, the
    maximal cells of the triangulation of the product of two simplices
    that the perturbed cost induces (Develin-Sturmfels 2004, "Tropical
    convexity").  Each tree's unperturbed potentials are a vertex, kept
    once.  The search itself is `_dual_vertex_search`; where every tree of
    one exact search is feasible for another p, `_tree_vertices` reads
    that p's vertices off them with no search.

    A rational space runs on its integer form, powered per rank as in
    `transport_with_power`, and its vertices come back as Fractions.
    Float data treats slacks within eps = tol x the largest cost as ties
    and keeps one vertex per cell of side eps, so that the vertices found
    do not depend on the units of the costs.
    """
    m = space.n if rows is None else len(rows)
    found, scale, _ = _dual_vertex_search(space, p, rows, cols)
    if scale is not None:
        found = [[Fraction(v, scale) for v in val] for val in found]
    return [DualPotentials(tuple(val[:m]), tuple(val[m:])) for val in found]


def _dual_vertex_search(space: FiniteMetricSpace, p, rows=None, cols=None):
    """The pivot search of `enumerate_dual_vertices`, returning its raw
    potentials and the trees it visited: (vertices, s, trees), each vertex
    the tuple f_0..f_{m-1}, g_0..g_{n-1}, of ints at the scale s = s_d^p
    of the space's integer form (the vertex is v / s) on a rational space
    and integer p, else of floats with s and trees None.  The trees are
    the cells of the triangulation of the product of two simplices that
    the perturbed cost induces, each as its walk from the root: a pair
    (order, pedge), order listing its nodes in preorder and pedge[u] the
    edge from node u to its parent (-1 at the root).

    A tree is the int bitmask of its edges, edge k = a n + b joining f_a
    and g_b.  Each tree is walked once from the root for its potentials,
    parents and preorder; every edge's slack is priced once, and the
    non-tree edges are sorted by slack.  In reversed preorder each node
    collects the edges with an f endpoint in its subtree and those with a
    g endpoint there, so the edges that cross the cut of a drop in the
    other orientation are one bitmask; the entering edge is the first of
    them in slack order, or, when others lie within the tie tolerance, the
    least of those by the eps coefficients of its slack.  Those are built
    along the edge's fundamental cycle only: the coefficients of a node's
    potential alternate in sign along its tree path to the root, so the
    path above the lowest common ancestor cancels.
    """
    rows = range(space.n) if rows is None else rows
    cols = range(space.n) if cols is None else cols
    m, n = len(rows), len(cols)
    power, scale = space.power(p)
    ranks = space.distance_ranks
    work = [power[ranks[i][j]] for i in rows for j in cols]
    if scale is not None:
        eps, zero = 0, 0
    else:
        eps, zero = space.tol * max(work), 0.0
    # Node a is f_a and node m + b is g_b; edge k = a n + b joins them.
    nodes, edges = m + n, m * n
    root = nodes - 1
    ends = [(k // n, m + k % n) for k in range(edges)]
    bit = [1 << k for k in range(edges)]
    # incident[u]: the edges at node u, as a bitmask
    row_bits = (1 << n) - 1
    col_bits = sum(1 << (a * n) for a in range(m))
    incident = [row_bits << (a * n) for a in range(m)] + \
        [col_bits << b for b in range(n)]

    def pivots(tree):
        """The tree's potentials, the trees one pivot away and the
        tree's walk (preorder, parent edges)."""
        adj = [[] for _ in range(nodes)]
        rest = tree
        while rest:
            k = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            a, g = ends[k]
            adj[a].append((g, k))
            adj[g].append((a, k))
        val = [None] * nodes
        parent = [-1] * nodes
        pedge = [-1] * nodes
        depth = [0] * nodes
        order = []           # preorder
        val[root] = zero
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for w, k in adj[u]:
                if val[w] is None:
                    val[w] = work[k] - val[u]
                    parent[w], pedge[w], depth[w] = u, k, depth[u] + 1
                    stack.append(w)
        # f_side[u], g_side[u]: the edges with their f, resp. g, endpoint
        # in the subtree of u
        f_side = incident[:m] + [0] * n
        g_side = [0] * m + incident[m:]
        for u in reversed(order[1:]):
            f_side[parent[u]] |= f_side[u]
            g_side[parent[u]] |= g_side[u]
        slack = [work[k] - val[a] - val[g] for k, (a, g) in enumerate(ends)]
        ranked = sorted([k for k in range(edges) if not tree & bit[k]],
                        key=slack.__getitem__)

        def eps_slack(k):
            """The eps coefficients of edge k's slack, as a dense row."""
            coeffs = [0] * edges
            coeffs[k] = 1
            u, v = ends[k]
            su = sv = -1
            while u != v:
                if depth[u] > depth[v]:
                    coeffs[pedge[u]] = su
                    su, u = -su, parent[u]
                else:
                    coeffs[pedge[v]] = sv
                    sv, v = -sv, parent[v]
            return coeffs

        out = []
        for w in order[1:]:
            # the edges crossing the cut opposite to the dropped one
            cross = g_side[w] & ~f_side[w] if w < m else f_side[w] & ~g_side[w]
            if not cross:
                continue            # the drop runs along a ray
            tied = []
            for k in ranked:
                if cross & bit[k]:
                    if not tied:
                        top = slack[k] + eps
                    elif slack[k] > top:
                        break
                    tied.append(k)
                elif tied and slack[k] > top:
                    break
            enter = tied[0] if len(tied) == 1 else min(tied, key=eps_slack)
            out.append(tree ^ bit[pedge[w]] | bit[enter])
        return val, out, (order, pedge)

    # Start: g_{n-1} joined to every f_a, and every other g_b to an f_a
    # minimizing c_ab - c_{a,n-1}; among ties the largest a, whose
    # perturbation is the least.
    first = sum(bit[a * n + n - 1] for a in range(m))
    for b in range(n - 1):
        reduced = [work[a * n + b] - work[a * n + n - 1] for a in range(m)]
        low = min(reduced)
        a = max(a for a, r in enumerate(reduced) if r <= low + eps)
        first |= bit[a * n + b]
    seen = {first}
    queue = deque([first])
    vertices = {}
    trees = []
    while queue:
        val, nxt, walk = pivots(queue.popleft())
        trees.append(walk)
        key = tuple(round(v / eps) for v in val) if eps else tuple(val)
        if key not in vertices:
            vertices[key] = tuple(val)
        for tree in nxt:
            if tree not in seen:
                seen.add(tree)
                queue.append(tree)
    return list(vertices.values()), scale, None if scale is None else trees


def _tree_vertices(space: FiniteMetricSpace, p, trees):
    """The raw vertices of `_dual_vertex_search(space, p)` on the whole
    space, read off the trees of an earlier exact search on the whole
    space instead when every one of them is feasible for d^p, else None;
    always None unless d^p is exact (a rational space and integer p).

    The trees tile the product of two simplices, and a tree feasible for
    d^p (all slacks >= 0 at its potentials) lies in the cell of the
    subdivision that d^p induces whose vertex is its potentials (De Loera,
    Rambau and Santos 2010, "Triangulations", section 6.2).  Each cell is
    full-dimensional, so some tree lies in it: the trees' distinct
    potentials are exactly the vertices, each a tuple of ints at the
    scale of `space.power(p)`.  Each tree is walked once from the root for
    its potentials, and its slacks are compared with 0 in ints, up to the
    first tree with a negative one."""
    power, scale = space.power(p)
    if scale is None:
        return None
    n = space.n
    work = [power[r] for row in space.distance_ranks for r in row]
    rows = [work[a * n:(a + 1) * n] for a in range(n)]
    # the other end of each edge k = a n + b from node u is a + n + b - u
    ends = [k // n + n + k % n for k in range(n * n)]
    vertices = {}
    for order, pedge in trees:
        val = [0] * (2 * n)
        for u in order[1:]:
            k = pedge[u]
            val[u] = work[k] - val[ends[k] - u]
        g = val[n:]
        for f, row in zip(val, rows):
            for c, h in zip(row, g):
                if c < f + h:
                    return None
        vertices.setdefault(tuple(val), None)
    return list(vertices), scale
