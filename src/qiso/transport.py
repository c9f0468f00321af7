"""Optimal transport on finite spaces with primal/dual certificates.

The workhorse is a primal network simplex for uncapacitated min-cost flow
(spanning-tree bases, Bland's rule), run with exact rational pivots when the
data is rational.  Transportation plans, Kantorovich potentials, coupling
feasibility on a restricted support (via max-flow/min-cut), the bottleneck
distance, and exhaustive vertex enumeration of the two dual polytopes all
live here.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, QisoError, SizeGuardExceeded
from .metric import FiniteMetricSpace, PairSet
from .scalars import RATIONAL, Scalar, is_rational, tol_for


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

    def pair(self, f: Sequence[Scalar]) -> Scalar:
        """The integral mu(f)."""
        return sum(m * v for m, v in zip(self.mass, f))

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

    def support(self) -> List[Tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.plan)
                for j, v in enumerate(row) if v != 0]

    def check_marginals(self, tol: float = 1e-9) -> None:
        eps = tol_for(_mode_of(self.mu.mass, self.nu.mass), tol)
        n = len(self.plan)
        for i in range(n):
            if abs(sum(self.plan[i]) - self.mu.mass[i]) > eps:
                raise InfeasibleMarginals(f"row {i} sum != mu[{i}]")
        for j in range(len(self.plan[0])):
            if abs(sum(row[j] for row in self.plan) - self.nu.mass[j]) > eps:
                raise InfeasibleMarginals(f"column {j} sum != nu[{j}]")


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


def min_cost_flow(num_nodes: int, arcs: List[Tuple[int, int, Scalar]],
                  demand: Sequence[Scalar], tol: float = 1e-9):
    """Primal network simplex for uncapacitated min-cost flow.

    demand[v] is the required net inflow at v (negative for supply); the
    demands must balance.  Returns (flows per arc, node potentials).  The
    potentials satisfy pi[v] - pi[u] <= cost(u,v) on every arc, with
    equality on arcs carrying flow.  Starts from an all-artificial basis
    rooted at a virtual node; Bland's rule (lowest arc index enters, lowest
    index leaves among ties) prevents cycling under exact pivots.
    """
    rational = all(is_rational(c) for _, _, c in arcs) and \
        all(is_rational(b) for b in demand)
    eps = tol_for(RATIONAL if rational else "float", tol)
    piv_eps = Fraction(0) if rational else 1e-12

    total = sum(demand)
    if abs(total) > eps:
        raise InfeasibleMarginals(f"demands sum to {total}, not 0")

    root = num_nodes
    big = sum(abs(c) for _, _, c in arcs) + 1
    if rational:
        big = Fraction(big)
    work_arcs = list(arcs)
    basis = []
    flows = {}
    for v in range(num_nodes):
        b = demand[v]
        if b >= 0:
            work_arcs.append((root, v, big))
        else:
            work_arcs.append((v, root, big))
        idx = len(work_arcs) - 1
        basis.append(idx)
        flows[idx] = abs(b)

    n_all = num_nodes + 1

    def tree_adjacency():
        adj = {v: [] for v in range(n_all)}
        for a in basis:
            u, v, _ = work_arcs[a]
            adj[u].append((v, a, 1))   # +1: arc points away from u
            adj[v].append((u, a, -1))
        return adj

    def potentials(adj):
        pi = [None] * n_all
        pi[root] = big * 0  # zero of the right scalar type
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, a, sign in adj[u]:
                if pi[v] is None:
                    c = work_arcs[a][2]
                    pi[v] = pi[u] + c if sign > 0 else pi[u] - c
                    queue.append(v)
        return pi

    for _ in range(_MAX_PIVOTS):
        adj = tree_adjacency()
        pi = potentials(adj)
        entering = -1
        for a, (u, v, c) in enumerate(work_arcs):
            if a in flows:
                continue
            if c + pi[u] - pi[v] < -piv_eps:
                entering = a
                break
        if entering < 0:
            break
        eu, ev, _ = work_arcs[entering]
        # tree path ev -> eu; cycle orientation follows the entering arc
        parent = {ev: None}
        queue = deque([ev])
        while eu not in parent:
            u = queue.popleft()
            for v, a, sign in adj[u]:
                if v not in parent:
                    parent[v] = (u, a, sign)
                    queue.append(v)
        # The BFS ran from ev toward eu, so each recorded parent edge is
        # traversed u -> child in the same direction the cycle flow runs
        # (entering eu -> ev, then tree walk ev -> ... -> eu).  sign > 0
        # means the arc is oriented with the cycle and gains theta; sign < 0
        # means it opposes the cycle and loses theta.
        path = []
        node = eu
        while parent[node] is not None:
            u, a, sign = parent[node]
            path.append((a, sign))
            node = u
        theta = None
        leaving = -1
        for a, sign in path:
            if sign < 0:
                if theta is None or flows[a] < theta or \
                        (flows[a] == theta and a < leaving):
                    theta = flows[a]
                    leaving = a
        if leaving < 0:
            raise UnboundedFlow("negative-cost cycle with no reverse arc")
        if theta < 0:  # float fuzz on a degenerate basis
            theta = 0 * theta
        flows[entering] = theta
        for a, sign in path:
            flows[a] = flows[a] + theta if sign > 0 else flows[a] - theta
        basis.remove(leaving)
        basis.append(entering)
        del flows[leaving]
    else:
        raise QisoError("network simplex failed to terminate")

    for a in basis:
        u, v, _ = work_arcs[a]
        if (u == root or v == root) and flows[a] > eps:
            raise InfeasibleMarginals("artificial arc carries flow at optimum")
    adj = tree_adjacency()
    pi = potentials(adj)
    out = [flows.get(a, None) for a in range(len(arcs))]
    zero = big * 0
    return [zero if f is None else f for f in out], pi[:num_nodes]


# ---------------------------------------------------------------------------
# transportation problems


def solve_transport(mu: ProbVector, nu: ProbVector, cost) -> TransportResult:
    """Minimize sum cost_ij pi_ij over couplings of (mu, nu).

    Returns the optimal plan together with feasible dual potentials whose
    objective matches the primal value (exactly under rational data).
    """
    n = mu.n
    if nu.n != n or len(cost) != n or any(len(row) != n for row in cost):
        raise DimensionMismatch("marginals and cost must share one size n")
    eps = tol_for(_mode_of(mu.mass, nu.mass), 1e-9)
    if abs(sum(mu.mass) - sum(nu.mass)) > eps:
        raise InfeasibleMarginals("marginal masses differ")

    arcs = [(i, n + j, cost[i][j]) for i in range(n) for j in range(n)]
    demand = [-m for m in mu.mass] + list(nu.mass)
    flows, pi = min_cost_flow(2 * n, arcs, demand)

    plan = tuple(tuple(flows[i * n + j] for j in range(n)) for i in range(n))
    value = sum(cost[i][j] * plan[i][j] for i in range(n) for j in range(n))
    f = [-pi[i] for i in range(n)]
    g = [pi[n + j] for j in range(n)]
    shift = g[n - 1]
    f = tuple(v + shift for v in f)
    g = tuple(v - shift for v in g)
    objective = mu.pair(f) + nu.pair(g)
    return TransportResult(value=value, plan=Coupling(plan, mu, nu),
                           duals=DualPotentials(f, g, objective))


def transport_with_power(space: FiniteMetricSpace, mu: ProbVector,
                         nu: ProbVector, p) -> TransportResult:
    """solve_transport with cost d^p; the result's value is W_p^p, exact
    when the space and marginals are rational and p is a positive integer."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if isinstance(p, int) or (isinstance(p, Fraction) and p.denominator == 1):
        cost = [[v ** int(p) for v in row] for row in space.dist]
    else:
        cost = [[float(v) ** float(p) for v in row] for row in space.dist]
    return solve_transport(mu, nu, cost)


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
    f normalized by f_{n-1} = 0.
    """
    n = space.n
    arcs = [(i, j, space.dist[i][j]) for i in range(n) for j in range(n) if i != j]
    demand = [nu.mass[i] - mu.mass[i] for i in range(n)]
    flows, pi = min_cost_flow(n, arcs, demand)
    value = sum(c * fl for (_, _, c), fl in zip(arcs, flows))
    witness = [-v for v in pi]
    shift = witness[n - 1]
    witness = tuple(v - shift for v in witness)
    return value, witness


# ---------------------------------------------------------------------------
# coupling feasibility on a restricted support (max-flow / min-cut)


@dataclass(frozen=True)
class CouplingFeasibility:
    feasible: bool
    coupling: Optional[Coupling]
    violator: Optional[frozenset]          # S with nu(p12(S)) < mu(S)
    mu_S: Optional[Scalar] = None
    nu_neighborhood: Optional[Scalar] = None


def feasible_coupling_on(mu: ProbVector, nu: ProbVector, Y: PairSet,
                         tol: float = 1e-9) -> CouplingFeasibility:
    """Find a (mu, nu)-coupling supported on Y, or certify none exists.

    Max-flow: source->i with capacity mu_i, j->sink with capacity nu_j,
    uncapacitated arcs on Y; a coupling exists iff the max flow is 1.  On
    failure the source side of a min cut yields S with nu(p12^Y(S)) < mu(S).
    """
    n = mu.n
    if nu.n != n or Y.n != n:
        raise DimensionMismatch("marginals and pair set sizes differ")
    eps = tol_for(_mode_of(mu.mass, nu.mass), tol)
    if abs(sum(mu.mass) - sum(nu.mass)) > eps:
        raise InfeasibleMarginals("marginal masses differ")

    source, sink = 2 * n, 2 * n + 1
    two = Fraction(2) if eps == 0 else 2.0
    cap = {}
    for i in range(n):
        cap[(source, i)] = mu.mass[i]
    for j in range(n):
        cap[(n + j, sink)] = nu.mass[j]
    for i, j in Y.pairs():
        cap[(i, n + j)] = two

    adj = {v: [] for v in range(2 * n + 2)}
    for (u, v) in cap:
        adj[u].append(v)
        adj[v].append(u)
    flow = {e: 0 * mu.mass[0] for e in cap}

    def residual(u, v):
        r = 0 * mu.mass[0]
        if (u, v) in cap:
            r += cap[(u, v)] - flow[(u, v)]
        if (v, u) in cap:
            r += flow[(v, u)]
        return r

    def bfs():
        parent = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
            for v in adj[u]:
                if v not in parent and residual(u, v) > eps:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return None, parent
        path = []
        node = sink
        while parent[node] is not None:
            path.append((parent[node], node))
            node = parent[node]
        return list(reversed(path)), parent

    while True:
        path, reach = bfs()
        if path is None:
            break
        bottleneck = min(residual(u, v) for u, v in path)
        for u, v in path:
            if (u, v) in cap and cap[(u, v)] - flow[(u, v)] >= bottleneck:
                flow[(u, v)] += bottleneck
            else:
                flow[(v, u)] -= bottleneck

    value = sum(flow[(source, i)] for i in range(n))
    if abs(value - 1) <= max(eps * n, eps):
        plan = [[0 * mu.mass[0]] * n for _ in range(n)]
        for i, j in Y.pairs():
            plan[i][j] = flow[(i, n + j)]
        return CouplingFeasibility(True, Coupling(
            tuple(tuple(row) for row in plan), mu, nu), None)

    _, reach = bfs()
    S = frozenset(i for i in range(n) if i in reach)
    neighborhood = frozenset(j for i in S for j in range(n) if (i, j) in Y)
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

    Feasibility is a step function of r jumping only at realized distances,
    so the search runs over the sorted realized values (any r between two
    realized values has the same feasibility as the lower one).
    """
    from .metric import sublevel_set

    values = space.realized_distances
    lo, hi = 0, len(values) - 1  # values[-1] is always feasible
    cache = {}

    def feas(k):
        if k not in cache:
            cache[k] = feasible_coupling_on(mu, nu, sublevel_set(space, values[k]))
        return cache[k]

    while lo < hi:
        mid = (lo + hi) // 2
        if feas(mid).feasible:
            hi = mid
        else:
            lo = mid + 1
    witness = feas(lo)
    lower = feas(lo - 1).violator if lo > 0 else None
    return WInfResult(values[lo], witness.coupling, lower)


# ---------------------------------------------------------------------------
# dual polytope vertex enumeration


def _solve_linear(A, b):
    """Gaussian elimination; None if singular.  Exact on Fractions."""
    m = len(A)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    exact = all(is_rational(v) for row in M for v in row)
    piv_eps = 0 if exact else 1e-11
    for col in range(m):
        pivot = None
        best = piv_eps
        for r in range(col, m):
            if abs(M[r][col]) > best:
                pivot, best = r, abs(M[r][col])
            if exact and pivot is not None:
                break
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        for r in range(m):
            if r != col and M[r][col] != 0:
                factor = M[r][col] / pv
                for c in range(col, m + 1):
                    M[r][c] -= factor * M[col][c]
    return [M[r][m] / M[r][r] for r in range(m)]


def enumerate_lipschitz_vertices(space: FiniteMetricSpace,
                                 max_points: int = 8) -> List[Tuple[Scalar, ...]]:
    """All vertices of {f : |f_i - f_j| <= d(i,j), f_{n-1} = 0}.

    Exhaustive active-set enumeration: each vertex of the (n-1)-dimensional
    polytope is cut out by n-1 of the n(n-1) difference constraints.  The
    vertex set is closed under negation.  Guarded: n <= max_points.
    """
    n = space.n
    if n < 2:
        raise DimensionMismatch("need n >= 2")
    if n > max_points:
        raise SizeGuardExceeded(f"vertex enumeration guarded at n <= {max_points}")
    eps = tol_for(space.mode, space.tol)
    m = n - 1  # free coordinates f_0 .. f_{n-2}
    constraints = []  # (coeff vector over free coords, rhs) for f_i - f_j <= d_ij
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = [0] * m
            if i < m:
                row[i] += 1
            if j < m:
                row[j] -= 1
            constraints.append((row, space.dist[i][j]))

    seen = {}
    for combo in itertools.combinations(range(len(constraints)), m):
        A = [constraints[k][0] for k in combo]
        b = [constraints[k][1] for k in combo]
        sol = _solve_linear(A, b)
        if sol is None:
            continue
        if any(sum(c * x for c, x in zip(row, sol)) - rhs > eps
               for row, rhs in constraints):
            continue
        f = tuple(sol) + (space.dist[0][0] * 0,)
        key = f if not eps else tuple(round(float(v), 9) for v in f)
        seen.setdefault(key, f)
    return list(seen.values())


def _power_cost(space, p):
    if isinstance(p, int) or (isinstance(p, Fraction) and p.denominator == 1):
        return [[v ** int(p) for v in row] for row in space.dist]
    return [[float(v) ** float(p) for v in row] for row in space.dist]


def enumerate_boxed_dual_vertices(space: FiniteMetricSpace, p,
                                  max_points: int = 8) -> List[DualPotentials]:
    """Vertices of the boxed, normalized Kantorovich dual polytope

        {(f, g) : f_i + g_j <= d(i,j)^p,  g_{n-1} = 0,  -2C <= f, g <= 2C}

    with C = max d^p.  Any objective that is convex, entrywise monotone in
    (f, g), and invariant under the shift (f - t, g + t) attains its sup
    over the full unbounded dual polytope at one of these vertices: the
    double c-transform of any feasible pair dominates it, lands in the box,
    and can be shifted into the slice without changing the objective.

    Enumeration is structural instead of choose(2n)-of-all-constraints: at
    a vertex the tight pair constraints f_i + g_j = c_ij form a forest on
    the f/g variables, and each tree component is pinned by exactly one
    active bound (a box wall, or the g_{n-1} = 0 column collapsing
    f_i + 0 <= c_{i,n-1} to a unary pin).  Cross-checked against literal
    active-set enumeration in the test suite.
    """
    n = space.n
    if n > max_points:
        raise SizeGuardExceeded(f"vertex enumeration guarded at n <= {max_points}")
    eps = tol_for(space.mode, space.tol)
    cost = _power_cost(space, p)
    zero = cost[0][0] * 0
    exact = space.mode == RATIONAL and all(
        is_rational(v) for row in cost for v in row)
    if exact:
        # Rescale to plain integers: the enumeration only adds, subtracts
        # and compares, so scaling by the common denominator is exact and
        # an order of magnitude faster than Fraction arithmetic.
        import math
        scale = math.lcm(*(Fraction(v).denominator for row in cost for v in row))
        work = [[int(v * scale) for v in row] for row in cost]
        eps = 0
    else:
        scale = 1
        work = [[float(v) for v in row] for row in cost]
        eps = float(eps) or space.tol
    C = max(max(row) for row in work)
    lo, hi = -2 * C, 2 * C

    # Variables: f_0..f_{n-1} are 0..n-1, g_0..g_{n-2} are n..2n-2.
    nvars = 2 * n - 1
    edges = [(i, n + j, work[i][j]) for i in range(n) for j in range(n - 1)]
    pins = {v: [lo, hi] for v in range(nvars)}
    for i in range(n):
        pins[i].append(work[i][n - 1])  # f_i + g_{n-1} = c tight, g_{n-1} = 0

    def feasible(vals):
        for v in vals:
            if v < lo - eps or v > hi + eps:
                return False
        for i in range(n):
            fi = vals[i]
            for j in range(n - 1):
                if fi + vals[n + j] - work[i][j] > eps:
                    return False
            if fi - work[i][n - 1] > eps:
                return False
        return True

    seen = {}

    def record(vals):
        if exact:
            out = [Fraction(v, scale) for v in vals]
        else:
            out = vals
        f = tuple(out[:n])
        g = tuple(out[n:]) + (zero,)
        key = tuple(vals) if exact else tuple(round(float(v), 9) for v in vals)
        seen.setdefault(key, DualPotentials(f, g))

    # Enumerate forests over the bipartite tight-pair graph with an
    # incremental union-find (rolled back on backtrack), then try every
    # way of pinning one variable per tree component.
    comp = list(range(nvars))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    adj = {v: [] for v in range(nvars)}

    def visit_forest():
        groups = {}
        for v in range(nvars):
            groups.setdefault(find(v), []).append(v)
        options = [[(v, val) for v in grp for val in pins[v]]
                   for grp in groups.values()]
        for pick in itertools.product(*options):
            vals = [None] * nvars
            ok = True
            for v0, val in pick:
                stack = [(v0, val)]
                while stack:
                    v, x = stack.pop()
                    if vals[v] is not None:
                        ok = ok and abs(vals[v] - x) <= eps
                        continue
                    vals[v] = x
                    for w, c in adj[v]:
                        stack.append((w, c - x))  # f + g = c determines the mate
                if not ok:
                    break
            if ok and feasible(vals):
                record(vals)

    def grow(start):
        visit_forest()
        for e in range(start, len(edges)):
            u, v, c = edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            comp[ru] = rv
            adj[u].append((v, c))
            adj[v].append((u, c))
            grow(e + 1)
            adj[u].pop()
            adj[v].pop()
            comp[ru] = ru

    grow(0)
    return list(seen.values())
