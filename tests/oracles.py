"""Brute-force oracles that the test suite compares qiso's procedures with.

Each one decides its question by exhaustive enumeration, independently of
the algorithm it checks, and is exponential in the number of points:

- transport_bruteforce: every basic solution of the transportation
  polytope, against the network simplex;
- boxed_dual_vertices_bruteforce: every active set of the boxed dual
  polytope, against the forest enumerator;
- support_universal_bruteforce: positivity of a_{y;N(S)} - a_{x;S} for
  every pair and every subset S, against the pairwise orthogonality
  criterion of `check_theorem_main` and `check_winf_universal`.
"""

import itertools
from typing import List, Tuple

import numpy as np

from qiso.algebra import AlgElement, exact_psd
from qiso.coaction import CoAction, a_element
from qiso.errors import SizeGuardExceeded
from qiso.isometry import (_BORDERLINE, IsometryVerdict, _eigen_state,
                           _exact_entries, _pairs, _use_exact)
from qiso.metric import FiniteMetricSpace, level_set, sublevel_set
from qiso.scalars import Scalar, tol_for
from qiso.transport import (DualPotentials, InfeasibleMarginals, ProbVector,
                            _power_cost, _solve_linear)


def transport_bruteforce(mu: ProbVector, nu: ProbVector, cost) -> Scalar:
    """Independent oracle: scan every basic solution of the transportation
    polytope (all spanning trees of K_{n,n}, flows by leaf elimination) and
    return the cheapest feasible one.  Exponential; n <= 4 intended.
    """
    n = mu.n
    if n > 5:
        raise SizeGuardExceeded("bruteforce oracle is for n <= 5")
    cells = [(i, j) for i in range(n) for j in range(n)]
    best = None
    for combo in itertools.combinations(range(n * n), 2 * n - 1):
        # spanning-tree test on the 2n node bipartite graph, integers only
        parent = list(range(2 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for e in combo:
            i, j = cells[e]
            ri, rj = find(i), find(n + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic or len({find(v) for v in range(2 * n)}) != 1:
            continue
        # Flows by leaf elimination: every edge runs row -> column, so the
        # flow on a leaf's unique edge is exactly the leaf's residual mass.
        adjacency = {v: [] for v in range(2 * n)}
        for e in combo:
            i, j = cells[e]
            adjacency[i].append((n + j, e))
            adjacency[n + j].append((i, e))
        residual = list(mu.mass) + list(nu.mass)
        degree = [len(adjacency[v]) for v in range(2 * n)]
        used = set()
        leaves = [v for v in range(2 * n) if degree[v] == 1]
        amount = {}
        while leaves:
            v = leaves.pop()
            if degree[v] != 1:
                continue
            w, e = next((w, e) for w, e in adjacency[v] if e not in used)
            amount[e] = residual[v]
            residual[w] -= residual[v]
            residual[v] = 0
            used.add(e)
            degree[v] -= 1
            degree[w] -= 1
            if degree[w] == 1:
                leaves.append(w)
        if len(amount) != 2 * n - 1 or any(v < 0 for v in amount.values()):
            continue
        val = sum(cost[cells[e][0]][cells[e][1]] * v for e, v in amount.items())
        if best is None or val < best:
            best = val
    if best is None:
        raise InfeasibleMarginals("no basic feasible solution found")
    return best


def boxed_dual_vertices_bruteforce(space: FiniteMetricSpace,
                                   p) -> List[DualPotentials]:
    """Literal active-set oracle for the same sliced boxed polytope:
    choose dim-many constraints from the full list, solve, test feasibility.
    Exponential in n^2; intended for n <= 3 cross-checks only."""
    n = space.n
    if n > 3:
        raise SizeGuardExceeded("bruteforce dual enumeration is for n <= 3")
    eps = tol_for(space.mode, space.tol)
    cost = _power_cost(space, p)
    zero = cost[0][0] * 0
    C = max(max(row) for row in cost)
    nvars = 2 * n - 1
    rows = []
    for i in range(n):
        for j in range(n):
            row = [zero] * nvars
            row[i] = row[i] + 1
            if j < n - 1:
                row[n + j] = row[n + j] + 1
            rows.append((row, cost[i][j]))
    for v in range(nvars):
        row = [zero] * nvars
        row[v] = row[v] + 1
        rows.append((row, 2 * C))
        row2 = [zero] * nvars
        row2[v] = row2[v] - 1
        rows.append((row2, 2 * C))

    seen = {}
    for combo in itertools.combinations(range(len(rows)), nvars):
        A = [rows[k][0] for k in combo]
        b = [rows[k][1] for k in combo]
        sol = _solve_linear(A, b)
        if sol is None:
            continue
        if any(sum(c * x for c, x in zip(row, sol)) - rhs > eps
               for row, rhs in rows):
            continue
        f = tuple(sol[:n])
        g = tuple(sol[n:]) + (zero,)
        key = (f, g) if not eps else tuple(round(float(v), 9) for v in sol)
        seen.setdefault(key, DualPotentials(f, g))
    return list(seen.values())


def _lambda_min_geq0(elem: AlgElement, tol: float, exact: bool) -> Tuple[bool, float]:
    """Decide elem >= 0 (as an operator); returns (verdict, float min eig)."""
    lam = elem.min_eig()
    if not exact or abs(lam) > _BORDERLINE:
        return lam >= -tol, lam
    if all(_exact_entries(m) is not None for m in elem.data):
        return exact_psd(elem), lam
    return lam >= -tol, lam


def support_universal_bruteforce(action: CoAction, tag: str, level_only: bool,
                                 tol: float, mode: str,
                                 max_points: int = 20) -> IsometryVerdict:
    """For all x, y and every subset S, the element a_{y;T} - a_{x;S} with
    T = p12^Y(S) must be positive, where Y is the (sub)level set of d(x,y).
    Positivity under every state is extremal-eigenvalue positivity."""
    space = action.space
    n = space.n
    if n > max_points:
        raise SizeGuardExceeded(f"subset exhaustion guarded at n <= {max_points}")
    exact = _use_exact(action, mode)
    worst = None
    for x, y in _pairs(n):
        Y = (level_set if level_only else sublevel_set)(space, space.dist[x][y])
        for size in range(n + 1):
            for S in itertools.combinations(range(n), size):
                T = frozenset(j for i in S for j in range(n) if (i, j) in Y)
                elem = a_element(action, y, T) - a_element(action, x, S)
                ok, lam = _lambda_min_geq0(elem, tol, exact)
                if worst is None or lam < worst[0]:
                    worst = (lam, (x, y), S)
                if not ok:
                    k = int(np.argmin([np.linalg.eigvalsh(m)[0]
                                       for m in elem.data]))
                    return IsometryVerdict(tag, False, witness={
                        "pair": (x, y), "subset": list(S),
                        "min_eigenvalue": lam, "block": k,
                        "state": _eigen_state(action, k, -elem.data[k])})
    return IsometryVerdict(tag, True,
                           certificate={"min_eigenvalue": worst[0] if worst else 0.0})
