"""Transport solver, duals, feasibility, bottleneck, vertex enumeration."""

import functools
import math
import random
from fractions import Fraction as F

import pytest

from qiso import transport
from qiso.catalog import cycle_metric
from qiso.errors import DimensionMismatch
from qiso.metric import PairSet, random_metric_space, validate_metric
from qiso.scalars import is_rational
from qiso.transport import (Coupling, InfeasibleMarginals, ProbVector,
                            enumerate_dual_vertices, feasible_coupling_on,
                            kantorovich_w1, prob_vector, solve_transport,
                            transport_with_power, wasserstein_inf,
                            wasserstein_p)

from oracles import (_power_cost, _solve_linear, all_pairs,
                     boxed_dual_vertices_bruteforce, check_marginals,
                     coupling_support, diagonal_pairs,
                     dual_vertices_by_spanning_trees,
                     enumerate_boxed_dual_vertices,
                     enumerate_dual_vertices_reference,
                     enumerate_lipschitz_vertices, integral,
                     lipschitz_constant, min_cost_flow_reference,
                     near_tie_chain, sublevel_set, transport_bruteforce,
                     wasserstein_inf_linear_scan)

TWO = validate_metric([[F(0), F(1)], [F(1), F(0)]])
THREE = validate_metric([[F(0), F(1), F(2)], [F(1), F(0), F(2)], [F(2), F(2), F(0)]])


def rand_prob(rng, n, denom=6):
    w = [F(rng.randint(1, denom)) for _ in range(n)]
    s = sum(w)
    return prob_vector([x / s for x in w])


def rand_cost(rng, n, denom=4):
    return [[F(rng.randint(0, 12), rng.randint(1, denom)) for _ in range(n)]
            for _ in range(n)]


# ---------------------------------------------------------------------------
# solve_transport


def test_dirac_couplings():
    d = ProbVector.dirac(3, 1)
    cost = [[F(i + j) for j in range(3)] for i in range(3)]
    res = solve_transport(d, d, cost)
    assert res.value == cost[1][1]
    assert res.plan.plan[1][1] == 1
    res2 = solve_transport(ProbVector.dirac(3, 0), ProbVector.dirac(3, 2), cost)
    assert res2.value == cost[0][2]


def test_identity_plan_for_equal_marginals():
    mu = prob_vector([F(1, 2), F(1, 2)])
    res = solve_transport(mu, mu, [[F(0), F(1)], [F(1), F(0)]])
    assert res.value == 0


def test_two_point_half_swap():
    mu = prob_vector([F(3, 4), F(1, 4)])
    nu = prob_vector([F(1, 4), F(3, 4)])
    res = solve_transport(mu, nu, [[F(0), F(1)], [F(1), F(0)]])
    assert res.value == F(1, 2)
    assert res.duals.objective == F(1, 2)


def test_infeasible_marginals():
    with pytest.raises(InfeasibleMarginals):
        solve_transport(ProbVector((F(1, 2), F(1, 2))),
                        ProbVector((F(1, 2), F(1, 4))), [[F(0)] * 2] * 2)
    with pytest.raises(InfeasibleMarginals):
        solve_transport(ProbVector((0.5, 0.5)), ProbVector((0.5, 0.25)),
                        [[0.0] * 2] * 2)


def test_duals_feasible_and_plan_marginal():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(2, 5)
        mu, nu = rand_prob(rng, n), rand_prob(rng, n)
        cost = rand_cost(rng, n)
        res = solve_transport(mu, nu, cost)
        check_marginals(Coupling(res.plan.plan, mu, nu))
        f, g = res.duals.f, res.duals.g
        assert all(f[i] + g[j] <= cost[i][j] for i in range(n) for j in range(n))
        assert res.duals.objective == res.value  # strong duality, exact
        assert g[n - 1] == 0
        assert sum(1 for row in res.plan.plan for v in row if v != 0) <= 2 * n - 1


def test_solver_matches_bruteforce_oracle():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 4)
        mu, nu = rand_prob(rng, n, 4), rand_prob(rng, n, 4)
        cost = rand_cost(rng, n)
        assert solve_transport(mu, nu, cost).value == transport_bruteforce(mu, nu, cost)


def coprime_prob(rng, n):
    """Masses with denominators 7, 11 and 13 mixed, so that the common
    denominator is their product."""
    mass = [F(rng.randint(0, 3), rng.choice((7, 11, 13))) for _ in range(n - 1)]
    while sum(mass) > 1:
        mass[rng.randrange(n - 1)] /= 2
    return prob_vector(mass + [1 - sum(mass)])


def certify_min_cost_flow(num_nodes, arcs, demand, flows, pi):
    """Exact optimality certificate of (flows, pi): nonnegative flows that
    meet every demand, potentials with pi[v] - pi[u] <= c on every arc and
    equality wherever flow is positive, everything a Fraction.  The raw
    int flows and potentials of an exact `_network_simplex` call are
    converted to Fractions here, and certified on the call's int data."""
    flows = [F(v) if type(v) is int else v for v in flows]
    pi = [F(v) if type(v) is int else v for v in pi]
    assert all(isinstance(v, F) for v in flows + pi)
    assert all(f >= 0 for f in flows)
    net = [F(0)] * num_nodes
    for (u, v, _), f in zip(arcs, flows):
        net[u] -= f
        net[v] += f
    assert net == list(demand)
    for (u, v, c), f in zip(arcs, flows):
        assert pi[v] - pi[u] <= c
        assert f == 0 or pi[v] - pi[u] == c


def test_min_cost_flow_matches_reference(monkeypatch):
    """The integer-scaled block-search simplex reaches the objective of
    the Fraction-pivoting reference exactly, with exactly certified flows
    and potentials, on 200 seeded rational problems routed through
    solve_transport and kantorovich_w1.  The two may stop at different
    optimal bases, so flows and potentials are certified, not compared.
    Every call of the simplex core is checked on the int data it gets."""
    calls = []
    real = transport._network_simplex

    def both(num_nodes, tail, head, cost, demand, cost_scale):
        assert all(type(c) is int for c in cost) and \
            all(type(b) is int for b in demand)
        arcs = list(zip(tail, head, cost))
        got = real(num_nodes, tail, head, cost, demand, cost_scale)
        ref, _ = min_cost_flow_reference(num_nodes, arcs, demand)
        assert sum(c * f for (_, _, c), f in zip(arcs, got[0])) == \
            sum(c * f for (_, _, c), f in zip(arcs, ref))
        certify_min_cost_flow(num_nodes, arcs, demand, *got)
        calls.append(num_nodes)
        return got

    monkeypatch.setattr(transport, "_network_simplex", both)
    rng = random.Random(9)
    for k in range(200):
        n = rng.randint(2, 6)
        factor = F(rng.randint(1, 5), rng.choice((1, 7, 11, 13)))
        base = random_metric_space(n, rng.randint(0, 9999))
        sp = validate_metric([[v * factor for v in row] for row in base.dist])
        kind = k % 4
        if kind == 0:
            mu = ProbVector.dirac(n, rng.randrange(n))
            nu = ProbVector.dirac(n, rng.randrange(n))
        elif kind == 1:
            mu = nu = coprime_prob(rng, n)
        elif kind == 2:
            mu, nu = coprime_prob(rng, n), coprime_prob(rng, n)
        else:
            mu, nu = rand_prob(rng, n), coprime_prob(rng, n)
        if k % 2:
            solve_transport(mu, nu, rand_cost(rng, n, denom=13))
        else:
            transport_with_power(sp, mu, nu, 1 + k % 3)
        kantorovich_w1(sp, mu, nu)
    assert len(calls) == 400


def test_min_cost_flow_returns_certified_fractions():
    """The transport bodies take and return Fractions: on 60 seeded
    rational problems (costs of denominators up to 13 through
    solve_transport, and a scaled metric with demands nu - mu through
    kantorovich_w1) the plan and potentials, or the Lipschitz witness,
    are exactly certified and reach the reference objective."""
    rng = random.Random(10)
    for k in range(60):
        n = rng.randint(2, 6)
        mu, nu = coprime_prob(rng, n), rand_prob(rng, n)
        if k % 2:
            cost = rand_cost(rng, n, denom=13)
            res = solve_transport(mu, nu, cost)
            plan, f, g = res.plan.plan, res.duals.f, res.duals.g
            assert all(isinstance(v, F) for v in (res.value, *f, *g,
                                                  *(v for r in plan for v in r)))
            assert all(v >= 0 for row in plan for v in row)
            assert [sum(row) for row in plan] == list(mu.mass)
            assert [sum(col) for col in zip(*plan)] == list(nu.mass)
            for i in range(n):
                for j in range(n):
                    assert f[i] + g[j] <= cost[i][j]
                    assert plan[i][j] == 0 or f[i] + g[j] == cost[i][j]
            arcs = [(i, n + j, cost[i][j]) for i in range(n) for j in range(n)]
            demand = [-m for m in mu.mass] + list(nu.mass)
            value = res.value
            assert res.duals.objective == value
        else:
            factor = F(rng.randint(1, 5), rng.choice((1, 7, 11)))
            base = random_metric_space(n, rng.randint(0, 9999))
            sp = validate_metric([[v * factor for v in row] for row in base.dist])
            value, f = kantorovich_w1(sp, mu, nu)
            assert all(isinstance(v, F) for v in (value, *f))
            assert all(f[i] - f[j] <= sp.dist[i][j]
                       for i in range(n) for j in range(n))
            assert integral(mu, f) - integral(nu, f) == value
            arcs = [(i, j, sp.dist[i][j]) for i in range(n)
                    for j in range(n) if i != j]
            demand = [b - a for a, b in zip(mu.mass, nu.mass)]
        ref, _ = min_cost_flow_reference(len(demand), arcs, demand)
        assert value == sum(c * fl for (_, _, c), fl in zip(arcs, ref))


def float_prob(rng, n):
    w = [rng.random() + 0.05 for _ in range(n)]
    s = sum(w)
    return prob_vector([x / s for x in w])


def test_mixed_mode_runs_in_floats(monkeypatch):
    """Rational costs with float marginals run the simplex in floats: every
    flow and potential is a float and equals (==) those of the same
    problem with the costs converted to float beforehand, on 100 seeded
    problems routed through solve_transport and kantorovich_w1."""
    calls = []
    real = transport._network_simplex

    def spy(num_nodes, tail, head, cost, demand, cost_scale):
        got = real(num_nodes, tail, head, cost, demand, cost_scale)
        assert all(isinstance(v, float) for part in got for v in part)
        calls.append(got)
        return got

    monkeypatch.setattr(transport, "_network_simplex", spy)
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 6)
        sp = random_metric_space(n, rng.randint(0, 9999))
        fl = validate_metric([[float(v) for v in row] for row in sp.dist],
                             mode="float")
        mu, nu = float_prob(rng, n), float_prob(rng, n)
        cost = rand_cost(rng, n, denom=13)
        exact = solve_transport(mu, nu, cost)
        conv = solve_transport(mu, nu, [[float(c) for c in row] for row in cost])
        assert calls[-2] == calls[-1]
        assert (exact.value, exact.plan.plan, exact.duals) == \
            (conv.value, conv.plan.plan, conv.duals)
        assert kantorovich_w1(sp, mu, nu) == kantorovich_w1(fl, mu, nu)
        assert calls[-2] == calls[-1]
    assert len(calls) == 400


def test_degenerate_problems_terminate_certified(monkeypatch):
    """Anti-cycling rests on strongly feasible trees, whatever arc the
    block search prices in: highly degenerate exact problems (Dirac to
    Dirac, mu = nu with zero masses, all-tied costs, on the n-cycle and
    the equilateral metric for n = 8 to 12) finish within 4 x arcs pivots
    through solve_transport and kantorovich_w1, each with an exactly
    certified optimum."""
    from qiso.catalog import cycle_metric, equilateral_metric
    real = transport._network_simplex
    calls = []

    def capped(num_nodes, tail, head, cost, demand, cost_scale):
        monkeypatch.setattr(transport, "_MAX_PIVOTS", 4 * len(cost))
        got = real(num_nodes, tail, head, cost, demand, cost_scale)
        certify_min_cost_flow(num_nodes, list(zip(tail, head, cost)), demand,
                              *got)
        calls.append(num_nodes)
        return got

    monkeypatch.setattr(transport, "_network_simplex", capped)
    for n in range(8, 13):
        evens = [F(1 - i % 2, (n + 1) // 2) for i in range(n)]
        odds = [F(i % 2, n // 2) for i in range(n)]
        diracs = [(ProbVector.dirac(n, x), ProbVector.dirac(n, y))
                  for x, y in ((0, 0), (0, n // 2), (n - 1, 1))]
        pairs = diracs + [(prob_vector(evens), prob_vector(evens)),
                          (prob_vector(evens), prob_vector(odds))]
        tied = [[F(1)] * n for _ in range(n)]
        for sp in (cycle_metric(n), equilateral_metric(n)):
            for mu, nu in pairs:
                w1 = transport_with_power(sp, mu, nu, 1).value
                assert kantorovich_w1(sp, mu, nu)[0] == w1
                assert solve_transport(mu, nu, tied).value == 1
                if mu == nu:
                    assert w1 == 0
                elif (mu, nu) in diracs:
                    assert w1 == sp.dist[mu.mass.index(1)][nu.mass.index(1)]
    assert len(calls) == 5 * 2 * 5 * 3


def check_start_tree(num_nodes, tail, head, demand, start):
    """The start of `_network_simplex` spans the nodes and the virtual
    root num_nodes: each node hangs by one arc joining it to its parent,
    an artificial arc m + v exactly when the parent is the root, and its
    parent chain reaches the root.  Every tree flow is >= 0, a tree arc
    of zero flow runs from the node to its parent, toward the root, and
    the tree flows meet every demand: exactly for int data, within 1e-12
    for floats.  Returns the nodes that the root feeds."""
    parent, parc, up = start
    root, m = num_nodes, len(tail) - num_nodes
    assert len(set(parc)) == num_nodes
    net = [0] * (num_nodes + 1)
    for v in range(num_nodes):
        a = parc[v]
        assert {tail[a], head[a]} == {v, parent[v]}
        assert (parent[v] == root) == (a == m + v)
        x, steps = v, 0
        while x != root:
            x, steps = parent[x], steps + 1
            assert steps <= num_nodes
        assert up[v] >= 0
        assert up[v] > 0 or tail[a] == v
        net[tail[a]] -= up[v]
        net[head[a]] += up[v]
    if all(type(b) is int for b in demand):
        assert net[:num_nodes] == list(demand)
    else:
        assert all(abs(x - b) <= 1e-12 for x, b in zip(net, demand))
    return [v for v in range(num_nodes) if tail[parc[v]] == root]


def test_greedy_start_is_strongly_feasible(monkeypatch):
    """The greedy start tree is a strongly feasible spanning tree that
    meets the demands (`check_start_tree`), on seeded exact and float
    problems at n = 3 to 9 through both simplex bodies, `_transport`
    (transport_with_power and solve_transport) and `kantorovich_w1`:
    Dirac to Dirac, mu = nu with zero masses, all-tied costs, random
    marginals, and float marginals that balance only within eps (nu
    heavier or lighter by 3e-10).  A positive control asserts that some
    start feeds a float demander from the root."""
    real = transport._greedy_tree
    fed = []

    def spy(num_nodes, tail, head, cost, demand):
        start = real(num_nodes, tail, head, cost, demand)
        fed.append(check_start_tree(num_nodes, tail, head, demand, start))
        return start

    monkeypatch.setattr(transport, "_greedy_tree", spy)
    rng = random.Random(41)
    cases = 0
    for n in range(3, 10):
        sp = random_metric_space(n, rng.randint(0, 9999))
        fl = validate_metric([[float(v) for v in row] for row in sp.dist],
                             mode="float")
        zeros = [F(1 - i % 2, (n + 1) // 2) for i in range(n)]
        pairs = [(ProbVector.dirac(n, 0), ProbVector.dirac(n, 0)),
                 (ProbVector.dirac(n, 0), ProbVector.dirac(n, n - 1)),
                 (prob_vector(zeros), prob_vector(zeros)),
                 (rand_prob(rng, n), rand_prob(rng, n))]
        for mu, nu in pairs:
            floats = [prob_vector([float(m) for m in pv.mass])
                      for pv in (mu, nu)]
            for space, a, b in ((sp, mu, nu), (fl, *floats)):
                for p in (1, 2):
                    transport_with_power(space, a, b, p)
                kantorovich_w1(space, a, b)
                tied = 1 if space is sp else 1.0
                value = solve_transport(a, b, [[tied] * n] * n).value
                assert abs(value - 1) <= 1e-12
                cases += 1
        mu = float_prob(rng, n)
        for shift in (3e-10, -3e-10):
            nu = float_prob(rng, n)
            nu = ProbVector(nu.mass[:-1] + (nu.mass[-1] + shift,))
            transport_with_power(fl, mu, nu, 1)
            kantorovich_w1(fl, mu, nu)
            cases += 1
    assert cases == 7 * (4 * 2 + 2)
    assert len(fed) == 7 * (4 * 2 * 4 + 2 * 2)
    assert any(fed)


def test_float_greedy_start_equals_the_exact_one(monkeypatch):
    """On the four reference problems of perfbench's transport workload
    the float start tree (parent and parent arc of every node) equals the
    exact one, for W_1, W_2 and the Kantorovich problem: float needs that
    cancel only up to rounding (masses k / 80 on ref-n20-6) count as 0,
    as their exact sums do."""
    real = transport._greedy_tree
    trees = []

    def spy(num_nodes, tail, head, cost, demand):
        start = real(num_nodes, tail, head, cost, demand)
        trees.append(start[:2])
        return start

    monkeypatch.setattr(transport, "_greedy_tree", spy)
    for n, k in ((20, 1), (20, 6), (16, 2), (16, 3)):
        for solve in (functools.partial(transport_with_power, p=1),
                      functools.partial(transport_with_power, p=2),
                      kantorovich_w1):
            del trees[:]
            for problem in perfbench_transport_problem(n, k):
                solve(*problem)
            assert len(trees) == 2 and trees[0] == trees[1], (n, k, solve)


def test_reference_problems_finish_within_2n_pivots(monkeypatch):
    """From the greedy start, exact and float W_1 and W_2 on the four
    reference problems of perfbench's transport workload (n = 20, 20, 16
    and 16) each take at most 2n pivots: `_MAX_PIVOTS` is 2n + 1, the
    last pass finding no entering arc (an all-artificial start took 40
    to 68 pivots).  Exact optima are certified on the int data, and
    each float value is within 1e-9 of its exact twin."""
    real = transport._network_simplex
    calls = []

    def capped(num_nodes, tail, head, cost, demand, cost_scale):
        monkeypatch.setattr(transport, "_MAX_PIVOTS", num_nodes + 1)
        got = real(num_nodes, tail, head, cost, demand, cost_scale)
        if cost_scale is not None:
            certify_min_cost_flow(num_nodes, list(zip(tail, head, cost)),
                                  demand, *got)
        calls.append(num_nodes)
        return got

    monkeypatch.setattr(transport, "_network_simplex", capped)
    for n, k in ((20, 1), (20, 6), (16, 2), (16, 3)):
        exact, fl = perfbench_transport_problem(n, k)
        for p in (1, 2):
            want = transport_with_power(*exact, p).value
            got = transport_with_power(*fl, p).value
            assert abs(got - want) <= 1e-9 * want
    assert calls == [40, 40, 40, 40, 40, 40, 40, 40, 32, 32, 32, 32,
                     32, 32, 32, 32]


def entry_kind(matrix, kind):
    """A rational matrix with int entries (scaled by the lcm of its
    denominators), Fraction entries, or both (the integral entries as
    ints)."""
    if kind == "int":
        scale = math.lcm(*(v.denominator for row in matrix for v in row))
        return [[int(v * scale) for v in row] for row in matrix]
    if kind == "mixed":
        return [[int(v) if v.denominator == 1 else v for v in row]
                for row in matrix]
    return [[F(v) for v in row] for row in matrix]


def test_integer_form_agrees_with_fraction_references():
    """Exact transport on a space's integer form gives what the Fraction
    computations give: on seeded rational spaces with int, Fraction and
    mixed entries, n = 2 to 20, p = 1, 2, 3 and marginals with coprime
    denominators, the realized distances and ranks equal a Fraction-set
    recomputation, and the W_p^p value, its dual objective and the
    Kantorovich value equal the optimum of the Fraction-pivoting reference
    simplex (on d^p and on the complete graph of d), every result a
    Fraction."""
    rng = random.Random(21)
    cases = 0
    for n in (2, 3, 4, 6, 9, 13, 20):
        base = random_metric_space(n, rng.randint(0, 9999))
        factor = F(rng.randint(1, 6), rng.choice((1, 7, 11, 13)))
        for k, kind in enumerate(("int", "fraction", "mixed")):
            sp = validate_metric(entry_kind(
                [[v * factor for v in row] for row in base.dist], kind))
            d = [[F(v) for v in row] for row in sp.dist]
            values = sorted({v for row in d for v in row})
            assert sp.realized_distances == tuple(values)
            index = {v: r for r, v in enumerate(values)}
            assert sp.distance_ranks == tuple(tuple(index[v] for v in row)
                                              for row in d)
            mu, nu = coprime_prob(rng, n), coprime_prob(rng, n)
            p = 1 + (n + k) % 3
            arcs = [(i, n + j, d[i][j] ** p) for i in range(n) for j in range(n)]
            ref, _ = min_cost_flow_reference(2 * n, arcs,
                                             [-m for m in mu.mass] + list(nu.mass))
            optimum = sum(c * f for (_, _, c), f in zip(arcs, ref))
            res = transport_with_power(sp, mu, nu, p)
            assert res.value == optimum and res.duals.objective == optimum
            arcs = [(i, j, d[i][j]) for i in range(n) for j in range(n) if i != j]
            ref, _ = min_cost_flow_reference(
                n, arcs, [b - a for a, b in zip(mu.mass, nu.mass)])
            w1, witness = kantorovich_w1(sp, mu, nu)
            assert w1 == sum(c * f for (_, _, c), f in zip(arcs, ref))
            assert all(isinstance(v, F) for v in
                       (res.value, res.duals.objective, w1, *witness,
                        *res.duals.f, *res.duals.g,
                        *(v for row in res.plan.plan for v in row)))
            cases += 1
    assert cases == 21


def test_float_pricing_threshold_is_scale_relative():
    """A float reduced cost counts as negative relative to the largest
    |cost|: on the near-symmetric 4-point metric of the isometry tests
    scaled by 2e-5, where d^3 is of order 1e-15, W_3 is 2e-5 x its value
    on the unscaled metric for 30 seeded Dirichlet marginal pairs."""
    unit = validate_metric([[0.0, 1.0, 1.5, 2.0], [1.0 + 5e-10, 0.0, 1.0, 1.5],
                            [1.5, 1.0, 0.0, 1.0], [2.0, 1.5, 1.0, 0.0]],
                           mode="float")
    small = validate_metric([[2e-5 * v for v in row] for row in unit.dist],
                            mode="float")
    rng = random.Random(13)

    def dirichlet():
        w = [rng.gammavariate(1.0, 1.0) for _ in range(4)]
        return prob_vector([x / sum(w) for x in w])

    for _ in range(30):
        mu, nu = dirichlet(), dirichlet()
        want = 2e-5 * wasserstein_p(unit, mu, nu, 3)
        assert abs(wasserstein_p(small, mu, nu, 3) - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# wasserstein_p and kantorovich


def test_dirac_embedding_is_isometric():
    for p in (1, 2, 3, 8):
        for x in range(3):
            for y in range(3):
                dx, dy = ProbVector.dirac(3, x), ProbVector.dirac(3, y)
                res = transport_with_power(THREE, dx, dy, p)
                assert res.value == THREE.dist[x][y] ** p


def test_w2_half_swap():
    mu = prob_vector([F(3, 4), F(1, 4)])
    nu = prob_vector([F(1, 4), F(3, 4)])
    assert transport_with_power(TWO, mu, nu, 2).value == F(1, 2)
    assert abs(wasserstein_p(TWO, mu, nu, 2) - 0.5 ** 0.5) < 1e-12


def test_wp_metric_axioms_random():
    rng = random.Random(2)
    for _ in range(10):
        sp = random_metric_space(4, rng.randint(0, 999))
        mu, nu, rho = (rand_prob(rng, 4) for _ in range(3))
        for p in (1, 2):
            a = transport_with_power(sp, mu, nu, p).value
            b = transport_with_power(sp, nu, mu, p).value
            assert a == b  # symmetry, exact
            assert transport_with_power(sp, mu, mu, p).value == 0
            wmn = float(a) ** (1 / p)
            wmr = wasserstein_p(sp, mu, rho, p)
            wrn = wasserstein_p(sp, rho, nu, p)
            assert wmn <= float(wmr) + float(wrn) + 1e-9


def test_wp_zero_iff_equal():
    rng = random.Random(3)
    mu, nu = rand_prob(rng, 3), rand_prob(rng, 3)
    if mu.mass != nu.mass:
        assert transport_with_power(THREE, mu, nu, 1).value > 0


def test_monotone_in_p_exact_cross_powers():
    rng = random.Random(4)
    ps = [1, 2, 4, 8, 16, 32]
    for _ in range(6):
        sp = random_metric_space(4, rng.randint(0, 999))
        mu, nu = rand_prob(rng, 4), rand_prob(rng, 4)
        costs = {p: transport_with_power(sp, mu, nu, p).value for p in ps}
        for q, p in zip(ps, ps[1:]):
            # W_q <= W_p iff cost_q^p <= cost_p^q for positive rationals
            assert costs[q] ** p <= costs[p] ** q


def test_kantorovich_examples():
    mu = prob_vector([F(3, 4), F(1, 4)])
    nu = prob_vector([F(1, 4), F(3, 4)])
    value, witness = kantorovich_w1(TWO, mu, nu)
    assert value == F(1, 2)
    assert value == solve_transport(mu, nu, [[F(0), F(1)], [F(1), F(0)]]).value
    same, w = kantorovich_w1(THREE, mu=ProbVector.dirac(3, 0), nu=ProbVector.dirac(3, 0))
    assert same == 0 and len(set(w)) == 1  # constant witness


def test_kantorovich_dirac_attains_distance():
    for x in range(3):
        for y in range(3):
            value, witness = kantorovich_w1(
                THREE, ProbVector.dirac(3, x), ProbVector.dirac(3, y))
            assert value == THREE.dist[x][y]
            assert lipschitz_constant(THREE, witness) <= 1
            assert witness[x] - witness[y] == value  # witness attains


def test_kantorovich_rubinstein_random_exact():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        sp = random_metric_space(n, rng.randint(0, 9999))
        mu, nu = rand_prob(rng, n), rand_prob(rng, n)
        value, witness = kantorovich_w1(sp, mu, nu)
        assert value == transport_with_power(sp, mu, nu, 1).value
        assert lipschitz_constant(sp, witness) <= 1
        assert integral(mu, witness) - integral(nu, witness) == value


# ---------------------------------------------------------------------------
# coupling feasibility and the bottleneck distance


def test_product_coupling_on_full_support():
    rng = random.Random(6)
    mu, nu = rand_prob(rng, 3), rand_prob(rng, 3)
    res = feasible_coupling_on(mu, nu, all_pairs(3), 1e-9)
    assert res.feasible
    check_marginals(Coupling(res.coupling.plan, mu, nu))


def test_diagonal_needs_equal_marginals():
    mu = prob_vector([F(3, 4), F(1, 4)])
    nu = prob_vector([F(1, 4), F(3, 4)])
    res = feasible_coupling_on(mu, nu, diagonal_pairs(2), 1e-9)
    assert not res.feasible
    assert res.violator == {0}  # the mass-losing side
    assert res.nu_neighborhood < res.mu_S


def test_antidiagonal_coupling():
    mu = prob_vector([F(1, 2), F(1, 2)])
    res = feasible_coupling_on(mu, mu, PairSet.from_pairs(2, [(0, 1), (1, 0)]), 1e-9)
    assert res.feasible
    assert res.coupling.plan[0][1] == F(1, 2) and res.coupling.plan[1][0] == F(1, 2)


def test_winf_examples():
    mu = prob_vector([F(3, 4), F(1, 4)])
    nu = prob_vector([F(1, 4), F(3, 4)])
    res = wasserstein_inf(TWO, mu, nu)
    assert res.r == 1 and res.lower_violator is not None
    same = wasserstein_inf(TWO, mu, mu)
    assert same.r == 0
    for x in range(3):
        for y in range(3):
            d = wasserstein_inf(THREE, ProbVector.dirac(3, x), ProbVector.dirac(3, y))
            assert d.r == THREE.dist[x][y]


def _near_tie_space(n, rng):
    """A float shortest-path metric with one symmetric pair, whose distance
    another pair shares, moved up by 4e-10: two realized distances then
    lie within tol of each other."""
    while True:
        base = random_metric_space(n, rng.randint(0, 9999), mode="float")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        shared = [(i, j) for i, j in pairs
                  if sum(base.dist[a][b] == base.dist[i][j] for a, b in pairs) > 1]
        if shared:
            break
    i, j = rng.choice(shared)
    dist = [list(row) for row in base.dist]
    dist[i][j] = dist[j][i] = dist[i][j] + 4e-10
    return validate_metric(dist, mode="float")


def _assert_winf_matches_linear_scan(sp, mu, nu):
    """r and the lower violator equal the linear scan's, and the plan is a
    coupling of (mu, nu) on {d <= r}: exact marginals for rational ones,
    within tol for float ones.  Plans are not compared, as a max flow is
    not unique.  Returns the result."""
    got = wasserstein_inf(sp, mu, nu)
    want = wasserstein_inf_linear_scan(sp, mu, nu)
    assert got.r == want.r
    assert got.lower_violator == want.lower_violator
    plan = got.plan
    assert plan.mu == mu and plan.nu == nu
    check_marginals(plan)
    entries = [v for row in plan.plan for v in row]
    assert all(v >= 0 for v in entries)
    if all(is_rational(m) for m in mu.mass + nu.mass):
        assert all(is_rational(v) for v in entries)
    Y = sublevel_set(sp, got.r)
    assert all((i, j) in Y for i, j in coupling_support(plan))
    return got


def _float_marginals(rng, m):
    return (prob_vector([w / sum(ws) for w in ws]) for ws in
            ([rng.choice((0.0, rng.random())) + 1e-3 for _ in range(m)]
             for _ in range(2)))


def perfbench_transport_problem(n, k):
    """The k-th fixed size-n problem of perfbench's transport workload,
    `transport_problem(n, reference_seed(n, k))` in perfbench/workloads.py:
    a shortest-path-graph metric and two marginals with masses w_i / 4n,
    exact and as floats."""
    return perfbench_seeded_problem(n, (k * 1_000_003 + n) % 2 ** 31)


def perfbench_seeded_problem(n, seed):
    """`transport_problem(n, seed)` in perfbench/workloads.py, exact and
    as floats; the seeded problem of the workload's seed s has
    seed = s x 1_000_003 mod 2^31."""
    rng = random.Random(seed)
    space = random_metric_space(n, seed)
    marginals = []
    for _ in range(2):
        weights = [1] * n
        for _ in range(3 * n):
            weights[rng.randrange(n)] += 1
        marginals.append([F(w, 4 * n) for w in weights])
    fl = validate_metric([[float(v) for v in row] for row in space.dist],
                         mode="float")
    return ((space, *map(prob_vector, marginals)),
            (fl, *(prob_vector([float(m) for m in ms]) for ms in marginals)))


def _single_point_hall_radius(sp, mu, nu):
    """The least realized r at which each mu_i fits in the nu mass within r
    of i and each nu_j in the mu mass within r of j (within 1e-6 for float
    masses): Hall's condition on single points, so no larger than W_inf."""
    slack = 0 if all(is_rational(m) for m in mu.mass + nu.mass) else 1e-6
    for r in sp.realized_distances:
        Y = sublevel_set(sp, r)
        rows = [[j for j in range(sp.n) if Y.member[i][j]] for i in range(sp.n)]
        cols = [[i for i in range(sp.n) if Y.member[i][j]] for j in range(sp.n)]
        if all(mu.mass[i] <= nu(rows[i]) + slack and
               nu.mass[i] <= mu(cols[i]) + slack for i in range(sp.n)):
            return r


def _two_cluster_problem(rng):
    """Points on a line in two far clusters.  The mu masses w of k >= 2
    points of the left cluster share one nu point c of mass w there, and
    the rest of both marginals lies in the right cluster: every single
    point fits within the clusters' radius, but the k points together
    reach the right cluster only across the gap, so W_inf exceeds the
    single-point Hall radius.  Rational, with its point order shuffled."""
    k = rng.randint(2, 3)
    gap = rng.randint(10, 30)
    left = rng.sample([x for x in range(-4, 5) if x], k)
    right = [gap + x for x in rng.sample([x for x in range(-4, 5) if x], 2)]
    points = [0] + left + [gap] + right          # c, a_1..a_k, b, d_1, d_2
    w = F(1, 2 * k)
    mu = [F(0)] + [w] * k + [1 - k * w, F(0), F(0)]
    nu = [w] + [F(0)] * k + [F(0), (1 - w) / 2, (1 - w) / 2]
    order = list(range(len(points)))
    rng.shuffle(order)
    sp = validate_metric([[F(abs(points[a] - points[b])) for b in order]
                          for a in order])
    return sp, prob_vector([mu[a] for a in order]), prob_vector([nu[a] for a in order])


def test_winf_ranks_match_linear_scan():
    """The upward sweep on distance ranks, started at the single-point
    Hall bound, returns the r and lower violator of scanning the sublevel
    sets in increasing order, and a coupling on the sublevel set of r, on
    seeded rational and float spaces with n <= 12, rational and float
    marginals, float spaces with realized distances closer than tol, the
    n = 16 and 20 reference problems of the benchmark's transport workload,
    exact and float, mu = nu (r = 0: no probe lies below the bound),
    two-cluster problems whose bound lies below W_inf, exact and float,
    and cycle metrics with n = 6 to 13 (few realized distances) and
    marginals with zero masses, exact and float.  A positive control
    asserts that both r = bound and r > bound occur."""
    radii = []

    def check(sp, mu, nu):
        got = _assert_winf_matches_linear_scan(sp, mu, nu)
        radii.append((_single_point_hall_radius(sp, mu, nu), got.r))

    rng = random.Random(29)
    for trial in range(60):
        n = rng.randint(2, 8)
        kind = trial % 3
        if kind == 0:
            sp = random_metric_space(n, rng.randint(0, 9999))
        elif kind == 1:
            sp = random_metric_space(n, rng.randint(0, 9999), "euclidean-sample")
        else:
            sp = _near_tie_space(max(n, 3), rng)
            values = sp.realized_distances
            assert any(b - a <= sp.tol for a, b in zip(values, values[1:]))
        m = sp.n
        for _ in range(3):
            if kind == 0 and rng.random() < 0.5:
                mu, nu = rand_prob(rng, m), rand_prob(rng, m)
            else:
                mu, nu = _float_marginals(rng, m)
            check(sp, mu, nu)
        check(sp, mu, mu)
        assert radii[-1] == (0, 0)
    rng = random.Random(31)
    for trial in range(24):
        n = rng.randint(9, 12)
        kind = trial % 3
        if kind == 0:
            sp = random_metric_space(n, rng.randint(0, 9999))
            mu, nu = rand_prob(rng, n), rand_prob(rng, n)
        elif kind == 1:
            sp = random_metric_space(n, rng.randint(0, 9999), "euclidean-sample")
            mu, nu = _float_marginals(rng, n)
        else:
            sp = _near_tie_space(n, rng)
            mu, nu = _float_marginals(rng, n)
        check(sp, mu, nu)
    for n, k in ((20, 1), (20, 6), (16, 2), (16, 3)):
        for sp, mu, nu in perfbench_transport_problem(n, k):
            check(sp, mu, nu)
    rng = random.Random(37)
    for _ in range(10):
        sp, mu, nu = _two_cluster_problem(rng)
        fl = validate_metric([[float(v) for v in row] for row in sp.dist],
                             mode="float")
        check(sp, mu, nu)
        check(fl, *(prob_vector([float(m) for m in pv.mass]) for pv in (mu, nu)))
        assert radii[-2][0] < radii[-2][1] and radii[-1][0] < radii[-1][1]
    rng = random.Random(43)
    for n in range(6, 14):
        sp = cycle_metric(n)
        fl = validate_metric([[float(v) for v in row] for row in sp.dist],
                             mode="float")
        for _ in range(2):
            mu, nu = ([F(rng.choice((0, rng.randint(1, 9)))) for _ in range(n)]
                      for _ in range(2))
            mu[0] = nu[n // 2] = F(1)
            mu, nu = (prob_vector([w / sum(ws) for w in ws]) for ws in (mu, nu))
            check(sp, mu, nu)
            check(fl, *(prob_vector([float(m) for m in pv.mass])
                        for pv in (mu, nu)))
    assert all(bound <= r for bound, r in radii)
    assert sum(bound == r for bound, r in radii) > 100
    assert sum(bound < r for bound, r in radii) >= 30


def test_winf_reference_problems_take_two_max_flows(monkeypatch):
    """On the benchmark's four reference problems, exact and float, the
    single-point Hall bound equals W_inf: wasserstein_inf runs one max flow
    just below it and one at it."""
    calls = []
    max_flow = transport._FlowNetwork.max_flow

    def counted(self, *args):
        calls.append(None)
        return max_flow(self, *args)

    monkeypatch.setattr(transport._FlowNetwork, "max_flow", counted)
    for n, k in ((20, 1), (20, 6), (16, 2), (16, 3)):
        for sp, mu, nu in perfbench_transport_problem(n, k):
            del calls[:]
            wasserstein_inf(sp, mu, nu)
            assert len(calls) == 2, (n, k, sp.mode)


# Max flows per seeded n = 16 Winf item of perfbench's transport workload,
# seeds 901-910 (the same for the exact and float item), in a search that
# raised its lower end to mid + 1 after every infeasible probe.
MID_PLUS_ONE_MAX_FLOWS = {901: 6, 902: 2, 903: 2, 904: 2, 905: 2,
                          906: 7, 907: 2, 908: 2, 909: 2, 910: 2}


def test_winf_lower_end_jumps_to_the_violators_hall_rank(monkeypatch):
    """Once a probe at or above the single-point bound fails,
    wasserstein_inf raises its lower end to the first index at which a
    failed probe's min-cut side S could pass Hall's test: on the seeded
    n = 16 Winf items of seeds 901-910, exact and float, r and the lower
    violator equal the linear scan's, no item runs more max flows than
    with lo = mid + 1, and seeds 901 and 906, whose bound lies below
    W_inf, run fewer."""
    calls = []
    max_flow = transport._FlowNetwork.max_flow

    def counted(self, *args):
        calls.append(None)
        return max_flow(self, *args)

    monkeypatch.setattr(transport._FlowNetwork, "max_flow", counted)
    for seed, before in MID_PLUS_ONE_MAX_FLOWS.items():
        problems = perfbench_seeded_problem(16, seed * 1_000_003 % 2 ** 31)
        for sp, mu, nu in problems:
            del calls[:]
            got = wasserstein_inf(sp, mu, nu)
            assert len(calls) <= before
            assert len(calls) < before or seed not in (901, 906)
            want = wasserstein_inf_linear_scan(sp, mu, nu)
            assert (got.r, got.lower_violator) == (want.r, want.lower_violator)


def test_winf_near_tie_chain_probes_below_the_rank_it_opens():
    """On a chain of float near-ties, {d <= r_1} opens rank 2 and
    {d <= r_2} rank 3 (sublevel tops (0, 2, 3, 3, 4)), so the sweep's
    probe for a rank can sit at a smaller index.  On 300 seeded float
    marginals r and the lower violator equal the linear scan's; r is never
    r_3, whose pairs r_2 already opens, and r_2 occurs, which only a
    probe index below the rank it opens reaches."""
    sp = near_tie_chain()
    values = sp.realized_distances
    assert sp.sublevel_tops == (0, 2, 3, 3, 4)
    rng = random.Random(34)
    radii = {_assert_winf_matches_linear_scan(sp, *_float_marginals(rng, 5)).r
             for _ in range(300)}
    assert values[3] not in radii and values[2] in radii


@pytest.mark.parametrize("p", [-1, 0, 0.5, float("nan"), float("inf")])
def test_d_power_rejects_exponents_outside_the_lip_p_range(p):
    """d^p is the cost of W_p for finite p >= 1 only: the dual vertices
    and transport_with_power reject any other p with ValueError, on a
    rational space and its float twin."""
    exact = cycle_metric(4)
    twin = validate_metric([[float(v) for v in row] for row in exact.dist])
    mu, nu = ProbVector.dirac(4, 0), ProbVector.uniform(4)
    for space in (exact, twin):
        with pytest.raises(ValueError):
            enumerate_dual_vertices(space, p)
        with pytest.raises(ValueError):
            transport_with_power(space, mu, nu, p)


def test_coupling_checks_at_the_boundary():
    """feasible_coupling_on and wasserstein_inf reject marginals whose
    sizes differ from each other or from the pair set or space, and
    marginals of different total mass."""
    three = ProbVector.uniform(3)
    two = ProbVector.uniform(2)
    for mu, nu, Y in ((two, three, all_pairs(3)),
                      (three, two, all_pairs(3)),
                      (three, three, all_pairs(2)),
                      (two, two, all_pairs(3))):
        with pytest.raises(DimensionMismatch):
            feasible_coupling_on(mu, nu, Y, 1e-9)
        space = THREE if Y.n == 3 else TWO
        with pytest.raises(DimensionMismatch):
            wasserstein_inf(space, mu, nu)
    heavy = ProbVector((F(1, 2), F(1, 2), F(1, 2)))
    light = ProbVector((0.25, 0.25, 0.25))
    for mu, nu in ((heavy, three), (three, heavy), (light, three),
                   (ProbVector((1 / 3,) * 3), light)):
        with pytest.raises(InfeasibleMarginals):
            feasible_coupling_on(mu, nu, all_pairs(3), 1e-9)
        with pytest.raises(InfeasibleMarginals):
            wasserstein_inf(THREE, mu, nu)


def test_winf_dominates_all_wp():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 5)
        sp = random_metric_space(n, rng.randint(0, 9999))
        mu, nu = rand_prob(rng, n), rand_prob(rng, n)
        r = wasserstein_inf(sp, mu, nu).r
        prev = 0.0
        for p in (1, 2, 4, 8, 16, 32):
            w = float(transport_with_power(sp, mu, nu, p).value) ** (1 / p)
            assert w <= float(r) + 1e-9
            assert w >= prev - 1e-9  # increasing toward the bottleneck
            prev = w


def integer_problem(n, seed):
    """A metric on n points and two marginals k_i / N, as integer data
    (distances times their common denominator L) and as float data."""
    rng = random.Random(seed)
    sp = random_metric_space(n, seed)
    L = max(v.denominator for row in sp.dist for v in row)
    dist = [[int(v * L) for v in row] for row in sp.dist]
    N = 8 * n
    ks = []
    for _ in range(2):
        k = [1] * n
        for _ in range(N - n):
            k[rng.randrange(n)] += 1
        ks.append(k)
    fl = validate_metric([[float(v) for v in row] for row in sp.dist],
                         mode="float")
    mu, nu = (prob_vector([c / N for c in k]) for k in ks)
    return dist, L, ks, N, fl, mu, nu


@pytest.mark.parametrize("n", [2, 5, 9, 16, 24])
def test_float_transport_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    for seed in range(3):
        dist, L, (kmu, knu), N, fl, mu, nu = integer_problem(n, 100 * n + seed)
        for p in (1, 2):
            G = nx.DiGraph()
            for i in range(n):
                G.add_node(("x", i), demand=-kmu[i])
                G.add_node(("y", i), demand=knu[i])
            for i in range(n):
                for j in range(n):
                    G.add_edge(("x", i), ("y", j), weight=dist[i][j] ** p)
            cost, _ = nx.network_simplex(G)
            ours = transport_with_power(fl, mu, nu, p).value
            assert isinstance(ours, float)
            assert ours == pytest.approx(cost / (N * L ** p), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 9, 16, 24])
def test_float_coupling_feasibility_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    rng = random.Random(n)
    outcomes = set()
    for seed in range(6):
        _, _, (kmu, knu), N, _, mu, nu = integer_problem(n, 200 * n + seed)
        density = rng.choice((0.1, 0.2, 0.4, 0.7))
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if rng.random() < density]
        G = nx.DiGraph()
        for i in range(n):
            G.add_edge("s", ("x", i), capacity=kmu[i])
            G.add_edge(("y", i), "t", capacity=knu[i])
        for i, j in pairs:
            G.add_edge(("x", i), ("y", j))  # no capacity: uncapacitated
        G.add_nodes_from(("s", "t"))
        feasible = nx.maximum_flow_value(G, "s", "t") == N
        Y = PairSet.from_pairs(n, pairs)
        res = feasible_coupling_on(mu, nu, Y, 1e-9)
        assert res.feasible == feasible
        outcomes.add(feasible)
        if feasible:
            check_marginals(Coupling(res.coupling.plan, mu, nu))
            assert all((i, j) in Y for i, j in coupling_support(res.coupling))
        else:
            assert res.nu_neighborhood < res.mu_S - 1e-9
    if n > 2:
        assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# vertex enumeration


def lipschitz_vertex_sets(sp):
    """The Lipschitz vertices by the active-set oracle and as the f's of
    the dual vertices at p = 1."""
    return (enumerate_lipschitz_vertices(sp),
            [v.f for v in enumerate_dual_vertices(sp, 1)])


def c_concave(sp, p, verts):
    """The pairs with f = g^c and g = f^c: the vertices of the unboxed dual
    polyhedron among those of the boxed polytope."""
    c = _power_cost(sp, p)
    n = sp.n
    return {(v.f, v.g) for v in verts
            if all(v.f[i] == min(c[i][j] - v.g[j] for j in range(n))
                   for i in range(n))
            and all(v.g[j] == min(c[i][j] - v.f[i] for i in range(n))
                    for j in range(n))}


def test_lipschitz_vertices_two_point():
    for verts in lipschitz_vertex_sets(TWO):
        assert sorted(verts) == [(F(-1), F(0)), (F(1), F(0))]


def test_lipschitz_vertices_feasible_and_negation_closed():
    for sp in (THREE, random_metric_space(4, 9)):
        for verts in lipschitz_vertex_sets(sp):
            keys = {tuple(v) for v in verts}
            for f in verts:
                assert lipschitz_constant(sp, f) <= 1
                assert tuple(-x for x in f) in keys


def test_lipschitz_vertex_count_matches_bruteforce():
    # independent oracle: solve every (n-1)-subset of constraints directly
    import itertools
    sp = THREE
    n = 3
    cons = []
    for i in range(n):
        for j in range(n):
            if i != j:
                row = [0] * (n - 1)
                if i < n - 1:
                    row[i] += 1
                if j < n - 1:
                    row[j] -= 1
                cons.append((row, sp.dist[i][j]))
    found = set()
    for combo in itertools.combinations(range(len(cons)), n - 1):
        sol = _solve_linear([cons[k][0] for k in combo],
                            [cons[k][1] for k in combo])
        if sol is None:
            continue
        if all(sum(c * x for c, x in zip(row, sol)) <= rhs for row, rhs in cons):
            found.add(tuple(sol) + (F(0),))
    for verts in lipschitz_vertex_sets(sp):
        assert found == {tuple(v) for v in verts}


def test_dual_vertices_match_active_set_lipschitz_vertices():
    """At p = 1 the dual vertices are (f, -f) over the Lipschitz vertices."""
    from qiso.catalog import cycle_metric
    spaces = [TWO, THREE, cycle_metric(4), cycle_metric(5)] + \
        [random_metric_space(n, seed) for n in (4, 5) for seed in range(3)]
    for sp in spaces:
        verts = enumerate_dual_vertices(sp, 1)
        assert all(v.g == tuple(-x for x in v.f) for v in verts)
        assert {v.f for v in verts} == \
            {tuple(f) for f in enumerate_lipschitz_vertices(sp)}


def test_dual_vertices_have_no_size_guard():
    """C8 is searched in full: at most C(14, 7) = 3432 trees, each vertex
    dual feasible with g_{n-1} = 0 and each node on a tight edge."""
    from qiso.catalog import cycle_metric
    sp = cycle_metric(8)
    c = _power_cost(sp, 2)
    verts = enumerate_dual_vertices(sp, 2)
    assert 0 < len(verts) <= 3432
    for v in verts:
        assert v.g[7] == 0
        assert all(v.f[i] + v.g[j] <= c[i][j] for i in range(8) for j in range(8))
        assert all(min(c[i][j] - v.g[j] for j in range(8)) == v.f[i]
                   for i in range(8))


def test_dual_vertex_search_visits_one_tree_per_cell(monkeypatch):
    """The lexicographic perturbation makes the search visit exactly
    C(2n-2, n-1) trees, also on costs with many ties; broken arbitrarily,
    the ties let it wander over every degenerate tree of a vertex."""
    from collections import deque
    from math import comb

    from qiso.catalog import cycle_metric, equilateral_metric
    visited = []

    class CountingQueue(deque):
        def popleft(self):
            visited.append(1)
            return super().popleft()

    monkeypatch.setattr(transport, "deque", CountingQueue)
    spaces = [cycle_metric(6), equilateral_metric(5), random_metric_space(6, 1),
              random_metric_space(5, 2, mode="float")]
    for sp in spaces:
        for p in (1, 2):
            visited.clear()
            enumerate_dual_vertices(sp, p)
            assert len(visited) == comb(2 * sp.n - 2, sp.n - 1), (sp.dist, p)
    # m x n restrictions: C(m + n - 2, m - 1) trees
    restrictions = [((0, 1, 2), (3, 4)), ((1,), (0, 2, 4)), ((0, 2, 3, 4), (1,)),
                    ((0, 1, 2, 3), (2, 3, 4)), ((4, 3), (0, 1, 2, 3, 4))]
    for sp in spaces:
        for rows, cols in restrictions:
            for p in (1, 2):
                visited.clear()
                enumerate_dual_vertices(sp, p, rows, cols)
                assert len(visited) == comb(len(rows) + len(cols) - 2,
                                            len(rows) - 1), (sp.dist, rows, cols, p)


def test_dual_vertices_match_reference_search():
    """The bitmask pivot search finds the vertex sets of the search as
    first written: equal Fractions on a rational space and integer p,
    bitwise equal floats otherwise (p = 1.5, float spaces).  Over the
    catalog spaces, the n-cycles 3-7 and seeded rational and float spaces
    with n <= 7, on the whole space and on seeded rows x cols
    restrictions."""
    from qiso.catalog import CATALOG, catalog_action, cycle_metric

    def bits(verts):
        keys = [tuple((type(x), x.hex() if isinstance(x, float) else x)
                      for x in v.f + v.g) for v in verts]
        assert len(set(keys)) == len(keys)
        return set(keys)

    spaces = [catalog_action(name).space for name in CATALOG] + \
        [cycle_metric(n) for n in range(3, 8)] + \
        [random_metric_space(n, 40 + n, mode=mode) for n in range(2, 8)
         for mode in ("rational", "float")]
    rng = random.Random(19)
    kinds = set()
    for sp in spaces:
        cases = [(None, None)] + [
            (rng.sample(range(sp.n), rng.randint(1, sp.n)),
             rng.sample(range(sp.n), rng.randint(1, sp.n))) for _ in range(2)]
        for p in (1, 2, 3, 1.5):
            for rows, cols in cases:
                found = enumerate_dual_vertices(sp, p, rows, cols)
                reference = enumerate_dual_vertices_reference(sp, p, rows, cols)
                assert bits(found) == bits(reference), (sp.dist, p, rows, cols)
                kinds.update(type(x) for v in found for x in v.f + v.g)
    assert kinds == {F, float}


def test_restricted_dual_vertices_match_spanning_tree_oracle():
    """On a rows x cols restriction (m, n <= 4, overlapping or not) the
    pivot search finds exactly the potentials of the feasible spanning
    trees of K_{m,n}, on seeded rational and float costs."""
    rng = random.Random(12)
    cases = 0
    for seed in range(12):
        mode = ("rational", "float")[seed % 2]
        sp = random_metric_space(6, 300 + seed, mode=mode)
        for p in (1, 2, 3):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows, cols = rng.sample(range(6), m), rng.sample(range(6), n)
            cost = [[_power_cost(sp, p)[i][j] for j in cols] for i in rows]
            verts = enumerate_dual_vertices(sp, p, rows, cols)
            found = {(v.f, v.g) for v in verts}
            assert len(found) == len(verts)
            oracle = dual_vertices_by_spanning_trees(cost, tol=sp.tol)
            if mode == "float":
                found = {tuple(round(x, 9) for x in v.f + v.g) for v in verts}
                oracle = {tuple(round(x, 9) for x in f + g) for f, g in oracle}
            assert found == oracle, (seed, p, rows, cols)
            cases += m != n
    assert cases


def test_dual_vertices_keep_modes_apart():
    """Rational spaces give Fraction potentials, float spaces floats, and
    the two modes give the same vertices."""
    d = F(13, 8)
    exact = validate_metric([[F(0), d], [d, F(0)]])
    fl = validate_metric([[0.0, float(d)], [float(d), 0.0]], mode="float")
    for p in (1, 2):
        va, vb = enumerate_dual_vertices(exact, p), enumerate_dual_vertices(fl, p)
        assert all(isinstance(x, F) for v in va for x in v.f + v.g)
        assert all(isinstance(x, float) for v in vb for x in v.f + v.g)
        assert {tuple(float(x) for x in v.f + v.g) for v in va} == \
            {v.f + v.g for v in vb}
    from qiso.catalog import four_point_asymmetric
    for sp in (four_point_asymmetric(), random_metric_space(5, 4)):
        fl = validate_metric([[float(v) for v in row] for row in sp.dist],
                             mode="float")
        for p in (1, 2, 3):
            va = enumerate_dual_vertices(sp, p)
            vb = enumerate_dual_vertices(fl, p)
            assert {tuple(round(float(x), 9) for x in v.f + v.g) for v in va} == \
                {tuple(round(x, 9) for x in v.f + v.g) for v in vb}


@pytest.mark.parametrize("p", [1, 2])
def test_boxed_dual_vertices_feasible(p):
    cost = [[v ** p for v in row] for row in THREE.dist]
    for verts in (enumerate_boxed_dual_vertices(THREE, p),
                  enumerate_dual_vertices(THREE, p)):
        for vert in verts:
            for i in range(3):
                for j in range(3):
                    assert vert.f[i] + vert.g[j] <= cost[i][j]
            assert vert.g[2] == 0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_boxed_dual_matches_bruteforce_active_sets(p):
    for sp in (TWO, THREE) + tuple(random_metric_space(3, s) for s in range(2)):
        fast = {(v.f, v.g) for v in enumerate_boxed_dual_vertices(sp, p)}
        brute = boxed_dual_vertices_bruteforce(sp, p)
        assert fast == {(v.f, v.g) for v in brute}
        assert {(v.f, v.g) for v in enumerate_dual_vertices(sp, p)} == \
            c_concave(sp, p, brute)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_dual_vertices_match_forest_enumerator(p):
    """The unboxed vertices are the c-concave boxed vertices, on the
    4-point catalog spaces and seeded random ones."""
    from qiso.catalog import (cycle_metric, four_cycle_broken_diagonal,
                              four_point_asymmetric, four_point_blocks,
                              rectangle_metric)
    spaces = [cycle_metric(4), four_point_asymmetric(), four_point_blocks(),
              rectangle_metric(), four_cycle_broken_diagonal()] + \
        [random_metric_space(4, seed) for seed in range(2)]
    for sp in spaces:
        assert {(v.f, v.g) for v in enumerate_dual_vertices(sp, p)} == \
            c_concave(sp, p, enumerate_boxed_dual_vertices(sp, p))


def test_boxed_dual_strong_duality_crosscheck():
    """max over the vertices of mu(f) + nu(g) is W_p^p, exactly, for both
    enumerators, and up to n = 7 for the pivot search: the sufficiency the
    lambda_max sweep of Lip_p relies on."""
    rng = random.Random(8)
    cases = [(TWO, 1), (THREE, 2), (random_metric_space(4, 4), 3)] + \
        [(random_metric_space(n, 50 + n), p) for n in range(5, 8)
         for p in (1, 2, 3)]
    enumerators = (enumerate_boxed_dual_vertices, enumerate_dual_vertices)
    for sp, p in cases:
        vertex_sets = [enumerate_vertices(sp, p)
                       for enumerate_vertices in enumerators[sp.n > 4:]]
        for _ in range(8):
            mu, nu = rand_prob(rng, sp.n), rand_prob(rng, sp.n)
            value = transport_with_power(sp, mu, nu, p).value
            for verts in vertex_sets:
                assert max(integral(mu, v.f) + integral(nu, v.g) for v in verts) == value
