"""Acceptance suite: one criterion per test, one pass/fail line each.

Everything here runs at the stated tolerance; exact means zero tolerance
in rational arithmetic.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import ast
import itertools
import random
import time
from fractions import Fraction as F
from unittest import mock

import pytest

from qiso.catalog import standard_actions, verified_catalog
from qiso.coaction import verify_coaction
from qiso.envelope import envelope
from qiso.isometry import (check_D, check_injectivity,
                           check_lip_p_universal, check_theorem_main,
                           check_winf_universal)
from qiso.metric import PairSet, random_metric_space
from qiso.quantum_group import verify_quantum_group
from qiso import reports
from qiso.reports import SearchConfig, build_instance, instance_descriptors
from qiso.transport import (ProbVector, feasible_coupling_on, kantorovich_w1,
                            prob_vector, solve_transport,
                            transport_with_power, wasserstein_inf)

from oracles import (annihilator_convolution_check,
                     check_D_commutant_by_entry, check_orthogonality,
                     classical_group, enumerate_boxed_dual_vertices,
                     hall_condition, lip_p_universal_full_sweep,
                     perfect_matching, sample_orthogonality_inputs,
                     transport_bruteforce, verify_universal_property)


def report(num: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d} ({name}): {elapsed:.1f}s {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def grid_vectors(n, max_denom):
    vecs = set()
    for q in range(1, max_denom + 1):
        for comp in itertools.product(range(q + 1), repeat=n):
            if sum(comp) == q:
                vecs.add(tuple(F(c, q) for c in comp))
    return sorted(vecs)


def rand_prob(rng, n, denom=6):
    w = [F(rng.randint(1, denom)) for _ in range(n)]
    s = sum(w)
    return prob_vector([x / s for x in w])


# ---------------------------------------------------------------------------


def test_c01_transport_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(101)
    grids = {n: grid_vectors(n, 4) for n in (2, 3, 4)}
    checked = 0
    ok = True
    for k in range(25):
        n = (2, 3, 4)[k % 3]
        cost = [[F(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)]
        for _ in range(2):
            mu = ProbVector(rng.choice(grids[n]))
            nu = ProbVector(rng.choice(grids[n]))
            lp = solve_transport(mu, nu, cost).value
            oracle = transport_bruteforce(mu, nu, cost)
            ok = ok and lp == oracle
            checked += 1
    elapsed = time.time() - t0
    report(1, "transport oracle equivalence", ok and elapsed < 60, elapsed,
           f"{checked} instances, exact")


def test_c02_strong_duality_and_kantorovich_rubinstein():
    t0 = time.time()
    rng = random.Random(202)
    ok = True
    for k in range(500):
        n = rng.randint(2, 6)
        sp = random_metric_space(n, rng.randint(0, 10 ** 6))
        mu, nu = rand_prob(rng, n), rand_prob(rng, n)
        res = transport_with_power(sp, mu, nu, 1)
        kr, witness = kantorovich_w1(sp, mu, nu)
        ok = ok and res.value == res.duals.objective == kr
    elapsed = time.time() - t0
    report(2, "strong duality + Kantorovich-Rubinstein", ok and elapsed < 60,
           elapsed, "500 instances, exact")


def test_c03_wasserstein_tower():
    t0 = time.time()
    rng = random.Random(303)
    ps = (1, 2, 4, 8, 16, 32)
    tol = 1e-9
    ok = True
    for k in range(500):
        n = rng.randint(2, 6)
        sp = random_metric_space(n, rng.randint(0, 10 ** 6))
        mu, nu = rand_prob(rng, n), rand_prob(rng, n)
        costs = {p: transport_with_power(sp, mu, nu, p).value for p in ps}
        for q, p in zip(ps, ps[1:]):
            ok = ok and costs[q] ** p <= costs[p] ** q  # W_q <= W_p, exact
        r = wasserstein_inf(sp, mu, nu).r
        w32 = float(costs[32]) ** (1 / 32)
        ok = ok and all(float(costs[p]) ** (1 / p) <= float(r) + tol for p in ps)
        ok = ok and float(r) - w32 >= -tol
    elapsed = time.time() - t0
    report(3, "Wasserstein tower and bottleneck", ok and elapsed < 120,
           elapsed, "500 instances, p up to 32")


def test_c04_hall_equivalence_exhaustive():
    t0 = time.time()
    ok = True
    checked = 0
    for n, denom in ((2, 3), (3, 3)):
        vecs = [ProbVector(v) for v in grid_vectors(n, denom)]
        cells = list(itertools.product(range(n), repeat=2))
        for bits in range(1 << (n * n)):
            Y = PairSet.from_pairs(
                n, [cells[k] for k in range(n * n) if bits >> k & 1])
            for mu in vecs:
                for nu in vecs:
                    holds, _ = hall_condition(mu, nu, Y)
                    ok = ok and holds == feasible_coupling_on(mu, nu, Y, 1e-9).feasible
                    checked += 1
            if not ok:
                break
    elapsed = time.time() - t0
    report(4, "Hall equivalence, exhaustive", ok and elapsed < 600, elapsed,
           f"{checked} instances (all Y, denominator-{3} grid)")


def test_c05_classical_hall_vs_bruteforce():
    t0 = time.time()
    rng = random.Random(505)
    ok = True
    for k in range(1000):
        n = rng.randint(2, 7)
        adj = [[1 if rng.random() < rng.choice((0.3, 0.5, 0.7)) else 0
                for _ in range(n)] for _ in range(n)]
        kind, payload = perfect_matching(adj)
        oracle = next((perm for perm in itertools.permutations(range(n))
                       if all(adj[i][perm[i]] for i in range(n))), None)
        if kind == "matching":
            ok = ok and oracle is not None
            ok = ok and all(adj[i][payload[i]] for i in range(n))
        else:
            ok = ok and oracle is None
            nbrs = {j for i in payload for j in range(n) if adj[i][j]}
            ok = ok and len(nbrs) < len(payload)
    elapsed = time.time() - t0
    report(5, "classical marriage vs permutation search",
           ok and elapsed < 60, elapsed, "1000 graphs, sizes <= 7")


def test_c06_theorem_main_reproduced():
    t0 = time.time()
    ok = True
    details = []
    for entry in standard_actions():
        if not check_D(entry.action).holds:
            continue
        tm = check_theorem_main(entry.action).holds
        inj = check_injectivity(entry.action)
        samples = sample_orthogonality_inputs(entry.action, 1000, seed=606)
        orth = all(check_orthogonality(entry.action, *s)
                   for s in samples)
        if not (tm and inj and orth and len(samples) == 1000):
            ok = False
            details.append(entry.name)
    elapsed = time.time() - t0
    report(6, "level-set coupling + injectivity + orthogonality",
           ok, elapsed, f"zero exceptions required {details}")


@pytest.fixture(scope="module")
def population_flags():
    """Catalog + 200 random actions with all universal verdicts.

    Lip_1 is decided by `check_lip_p_universal` on each block's supports.
    The Lip_1 dual route is the full-space sweep of tests/oracles.py with
    the boxed dual vertices of its forest enumerator, so that c08 compares
    two computations that differ in the reduction, the vertex enumeration
    and the treatment of characters.  The commutant form of (D) is the
    entry-by-entry (U d - d U)_xy of tests/oracles.py, independent of the
    defect tensor of `check_D`.  Every universal Lip_p verdict (p = 1, 2,
    3, inf) that carries a state is replayed on it by the per-state check,
    as the catalog run replays it, and must agree: 664 failures, each at
    its witness pair, and 105 holds, each at every pair, with the 83 holds
    that characters alone decide skipped.  The replays are counted where
    they solve, so that none is skipped silently."""
    config = SearchConfig(catalog=None, random_actions=200, n_range=(3, 4),
                          seed=777)
    forest_vertices = {}
    counts = {"failure": 0, "hold": 0, "skipped": 0, "replayed": 0}
    pair_margins = reports._pair_margins

    def counted(*args):
        counts["replayed"] += 1
        return pair_margins(*args)

    def forest(space, p):
        # mode and tol too: Fraction(1) == 1.0, so the distances alone
        # would hand a float space its rational twin's vertices
        key = (space.mode, space.tol, space.dist, p)
        if key not in forest_vertices:
            forest_vertices[key] = enumerate_boxed_dual_vertices(space, p)
        return forest_vertices[key]

    rows = []
    for desc in instance_descriptors(config):
        action = build_instance(desc)
        assert verify_quantum_group(action.group).passed(1e-9)
        assert verify_coaction(action).passed(1e-9)
        with mock.patch("oracles.enumerate_dual_vertices", forest):
            dual_route = lip_p_universal_full_sweep(action, 1).holds
        verdicts = {f"Lip_{p}": check_lip_p_universal(action, p)
                    for p in (1, 2, 3)}
        verdicts["Lip_inf"] = check_winf_universal(action)
        with mock.patch.object(reports, "_pair_margins", counted):
            assert not reports._replay_disagreements(
                action, verdicts, reports._replays(action, verdicts)), desc
        for verdict in verdicts.values():
            counts["failure" if not verdict.holds else
                   "hold" if verdict.certificate.get("state") is not None
                   else "skipped"] += 1
        flags = {
            "name": desc.get("name", str(desc.get("seed"))),
            "D": check_D(action).holds,
            "Lip_1_dual_route": dual_route,
            **{name: verdict.holds for name, verdict in verdicts.items()},
            "D_commutant": check_D_commutant_by_entry(
                action, action.space.tol).holds,
        }
        rows.append(flags)
    assert counts == {"failure": 664, "hold": 105, "skipped": 83,
                      "replayed": 664 + 105}
    return rows


def test_c07_tower_of_conditions(population_flags):
    t0 = time.time()
    order = ["D", "Lip_inf", "Lip_3", "Lip_2", "Lip_1"]
    violations = []
    for row in population_flags:
        for i, strong in enumerate(order):
            for weak in order[i + 1:]:
                if row[strong] and not row[weak]:
                    violations.append((row["name"], strong, weak))
    elapsed = time.time() - t0
    report(7, "tower of conditions over catalog + 200 random",
           not violations, elapsed,
           f"{len(population_flags)} actions, violations: {violations[:3]}")


def test_c08_finite_dimensional_equivalence(population_flags):
    t0 = time.time()
    bad_equiv = [r["name"] for r in population_flags if r["D"] != r["Lip_1"]]
    bad_dual = [r["name"] for r in population_flags
                if r["Lip_1"] != r["Lip_1_dual_route"]]
    bad_comm = [r["name"] for r in population_flags
                if r["D"] != r["D_commutant"]]
    ok = not bad_equiv and not bad_dual and not bad_comm
    elapsed = time.time() - t0
    report(8, "(D) <=> universal (Lip_1), commutant form", ok, elapsed,
           f"discrepancies {bad_equiv + bad_dual + bad_comm}")


def _oracle_closure(tree, roots):
    """The module-level functions of a parsed oracles.py that `roots` call,
    transitively, by name, the roots included."""
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(node.id for node in ast.walk(defs[name])
                    if isinstance(node, ast.Name) and node.id in defs)
    return {name: defs[name] for name in seen}


def test_c08_oracles_share_no_exact_path_with_src():
    """c08 compares `check_D` with `check_D_commutant_by_entry` and
    `check_lip_p_universal` with `lip_p_universal_full_sweep`, so neither
    oracle, nor any oracles.py function it calls, may use the exact (D)
    or exact positivity of `qiso`: no name of `forbidden` imported from
    `qiso` (at module level or inside a function) and no attribute
    `exact_block`.  oracles.py's own definitions of such names (its
    exact_psd) are its own path."""
    import oracles
    forbidden = {"check_D", "defect_blocks", "_form_defects", "_defect_terms",
                 "commutator_defects", "exact_psd", "exact_form"}
    with open(oracles.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "qiso"
                for alias in node.names}
    assert forbidden & imported     # the names to keep out are in reach
    for root in ("check_D_commutant_by_entry", "lip_p_universal_full_sweep"):
        closure = _oracle_closure(tree, [root])
        assert root in closure and len(closure) > 1, root
        own = set(closure)
        for name, func in closure.items():
            for node in ast.walk(func):
                if isinstance(node, ast.Name):
                    assert not (node.id in forbidden & imported
                                and node.id not in own), (root, name, node.id)
                elif isinstance(node, ast.Attribute):
                    assert node.attr not in forbidden | {"exact_block"}, \
                        (root, name, node.attr)
                elif isinstance(node, ast.ImportFrom):
                    assert not forbidden & {a.name for a in node.names}, \
                        (root, name)


def test_c09_envelope_correctness():
    t0 = time.time()
    ok = True
    details = []
    for entry in standard_actions():
        action = entry.action
        env = envelope(action)
        if set(action.group.algebra.blocks) == {1}:
            d = action.space.dist
            isos = [g for g in classical_group(action)
                    if all(d[g[x]][g[y]] == d[x][y]
                           for x in range(action.n) for y in range(action.n))]
            if env.dimension != len(isos):
                ok = False
                details.append(f"{entry.name}: dim {env.dimension} != {len(isos)}")
        if len(envelope(env.induced).ideal) != 0:
            ok = False
            details.append(f"{entry.name}: not idempotent")
        ups = verify_universal_property(action, env)
        if ups["violations"]:
            ok = False
            details.append(f"{entry.name}: factorization failures")
        if not annihilator_convolution_check(action.group, env.ideal,
                                             samples=500, seed=909):
            ok = False
            details.append(f"{entry.name}: convolution closure")
    elapsed = time.time() - t0
    report(9, "envelope vs classical subgroup + universality",
           ok and elapsed < 300, elapsed, "; ".join(details))


def test_c10_verifier_sensitivity():
    t0 = time.time()
    entries = verified_catalog(tol=1e-9)
    baseline_ok = all(verify_quantum_group(e.action.group).passed(1e-10)
                      for e in entries)
    rng = random.Random(1010)
    detected = 0
    injected = 0
    misses = []
    while injected < 50:
        entry = rng.choice(entries)
        action = entry.action
        qg = action.group
        target = rng.choice(("delta", "epsilon", "kappa", "u"))
        injected += 1
        if target == "u":
            from qiso.coaction import CoAction
            i = rng.randrange(action.n)
            j = rng.randrange(action.n)
            k = rng.randrange(len(qg.algebra.blocks))
            a = rng.randrange(qg.algebra.blocks[k])
            b = rng.randrange(qg.algebra.blocks[k])
            coeffs = action.coeffs.copy()
            coeffs[i, j, qg.algebra.index_of(k, a, b)] += 1e-3
            mutated = CoAction(qg, action.space, coeffs)
            worst = verify_coaction(mutated, check_faithful=False).worst()
        else:
            from qiso.quantum_group import QuantumGroup
            delta = qg.delta.copy()
            epsilon = qg.epsilon.copy()
            kappa = qg.kappa.copy()
            dim = qg.dim
            if target == "delta":
                delta[rng.randrange(dim), rng.randrange(dim),
                      rng.randrange(dim)] += 1e-3
            elif target == "epsilon":
                epsilon[rng.randrange(dim)] += 1e-3
            else:
                kappa[rng.randrange(dim), rng.randrange(dim)] += 1e-3
            mutated = QuantumGroup(qg.algebra, delta, epsilon, kappa)
            worst = verify_quantum_group(mutated).worst()
        if worst >= 1e-4:
            detected += 1
        else:
            misses.append((entry.name, target, worst))
    elapsed = time.time() - t0
    report(10, "verifier fault injection", baseline_ok and detected == 50,
           elapsed, f"{detected}/50 detected; misses: {misses}")
