"""Isometry condition checks, cross-validated against classical oracles."""

import functools
import importlib
import inspect
import random
from fractions import Fraction as F

import numpy as np
import pytest

from qiso.algebra import StateFunctional, extreme_state, random_state
from qiso.catalog import (catalog_action, cycle_metric,
                          dihedral_projection_action, equilateral_metric,
                          four_point_blocks, four_point_asymmetric,
                          permutation_action,
                          random_permutation_action, random_quantum_action,
                          standard_actions, three_point_isosceles,
                          trivial_action)
from qiso import isometry
from qiso.coaction import act_on_point, act_on_points
from qiso.isometry import (HypothesisViolated, check_D, check_D_commutant,
                           check_D_state, check_injectivity,
                           check_level_coupling_state, check_lip1_universal,
                           check_lip_p_state, check_lip_p_universal,
                           check_orthogonality, check_theorem_main,
                           check_winf_universal)
from qiso.metric import level_set, random_metric_space, validate_metric
from qiso.reports import SearchConfig, build_instance, instance_descriptors
from qiso.transport import feasible_coupling_on, wasserstein_inf, wasserstein_p

from oracles import (check_ball_identity, check_lip_seminorm_state,
                     entry_tensor, group_element, hall_sweep_loops,
                     lip_p_universal_full_sweep,
                     lip_p_universal_loops, sample_orthogonality_inputs,
                     scaled_twin, support_universal_bruteforce,
                     support_universal_loops, with_ordered_pairs)


def test_verdicts_take_no_tolerance_argument():
    """Every isometry verdict, the envelope and the catalog run read the
    metric space's tol: none of them takes a tol of its own."""
    names = {"qiso.isometry": (
                 "check_D", "check_D_commutant", "check_D_state",
                 "check_lip_p_state_sweep", "check_lip_p_state",
                 "check_lip_p_universal", "check_lip1_universal",
                 "check_winf_universal", "check_theorem_main",
                 "check_level_coupling_state", "check_orthogonality",
                 "check_injectivity", "_defect_verdict", "_support_universal"),
             "qiso.envelope": ("envelope",),
             "oracles": ("verify_universal_property",),
             "qiso.reports": ("verify_instance", "_condition_flags")}
    for module, funcs in names.items():
        module = importlib.import_module(module)
        for name in funcs:
            params = inspect.signature(getattr(module, name)).parameters
            assert "tol" not in params, (module.__name__, name)


def classical_isometries(action):
    """Oracle: group elements preserving the metric, by direct enumeration."""
    d = action.space.dist
    n = action.n
    return [g for g in action.classical_group
            if all(d[g[x]][g[y]] == d[x][y] for x in range(n) for y in range(n))]


def classical_contraction_oracle(action):
    """Oracle for the universal W_p conditions on C(G): every point
    evaluation must contract distances (no transport solver involved)."""
    d = action.space.dist
    n = action.n
    return all(float(d[g[x]][g[y]]) <= float(d[x][y]) + 1e-12
               for g in action.classical_group
               for x in range(n) for y in range(n))


S3_FULL = permutation_action(three_point_isosceles(), [(1, 2, 0), (1, 0, 2)],
                             name="s3-full")
CYCLE4 = permutation_action(cycle_metric(4), [(1, 2, 3, 0)], name="z4")
QUANTUM_ISO = dihedral_projection_action(four_point_blocks(), 4)
QUANTUM_NONISO = dihedral_projection_action(four_point_asymmetric(), 4)


def test_check_D_trivial_and_cyclic():
    assert check_D(trivial_action(three_point_isosceles())).holds
    assert check_D(CYCLE4).holds


def test_check_D_s3_fails_with_witness():
    verdict = check_D(S3_FULL)
    assert not verdict.holds
    assert verdict.witness["residual"] > 0.5
    assert tuple(verdict.witness["pair"]) in {(x, y) for x in range(3) for y in range(3)}


def test_check_D_does_not_depend_on_units():
    """Scaling the metric by 10^9 or 10^-9 keeps every (D) verdict: the
    tolerance is relative to the largest distance."""
    actions = {e.name: e.action for e in standard_actions()}
    seen = set()
    for name in ("dual-d4-blocks", "dual-d4-asymmetric"):
        action = actions[name]
        expected = check_D(action).holds
        seen.add(expected)
        psi = random_state(action.group.algebra, 3)
        expected_state = check_D_state(action, psi).holds
        for scale in (F(10) ** 9, F(10) ** -9):
            scaled = scaled_twin(action, scale, False)
            assert check_D(scaled).holds == expected, (name, scale)
            assert check_D_commutant(scaled).holds == expected, (name, scale)
            assert check_D_state(scaled, psi).holds == expected_state, \
                (name, scale)
    assert seen == {True, False}


def test_lip_p_state_does_not_depend_on_units():
    """Scaling the metric by 10^9 keeps the per-state Lip_p verdicts: one
    ulp of W_1 = 2e9 is 2.4e-7, far above an absolute tol of 1e-9, so the
    tolerance must be relative to the largest distance."""
    from qiso.catalog import catalog_action
    for name, ps in (("dual-d4-blocks", (1,)), ("dual-d3-blocks", (1, 2))):
        action = catalog_action(name)
        psi = random_state(action.group.algebra, 5)
        scaled = scaled_twin(action, F(10) ** 9, False)
        for p in ps:
            assert check_lip_p_state(action, psi, p).holds, (name, p)
            assert check_lip_p_state(scaled, psi, p).holds, (name, p)


def test_commutant_form_agrees_everywhere():
    for entry in standard_actions():
        assert check_D(entry.action).holds == check_D_commutant(entry.action).holds


def test_ball_identity_matches_check_D():
    for action in (CYCLE4, QUANTUM_ISO):
        assert check_ball_identity(action) < 1e-10
    assert check_ball_identity(S3_FULL) > 1e-2  # fails when (D) fails


def test_counit_state_always_lip_p():
    for action in (S3_FULL, QUANTUM_NONISO):
        eps = action.group.counit_state()
        for p in (1, 2, float("inf")):
            assert check_lip_p_state(action, eps, p).holds
        assert check_D_state(action, eps).holds  # trivial action is isometric


def test_classical_isometry_states():
    group = S3_FULL.classical_group
    isos = classical_isometries(S3_FULL)
    for gi, g in enumerate(group):
        psi = extreme_state(S3_FULL.group.algebra, gi, np.array([1.0]))
        verdict = check_lip_p_state(S3_FULL, psi, 1)
        assert verdict.holds == (g in isos)


def test_haar_state_of_isometric_actions():
    from qiso.quantum_group import haar_state
    for action in (CYCLE4, QUANTUM_ISO):
        h = haar_state(action.group).state
        for p in (1, 2, 4, float("inf")):
            assert check_lip_p_state(action, h, p).holds


def test_lip1_universal_matches_classical_check():
    for action in (S3_FULL, CYCLE4,
                   permutation_action(equilateral_metric(3),
                                      [(1, 2, 0), (1, 0, 2)])):
        expected = classical_contraction_oracle(action)
        assert check_lip1_universal(action).holds == expected


def test_lip1_universal_failure_witness_recovers_classical_element():
    verdict = check_lip1_universal(S3_FULL)
    assert not verdict.holds
    psi = verdict.witness["state"]
    # the witness state is a character of C(S3), i.e. a group element,
    # and that element must fail the contraction test
    block = verdict.witness["block"]
    g = S3_FULL.classical_group[block]
    d = S3_FULL.space.dist
    assert any(d[g[x]][g[y]] > d[x][y] for x in range(3) for y in range(3))
    assert not check_lip_p_state(S3_FULL, psi, 1).holds


@pytest.mark.parametrize("p", [1, 2, 3])
def test_lip_p_universal_equals_classical_oracle(p):
    for action in (S3_FULL, CYCLE4,
                   permutation_action(four_point_asymmetric(), [(1, 0, 3, 2)])):
        expected = classical_contraction_oracle(action)
        assert check_lip_p_universal(action, p).holds == expected


def test_lip_p_universal_p1_equals_lip1_universal():
    """The Lip_1 name gives the full-space sweep's verdict at p = 1."""
    for entry in standard_actions():
        a = check_lip1_universal(entry.action).holds
        b = lip_p_universal_full_sweep(entry.action, 1).holds
        assert a == b, entry.name


def reflection_pairs_action(space, m, shifts):
    """A two-projection action of the group algebra of D_m on 2k points:
    pair (2i, 2i+1) is swapped by the projection p_i = (1 + r_i)/2 of the
    reflection r_i: j -> shifts[i] - j (mod m)."""
    from qiso.catalog import dihedral_group_algebra
    from qiso.coaction import CoAction
    qg = dihedral_group_algebra(m)
    unit, zero = qg.algebra.unit(), qg.algebra.zero()
    n = space.n
    u = [[zero] * n for _ in range(n)]
    for i, s in enumerate(shifts):
        p = 0.5 * (unit + group_element(qg, tuple((s - j) % m for j in range(m))))
        a, b = 2 * i, 2 * i + 1
        u[a][a] = u[b][b] = p
        u[a][b] = u[b][a] = unit - p
    return CoAction(qg, space, entry_tensor(u), name=f"D{m}-pairs")


def block_metric(k, asymmetric):
    """2k points in pairs at distance 1; across pairs 2, or, when
    asymmetric, 3 between points of unequal parity."""
    return validate_metric([[F(0) if x == y else F(1) if x // 2 == y // 2
                             else F(3) if asymmetric and (x - y) % 2 else F(2)
                             for y in range(2 * k)] for x in range(2 * k)])


def test_lip_p_universal_matches_full_sweep():
    """The per-support route gives the verdicts of the full-space sweep on
    the catalog and on 6-point two-projection actions of D5 and D7, and
    each failure's witness state fails the per-state check."""
    from qiso.coaction import verify_coaction
    actions = [entry.action for entry in standard_actions()]
    for m in (5, 7):
        for asymmetric in (False, True):
            action = reflection_pairs_action(block_metric(3, asymmetric), m,
                                             (0, 1, 2))
            assert verify_coaction(action).passed(1e-9)
            actions.append(action)
    seen = {kind: set() for kind in ("character", "dual-vertex")}
    for action in actions:
        for twin in (action, scaled_twin(action, 1, True)):
            for p in (1, 2, 3):
                verdict = check_lip_p_universal(twin, p)
                oracle = lip_p_universal_full_sweep(twin, p)
                assert verdict.holds == oracle.holds, \
                    (action.name, twin.space.mode, p)
                if verdict.holds:
                    continue
                w = verdict.witness
                seen[w["kind"]].add(action.name)
                assert w["margin"] > 0
                assert not check_lip_p_state(action, w["state"], p).holds
                if w["kind"] == "dual-vertex":
                    size = action.group.algebra.blocks[w["block"]]
                    assert all(len(L) <= size for L in w["supports"])
    assert seen["character"] and "D5-pairs" in seen["dual-vertex"]


def test_lip_p_universal_on_characters_enumerates_nothing(monkeypatch):
    """On C(D16) every block is a character, so universal Lip_p on the
    16-cycle is decided with no dual-vertex enumeration at all.  The
    patched name is the one the check calls: on dual-d4-asymmetric, whose
    2 x 2 blocks need dual vertices, it is invoked."""
    from qiso.catalog import catalog_action
    calls = []

    def record(*args):
        calls.append(args)
        return search(*args)

    search = isometry._dual_vertex_search
    monkeypatch.setattr(isometry, "_dual_vertex_search", record)
    check_lip_p_universal(catalog_action("dual-d4-asymmetric"), 2)
    assert calls

    def refuse(*args, **kwargs):
        raise AssertionError("dual vertices enumerated on a character")

    monkeypatch.setattr(isometry, "_dual_vertex_search", refuse)
    n = 16
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((-i) % n for i in range(n))
    action = permutation_action(cycle_metric(n), [rotation, reflection])
    assert check_lip1_universal(action).holds
    float_twin = scaled_twin(action, 1, True)
    for p in (1, 2, 3):
        assert check_lip_p_universal(action, p).holds
        assert check_lip_p_universal(float_twin, p).holds


def test_lip_p_universal_does_not_depend_on_units():
    """Scaling the metric by 10^9 or 10^-9 keeps every universal Lip_p
    verdict: the tolerance and the borderline window are relative to the
    largest d^p (at 10^9, Lip_3 compares eigenvalues near 10^27)."""
    from qiso.catalog import catalog_action
    for name in ("dual-d4-blocks", "dual-d4-mixed", "dual-d3-blocks"):
        action = catalog_action(name)
        expected = {p: check_lip_p_universal(action, p).holds for p in (1, 2, 3)}
        for scale in (F(10) ** 9, F(10) ** -9):
            scaled = scaled_twin(action, scale, False)
            for p in (1, 2, 3):
                assert check_lip_p_universal(scaled, p).holds == expected[p], \
                    (name, scale, p)


def test_winf_universal_examples():
    assert check_winf_universal(trivial_action(three_point_isosceles())).holds
    assert check_winf_universal(QUANTUM_ISO).holds
    assert not check_winf_universal(QUANTUM_NONISO).holds


def test_winf_witness_is_a_failing_state():
    """The witness fails the sampled check even within a tolerance of 1e-7."""
    action = dihedral_projection_action(
        validate_metric(four_point_asymmetric().dist, tolerance=1e-7), 4)
    verdict = check_winf_universal(action)
    psi = verdict.witness["state"]
    assert not check_lip_p_state(action, psi, float("inf")).holds


def test_winf_universal_implies_sampled_states():
    for action in (CYCLE4, QUANTUM_ISO):
        assert check_winf_universal(action).holds
        for k in range(25):
            psi = random_state(action.group.algebra, 101 * k)
            assert check_lip_p_state(action, psi, float("inf")).holds


def test_theorem_main_on_catalog():
    # (D) holds => the level-set coupling condition holds (the main theorem)
    for entry in standard_actions():
        if check_D(entry.action).holds:
            assert check_theorem_main(entry.action).holds, entry.name


def test_theorem_main_implies_winf():
    # level sets sit inside sublevel sets; feasibility is monotone
    for entry in standard_actions():
        tm = check_theorem_main(entry.action).holds
        wi = check_winf_universal(entry.action).holds
        assert (not tm) or wi


def _support_population():
    """The catalog plus 200 seeded random actions on at most 5 points."""
    out = [entry.action for entry in standard_actions()]
    for seed in range(200):
        if seed % 4 == 3:
            out.append(random_quantum_action(seed))
        else:
            model = ("shortest-path-graph", "euclidean-sample")[seed % 2]
            space = random_metric_space(3 + seed % 3, seed, model)
            out.append(random_permutation_action(space, seed))
    return out


def test_support_criterion_matches_subset_oracle():
    """The pairwise orthogonality criterion gives the subset exhaustion's
    verdict, and each failure's witness state fails the per-state check."""
    mismatches = []
    checked = {True: 0, False: 0}
    for action in _support_population():
        for twin in (action, scaled_twin(action, 1, True)):
            for level_only, fn in ((True, check_theorem_main),
                                   (False, check_winf_universal)):
                verdict = fn(twin)
                oracle = support_universal_bruteforce(twin, "oracle", level_only,
                                                      1e-9)
                checked[verdict.holds] += 1
                if verdict.holds != oracle.holds:
                    mismatches.append((action.name, twin.space.mode, level_only))
                if verdict.holds:
                    continue
                psi = verdict.witness["state"]
                if level_only:
                    assert not check_level_coupling_state(twin, psi).holds
                else:
                    assert not check_lip_p_state(twin, psi, float("inf")).holds
    assert not mismatches
    assert checked[True] and checked[False]


def test_support_criterion_has_no_size_guard():
    """The criterion is polynomial, so 21 points (2^21 subsets) are fine."""
    n = 21
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((-i) % n for i in range(n))
    swap = (1, 0) + tuple(range(2, n))
    dihedral = permutation_action(cycle_metric(n), [rotation, reflection])
    broken = permutation_action(cycle_metric(n), [swap])
    d = broken.space.dist
    for fn, outside in ((check_theorem_main, lambda r, s: r != s),
                        (check_winf_universal, lambda r, s: r > s)):
        assert fn(dihedral).holds
        verdict = fn(broken)
        assert not verdict.holds
        (x, y), (j, k) = verdict.witness["pair"], verdict.witness["points"]
        assert outside(d[j][k], d[x][y])


def _ordered_pairs(n):
    return [(x, y) for x in range(n) for y in range(n) if x != y]


def _sweep_pairs(space):
    """The pairs the per-state checks visit: x < y when d is exactly
    symmetric, every ordered pair otherwise."""
    n, d = space.n, space.dist
    if all(d[x][y] == d[y][x] for x, y in _ordered_pairs(n)):
        return [(x, y) for x in range(n) for y in range(x + 1, n)]
    return _ordered_pairs(n)


def _pairs_recomputed(action, psi, tol, pairs):
    """Both marginals of every pair in `pairs`, each recomputed for the pair."""
    return [((x, y), act_on_point(action, x, psi, tol=tol),
             act_on_point(action, y, psi, tol=tol)) for x, y in pairs]


def _lip_p_state_per_pair(action, psi, p, tol, pairs=None):
    """W_p and the margin W_p - d(x, y) of every pair in `pairs` (by
    default the pairs of `_sweep_pairs`), with x <| psi recomputed for
    every pair and W_p from wasserstein_p/wasserstein_inf."""
    space = action.space
    if pairs is None:
        pairs = _sweep_pairs(space)
    out = {}
    for (x, y), mu, nu in _pairs_recomputed(action, psi, tol, pairs):
        if p == float("inf") or p == "inf":
            w = float(wasserstein_inf(space, mu, nu).r)
        else:
            w = float(wasserstein_p(space, mu, nu, p))
        out[x, y] = (w, w - float(space.dist[x][y]))
    return out


def _assert_matches_per_pair(v, action, psi, p, route, pairs=None):
    """A sweep verdict against the per-pair oracle: the same verdict on
    the sweep's bound, the space's tol x max d, the given route, W_p^p within
    1e-12 x max d^p (W itself for p = inf), and a witness whose oracle
    margin is within the sweep's tie of the oracle's largest.

    W_p^p is what both routes compute, so the bound is taken there and
    carried to W and the margins at the pair compared: an error of
    e in W_p^p moves W_p by e / (p W_p^(p-1))."""
    space = action.space
    tol = space.tol
    per_pair = _lip_p_state_per_pair(action, psi, p, tol, pairs)
    worst_pair = max(per_pair, key=lambda xy: per_pair[xy][1])
    worst = per_pair[worst_pair][1]
    scale = float(space.max_distance)
    q = 1.0 if p in ("inf", float("inf")) else float(p)
    slack = 1e-12 * scale ** q

    def w_slack(xy):
        return slack / (q * per_pair[xy][0] ** (q - 1))

    assert v.holds == (worst <= tol * scale)
    record = v.certificate if v.holds else v.witness
    assert record["route"] == route
    if v.holds:
        assert abs(v.certificate["max_margin"] - worst) <= w_slack(worst_pair)
    else:
        xy = tuple(v.witness["pair"])
        w, margin = per_pair[xy]
        assert abs(v.witness["wasserstein"] ** q - w ** q) <= slack
        assert abs(v.witness["margin"] - margin) <= w_slack(xy)
        assert margin >= worst - 1e-12 * scale - w_slack(xy) - w_slack(worst_pair)
    return v.holds


def _level_coupling_per_pair(action, psi, tol):
    """check_level_coupling_state's (holds, witness), over every ordered
    pair: the first failing one in x-major order has x < y on a symmetric d."""
    for (x, y), mu, nu in _pairs_recomputed(action, psi, tol,
                                            _ordered_pairs(action.n)):
        Y = level_set(action.space, action.space.dist[x][y])
        verdict = feasible_coupling_on(mu, nu, Y)
        if not verdict.feasible:
            return False, {"pair": (x, y),
                           "violating_subset": sorted(verdict.violator)}
    return True, None


def test_per_state_sweeps_match_per_pair_recomputation(monkeypatch):
    """The per-state sweep computes every x <| psi once (one batched
    act_on_points call per sweep, for all its states) and returns the
    verdicts of recomputing both marginals for every pair it visits (x < y
    on the catalog's symmetric metrics), with W_p^p within 1e-12 x max
    d^p, on the catalog x 5 random states x p in {1, 2, 3, inf}.  Five
    states take the Hall route for p = inf and, for finite p, the dual
    vertices, also on cyclic-5, where 50 simplex solves (10 pairs) cost
    more than 0.3 x 70 trees.  The level-coupling check computes each
    x <| psi once by act_on_point (n calls per state), visits every
    ordered pair and agrees exactly with its oracle."""
    calls, batches = [], []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return act_on_point(*args, **kwargs)

    def batched(action, states, *args, **kwargs):
        batches.append(len(states))
        return act_on_points(action, states, *args, **kwargs)

    monkeypatch.setattr(isometry, "act_on_point", counted)
    monkeypatch.setattr(isometry, "act_on_points", batched)
    seen = {True: 0, False: 0}
    ps = (1, 2, 3, float("inf"))
    for entry in standard_actions():
        action = entry.action
        routes = ("dual-vertices",) * 3 + ("hall-subsets",)
        states = [random_state(action.group.algebra, 37 * k + 3)
                  for k in range(5)]
        del calls[:], batches[:]
        sweep = isometry.check_lip_p_state_sweep(action, states, ps)
        assert batches == [len(states)] and not calls
        for k, (psi, verdicts) in enumerate(zip(states, sweep)):
            for p, route, v in zip(ps, routes, verdicts):
                seen[_assert_matches_per_pair(v, action, psi, p, route)] += 1
            del calls[:]
            v = check_level_coupling_state(action, psi)
            assert calls == list(range(action.n))
            assert (v.holds, v.witness) == \
                _level_coupling_per_pair(action, psi, 1e-9), (entry.name, k)
            seen[v.holds] += 1
    assert seen[True] and seen[False]


def test_unordered_sweep_matches_ordered_sweep():
    """Visiting x < y only gives the verdicts of the ordered sweep on the
    catalog x 5 random states x p in {1, 2, 3, inf}: W_p(mu, nu) and
    W_p(nu, mu) agree within 1e-12 relative, and the margins within
    1e-12 x max d^p (the simplex is not bitwise symmetric)."""
    seen = {True: 0, False: 0}
    for entry in standard_actions():
        action = entry.action
        space = action.space
        assert _sweep_pairs(space) == [(x, y) for x, y in _ordered_pairs(action.n)
                                       if x < y]
        for k in range(5):
            psi = random_state(action.group.algebra, 37 * k + 3)
            images = [act_on_point(action, x, psi, tol=1e-8)
                      for x in range(action.n)]
            verdicts, = isometry.check_lip_p_state_sweep(
                action, [psi], (1, 2, 3, float("inf")))
            for p, v in zip((1, 2, 3, float("inf")), verdicts):
                if p == float("inf"):
                    w = {(x, y): float(wasserstein_inf(space, images[x],
                                                       images[y]).r)
                         for x, y in _ordered_pairs(action.n)}
                    slack = 1e-12 * float(space.max_distance)
                else:
                    w = {(x, y): float(wasserstein_p(space, images[x],
                                                     images[y], p))
                         for x, y in _ordered_pairs(action.n)}
                    slack = 1e-12 * float(space.max_distance) ** p
                for (x, y), wxy in w.items():
                    assert abs(wxy - w[y, x]) <= 1e-12 * max(wxy, w[y, x])
                margins = {xy: wxy - float(space.dist[xy[0]][xy[1]])
                           for xy, wxy in w.items()}
                ordered_worst = max(margins.values())
                assert v.holds == (ordered_worst <= space.tol * float(space.max_distance))
                seen[v.holds] += 1
                if v.holds:
                    assert abs(v.certificate["max_margin"] - ordered_worst) <= slack
                else:
                    x, y = v.witness["pair"]
                    assert x < y
                    assert abs(v.witness["margin"] - ordered_worst) <= slack
                    assert abs(v.witness["wasserstein"] - w[x, y]) <= slack
    assert seen[True] and seen[False]


def test_verify_instance_computes_each_image_once(monkeypatch):
    """One verify_instance call computes x <| psi once per point and
    sampled state, for all four p together: one batched act_on_points
    call over its three states, and no act_on_point call."""
    from qiso.reports import verify_instance
    calls, batches = [], []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return act_on_point(*args, **kwargs)

    def batched(action, states, *args, **kwargs):
        batches.append(len(states))
        return act_on_points(action, states, *args, **kwargs)

    monkeypatch.setattr(isometry, "act_on_point", counted)
    monkeypatch.setattr(isometry, "act_on_points", batched)
    rec = verify_instance({"source": "catalog", "name": "cyclic-5"},
                          state_samples=3)
    assert set(rec["sampled_states_hold"]) == {"Lip_1", "Lip_2", "Lip_3", "Lip_inf"}
    assert batches == [3] and not calls


def _images_by_act_on_point(action, states, tol=1e-9):
    """x <| psi for every state and point, one act_on_point call each."""
    return np.array([[act_on_point(action, x, psi, tol).mass
                      for x in range(action.n)] for psi in states])


def test_batched_images_match_act_on_point(monkeypatch):
    """act_on_points, one contraction over all states, gives the masses
    of act_on_point on the catalog x 10 sampled states within 4 ulps of 1
    (the batched and the per-point products sum in different orders), and
    the sweep on either gives the same verdicts, routes and witness pairs
    for p in {1, 2, 3, inf}."""
    ps = (1, 2, 3, float("inf"))
    seen = {True: 0, False: 0}
    for entry in standard_actions():
        action = entry.action
        states = [random_state(action.group.algebra, 977 + k) for k in range(10)]
        reference = _images_by_act_on_point(action, states, action.space.tol)
        batched = act_on_points(action, states, action.space.tol)
        assert batched.shape == reference.shape
        assert np.abs(batched - reference).max() <= 4 * np.spacing(1.0), entry.name
        sweep = isometry.check_lip_p_state_sweep(action, states, ps)
        with monkeypatch.context() as patch:
            patch.setattr(isometry, "act_on_points", _images_by_act_on_point)
            per_point = isometry.check_lip_p_state_sweep(action, states, ps)
        for verdicts, expected in zip(sweep, per_point):
            for v, e in zip(verdicts, expected):
                assert v.holds == e.holds, entry.name
                record, want = (v.certificate, e.certificate) if v.holds else \
                    (v.witness, e.witness)
                assert record["route"] == want["route"]
                if not v.holds:
                    assert v.witness["pair"] == e.witness["pair"], entry.name
                seen[v.holds] += 1
    assert seen[True] and seen[False]


def test_image_that_is_not_a_probability_vector_raises():
    """An image with a mass below -tol, or a sum off 1 by more than tol,
    raises ValueError from act_on_points and from the sweep, as it does
    from act_on_point through prob_vector; a mass within tol below 0 is
    clamped and its row renormalized, as prob_vector does (within 4 ulps
    of 1: the two sum in different orders)."""
    action = catalog_action("cyclic-4")
    alg = action.group.algebra
    assert alg.blocks == (1, 1, 1, 1)   # C(Z4): the states weigh characters

    def functional(weights):
        return StateFunctional(alg, [np.array([[w]]) for w in weights])

    psi = random_state(alg, 5)
    for message, bad in (("sums to", functional([2.0, 0.0, 0.0, 0.0])),
                         ("negative mass", functional([1.5, -0.5, 0.0, 0.0]))):
        with pytest.raises(ValueError, match=message):
            act_on_point(action, 0, bad)
        with pytest.raises(ValueError, match=message):
            act_on_points(action, [psi, bad])
        with pytest.raises(ValueError, match=message):
            isometry.check_lip_p_state_sweep(action, [psi, bad], (1, "inf"))
    fuzz = functional([0.5 + 3e-12, 0.5, -3e-12, 0.0])
    masses = act_on_points(action, [fuzz])
    assert (masses >= 0).all() and (masses > 0.5).any()
    per_point = [act_on_point(action, x, fuzz).mass for x in range(action.n)]
    assert np.abs(masses[0] - per_point).max() <= 4 * np.spacing(1.0)


def _near_symmetric_action():
    """C(D4) on a float metric accepted with d(0,1) - d(1,0) = 5e-10,
    within tol."""
    d01 = 1.0 + 5e-10
    space = validate_metric([[0.0, 1.0, 1.5, 2.0],
                             [d01, 0.0, 1.0, 1.5],
                             [1.5, 1.0, 0.0, 1.0],
                             [2.0, 1.5, 1.0, 0.0]], mode="float")
    assert space.dist[0][1] != space.dist[1][0]
    return permutation_action(space, [(1, 2, 3, 0), (3, 2, 1, 0)])


def test_near_symmetric_float_space_keeps_ordered_pairs():
    """A float metric accepted with d(0,1) - d(1,0) = 5e-10 (within tol) is
    swept over every ordered pair, and matches the ordered per-pair
    oracles: the sweep's verdicts, W_p^p within 1e-12 x max d^p, and the
    array routes that four states of its 4 points take."""
    action = _near_symmetric_action()
    space = action.space
    ordered = _ordered_pairs(4)
    assert _sweep_pairs(space) == ordered
    seen = {True: 0, False: 0}
    ps = (1, 2, 3, float("inf"))
    routes = ("dual-vertices",) * 3 + ("hall-subsets",)
    states = [random_state(action.group.algebra, 11 * k + 1) for k in range(4)]
    sweep = isometry.check_lip_p_state_sweep(action, states, ps)
    for psi, verdicts in zip(states, sweep):
        for p, route, v in zip(ps, routes, verdicts):
            seen[_assert_matches_per_pair(v, action, psi, p, route,
                                          ordered)] += 1
        v = check_level_coupling_state(action, psi)
        assert (v.holds, v.witness) == _level_coupling_per_pair(action, psi, 1e-9)
    assert seen[False]


def _small_order_action(n, seed):
    """C(G) on a seeded n-point shortest-path metric, G generated by one
    seeded permutation made of disjoint 2- and 3-cycles (order <= 6)."""
    rng = random.Random(seed)
    points = list(range(n))
    rng.shuffle(points)
    perm = list(range(n))
    i = 0
    while i < n - 1:
        cycle = points[i:i + rng.choice((2, 3))]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
        i += len(cycle)
    return permutation_action(random_metric_space(n, seed), [tuple(perm)],
                              name=f"order-6-{n}-{seed}")


def test_sweep_routes_match_per_pair_oracle():
    """Every route of the sampled sweep gives the per-pair oracle's
    verdicts (wasserstein_p / wasserstein_inf on recomputed marginals),
    with W_p^p within 1e-12 x max d^p and a witness whose oracle margin
    is within the sweep's tie of the largest, for p in {1, 2, 3, inf}, on
    the c07 population (catalog + 200 random actions), the 6-point D5 and
    D7 two-projection actions, the near-symmetric float action, float
    metrics scaled to max d of order 1e-3 and 1e-5, and actions on both
    sides of each route choice: one state on 4 points and three on 5
    against two on 5 and on 6 for finite p, and for p = inf Hall tables
    within both of their bounds (n = 12 and the 13-cycle), over
    _HALL_CELLS_PER_PAIR entries per pair but within the cap (n = 13 with
    K = 33 and the 14-cycle) and over the cap (n = 15), where the
    rotations of the n-cycle hold and the order-6 actions fail.  Each
    route both holds and fails."""
    config = SearchConfig(catalog=None, random_actions=200, n_range=(3, 4),
                          seed=777)
    finite, inf = (1, 2, 3), (float("inf"),)
    both = finite + inf
    # (action, ps, number of states, route for finite p, route for inf)
    population = [build_instance(desc) for desc in instance_descriptors(config)]
    cases = [(a, both, 3, "dual-vertices", "hall-subsets") for a in population]
    cases += [(reflection_pairs_action(block_metric(3, asymmetric), m,
                                       (0, 1, 2)), both, 2, "simplex",
               "hall-subsets")
              for m in (5, 7) for asymmetric in (False, True)]
    near = _near_symmetric_action()
    cases.append((near, both, 2, "dual-vertices", "hall-subsets"))
    for name in ("dual-d4-blocks", "dual-d4-asymmetric"):
        action = {e.name: e.action for e in standard_actions()}[name]
        cases.append((action, both, 1, "dual-vertices", "hall-subsets"))
        cases += [(scaled_twin(a, scale, True), both, 3, "dual-vertices",
                   "hall-subsets")
                  for a in (action, near) for scale in (1e-3, 1e-5)]
    cases += [(_small_order_action(5, seed), both, count, route,
               "hall-subsets")
              for seed in (1, 2)
              for count, route in ((2, "simplex"), (3, "dual-vertices"))]
    cases += [(_small_order_action(n, seed), inf, 2, None, route)
              for n, seed, route in ((12, 3, "hall-subsets"),
                                     (13, 1, "max-flow"),
                                     (15, 3, "max-flow"))]
    cases += [(permutation_action(cycle_metric(n),
                                  [tuple((i + 1) % n for i in range(n))]),
               inf, 2, None, route)
              for n, route in ((13, "hall-subsets"), (14, "max-flow"))]
    routes = {}
    for action, ps, count, finite_route, inf_route in cases:
        states = [random_state(action.group.algebra, 5 * k + 2)
                  for k in range(count)]
        sweep = isometry.check_lip_p_state_sweep(action, states, ps)
        for psi, verdicts in zip(states, sweep):
            for p, v in zip(ps, verdicts):
                route = inf_route if p == float("inf") else finite_route
                held = _assert_matches_per_pair(v, action, psi, p, route)
                routes.setdefault(route, set()).add(held)
    assert routes == {route: {True, False} for route in
                      ("dual-vertices", "simplex", "hall-subsets", "max-flow")}


def test_hall_sweep_batches_match_the_per_state_loop(monkeypatch):
    """The Hall route's radii, every (state, pair) bisected at once on
    chunks of states, are bitwise equal to the per-state loop's on the
    catalog and on seeded random permutation actions with n = 3 to 7, ten
    states each: with every state in one chunk, and with _HALL_MAX_CELLS
    lowered to three states' tables, so that the states split into
    chunks of 3, 3, 3 and 1."""
    actions = [entry.action for entry in standard_actions()]
    actions += [random_permutation_action(random_metric_space(n, 41 * n + k), k)
                for n in range(3, 8) for k in range(4)]
    chunks = []

    def counted(reach, subsets, masses, *args):
        chunks.append(len(masses))
        return ranks(reach, subsets, masses, *args)

    ranks, cells = isometry._hall_ranks, isometry._HALL_MAX_CELLS
    monkeypatch.setattr(isometry, "_hall_ranks", counted)
    for action in actions:
        space = action.space
        states = [random_state(action.group.algebra, 13 * k + 5) for k in range(10)]
        masses = act_on_points(action, states, space.tol)
        pairs = isometry._state_pairs(space)
        xs = np.array([x for x, _ in pairs])
        ys = np.array([y for _, y in pairs])
        want = hall_sweep_loops(space, masses, xs, ys)
        per_state = (len(space.realized_distances) * space.n + 3 * len(pairs)) \
            * (2 ** space.n - 1)
        for cap, sizes in ((cells, [10]), (3 * per_state, [3, 3, 3, 1])):
            monkeypatch.setattr(isometry, "_HALL_MAX_CELLS", cap)
            del chunks[:]
            got = isometry._hall_sweep(space, masses, xs, ys)
            assert chunks == sizes and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), action.name


@pytest.fixture(scope="module")
def c07_population():
    """The population of acceptance check c07: the catalog and 200 random
    actions (seed 777)."""
    config = SearchConfig(catalog=None, random_actions=200, n_range=(3, 4),
                          seed=777)
    return [build_instance(desc) for desc in instance_descriptors(config)]


def _two_projection_actions():
    """The 6-point two-projection actions of D5 and D7, whose Lip_p
    failures are dual-vertex ones."""
    return [reflection_pairs_action(block_metric(3, asymmetric), m, (0, 1, 2))
            for m in (5, 7) for asymmetric in (False, True)]


UNIVERSAL_REFERENCES = [
    (check_theorem_main,
     lambda a: support_universal_loops(a, "main(universal)", True)),
    (check_winf_universal,
     lambda a: support_universal_loops(a, "Lip_inf(universal)", False))] + [
    (functools.partial(check_lip_p_universal, p=p),
     functools.partial(lip_p_universal_loops, p=p)) for p in (1, 2, 3)]


def _assert_same_verdict(verdict, reference, label):
    """Equal verdicts, certificates and witnesses, the witness state
    compared as a coefficient vector."""
    assert (verdict.holds, verdict.certificate) == \
        (reference.holds, reference.certificate), label
    if not verdict.holds:
        witness, expected = dict(verdict.witness), dict(reference.witness)
        state, expected_state = witness.pop("state"), expected.pop("state")
        assert witness == expected, label
        assert np.array_equal(state.as_vector(), expected_state.as_vector()), label


def test_universal_checks_match_loop_references(c07_population):
    """The batched universal decisions (main, Lip_inf and Lip_p for p = 1,
    2, 3) give the verdicts, certificates and witnesses (pair, block,
    points or supports and vertex, margin or residual, state) of the loops
    they replaced, one (pair, block, j/k or vertex) at a time, on the c07
    population, the two-projection actions of D5 and D7, and the float
    twins of all of them."""
    actions = c07_population + _two_projection_actions()
    actions += [scaled_twin(action, 1, True) for action in actions]
    kinds = set()
    for action in actions:
        for check, reference in UNIVERSAL_REFERENCES:
            verdict = check(action)
            _assert_same_verdict(verdict, reference(action),
                                 (action.name, action.space.mode, verdict.condition))
            if not verdict.holds:
                kinds.add(verdict.witness.get("kind", "points"))
    assert kinds == {"points", "character", "dual-vertex"}


def test_character_decisions_stay_exact():
    """Characters compare distances exactly in rational mode.  (a) d(sigma
    x, sigma y) = 1 + 10^-20 against d(x, y) = 1, closer than one float ulp:
    Lip_p, Lip_inf and main fail, while the float twin, which reads both
    as 1.0, holds within tol.  (b) Distances over coprime denominators
    near 2^30, whose integer form exceeds 2^63: the verdicts are the loop
    reference's, an isometric Klein-group action holding and a rotation
    failing."""
    one_ulp_up = validate_metric([[0, 1, 1], [1, 0, 1 + F(1, 10 ** 20)],
                                  [1, 1 + F(1, 10 ** 20), 0]])
    action = permutation_action(one_ulp_up, [(1, 2, 0)])
    twin = scaled_twin(action, 1, True)
    for check, reference in UNIVERSAL_REFERENCES:
        verdict = check(action)
        assert not verdict.holds and check(twin).holds
        _assert_same_verdict(verdict, reference(action), verdict.condition)

    a, b, c = (1 + F(1, q) for q in (2147483647, 1000000007, 998244353))
    space = validate_metric([[0, a, c, b], [a, 0, b, c], [c, b, 0, a],
                             [b, c, a, 0]])
    assert max(max(row) for row in space.integer_form[0]) > 2 ** 63
    klein = permutation_action(space, [(1, 0, 3, 2), (2, 3, 0, 1)])
    rotation = permutation_action(space, [(1, 2, 3, 0)])
    for action, holds in ((klein, True), (rotation, False)):
        for check, reference in UNIVERSAL_REFERENCES:
            verdict = check(action)
            assert verdict.holds == holds
            _assert_same_verdict(verdict, reference(action), verdict.condition)


def test_universal_checks_share_one_block_support_table(monkeypatch):
    """The block supports are computed on first use and once per action:
    the five universal checks of one action share them, and an action
    that no universal check reads never computes them."""
    from functools import cached_property
    from qiso.catalog import catalog_action
    from qiso.coaction import CoAction
    computed = []
    original = CoAction.block_supports.func
    counted = cached_property(lambda self: computed.append(self) or original(self))
    counted.__set_name__(CoAction, "block_supports")
    monkeypatch.setattr(CoAction, "block_supports", counted)
    base = catalog_action("dual-d4-asymmetric")
    action = CoAction(base.group, base.space, base.coeffs)
    assert not computed
    supports = None
    for check, _ in UNIVERSAL_REFERENCES:
        check(action)
        supports = action.block_supports if supports is None else supports
        assert action.block_supports is supports
    assert computed == [action]


def test_universal_pair_convention_matches_ordered_pairs(c07_population):
    """The pairwise universal checks (main, Lip_inf, Lip_p for p = 1, 2, 3)
    visit x < y only on an exactly symmetric d.  On the c07 population
    (catalog + 200 random actions), the 6-point two-projection actions of
    D5 and D7 (whose Lip_p failures are dual-vertex ones) and a
    near-symmetric float space, their verdicts and failing witnesses
    (pair, points or supports, block, kind) equal those of the sweep over
    every ordered pair."""
    actions = c07_population + _two_projection_actions()
    actions.append(_near_symmetric_action())
    checks = [(check_theorem_main, ()), (check_winf_universal, ())] + \
        [(check_lip_p_universal, (p,)) for p in (1, 2, 3)]
    keys = ("pair", "points", "supports", "block", "kind")
    kinds = set()
    for action in actions:
        for check, args in checks:
            v = check(action, *args)
            o = with_ordered_pairs(check, action, *args)
            assert v.holds == o.holds, (action.name, check.__name__, args)
            if not v.holds:
                kinds.add(v.witness.get("kind", "points"))
                assert {k: v.witness.get(k) for k in keys} == \
                    {k: o.witness.get(k) for k in keys}, (action.name, args)
    assert kinds == {"points", "character", "dual-vertex"}


def test_level_coupling_per_state_classical():
    from qiso.quantum_group import haar_state
    h = haar_state(CYCLE4.group).state
    assert check_level_coupling_state(CYCLE4, h).holds
    # deterministic coupling for a point evaluation
    psi = extreme_state(CYCLE4.group.algebra, 1, np.array([1.0]))
    assert check_level_coupling_state(CYCLE4, psi).holds


def test_orthogonality_lemma():
    action = QUANTUM_ISO
    # S or T empty: product vanishes trivially
    assert check_orthogonality(action, 0, 1, (), (0,), 0.25)
    for x, y, S, T, delta in sample_orthogonality_inputs(action, 200, seed=3):
        assert check_orthogonality(action, x, y, S, T, delta)
    with pytest.raises(HypothesisViolated):
        check_orthogonality(action, 0, 1, (0,), (1,),
                            float(action.space.dist[0][1]) + 1.0)


def test_orthogonality_trivial_action_scalar_case():
    action = trivial_action(three_point_isosceles())
    for x, y, S, T, delta in sample_orthogonality_inputs(action, 100, seed=5):
        assert check_orthogonality(action, x, y, S, T, delta)


def test_injectivity():
    assert check_injectivity(trivial_action(three_point_isosceles()))
    assert check_injectivity(S3_FULL)
    for entry in standard_actions():
        if check_D(entry.action).holds:
            assert check_injectivity(entry.action), entry.name


def test_lip_seminorm_state_agrees_with_w1_state():
    for action in (S3_FULL, QUANTUM_ISO, QUANTUM_NONISO):
        for k in range(12):
            psi = random_state(action.group.algebra, 7 * k + 1)
            a = check_lip_seminorm_state(action, psi, samples=40, seed=k)
            b = check_lip_p_state(action, psi, 1).holds
            assert a == b


def test_tower_on_catalog_and_random_states():
    ps = [1, 2, 3]
    for entry in standard_actions():
        verdicts = {p: check_lip_p_universal(entry.action, p).holds for p in ps}
        verdicts["inf"] = check_winf_universal(entry.action).holds
        d = check_D(entry.action).holds
        if d:
            assert all(verdicts.values()), entry.name
        if verdicts["inf"]:
            assert all(verdicts[p] for p in ps), entry.name
        for q, p in ((1, 2), (2, 3)):
            assert (not verdicts[p]) or verdicts[q], entry.name


def test_finite_dimensional_equivalence():
    # at finite dimension (D) and universal (Lip_1) coincide
    for entry in standard_actions():
        assert check_D(entry.action).holds == check_lip1_universal(entry.action).holds
