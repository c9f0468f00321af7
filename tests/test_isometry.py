"""Isometry condition checks, cross-validated against classical oracles."""

import dataclasses
import functools
import importlib
import inspect
import random
from fractions import Fraction as F

import numpy as np
import pytest

from qiso.algebra import StateFunctional, extreme_state, random_state
from qiso.catalog import (catalog_action, cycle_metric,
                          dihedral_group_algebra, dihedral_projection_action,
                          equilateral_metric, four_point_blocks,
                          four_point_asymmetric, permutation_action,
                          random_permutation_action, random_quantum_action,
                          standard_actions, three_point_isosceles,
                          trivial_action)
from qiso import isometry, reports, transport
from qiso.coaction import CoAction, act_on_point, act_on_points
from qiso.isometry import (check_D, check_D_state, check_injectivity,
                           check_level_coupling_state, check_lip1_universal,
                           check_lip_p_state, check_lip_p_universal,
                           check_support_universal, check_theorem_main,
                           check_winf_universal)
from qiso.metric import random_metric_space, validate_metric
from qiso.reports import SearchConfig, build_instance, instance_descriptors
from qiso.scalars import RATIONAL
from qiso.transport import feasible_coupling_on, wasserstein_inf, wasserstein_p

from oracles import (HypothesisViolated, check_ball_identity,
                     check_D_commutant_by_entry, check_lip_seminorm_state,
                     check_orthogonality, classical_group, counit_state,
                     entry_tensor, group_element, level_set,
                     lip_p_universal_full_sweep,
                     lip_p_universal_loops, sample_orthogonality_inputs,
                     scaled_twin, support_universal_bruteforce,
                     support_universal_loops, with_ordered_pairs)


def test_verdicts_take_no_tolerance_argument():
    """Every isometry verdict, the envelope, the catalog run and every
    routine that takes a coaction read the metric space's tol, and the
    Haar state and the Kac check have fixed bounds: none of them takes a
    tol of its own."""
    names = {"qiso.isometry": (
                 "check_D", "check_D_state",
                 "check_lip_p_state", "_pair_margins",
                 "check_lip_p_universal", "check_lip1_universal",
                 "check_winf_universal", "check_theorem_main",
                 "check_level_coupling_state", "check_injectivity",
                 "_defect_verdict",
                 "check_support_universal", "_support_sweep"),
             "qiso.envelope": ("envelope",),
             "qiso.coaction": ("verify_coaction", "generation_deficit",
                               "act_on_point", "act_on_points", "orbits"),
             "qiso.quantum_group": ("haar_state", "require_kac"),
             "oracles": ("verify_universal_property", "check_orthogonality"),
             "qiso.reports": ("verify_instance", "_universal_verdicts",
                              "_replays", "_replay_disagreements")}
    for module, funcs in names.items():
        module = importlib.import_module(module)
        for name in funcs:
            params = inspect.signature(getattr(module, name)).parameters
            assert "tol" not in params, (module.__name__, name)


def _flags(action, cut=None):
    """The catalog run's condition flags of `action`, (D) read off `cut`,
    by default the blocks where `defect_blocks` finds it failing."""
    if cut is None:
        cut = isometry.defect_blocks(action).blocks
    return reports._condition_flags(
        reports._universal_verdicts(action), cut)


def classical_isometries(action):
    """Oracle: group elements preserving the metric, by direct enumeration."""
    d = action.space.dist
    n = action.n
    return [g for g in classical_group(action)
            if all(d[g[x]][g[y]] == d[x][y] for x in range(n) for y in range(n))]


def classical_contraction_oracle(action):
    """Oracle for the universal W_p conditions on C(G): every point
    evaluation must contract distances (no transport solver involved)."""
    d = action.space.dist
    n = action.n
    return all(float(d[g[x]][g[y]]) <= float(d[x][y]) + 1e-12
               for g in classical_group(action)
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
    """Scaling the metric by 10^9 or 10^-9 keeps every (D) verdict, and
    the commutant form (computed entry by entry) agrees: the tolerance is
    relative to the largest distance."""
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
            assert check_D_commutant_by_entry(
                scaled, scaled.space.tol).holds == expected, (name, scale)
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
    """`check_D` gives the verdict of the commutant form (U d - d U)_xy,
    computed entry by entry, on every catalog entry."""
    for entry in standard_actions():
        action = entry.action
        assert check_D(action).holds == \
            check_D_commutant_by_entry(action, action.space.tol).holds


def test_ball_identity_matches_check_D():
    for action in (CYCLE4, QUANTUM_ISO):
        assert check_ball_identity(action) < 1e-10
    assert check_ball_identity(S3_FULL) > 1e-2  # fails when (D) fails


def test_counit_state_always_lip_p():
    for action in (S3_FULL, QUANTUM_NONISO):
        eps = counit_state(action.group)
        for p in (1, 2, float("inf")):
            assert check_lip_p_state(action, eps, p).holds
        assert check_D_state(action, eps).holds  # trivial action is isometric


def test_classical_isometry_states():
    group = classical_group(S3_FULL)
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
    g = classical_group(S3_FULL)[block]
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


def _float_swap_action(excess):
    """C(Z_2) acting by the swap (0 2) on a float space of tol 1e-9 and
    max d = 1: d(0, 1) = 0.9, d(0, 2) = 1 and d(1, 2) = 0.9 + excess."""
    dist = [[0.0, 0.9, 1.0], [0.9, 0.0, 0.9 + excess],
            [1.0, 0.9 + excess, 0.0]]
    return permutation_action(validate_metric(dist, tolerance=1e-9),
                              [(2, 1, 0)], name=f"swap-{excess:g}")


def test_lip_p_universal_matches_full_sweep():
    """The per-support route gives the verdicts of the full-space sweep on
    the catalog, on 6-point two-projection actions of D5 and D7 and on a
    float character whose distances tie within dtol, and each failure's
    witness state fails the per-state check."""
    from qiso.coaction import verify_coaction
    actions = [entry.action for entry in standard_actions()]
    for m in (5, 7):
        for asymmetric in (False, True):
            action = reflection_pairs_action(block_metric(3, asymmetric), m,
                                             (0, 1, 2))
            assert verify_coaction(action).passed(1e-9)
            actions.append(action)
    actions.append(_float_swap_action(0.8e-9))
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


def test_float_character_tie_gives_one_verdict_at_every_p():
    """A character sends Dirac masses to Dirac masses, so its W_p is
    d(sigma x, sigma y) at every p.  On `_float_swap_action(0.8e-9)` the
    swap moves d(0, 1) = 0.9 to 0.9 + 0.8e-9, within dtol = 1e-9: every
    condition holds and the tower has no violation (a comparison of d^p
    within tol x max d^p would fail Lip_2 and Lip_3 only).  At 1.5e-9,
    beyond dtol, every condition fails."""
    near = _flags(_float_swap_action(0.8e-9))
    assert all(near.values()), near
    assert reports.implication_tallies(
        [{"name": "swap", "conditions": near}])["violations"] == []
    far = _flags(_float_swap_action(1.5e-9))
    assert len(far) == 6 and not any(far.values()), far


def _float_blocks_action(excess):
    """The catalog's dual-d4-blocks coaction on the float twin of its
    block metric (tol 1e-9, max d = 2), with d(0, 2) = d(2, 0) moved to
    2 + excess."""
    action = catalog_action("dual-d4-blocks")
    dist = [[float(v) for v in row] for row in action.space.dist]
    dist[0][2] = dist[2][0] = 2.0 + excess
    space = validate_metric(dist, mode="float", tolerance=1e-9)
    return CoAction(action.group, space, action.coeffs,
                    name=f"dual-d4-blocks{excess:+g}")


def test_float_block_tie_keeps_lip_inf_implies_lip_p():
    """A 2 x 2 block's Lip_p eigenvalues are bounded by d_top^p, d_top the
    largest distance within dtol of d(x, y), as Lip_inf compares: W_p <=
    W_inf <= d_top.  On `_float_blocks_action`, a move of d(0, 2) by
    1.6e-9 or -1.2e-9 (0.8e-9 and 0.6e-9 x max d, within dtol = 2e-9)
    leaves every condition holding and the tower without a violation (a
    bound of d(x, y)^p within tol x max d^p fails Lip_2 and Lip_3, or
    Lip_1 to Lip_3).  A move of +-3e-9, beyond dtol, fails all six."""
    for excess in (1.6e-9, -1.2e-9):
        near = _flags(_float_blocks_action(excess))
        assert len(near) == 6 and all(near.values()), (excess, near)
        assert reports.implication_tallies(
            [{"name": "blocks", "conditions": near}])["violations"] == []
    for excess in (3e-9, -3e-9):
        far = _flags(_float_blocks_action(excess))
        assert len(far) == 6 and not any(far.values()), (excess, far)


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
    verdict, for both halves (main, Lip_inf) of one sweep, and each
    failure's witness state fails the per-state check."""
    mismatches = []
    checked = {True: 0, False: 0}
    for action in _support_population():
        for twin in (action, scaled_twin(action, 1, True)):
            for level_only, verdict in zip((True, False),
                                           check_support_universal(twin)):
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


def _near_tie_action(far=3):
    """A unitary-row pattern over the group algebra of D_4 with one near
    tie on its 2x2 block: the identity on the 1x1 blocks; rows 0 and 1
    are (P, 1 - P) and rows 2 and 3 (Q, 1 - Q) on the 2x2 block, P and Q
    the rank-1 projections onto (1, 63) and (1, 62).  Every entry is a
    Fraction before it is a float, so the block has an exact form.  On
    the metric below, with cross distances d(0, 3) = d(1, 2) = far > 2,
    the first product off both the level and the sublevel set is
    u_00 u_23 u_00 = P (1 - Q) P at the pair (0, 2), whose lambda_max
    1 / (3970 x 3845) ~ 6.55e-8 lies within the exact window but beyond
    tol."""
    qg = dihedral_group_algebra(4)
    alg = qg.algebra

    def projection(v):
        norm = v[0] ** 2 + v[1] ** 2
        return [[F(a * b, norm) for b in v] for a in v]

    def complement(M):
        return [[int(i == j) - M[i][j] for j in range(2)] for i in range(2)]

    P, Q = projection((1, 63)), projection((1, 62))
    rows = [(P, complement(P)), (Q, complement(Q))]
    coeffs = [[[F(0)] * alg.dim for _ in range(4)] for _ in range(4)]
    for off, b in zip(alg.offsets, alg.blocks):
        for x in range(4):
            for j in range(4):
                if b == 1:
                    coeffs[x][j][off] = F(int(x == j))
                elif x // 2 == j // 2:
                    M = rows[x // 2][(x + j) % 2]
                    coeffs[x][j][off:off + 4] = [M[r][c] for r in range(2)
                                                 for c in range(2)]
    space = validate_metric([[0, 1, 2, far], [1, 0, far, 2], [2, far, 0, 1],
                             [far, 2, 1, 0]])
    return CoAction(qg, space, [[[float(v) for v in entry] for entry in row]
                                for row in coeffs])


def test_support_near_tie_is_decided_exactly(monkeypatch):
    """On `_near_tie_action` main and Lip_inf both fail at the pair (0, 2)
    with the points (0, 3) on block 4, by the exact decision of their
    shared product, which `_universal_verdicts` takes once for both; with
    `exact_psd` answering True both verdicts hold, so the exact route,
    not the float margin, decides them."""
    action = _near_tie_action()
    R, _ = action.exact_block(4)
    shared = -(R[0, 0] @ R[2, 3] @ R[0, 0])
    calls = []
    real = isometry.exact_psd
    monkeypatch.setattr(isometry, "exact_psd",
                        lambda M: calls.append(M) or real(M))
    flags = _flags(action)
    assert not flags["main"] and not flags["Lip_inf"]
    assert sum(np.array_equal(M, shared) for M in calls) == 1
    for check in (check_theorem_main, check_winf_universal):
        witness = check(action).witness
        assert (witness["pair"], witness["points"], witness["block"]) == \
            ((0, 2), (0, 3), 4)
        assert witness["residual"] == pytest.approx(1 / (3970 * 3845))
    monkeypatch.setattr(isometry, "exact_psd", lambda M: True)
    assert check_theorem_main(action).holds
    assert check_winf_universal(action).holds


def test_lip_p_near_tie_is_decided_exactly(monkeypatch):
    """With cross distances 2 + 1/2500, Lip_p of `_near_tie_action` fails
    at the pair (0, 2) on its 2x2 block by a margin of about
    ((2 + 1/2500)^p - 2^p) ||P - Q||, 1e-7 to 1.2e-6 for p = 1, 2, 3:
    within _BORDERLINE x max d^p, beyond tol x max d^p.  With `exact_psd`
    answering True every p holds, so the exact route, not the float
    margin, decides them."""
    action = _near_tie_action(far=2 + F(1, 2500))
    space = action.space
    for p in (1, 2, 3):
        scale = space.float_power(p)[-1]
        verdict = check_lip_p_universal(action, p)
        assert not verdict.holds, p
        witness = verdict.witness
        assert (witness["pair"], witness["block"], witness["kind"]) == \
            ((0, 2), 4, "dual-vertex"), p
        assert space.tol * scale < witness["margin"] <= isometry._BORDERLINE * scale
    monkeypatch.setattr(isometry, "exact_psd", lambda M: True)
    for p in (1, 2, 3):
        assert check_lip_p_universal(action, p).holds, p


def _exact_defect_blocks(action):
    """The blocks on which some (D) defect c_xy = sum_j d(y, j) u_xj -
    d(x, j) kappa(u_yj) has a nonzero coefficient, in Fractions: the real
    and imaginary part of every float of u and of the group's kappa read
    exactly, d as it is given."""
    qg, d, n = action.group, action.space.dist, action.n

    def exact(z):
        return F(float(z.real)), F(float(z.imag))

    U = [[[exact(v) for v in entry] for entry in row] for row in action.coeffs]
    kappa = [[exact(v) for v in row] for row in qg.kappa]
    kU = [[[(sum(k[0] * v[0] - k[1] * v[1] for k, v in zip(row, U[y][j])),
             sum(k[0] * v[1] + k[1] * v[0] for k, v in zip(row, U[y][j])))
            for row in kappa] for j in range(n)] for y in range(n)]
    blocks = set()
    for x in range(n):
        for y in range(n):
            for a in range(qg.dim):
                if any(sum(d[y][j] * U[x][j][a][part] - d[x][j] * kU[y][j][a][part]
                           for j in range(n)) for part in (0, 1)):
                    blocks.add(int(qg.algebra.block_of[a]))
    return blocks


def _assert_exact_D_cut(action):
    """(D) fails, the tower has no violation, and the envelope, which does
    not raise, kills exactly the blocks with a nonzero exact defect, each
    defect's norm being below tol x max d."""
    from qiso.envelope import envelope
    space = action.space
    verdict = check_D(action)
    assert not verdict.holds
    assert verdict.witness["residual"] <= space.tol * float(space.max_distance)
    flags = _flags(action)
    assert not flags["D"]
    assert reports.implication_tallies(
        [{"name": action.name, "conditions": flags}])["violations"] == []
    killed = _exact_defect_blocks(action)
    env = envelope(action)
    assert env.ideal.included_blocks == killed
    assert env.dimension == action.group.dim - sum(
        action.group.algebra.blocks[k] ** 2 for k in killed)
    assert check_D(env.induced).holds
    return env


def test_D_near_tie_on_a_character_is_decided_exactly():
    """The swap (0 1) moves d(0, 2) = 2 to d(1, 2) = 2 + 10^-12, a defect
    far below tol x max d.  On the rational space check_D decides the
    swap's character on the distance ranks: (D) fails as main, Lip_inf
    and Lip_p do, and the envelope is C(Z_2) modulo the swap's block, of
    dimension 1.  The float twin cannot tell the distances apart, and
    every condition holds there."""
    e = F(1, 10 ** 12)
    dist = [[0, 1, 2], [1, 0, 2 + e], [2, 2 + e, 0]]
    action = permutation_action(validate_metric(dist), [(1, 0, 2)])
    swap = next(k for k in range(2) if action.stacks[k][0, 1, 0, 0] == 1)
    assert check_D(action).witness["pair"] == (0, 2)
    env = _assert_exact_D_cut(action)
    assert env.ideal.included_blocks == {swap} and env.dimension == 1
    twin = permutation_action(validate_metric(
        [[float(v) for v in row] for row in dist]), [(1, 0, 2)])
    assert all(_flags(twin).values())


def test_D_exact_route_reads_both_terms_of_a_defect(monkeypatch):
    """The exact route decides a larger block on the exact forms of both
    terms of c_xy, u's and kappa(u)'s, and assumes no kappa(u_yj) = u_jy,
    which only a magic unitary satisfies.  `_near_tie_action(far=2)` is a
    unitary-row pattern whose block-4 defects have norm 0.9995: with the
    exact window widened to all of max d, that block is re-decided
    exactly, and it still fails, as its float norm says, where the
    identity would have cleared it."""
    action = _near_tie_action(far=2)
    assert isometry.defect_blocks(action).residuals.max() == \
        pytest.approx(0.9995, abs=1e-4)
    assert isometry.defect_blocks(action).blocks == {4}
    monkeypatch.setattr(isometry, "_BORDERLINE", 1.0)
    assert isometry.defect_blocks(action).blocks == {4}
    verdict = check_D(action)
    assert not verdict.holds
    assert verdict.witness["residual"] == pytest.approx(0.9995, abs=1e-4)


def test_D_exact_forms_are_read_once_per_action(monkeypatch):
    """The exact forms of both terms of a defect are the action's: on the
    dual-D4 two-projection action on the block metric, whose 2x2 block
    `defect_blocks` re-decides exactly, the first call reads the forms of
    u and kappa(u) there, and a second call reads no exact form."""
    from qiso import coaction
    calls = []
    real = coaction.exact_form
    monkeypatch.setattr(coaction, "exact_form",
                        lambda stack: calls.append(stack.shape) or real(stack))
    action = dihedral_projection_action(four_point_blocks(), 4)
    first = isometry.defect_blocks(action)
    assert calls == [(4, 4, 2, 2)] * 2
    del calls[:]
    second = isometry.defect_blocks(action)
    assert calls == [] and first.blocks == second.blocks == frozenset()


def test_D_exact_route_on_a_character_reads_both_terms():
    """A near character is re-decided on the exact forms of both terms of
    its defects, as a larger block is, and not on a permutation sigma
    with kappa(u_yj) = u_jy.  C(Z_2) acts on {0, 1, 2} by the swap (0 1),
    with kappa replaced by the swap of the two blocks, so it is not a
    magic unitary; on d(0, 1) = 10^-7 and d(0, 2) = d(1, 2) = 1 each
    block's defects are +-10^-7 exactly.  Both blocks fail (D), as their
    float norms and an exact Fraction computation of both terms say,
    where reading u's permutation alone would clear them."""
    e = F(1, 10 ** 7)
    space = validate_metric([[0, e, 1], [e, 0, 1], [1, 1, 0]])
    swap = permutation_action(space, [(1, 0, 2)])
    qg = dataclasses.replace(swap.group, kappa=np.array([[0, 1], [1, 0]]))
    action = CoAction(qg, space, swap.coeffs)
    cut = isometry.defect_blocks(action)
    assert cut.residuals.max() == pytest.approx(1e-7)
    assert space.tol * float(space.max_distance) < cut.residuals.max() <= \
        isometry._BORDERLINE * float(space.max_distance)
    assert cut.blocks == _exact_defect_blocks(action) == {0, 1}
    assert not check_D(action).holds
    assert isometry.defect_blocks(swap).blocks == frozenset()


def test_D_witness_residual_is_read_on_the_failing_blocks(monkeypatch):
    """A block that the exact route clears does not set the witness's
    residual, even where its float norm is the larger: with a noise of
    1e-9 added to every defect norm of the identity's character, the swap
    of `test_D_near_tie_on_a_character_is_decided_exactly` still fails at
    (0, 2) by its own defect, 10^-12."""
    e = F(1, 10 ** 12)
    action = permutation_action(validate_metric(
        [[0, 1, 2], [1, 0, 2 + e], [2, 2 + e, 0]]), [(1, 0, 2)])
    identity = next(k for k in range(2) if action.stacks[k][0, 0, 0, 0] == 1)
    real = isometry.operator_norms

    def noisy(stack):
        norms = real(stack).copy()
        norms[..., identity] += 1e-9
        return norms

    monkeypatch.setattr(isometry, "operator_norms", noisy)
    cut = isometry.defect_blocks(action)
    assert cut.blocks == {1 - identity} and cut.residuals.max() >= 1e-9
    verdict = check_D(action)
    assert verdict.witness["pair"] == (0, 2)
    assert verdict.witness["residual"] == pytest.approx(1e-12, rel=1e-3)


def test_D_near_tie_on_a_two_by_two_block_is_decided_exactly():
    """The dual-D4 two-projection action on the block metric whose cross
    distances are 2 and 2 + e: every defect norm is below tol x max d (0
    at e = 10^-18, where 2 + e rounds to 2.0), and check_D decides the 2x2
    block on its exact form and the characters on the distance ranks, so
    (D) fails with no tower violation and the envelope kills the blocks
    whose exact defect is nonzero, the 2x2 block among them.  At
    e = 10^-18 the integer form's sums exceed int64, so the exact form is
    taken in Python ints."""
    for e in (F(1, 10 ** 12), F(1, 10 ** 18)):
        c2 = 2 + e
        space = validate_metric([[0, 1, 2, c2], [1, 0, 2, c2], [2, 2, 0, 1],
                                 [c2, c2, 1, 0]])
        env = _assert_exact_D_cut(dihedral_projection_action(space, 4))
        assert 4 in env.ideal, e


def test_character_route_is_skipped_only_where_it_decides_nothing(c07_population):
    """`defect_blocks` re-decides a near character only on a space with
    two distances within 2 x _BORDERLINE x max d: elsewhere a magic
    unitary's character has defects 0 or at least that gap, so its float
    cut is exact.  On the c07 population, whose rational spaces have no
    such distances, the exact forms of both terms (`_form_defects`) agree
    with the cut on every character that has them."""
    checked = 0
    for action in c07_population:
        space = action.space
        if space.mode != RATIONAL:
            continue
        gaps = np.diff(np.array(space.realized_distances, dtype=float))
        assert (gaps > 2 * isometry._BORDERLINE * float(space.max_distance)).all()
        blocks = isometry.defect_blocks(action).blocks
        for k in np.flatnonzero(np.array(action.group.algebra.blocks) == 1):
            exact = isometry._form_defects(action, int(k))
            if exact is not None:
                assert (int(k) in blocks) == exact.any(), action.name
                checked += 1
    assert checked > 200


def test_condition_flags_sweep_the_support_products_once(monkeypatch):
    """The catalog run's universal verdicts (`_universal_verdicts`) take
    main and Lip_inf from one sweep of the support products
    (`isometry._support_sweep`) per action, on every catalog entry."""
    calls = []
    real = isometry._support_sweep

    def counted(action):
        calls.append(action)
        return real(action)

    monkeypatch.setattr(isometry, "_support_sweep", counted)
    actions = [entry.action for entry in standard_actions()]
    for action in actions:
        _flags(action, frozenset())
    assert calls == actions


def _ordered_pairs(n):
    return [(x, y) for x in range(n) for y in range(n) if x != y]


def _sweep_pairs(space):
    """The pairs the per-state checks visit: x < y when d is exactly
    symmetric, every ordered pair otherwise."""
    n, d = space.n, space.dist
    if all(d[x][y] == d[y][x] for x, y in _ordered_pairs(n)):
        return [(x, y) for x in range(n) for y in range(x + 1, n)]
    return _ordered_pairs(n)


def _pairs_recomputed(action, psi, pairs):
    """Both marginals of every pair in `pairs`, each recomputed for the pair."""
    return [((x, y), act_on_point(action, x, psi),
             act_on_point(action, y, psi)) for x, y in pairs]


def _lip_p_state_per_pair(action, psi, p, pairs=None):
    """W_p and the margin W_p - d(x, y) of every pair in `pairs` (by
    default the pairs of `_sweep_pairs`), with x <| psi recomputed for
    every pair and W_p from wasserstein_p/wasserstein_inf."""
    space = action.space
    if pairs is None:
        pairs = _sweep_pairs(space)
    out = {}
    for (x, y), mu, nu in _pairs_recomputed(action, psi, pairs):
        if p == float("inf") or p == "inf":
            w = float(wasserstein_inf(space, mu, nu).r)
        else:
            w = float(wasserstein_p(space, mu, nu, p))
        out[x, y] = (w, w - float(space.dist[x][y]))
    return out


def _assert_matches_per_pair(v, action, psi, p, pairs=None):
    """A per-state verdict against the per-pair oracle: the same verdict
    on the check's bound, the space's tol x max d, W_p^p within 1e-12 x
    max d^p (W itself for p = inf), and a witness whose oracle margin is
    within the check's tie of the oracle's largest.

    W_p^p is what both compute, so the bound is taken there and carried
    to W and the margins at the pair compared: an error of e in W_p^p
    moves W_p by e / (p W_p^(p-1))."""
    space = action.space
    tol = space.tol
    per_pair = _lip_p_state_per_pair(action, psi, p, pairs)
    worst_pair = max(per_pair, key=lambda xy: per_pair[xy][1])
    worst = per_pair[worst_pair][1]
    scale = float(space.max_distance)
    q = 1.0 if p in ("inf", float("inf")) else float(p)
    slack = 1e-12 * scale ** q

    def w_slack(xy):
        return slack / (q * per_pair[xy][0] ** (q - 1))

    assert v.holds == (worst <= tol * scale)
    if v.holds:
        assert abs(v.certificate["max_margin"] - worst) <= w_slack(worst_pair)
    else:
        xy = tuple(v.witness["pair"])
        w, margin = per_pair[xy]
        assert abs(v.witness["wasserstein"] ** q - w ** q) <= slack
        assert abs(v.witness["margin"] - margin) <= w_slack(xy)
        assert margin >= worst - 1e-12 * scale - w_slack(xy) - w_slack(worst_pair)
    return v.holds


def _level_coupling_per_pair(action, psi):
    """check_level_coupling_state's (holds, witness), over every ordered
    pair, on the oracle's level set of raw distances within dtol: the
    first failing pair in x-major order has x < y on a symmetric d."""
    for (x, y), mu, nu in _pairs_recomputed(action, psi, _ordered_pairs(action.n)):
        Y = level_set(action.space, action.space.dist[x][y])
        verdict = feasible_coupling_on(mu, nu, Y, action.space.tol)
        if not verdict.feasible:
            return False, {"pair": (x, y),
                           "violating_subset": sorted(verdict.violator)}
    return True, None


def _near_tie_twin(action, c, seed):
    """A float twin of `action` with its equal distances pulled apart:
    each off-diagonal d(i, j) = d(j, i) gains (3 + s) eps, with s drawn
    from {-1, 0, 1} by `seed` and eps = c x tol x max d.  Two pairs at one
    distance then differ by 0, c or 2c x tol x max d, and every triangle
    still holds, since the 3 eps of each side outweigh the s eps."""
    space = action.space
    rng = random.Random(seed)
    eps = c * space.tol * float(space.max_distance)
    dist = [[float(v) for v in row] for row in space.dist]
    for i in range(space.n):
        for j in range(i + 1, space.n):
            dist[i][j] = dist[j][i] = dist[i][j] + (3 + rng.choice((-1, 0, 1))) * eps
    return CoAction(action.group, validate_metric(dist, mode="float"),
                    action.coeffs, name=action.name)


def test_per_state_sweeps_match_per_pair_recomputation(monkeypatch):
    """The per-state Lip_p check computes every x <| psi of its state once
    (one act_on_points call) and returns the verdicts of recomputing both
    marginals for every pair it visits (x < y on the catalog's symmetric
    metrics), with W_p^p within 1e-12 x max d^p, on the catalog x 5
    random states x p in {1, 2, 3, inf}.  The level-coupling check
    computes every x <| psi of its state by one act_on_points call,
    visits every ordered pair and agrees exactly with its oracle, which
    compares raw distances within dtol where the check reads distance
    ranks and `sublevel_tops`: on the catalog, and on float twins of it
    whose equal distances are moved apart by 0 or +-c x tol x max d, c in
    (0.4, 0.95, 1.5).  The moves within dtol keep every level set of the
    catalog's distances and those of 1.5 x dtol split some."""
    batches = []

    def batched(action, states, *args, **kwargs):
        batches.append(len(states))
        return act_on_points(action, states, *args, **kwargs)

    monkeypatch.setattr(isometry, "act_on_points", batched)
    seen = {True: 0, False: 0}
    ps = (1, 2, 3, float("inf"))
    for entry in standard_actions():
        action = entry.action
        for k in range(5):
            psi = random_state(action.group.algebra, 37 * k + 3)
            for p in ps:
                del batches[:]
                v = check_lip_p_state(action, psi, p)
                assert batches == [1]
                seen[_assert_matches_per_pair(v, action, psi, p)] += 1
            del batches[:]
            v = check_level_coupling_state(action, psi)
            assert batches == [1]
            assert (v.holds, v.witness) == \
                _level_coupling_per_pair(action, psi), (entry.name, k)
            seen[v.holds] += 1
    assert seen[True] and seen[False]

    split, twin_seen = {}, {True: 0, False: 0}
    for seed, entry in enumerate(standard_actions()):
        action = entry.action
        states = [random_state(action.group.algebra, 37 * k + 3)
                  for k in range(5)]
        for c in (0.4, 0.95, 1.5):
            twin = _near_tie_twin(action, c, seed)
            split[c] = split.get(c, 0) + sum(
                level_set(twin.space, twin.space.dist[x][y]).member !=
                level_set(action.space, action.space.dist[x][y]).member
                for x, y in _ordered_pairs(action.n))
            for k, psi in enumerate(states):
                v = check_level_coupling_state(twin, psi)
                assert (v.holds, v.witness) == \
                    _level_coupling_per_pair(twin, psi), (entry.name, c, k)
                twin_seen[v.holds] += 1
    assert twin_seen[True] and twin_seen[False]
    assert split[0.4] == 0 and split[0.95] > 0 and split[1.5] > 0, split


def test_unordered_sweep_matches_ordered_sweep():
    """Visiting x < y only gives the per-state verdicts of a visit of
    every ordered pair on the catalog x 5 random states x p in {1, 2, 3,
    inf}: W_p(mu, nu) and W_p(nu, mu) agree within 1e-12 relative, and
    the margins within 1e-12 x max d^p (the simplex is not bitwise
    symmetric)."""
    seen = {True: 0, False: 0}
    for entry in standard_actions():
        action = entry.action
        space = action.space
        assert _sweep_pairs(space) == [(x, y) for x, y in _ordered_pairs(action.n)
                                       if x < y]
        for k in range(5):
            psi = random_state(action.group.algebra, 37 * k + 3)
            images = [act_on_point(action, x, psi) for x in range(action.n)]
            for p in (1, 2, 3, float("inf")):
                v = check_lip_p_state(action, psi, p)
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
    replayed state: on dual-d4-asymmetric, whose four Lip_p verdicts
    (p = 1, 2, 3, inf) fail, one act_on_points call for the four replay
    states, and every replay agrees with its verdict."""
    from qiso.reports import verify_instance
    batches = []

    def batched(action, states, *args, **kwargs):
        batches.append(len(states))
        return act_on_points(action, states, *args, **kwargs)

    monkeypatch.setattr(isometry, "act_on_points", batched)
    monkeypatch.setattr(reports, "act_on_points", batched)
    rec = verify_instance({"source": "catalog", "name": "dual-d4-asymmetric"})
    assert not any(rec["conditions"][f"Lip_{p}"] for p in (1, 2, 3, "inf"))
    assert rec["replay_disagreements"] == [] and rec["state_consistency"]
    assert batches == [4]


def _replay_solves(monkeypatch, name):
    """The transport solves that verify_instance's replays make on catalog
    entry `name`, (wasserstein_p calls, wasserstein_inf calls), with the
    record."""
    calls = {"p": 0, "inf": 0}

    def counted(key, solve):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return solve(*args, **kwargs)
        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(isometry, "wasserstein_p", counted("p", wasserstein_p))
        patch.setattr(isometry, "wasserstein_inf",
                      counted("inf", wasserstein_inf))
        rec = reports.verify_instance({"source": "catalog", "name": name})
    return (calls["p"], calls["inf"]), rec


def test_a_failing_replay_solves_at_its_witness_pair_alone(monkeypatch):
    """A failing universal verdict claims its witness pair, so its replay
    makes one transport solve: on z4-broken-diagonal and
    dual-d4-asymmetric, where Lip_1, Lip_2, Lip_3 and Lip_inf fail, three
    wasserstein_p calls and one wasserstein_inf call, against 4 x 6 for a
    replay at every pair, and every replay agrees."""
    for name in ("z4-broken-diagonal", "dual-d4-asymmetric"):
        solves, rec = _replay_solves(monkeypatch, name)
        assert not any(rec["conditions"][f"Lip_{p}"] for p in (1, 2, 3, "inf"))
        assert rec["replay_disagreements"] == [], name
        assert solves == (3, 1), name


def test_a_holding_replay_solves_at_every_pair(monkeypatch):
    """A hold claims every pair, so its replay makes one transport solve
    per pair of `_state_pairs`: on dual-d4-blocks, whose Lip_1, Lip_2 and
    Lip_3 hold with a state on the 2x2 block and whose Lip_inf hold is
    decided on characters alone (no replay), 3 x 6 wasserstein_p calls."""
    solves, rec = _replay_solves(monkeypatch, "dual-d4-blocks")
    action = build_instance({"source": "catalog", "name": "dual-d4-blocks"})
    assert all(rec["conditions"][f"Lip_{p}"] for p in (1, 2, 3, "inf"))
    assert rec["replay_disagreements"] == []
    assert len(isometry._state_pairs(action.space)) == 6
    assert solves == (3 * 6, 0)


def _images_by_act_on_point(action, states):
    """x <| psi for every state and point, one act_on_point call each."""
    return np.array([[act_on_point(action, x, psi).mass
                      for x in range(action.n)] for psi in states])


def test_batched_images_match_act_on_point(monkeypatch):
    """act_on_points, one contraction over all states, gives the masses
    of act_on_point on the catalog x 10 sampled states within 4 ulps of 1
    (the batched and the per-point products sum in different orders), and
    the per-state check on either gives the same verdicts and witness
    pairs for p in {1, 2, 3, inf}."""
    ps = (1, 2, 3, float("inf"))
    seen = {True: 0, False: 0}
    for entry in standard_actions():
        action = entry.action
        states = [random_state(action.group.algebra, 977 + k) for k in range(10)]
        reference = _images_by_act_on_point(action, states)
        batched = act_on_points(action, states)
        assert batched.shape == reference.shape
        assert np.abs(batched - reference).max() <= 4 * np.spacing(1.0), entry.name
        batched = [[check_lip_p_state(action, psi, p) for p in ps]
                   for psi in states]
        with monkeypatch.context() as patch:
            patch.setattr(isometry, "act_on_points", _images_by_act_on_point)
            per_point = [[check_lip_p_state(action, psi, p) for p in ps]
                         for psi in states]
        for verdicts, expected in zip(batched, per_point):
            for v, e in zip(verdicts, expected):
                assert v.holds == e.holds, entry.name
                if not v.holds:
                    assert v.witness["pair"] == e.witness["pair"], entry.name
                seen[v.holds] += 1
    assert seen[True] and seen[False]


def test_image_that_is_not_a_probability_vector_raises():
    """An image with a mass below -tol, or a sum off 1 by more than tol,
    raises ValueError from act_on_points, from act_on_point and from the
    per-state check, with prob_vector's messages; a mass within tol below 0 is
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
        for p in (1, "inf"):
            with pytest.raises(ValueError, match=message):
                check_lip_p_state(action, bad, p)
    fuzz = functional([0.5 + 3e-12, 0.5, -3e-12, 0.0])
    masses = act_on_points(action, [fuzz])
    assert (masses >= 0).all() and (masses > 0.5).any()
    per_point = [act_on_point(action, x, fuzz).mass for x in range(action.n)]
    assert np.abs(masses[0] - per_point).max() <= 4 * np.spacing(1.0)


def test_images_are_validated_within_the_space_tol():
    """act_on_point and act_on_points validate an image within its
    space's tol: on C(Z4) acting on the 4-cycle validated with tolerance
    1e-6, a state with a weight of -5e-7 gives images with a mass of
    -5e-7, which both clamp to 0 (and renormalize), as prob_vector does
    with eps 1e-6; a weight of -2e-6 still raises."""
    action = catalog_action("cyclic-4")
    alg = action.group.algebra
    assert alg.blocks == (1, 1, 1, 1)
    space = validate_metric(action.space.dist, tolerance=1e-6)
    assert space.tol == 1e-6
    loose = CoAction(action.group, space, action.coeffs)

    def functional(weights):
        return StateFunctional(alg, [np.array([[w]]) for w in weights])

    fuzz = functional([0.5 + 5e-7, 0.5, -5e-7, 0.0])
    masses = act_on_points(loose, [fuzz])[0]
    per_point = np.array([act_on_point(loose, x, fuzz).mass for x in range(4)])
    for images in (masses, per_point):
        assert (images >= 0).all() and (images == 0).sum() == 8
        assert np.abs(images.sum(axis=-1) - 1).max() <= 4 * np.spacing(1.0)
    assert np.abs(masses - per_point).max() <= 4 * np.spacing(1.0)
    bad = functional([0.5 + 2e-6, 0.5, -2e-6, 0.0])
    with pytest.raises(ValueError, match="negative mass"):
        act_on_point(loose, 0, bad)
    with pytest.raises(ValueError, match="negative mass"):
        act_on_points(loose, [bad])


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
    checked per state over every ordered pair, and matches the ordered
    per-pair oracles on four states: the verdicts and W_p^p within 1e-12
    x max d^p."""
    action = _near_symmetric_action()
    space = action.space
    ordered = _ordered_pairs(4)
    assert _sweep_pairs(space) == ordered
    seen = {True: 0, False: 0}
    for k in range(4):
        psi = random_state(action.group.algebra, 11 * k + 1)
        for p in (1, 2, 3, float("inf")):
            v = check_lip_p_state(action, psi, p)
            seen[_assert_matches_per_pair(v, action, psi, p, ordered)] += 1
        v = check_level_coupling_state(action, psi)
        assert (v.holds, v.witness) == _level_coupling_per_pair(action, psi)
    assert seen[False]


def test_sweep_verdicts_hold_at_a_wide_distance_ratio():
    """The 4-point space with d(0, 1) = d(2, 3) = 1 and every cross
    distance R = 10^2 to 10^8, rational and float: for p = 1, 2, 3 the
    per-state check gives the per-pair oracle's verdict on 30 states, for
    C(Z2 x Z2) acting isometrically and for the 4-cycle, which fails.
    Read off dual vertices in floats, W_p^p would lose about n 2^-53 R^p,
    which the p-th root carries past tol x R at the pairs at distance 1:
    Lip_3 failed on 13 of the 30 states at R = 10^6 that way."""
    for R in (10 ** 2, 10 ** 4, 10 ** 6, 10 ** 8):
        d = [[0, 1, R, R], [1, 0, R, R], [R, R, 0, 1], [R, R, 1, 0]]
        for space in (validate_metric(d), validate_metric(d, mode="float")):
            for gens in ([(1, 0, 2, 3), (2, 3, 0, 1)], [(1, 2, 3, 0)]):
                action = permutation_action(space, gens)
                states = [random_state(action.group.algebra, k)
                          for k in range(30)]
                for psi in states:
                    for p in (1, 2, 3):
                        v = check_lip_p_state(action, psi, p)
                        worst = max(m for _, m in _lip_p_state_per_pair(
                            action, psi, p).values())
                        assert v.holds == (worst <= space.tol * R), \
                            (R, space.mode, gens, p)
                        assert v.holds == (len(gens) == 2)


def test_cycle_sweep_max_flows_per_winf_call(monkeypatch):
    """The per-state p = inf check on the rotations of the 10-cycle (6
    realized distances, three random states, 135 pairs) runs at most 2.33
    max flows per `wasserstein_inf` call, what a plain bisection over the
    realized distances took there."""
    flows, winfs = [], []
    max_flow = transport._FlowNetwork.max_flow

    def counted_flow(self, *args):
        flows.append(None)
        return max_flow(self, *args)

    def counted_winf(*args):
        winfs.append(None)
        return wasserstein_inf(*args)

    monkeypatch.setattr(transport._FlowNetwork, "max_flow", counted_flow)
    monkeypatch.setattr(isometry, "wasserstein_inf", counted_winf)
    action = permutation_action(cycle_metric(10),
                                [tuple((i + 1) % 10 for i in range(10))])
    for seed in range(3):
        check_lip_p_state(action, random_state(action.group.algebra, seed),
                          float("inf"))
    assert len(winfs) == 135
    assert len(flows) <= 2.33 * len(winfs)


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
    """Equal verdicts, certificates and witnesses, the state of a witness
    or a certificate compared as a coefficient vector."""
    assert verdict.holds == reference.holds, label
    record, expected = (dict(verdict.certificate), dict(reference.certificate)) \
        if verdict.holds else (dict(verdict.witness), dict(reference.witness))
    state, expected_state = record.pop("state", None), expected.pop("state", None)
    assert record == expected, label
    assert (state is None) == (expected_state is None), label
    if state is not None:
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


def test_preserved_distances_give_zero_character_margins():
    """A character that preserves every distance has margin exactly 0.0:
    both sides of d(sigma x, sigma y)^p - d(x, y)^p are the float of one
    exact power, in the check and in its loop reference, also on
    non-dyadic distances.  The reflection of the path 0 - 1 - 2 with
    steps 1/10, for p = 1, 2 and 3."""
    path = validate_metric([[0, F(1, 10), F(1, 5)], [F(1, 10), 0, F(1, 10)],
                            [F(1, 5), F(1, 10), 0]])
    reflection = permutation_action(path, [(2, 1, 0)])
    for p in (1, 2, 3):
        for check in (check_lip_p_universal, lip_p_universal_loops):
            verdict = check(reflection, p)
            assert verdict.holds and verdict.certificate["max_margin"] == 0.0


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
