"""Cross-cutting property runs that tie several modules together."""

import json

import numpy as np
import pytest

from qiso.algebra import StateFunctional, random_state
from qiso.catalog import (dihedral_perms, dihedral_projection_action,
                          four_point_blocks, standard_groups,
                          three_point_isosceles)
from qiso.coaction import act_on_point
from qiso.quantum_group import (NotAGroup, haar_state, verify_quantum_group)
from qiso.reports import SearchConfig

from oracles import convolve, dual_of_group, from_permutation_group


def test_from_permutation_group_returns_pair():
    qg, action = from_permutation_group(three_point_isosceles(), [(1, 2, 0)])
    assert qg is action.group and qg.dim == 3
    assert verify_quantum_group(qg).passed(1e-10)


def test_dual_of_group_from_table():
    # rebuild the S3 group algebra from its multiplication table
    from qiso.catalog import dihedral_irreps
    group = dihedral_perms(3)
    index = {g: a for a, g in enumerate(group)}
    from qiso.quantum_group import compose
    table = [[index[compose(g, h)] for h in group] for g in group]
    irreps = dihedral_irreps(3, group)
    qg = dual_of_group(table, irreps, name="dual-S3-from-table")
    assert tuple(qg.algebra.blocks) == (1, 1, 2)
    assert verify_quantum_group(qg).passed(1e-10)
    bad = [row[:] for row in table]
    bad[0][0], bad[0][1] = bad[0][1], bad[0][0]
    with pytest.raises(NotAGroup):
        dual_of_group(bad, irreps)


def test_act_on_point_is_affine_in_the_state():
    action = dihedral_projection_action(four_point_blocks(), 4)
    alg = action.group.algebra
    phi = random_state(alg, 1)
    psi = random_state(alg, 2)
    lam = 0.3
    mix = StateFunctional.from_vector(
        alg, lam * phi.as_vector() + (1 - lam) * psi.as_vector())
    for x in range(action.n):
        left = np.array(act_on_point(action, x, mix).mass)
        right = lam * np.array(act_on_point(action, x, phi).mass) + \
            (1 - lam) * np.array(act_on_point(action, x, psi).mass)
        assert np.abs(left - right).max() < 1e-9


def test_haar_invariance_hundred_random_states():
    for qg in standard_groups():
        h = haar_state(qg).state
        hvec = h.as_vector()
        for k in range(100):
            psi = random_state(qg.algebra, 10007 * k + 13)
            assert np.abs(convolve(qg, h, psi).as_vector() - hvec).max() < 1e-9
            assert np.abs(convolve(qg, psi, h).as_vector() - hvec).max() < 1e-9


def test_search_with_process_pool_matches_sequential():
    from qiso.reports import run_search
    base = dict(kind="catalog", catalog=["cyclic-3", "s3-isosceles"], seed=9,
                state_samples=1)
    seq = run_search(SearchConfig(**base)).to_dict()
    par = run_search(SearchConfig(**base, jobs=2)).to_dict()
    for doc in (seq, par):
        doc["timing"] = {}
        doc["config"] = {}
        for rec in doc["instances"]:
            rec.pop("seconds", None)
    assert seq == par


def test_cli_hall_decides_past_twenty_points(tmp_path, capsys):
    """`qiso hall` has no size guard: at n = 21 the subset condition is
    the max-flow verdict, certified by the plan (the diagonal, exit 0) or
    by a min-cut violator S with nu(N(S)) < mu(S) (exit 3)."""
    from qiso.cli import main
    n = 21
    uniform = [f"1/{n}"] * n
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"mu": uniform, "nu": uniform,
                                "pairs": [[i, i] for i in range(n)]}))
    assert main(["hall", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"feasible": True, "subset_condition": True,
                   "plan": [[f"1/{n}" if i == j else 0 for j in range(n)]
                            for i in range(n)]}
    # the last row leads only to column 0, which row 0 fills
    path.write_text(json.dumps({"mu": uniform, "nu": uniform,
                                "pairs": [[i, i] for i in range(n - 1)]
                                + [[n - 1, 0]]}))
    assert main(["hall", str(path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"feasible": False, "subset_condition": False,
                   "violator": [0, n - 1], "mu_S": f"2/{n}",
                   "nu_neighborhood": f"1/{n}"}


def test_quantum_universal_verdicts_against_pure_state_sampling():
    """The vertex route decides sup over ALL states; dense sampling of pure
    states on the 2x2 block can only ever find smaller values, and when the
    route reports a failure its witness must be a genuinely failing state."""
    from qiso.catalog import four_point_asymmetric
    from qiso.isometry import check_lip_p_state, check_lip_p_universal
    from qiso.algebra import extreme_state
    from qiso.metric import validate_metric
    rng = np.random.default_rng(5)

    iso = dihedral_projection_action(four_point_blocks(), 4)
    # the failing witness must fail even within a tolerance of 1e-7
    noniso = dihedral_projection_action(
        validate_metric(four_point_asymmetric().dist, tolerance=1e-7), 4)
    for p in (1, 2):
        assert check_lip_p_universal(iso, p).holds
        block = next(k for k, b in enumerate(iso.group.algebra.blocks) if b == 2)
        for _ in range(200):
            xi = rng.normal(size=2) + 1j * rng.normal(size=2)
            xi = xi / np.linalg.norm(xi)
            psi = extreme_state(iso.group.algebra, block, xi)
            assert check_lip_p_state(iso, psi, p).holds

        verdict = check_lip_p_universal(noniso, p)
        assert not verdict.holds
        if "state" in verdict.witness:
            psi = verdict.witness["state"]
            assert not check_lip_p_state(noniso, psi, p).holds


def test_network_simplex_degenerate_instances():
    from fractions import Fraction as F
    from qiso.transport import ProbVector, prob_vector, solve_transport
    # sparse marginals and fully tied costs exercise degenerate pivots
    mu = ProbVector((F(1), F(0), F(0), F(0), F(0), F(0)))
    nu = ProbVector((F(0), F(0), F(0), F(0), F(0), F(1)))
    flat = [[F(3)] * 6 for _ in range(6)]
    res = solve_transport(mu, nu, flat)
    assert res.value == 3 and res.duals.objective == 3
    spiky = prob_vector([F(1, 2), F(0), F(1, 2), F(0)])
    res = solve_transport(spiky, spiky, [[F(0) if i == j else F(1)
                                          for j in range(4)] for i in range(4)])
    assert res.value == 0


def test_exact_and_float_winf_universal_agree_on_catalog():
    from qiso.catalog import standard_actions
    from qiso.isometry import check_winf_universal, check_theorem_main
    from oracles import scaled_twin
    for entry in standard_actions():
        float_twin = scaled_twin(entry.action, 1, True)
        for fn in (check_winf_universal, check_theorem_main):
            assert fn(entry.action).holds == fn(float_twin).holds, entry.name
