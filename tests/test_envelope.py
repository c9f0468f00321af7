"""Envelope pipeline: defects, ideals, saturation, quotients, universality."""

import numpy as np
import pytest

from qiso.catalog import (dihedral_projection_action, four_point_asymmetric,
                          four_point_blocks, four_cycle_broken_diagonal,
                          permutation_action, standard_actions,
                          three_point_isosceles)
from qiso.coaction import verify_coaction
from qiso.envelope import (BlockIdeal, SaturationReachedFullAlgebra,
                           annihilator_convolution_check, envelope,
                           generated_ideal, hopf_saturate, is_hopf_ideal,
                           kappa_block_map, verify_universal_property)
from qiso.isometry import check_D, commutator_defects
from qiso.quantum_group import verify_quantum_group

from oracles import apply_kappa, counit


S3_FULL = permutation_action(three_point_isosceles(), [(1, 2, 0), (1, 0, 2)],
                             name="s3-full")


def classical_isometries(action):
    d = action.space.dist
    n = action.n
    return [g for g in action.classical_group
            if all(d[g[x]][g[y]] == d[x][y] for x in range(n) for y in range(n))]


def test_commutator_elements_vanish_iff_D():
    for entry in standard_actions():
        action = entry.action
        cs = commutator_defects(action)
        assert cs.shape == (action.n, action.n, action.group.dim)
        alg = action.group.algebra
        all_zero = all(alg.from_vec(c).norm() < 1e-10
                       for c in cs.reshape(-1, alg.dim))
        assert all_zero == check_D(action).holds, entry.name


def test_generated_ideal_block_support():
    qg = S3_FULL.group
    zero = qg.algebra.zero().vec()
    assert len(generated_ideal(qg, [zero])) == 0
    assert len(generated_ideal(qg, [qg.unit_vec()])) == len(qg.algebra.blocks)
    one_block = qg.algebra.basis_element(2).vec()
    assert generated_ideal(qg, [one_block]).included_blocks == {2}


def test_counit_never_killed():
    for entry in standard_actions():
        env = envelope(entry.action)
        assert entry.action.group.counit_block() not in env.ideal


def test_saturation_fixed_points_and_kappa_stability():
    qg = S3_FULL.group
    sat, rounds = hopf_saturate(qg, BlockIdeal(frozenset()))
    assert sat.included_blocks == frozenset() and rounds == 0
    env = envelope(S3_FULL)
    kmap = kappa_block_map(qg)
    kappa_image = frozenset().union(*(kmap[k] for k in env.ideal.included_blocks))
    assert kappa_image == env.ideal.included_blocks
    # saturating the antipode image lands on the same ideal
    sat2, _ = hopf_saturate(qg, BlockIdeal(kappa_image))
    assert sat2.included_blocks == env.ideal.included_blocks


def test_saturation_of_everything_but_counit_is_legal():
    qg = S3_FULL.group
    k0 = qg.counit_block()
    full = frozenset(k for k in range(len(qg.algebra.blocks)) if k != k0)
    assert is_hopf_ideal(qg, full)
    with pytest.raises(SaturationReachedFullAlgebra):
        hopf_saturate(qg, BlockIdeal(full | {k0}))


def test_envelope_matches_classical_isometry_subgroup():
    cases = [
        (S3_FULL, 2),
        (permutation_action(four_cycle_broken_diagonal(), [(1, 2, 3, 0)]), 2),
        (permutation_action(four_point_blocks(), [(1, 0, 2, 3), (0, 1, 3, 2)]), 4),
    ]
    for action, expected in cases:
        env = envelope(action)
        isos = classical_isometries(action)
        assert env.dimension == len(isos) == expected


def test_envelope_quotient_verifies_and_is_isometric():
    for entry in standard_actions():
        env = envelope(entry.action)
        assert verify_quantum_group(env.quotient).passed(1e-9)
        assert verify_coaction(env.induced, check_faithful=False).passed(1e-9)
        assert check_D(env.induced).holds
        assert env.iterations == 0  # generated ideal already saturated


def test_envelope_idempotent():
    for action in (S3_FULL,
                   dihedral_projection_action(four_point_asymmetric(), 4)):
        env = envelope(action)
        env2 = envelope(env.induced)
        assert len(env2.ideal) == 0
        assert env2.dimension == env.dimension


def test_envelope_identity_when_already_isometric():
    action = dihedral_projection_action(four_point_blocks(), 4)
    env = envelope(action)
    assert len(env.ideal) == 0 and env.dimension == action.group.dim


def test_quantum_envelope_of_asymmetric_blocks():
    action = dihedral_projection_action(four_point_asymmetric(), 4)
    env = envelope(action)
    assert env.dimension < action.group.dim
    assert check_D(env.induced).holds
    # the quotient still swaps 0,1 (the a-side projection survives)
    from qiso.coaction import orbits
    assert frozenset({0, 1}) in orbits(env.induced)


def test_functorial_triangle_commutes():
    action = dihedral_projection_action(four_point_asymmetric(), 4)
    env = envelope(action)
    # compressing u entrywise equals the induced magic unitary exactly
    for i in range(action.n):
        for j in range(action.n):
            compressed = [action.u[i][j].data[k] for k in env.survivors]
            for a, b in zip(compressed, env.induced.u[i][j].data):
                assert np.abs(a - b).max() == 0


def test_universal_property_on_catalog():
    for entry in standard_actions():
        action = entry.action
        if len(action.group.algebra.blocks) > 12:
            continue
        env = envelope(action)
        report = verify_universal_property(action, env)
        assert report["violations"] == [], entry.name
        assert sorted(env.ideal.included_blocks) in report["isometric_quotients"]
        # the trivial quotient (counit block only) is always present
        k0 = action.group.counit_block()
        everything_else = sorted(k for k in range(len(action.group.algebra.blocks))
                                 if k != k0)
        assert everything_else in report["isometric_quotients"]


def test_classical_quotients_are_subgroups_of_isometry_group():
    action = S3_FULL
    env = envelope(action)
    report = verify_universal_property(action, env)
    group = action.classical_group
    isos = set(classical_isometries(action))
    for J in report["isometric_quotients"]:
        survivors = [group[k] for k in range(len(group)) if k not in set(J)]
        assert set(survivors) <= isos
        # surviving elements form a subgroup
        from qiso.quantum_group import compose, invert
        assert all(compose(a, b) in survivors for a in survivors for b in survivors)
        assert all(invert(a) in survivors for a in survivors)


def test_annihilator_convolution_closure():
    for entry in standard_actions():
        env = envelope(entry.action)
        assert annihilator_convolution_check(entry.action.group, env.ideal,
                                             samples=60, seed=2)
    qg = S3_FULL.group
    assert annihilator_convolution_check(qg, BlockIdeal(frozenset()), samples=10)
    everything = BlockIdeal(frozenset(range(len(qg.algebra.blocks))))
    assert annihilator_convolution_check(qg, everything, samples=10)


def test_defect_element_identities():
    """kappa sends the (x,y) defect to minus the (y,x) defect, and the
    counit kills every defect; both drive the envelope construction."""
    for action in (S3_FULL,
                   dihedral_projection_action(four_point_asymmetric(), 4)):
        qg = action.group
        defects = commutator_defects(action)
        for x in range(action.n):
            for y in range(action.n):
                c = qg.algebra.from_vec(defects[x, y])
                assert (apply_kappa(qg, c)
                        + qg.algebra.from_vec(defects[y, x])).norm() < 1e-9
                assert abs(counit(qg, c)) < 1e-10
