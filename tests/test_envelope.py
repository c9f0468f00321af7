"""Envelope pipeline: defects, ideals, the Hopf assertion, quotients, and
the saturation search and universal property of the oracles."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from qiso import algebra
from qiso.algebra import operator_norms
from qiso.catalog import (dihedral_projection_action, four_point_asymmetric,
                          four_point_blocks, four_cycle_broken_diagonal,
                          permutation_action, random_permutation_action,
                          standard_actions, three_point_isosceles)
from qiso.coaction import CoAction, verify_coaction
from qiso.envelope import (BlockIdeal, _delta_violations, envelope,
                           generated_ideal, kappa_block_map)
from qiso.errors import QisoError
from qiso.isometry import check_D, commutator_defects
from qiso.metric import random_metric_space, validate_metric
from qiso.quantum_group import verify_quantum_group
from qiso.reports import SearchConfig, build_instance, instance_descriptors

from oracles import (SaturationReachedFullAlgebra,
                     annihilator_convolution_check, apply_kappa, counit,
                     delta_violations_loops, hopf_saturate, is_hopf_ideal,
                     kappa_block_map_loops,
                     verify_universal_property)


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
        assert is_hopf_ideal(entry.action.group, env.ideal.included_blocks)


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


def test_envelope_submodule_is_not_shadowed_by_the_function():
    """`import qiso.envelope` gives the module, whose helpers are then
    attributes; the function is qiso.envelope.envelope."""
    import qiso.envelope as module
    assert module.generated_ideal is generated_ideal
    assert module.envelope is envelope


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


def _near_tie_space(delta):
    """A float space whose cross distances to point 3 exceed 2 by delta,
    near its tolerance."""
    far = 2 + delta
    return validate_metric([[0, 1, 2, far], [1, 0, 2, far],
                            [2, 2, 0, 1], [far, far, 1, 0]], tolerance=1e-6)


def test_generated_ideal_cuts_block_norms_as_check_D_does():
    """A 2x2 block whose defects' largest entry is below tol x max d but
    whose norm is above it: the cut by entries left it alive, so the cut
    ideal {1} was no Hopf ideal; the cut by block norms kills it."""
    action = dihedral_projection_action(_near_tie_space(2.2e-6), 3)
    qg, space = action.group, action.space
    bound = space.tol * float(space.max_distance)
    defects = commutator_defects(action)
    off, b = qg.algebra.offsets[2], qg.algebra.blocks[2]
    block = defects[:, :, off:off + b * b].reshape(-1, b, b)
    assert np.abs(block).max() < bound < np.linalg.norm(block, 2, axis=(1, 2)).max()
    ideal = generated_ideal(qg, defects, bound)
    assert ideal.included_blocks == {1, 2}
    assert is_hopf_ideal(qg, ideal.included_blocks, space.tol)
    env = envelope(action)
    assert env.ideal == ideal and env.dimension == 1
    assert check_D(env.induced).holds


def _entry_cut_then_saturation(action):
    """The search pipeline's ideal: the blocks where some defect
    coefficient exceeds tol x max d, saturated by the branching search,
    and the number of blocks the search added."""
    qg, space = action.group, action.space
    peak = np.abs(commutator_defects(action)).reshape(-1, qg.dim).max(axis=0)
    alg = qg.algebra
    entry_cut = BlockIdeal(frozenset(
        k for k, (off, b) in enumerate(zip(alg.offsets, alg.blocks))
        if peak[off:off + b * b].max() > space.tol * float(space.max_distance)))
    return hopf_saturate(qg, entry_cut, space.tol)


def test_envelope_across_near_ties_equals_entry_cut_then_saturation():
    """On each side of the near-tie spaces' two crossings, the norm cut at
    delta = tol x max d (about 2e-6) and the 2x2 blocks' entry cut at
    twice that, the envelope's ideal equals the search pipeline's: empty
    below the first, one ideal above it.  Between the crossings the entry
    cut alone was no Hopf ideal and the search had to add blocks."""
    for m in (3, 4, 5, 6, 8):
        base = dihedral_projection_action(_near_tie_space(0.0), m)
        ideals, added = [], []
        for f in (0.5, 0.98, 1.02, 1.5, 1.98, 2.02, 3.0):
            action = CoAction(base.group, _near_tie_space(2e-6 * f), base.coeffs)
            saturated, iterations = _entry_cut_then_saturation(action)
            assert envelope(action).ideal == saturated, (m, f)
            ideals.append(saturated.included_blocks)
            added.append(iterations)
        assert not ideals[0] and not ideals[1] and ideals[2], m
        assert len(set(ideals[2:])) == 1, m
        assert all(added[2:5]) and not any(added[5:]), (m, added)


def _reference_population():
    config = SearchConfig(catalog=None, random_actions=200, n_range=(3, 4),
                          seed=777)
    actions = [build_instance(desc) for desc in instance_descriptors(config)]
    actions += [random_permutation_action(random_metric_space(5, s), s)
                for s in range(200)]
    actions += [dihedral_projection_action(space, m)
                for space in (four_point_blocks(), four_point_asymmetric())
                for m in (5, 7)]
    return actions


def test_envelope_equals_entry_cut_then_saturation():
    """The envelope's ideal equals the one the search pipeline found: the
    blocks where some defect coefficient exceeds tol x max d, saturated by
    the branching search.  With an empty ideal the quotient's structure
    maps are the group's, bit for bit."""
    for action in _reference_population():
        qg, space = action.group, action.space
        env = envelope(action)
        assert env.ideal == _entry_cut_then_saturation(action)[0], action.name
        assert is_hopf_ideal(qg, env.ideal.included_blocks, space.tol), action.name
        if not env.ideal:
            for name in ("delta", "epsilon", "kappa"):
                mine, theirs = getattr(env.quotient, name), getattr(qg, name)
                assert mine.shape == theirs.shape and (
                    mine.view(np.uint8) == theirs.view(np.uint8)).all(), name


def test_screened_cut_equals_unscreened_cut(monkeypatch):
    """generated_ideal kills the blocks where some defect's spectral norm,
    taken by an SVD of every defect block, exceeds tol x max d: on the
    reference population (the c07 population and more) and on the
    near-tie spaces on each side of their crossings.  The screen leaves
    to the SVD only the blocks that neither their largest entry nor their
    Frobenius norm decides: none of the population's, some near ties."""
    decomposed = []

    def counted(mats):
        if mats.shape[-1] > 1:
            decomposed.append(len(mats))
        return operator_norms(mats)

    near_ties = []
    for m in (3, 4, 5, 6, 8):
        base = dihedral_projection_action(_near_tie_space(0.0), m)
        near_ties += [CoAction(base.group, _near_tie_space(2e-6 * f), base.coeffs)
                      for f in (0.5, 0.98, 1.02, 1.5, 1.98, 2.02, 3.0)]
    monkeypatch.setattr(algebra, "operator_norms", counted)
    for cases in (_reference_population(), near_ties):
        decomposed.clear()
        blocks = 0
        for action in cases:
            qg, space = action.group, action.space
            bound = space.tol * float(space.max_distance)
            defects = commutator_defects(action).reshape(-1, qg.dim)
            alg = qg.algebra
            unscreened = {
                k for k, (off, b) in enumerate(zip(alg.offsets, alg.blocks))
                if b > 1 and np.linalg.norm(defects[:, off:off + b * b].reshape(
                    -1, b, b), 2, axis=(1, 2)).max() > bound
                or b == 1 and np.abs(defects[:, off]).max() > bound}
            assert generated_ideal(qg, defects, bound).included_blocks == \
                unscreened, action.name
            blocks += len(defects) * sum(b > 1 for b in alg.blocks)
        assert blocks > 1000 and (sum(decomposed) > 0) == (cases is near_ties), \
            (sum(decomposed), blocks)


def test_hopf_block_maps_equal_the_loops():
    """kappa's block map, and the survivor pairs that Delta of every block
    subset reaches, equal the per-block-pair loops."""
    for qg in (S3_FULL.group,
               dihedral_projection_action(four_point_blocks(), 4).group,
               dihedral_projection_action(four_point_blocks(), 5).group):
        assert kappa_block_map(qg) == kappa_block_map_loops(qg)
        K = len(qg.algebra.blocks)
        for size in range(K + 1):
            for subset in itertools.combinations(range(K), size):
                J = frozenset(subset)
                assert _delta_violations(qg, J, 1e-9) == \
                    delta_violations_loops(qg, J, 1e-9), J


def test_envelope_raises_when_near_isometries_are_not_a_subgroup():
    """A float triangle with sides 1, 1 + e and 1 + 2e, e = 0.7e-6 at tol
    1e-6, under C(S3): the transpositions (01) and (02) move distances by
    e, within the bound, and their products, the 3-cycles, by 2e.  The
    cut is no Hopf ideal, and the (D)-isometric Hopf quotients have two
    maximal ones, C({e, (01)}) and C({e, (02)}), neither through the
    other, so the envelope raises.  The saturation search returned one of
    them, and the universal property fails for it."""
    e = 0.7e-6
    space = validate_metric([[0, 1, 1 + 2 * e], [1, 0, 1 + e],
                             [1 + 2 * e, 1 + e, 0]], tolerance=1e-6)
    action = permutation_action(space, [(1, 2, 0), (1, 0, 2)])
    with pytest.raises(QisoError,
                       match=r"Delta of the ideal reaches survivor pair"):
        envelope(action)
    group = action.classical_group
    identity, t01, t02 = (group.index(g) for g in ((0, 1, 2), (1, 0, 2), (2, 1, 0)))
    survivors = {frozenset({identity, t01}), frozenset({identity, t02})}
    searched, _ = _entry_cut_then_saturation(action)
    assert frozenset(range(6)) - searched.included_blocks in survivors
    found = verify_universal_property(action, SimpleNamespace(ideal=searched))
    killed = [frozenset(J) for J in found["isometric_quotients"]]
    assert {frozenset(range(6)) - J for J in killed
            if not any(K < J for K in killed)} == survivors
    assert found["violations"]


# The envelope of each catalog entry with entry 5 (flat, modulo the size)
# of delta, epsilon, kappa or u set to 1e300: its killed blocks, or None
# where the envelope raises QisoError (no counit block, or a cut that is
# no Hopf ideal).  A finite entry, however
# large, is cut as any other.
HUGE_ENTRY_CUTS = {
    "trivial-3": ((), None, None, None),
    "cyclic-3": ((), (), None, (1, 2)),
    "cyclic-4": ((), (), None, (1, 3)),
    "cyclic-5": ((), None, None, None),
    "s3-equilateral": ((), (), None, None),
    "s3-isosceles": (None, (1, 3, 4, 5), None, (1, 3, 4, 5)),
    "d4-square": ((), (), None, None),
    "z4-broken-diagonal": ((1, 3), (1, 3), (1, 3), (1, 3)),
    "klein-rectangle": ((), (), None, None),
    "dual-d4-blocks": ((), (), None, (4,)),
    "dual-d4-mixed": ((), (), None, (4,)),
    "dual-d4-asymmetric": (None, (1, 2, 4), None, (1, 2, 4)),
    "dual-d3-blocks": ((), (), None, None),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_envelope_rejects_non_finite_entries():
    """A NaN or an infinity in u or in a structure map raises QisoError
    before the cut, on all 13 catalog entries, where an SVD of a non-finite
    defect block raised LinAlgError (dual-D4 and dual-D3 with a NaN in u)
    or the cut went through; 1e300 is cut as before (HUGE_ENTRY_CUTS)."""
    entries = standard_actions()
    assert [entry.name for entry in entries] == list(HUGE_ENTRY_CUTS)
    for entry in entries:
        action, qg = entry.action, entry.action.group
        for f, field in enumerate(("delta", "epsilon", "kappa", "u")):
            for value in (np.nan, np.inf, -np.inf, 1e300):
                maps = {"delta": qg.delta.copy(), "epsilon": qg.epsilon.copy(),
                        "kappa": qg.kappa.copy(), "u": action.coeffs.copy()}
                maps[field].flat[5 % maps[field].size] = value
                corrupted = CoAction(
                    type(qg)(qg.algebra, maps["delta"], maps["epsilon"],
                             maps["kappa"], name=qg.name),
                    action.space, maps["u"], name=action.name)
                want = HUGE_ENTRY_CUTS[entry.name][f]
                if value != 1e300:
                    with pytest.raises(QisoError, match=f"^{field} has a non-finite"):
                        envelope(corrupted)
                elif want is None:
                    with pytest.raises(QisoError) as raised:
                        envelope(corrupted)
                    assert "non-finite" not in str(raised.value)
                else:
                    got = envelope(corrupted).ideal.included_blocks
                    assert tuple(sorted(got)) == want, (entry.name, field)
