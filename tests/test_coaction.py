"""Coaction verification, the two state actions, quantum indicators, orbits."""

import random

import numpy as np
import pytest

from qiso import catalog
from qiso.algebra import element_norms, random_state
from qiso.catalog import (CATALOG, catalog_action, cycle_metric,
                          dihedral_group_algebra,
                          dihedral_projection_action, equilateral_metric,
                          four_point_blocks, permutation_action,
                          random_permutation_action, random_quantum_action,
                          standard_actions,
                          three_point_isosceles, trivial_action)
from qiso.coaction import (act_on_point, generation_deficit, orbits,
                           verify_coaction)
from qiso.envelope import envelope
from qiso.errors import ShapeMismatch
from qiso.fileio import (coaction_from_dict, coaction_to_dict, format_complex,
                         load_coaction, parse_complex, save_coaction)
from qiso.isometry import check_D, check_D_state, commutator_defects
from qiso.metric import random_metric_space
from qiso.quantum_group import close_generators, function_algebra_of_group
from qiso.reports import SearchConfig, build_instance, instance_descriptors
from qiso.coaction import CoAction

from oracles import (a_element, act_on_function, check_D_by_entry,
                     check_D_state_by_entry, classical_group,
                     commutator_defects_by_entry, convolve, counit_state,
                     dihedral_projection_action_by_entry, entry_tensor,
                     generation_deficit_by_entry, group_element,
                     induced_action_by_entry, permutation_action_by_entry,
                     state_value, verify_coaction_by_entry)


def test_classical_action_verifies_and_is_faithful():
    act = permutation_action(cycle_metric(4), [(1, 2, 3, 0)])
    rep = verify_coaction(act)
    assert rep.passed(1e-10)
    assert rep.residuals["faithfulness_deficit"] == 0


def test_trivial_action_faithful_only_for_scalars():
    act = trivial_action(three_point_isosceles())
    rep = verify_coaction(act)
    assert rep.passed(1e-10)  # A = C, so the trivial action is faithful
    # trivial magic unitary over a bigger algebra: entries generate only C1
    qg = function_algebra_of_group(close_generators(2, [(1, 0)]))
    unit = qg.algebra.unit()
    zero = qg.algebra.zero()
    sp = three_point_isosceles()
    u = tuple(tuple(unit if i == j else zero for j in range(3)) for i in range(3))
    act2 = CoAction(qg, sp, entry_tensor(u))
    rep2 = verify_coaction(act2)
    assert rep2.residuals["faithfulness_deficit"] == 1
    del rep2.residuals["faithfulness_deficit"]
    assert rep2.passed(1e-10)  # all other axioms still hold


def _diagonal_blocks(qg, space, *blocks):
    """The magic unitary over qg on space with the given square blocks of
    entries down its diagonal and zero elsewhere."""
    zero = qg.algebra.zero()
    u = [[zero] * space.n for _ in range(space.n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, e in enumerate(row):
                u[at + i][at + j] = e
        at += len(block)
    return CoAction(qg, space, entry_tensor(u))


def _tensor_population():
    """The catalog entries, random quantum actions of seeds 0-19 and random
    permutation actions on 4 points of seeds 0-19."""
    return ([catalog_action(name) for name in CATALOG]
            + [random_quantum_action(seed) for seed in range(20)]
            + [random_permutation_action(random_metric_space(4, seed), seed)
               for seed in range(20)])


def _same_tensor(a, b) -> bool:
    return a.dtype == b.dtype and np.array_equal(a, b)


def test_coaction_tensor_equals_entry_builders(monkeypatch, tmp_path):
    """The tensors the catalog and the envelope build as arrays equal those
    built one AlgElement entry at a time, on the 53-action population, its
    envelopes' induced actions and its save/load round trips; loading
    through a non-standard basis B agrees within 1e-12 with B @ v per entry
    (one product with B may round differently)."""
    actions = _tensor_population()
    monkeypatch.setattr(catalog, "permutation_action", permutation_action_by_entry)
    monkeypatch.setattr(catalog, "dihedral_projection_action",
                        dihedral_projection_action_by_entry)
    references = _tensor_population()
    monkeypatch.undo()
    assert len(actions) == 53
    path = str(tmp_path / "act.json")
    for action, reference in zip(actions, references):
        assert _same_tensor(action.coeffs, reference.coeffs), action.name
        env = envelope(action)
        assert _same_tensor(env.induced.coeffs, induced_action_by_entry(
            action, env.quotient, env.survivors).coeffs), action.name
        save_coaction(path, action)
        assert _same_tensor(load_coaction(path).coeffs, action.coeffs), action.name

    action = catalog_action("dual-d4-blocks")
    qg = action.group
    rng = np.random.default_rng(25)
    B = np.eye(qg.dim) + 0.3 * (rng.normal(size=(qg.dim, qg.dim))
                                + 1j * rng.normal(size=(qg.dim, qg.dim)))
    B_inv = np.linalg.inv(B)
    doc = coaction_to_dict(action)
    group_doc, space_doc = doc["group"], doc["space"]
    group_doc["basis"] = [[[[format_complex(v) for v in row] for row in block]
                           for block in qg.algebra.from_vec(column).data]
                          for column in B.T]
    group_doc["delta"] = [[format_complex(v) for v in row] for row in np.einsum(
        "bc,gd,cde,ea->bga", B_inv, B_inv, qg.delta, B).reshape(-1, qg.dim)]
    group_doc["epsilon"] = [format_complex(v) for v in qg.epsilon @ B]
    group_doc["kappa"] = [[format_complex(v) for v in row]
                          for row in B_inv @ qg.kappa @ B]
    doc.update(group=group_doc, space=space_doc,
               u=[[[format_complex(v) for v in vec] for vec in row]
                  for row in action.coeffs @ B_inv.T])
    loaded = coaction_from_dict(doc)
    by_entry = np.array([[B @ np.array([parse_complex(v) for v in vec])
                          for vec in row] for row in doc["u"]])
    assert np.abs(loaded.coeffs - by_entry).max() < 1e-12
    assert verify_coaction(loaded).passed(1e-9)


def test_coaction_constructor_checks_shape_and_freezes_tensor():
    """A tensor of the wrong n or the wrong dim raises ShapeMismatch; the
    stored tensor is read-only, and u is its view entry by entry.  A
    writable input, or a read-only one of another dtype, is copied; a
    read-only complex tensor, such as another action's, is shared."""
    action = catalog_action("dual-d4-blocks")
    qg, space = action.group, action.space
    for shape in ((3, 3, qg.dim), (4, 3, qg.dim), (4, 4, qg.dim - 1), (4, 4)):
        with pytest.raises(ShapeMismatch):
            CoAction(qg, space, np.zeros(shape))
    assert not action.coeffs.flags.writeable
    with pytest.raises(ValueError):
        action.coeffs[0, 0, 0] = 1.0
    source = np.array(action.coeffs)
    assert CoAction(qg, space, source).coeffs is not source
    assert source.flags.writeable
    assert CoAction(qg, space, action.coeffs).coeffs is action.coeffs
    real = np.array(action.coeffs.real)
    real.flags.writeable = False
    copied = CoAction(qg, space, real).coeffs
    assert copied is not real and copied.dtype == complex
    assert np.array_equal(copied, real)
    for i in range(action.n):
        for j in range(action.n):
            assert _same_tensor(action.u[i][j].vec(), action.coeffs[i, j])


def test_exact_blocks_reproduce_the_stacks():
    """Every catalog entry's exact form (R, q) is its block stacks exactly:
    R holds Python ints in the real form [[Re, -Im], [Im, Re]] of each u_ij
    on the block, and R / q rounds back to every stored float.  Every block
    has one except the 2x2 block of dual-d3-blocks, whose entries are not
    small rationals."""
    missing = []
    for name in CATALOG:
        action = catalog_action(name)
        for k, stack in enumerate(action.stacks):
            form = action.exact_block(k)
            if form is None:
                missing.append((name, stack.shape[-1]))
                continue
            R, q = form
            b = stack.shape[-1]
            assert R.shape == stack.shape[:2] + (2 * b, 2 * b), name
            assert all(type(v) is int for v in R.ravel()), name
            assert (R[..., :b, :b] == R[..., b:, b:]).all(), name
            assert (R[..., :b, b:] == -R[..., b:, :b]).all(), name
            values = (R / q).astype(float)
            assert np.array_equal(values[..., :b, :b], stack.real), name
            assert np.array_equal(values[..., b:, :b], stack.imag), name
    assert missing == [("dual-d3-blocks", 2)]


def test_kappa_u_is_one_tensor_that_both_of_its_readers_share():
    """kappa(u) is formed once per action, read-only: the defects of (D)
    and the exact forms of kappa(u) read that tensor and not the group's
    kappa.  On dual-d4-blocks, whose 2x2 block has an exact form, both
    are unchanged after the group is swapped for a copy whose kappa is
    NaN once the tensor has been read, and equal those of a fresh action."""
    import dataclasses
    fresh = catalog_action("dual-d4-blocks")
    blocks = range(len(fresh.stacks))
    want = [fresh.exact_block(k, antipode=True) for k in blocks]
    assert any(form is not None for form in want)
    action = catalog_action("dual-d4-blocks")
    defects = commutator_defects(action)
    assert action.kappa_coeffs is action.kappa_coeffs
    assert not action.kappa_coeffs.flags.writeable
    action.group = dataclasses.replace(
        action.group, kappa=np.full_like(action.group.kappa, np.nan))
    assert np.array_equal(commutator_defects(action), defects)
    assert np.array_equal(defects, commutator_defects(fresh))
    for k, form in zip(blocks, want):
        got = action.exact_block(k, antipode=True)
        assert (got is None) == (form is None), k
        if form is not None:
            assert got[1] == form[1] and (got[0] == form[0]).all(), k


def test_generation_deficit_matches_entry_reference():
    """Span saturation on coefficient vectors gives the deficits of the
    per-entry Gram-Schmidt: on the c07 population (catalog + 200 random
    actions) and 20 random quantum actions, and on three non-faithful
    actions of known deficit."""
    config = SearchConfig(catalog=None, random_actions=200, n_range=(3, 4),
                          seed=777)
    actions = [build_instance(desc) for desc in instance_descriptors(config)]
    actions += [random_quantum_action(seed) for seed in range(20)]
    z2 = function_algebra_of_group(close_generators(2, [(1, 0)]))
    d4 = dihedral_group_algebra(4)
    unit = d4.algebra.unit()
    p = 0.5 * (unit + group_element(d4, tuple((-j) % 4 for j in range(4))))
    fixed = [[z2.algebra.unit()]]
    known = [
        # the trivial magic unitary over C(Z2) on 3 points: only C1
        (_diagonal_blocks(z2, three_point_isosceles(), fixed, fixed, fixed), 1),
        # the trivial magic unitary over dual-D4 (dim 8) on 4 points
        (_diagonal_blocks(d4, four_point_blocks(), *[[[unit]]] * 4), 7),
        # one projection p swapping points 0 and 1: span{1, p}
        (_diagonal_blocks(d4, four_point_blocks(),
                          [[p, unit - p], [unit - p, p]], [[unit]], [[unit]]), 6)]
    for action, deficit in known:
        assert verify_coaction(action, check_faithful=False).passed(1e-10)
        assert generation_deficit(action) == deficit
        assert generation_deficit_by_entry(action) == deficit
    for action in actions:
        assert generation_deficit(action) == \
            generation_deficit_by_entry(action), action.name


def test_nan_entry_makes_the_faithfulness_deficit_nan():
    """One NaN coefficient of u[0][0] makes the faithfulness deficit NaN, so
    the report fails, instead of the SVD raising LinAlgError."""
    action = {e.name: e.action for e in standard_actions()}["dual-d4-blocks"]
    coeffs = action.coeffs.copy()
    coeffs[0, 0, 0] = np.nan
    broken = CoAction(action.group, action.space, coeffs)
    assert np.isnan(generation_deficit(broken))
    report = verify_coaction(broken)
    assert np.isnan(report.residuals["faithfulness_deficit"])
    assert not report.passed(1e-10)
    assert "faithfulness_deficit" in report.failing(1e-10)


def test_act_on_point_counit_gives_dirac():
    act = permutation_action(cycle_metric(3), [(1, 2, 0)])
    eps = counit_state(act.group)
    for x in range(3):
        mass = act_on_point(act, x, eps).mass
        assert mass[x] == 1.0 and sum(mass) == 1.0


def test_act_on_point_classical_point_evaluation():
    act = permutation_action(cycle_metric(3), [(1, 2, 0)])
    group = classical_group(act)
    from qiso.algebra import extreme_state
    for gi, g in enumerate(group):
        psi = extreme_state(act.group.algebra, gi, np.array([1.0]))
        for x in range(3):
            mass = act_on_point(act, x, psi).mass
            target = g.index(x)  # x <| delta_g lands where g sends j to x
            assert mass[target] == 1.0


def test_act_on_point_convolution_compatibility():
    act = dihedral_projection_action(four_point_blocks(), 4)
    qg = act.group
    for seeds in ((1, 2), (3, 4)):
        phi = random_state(qg.algebra, seeds[0])
        psi = random_state(qg.algebra, seeds[1])
        conv = convolve(qg, phi, psi)
        for x in range(act.n):
            # x <| (phi psi): act twice, averaging over the first action
            step = act_on_point(act, x, phi).mass
            direct = act_on_point(act, x, conv).mass
            twice = [sum(step[k] * act_on_point(act, k, psi).mass[j]
                         for k in range(act.n)) for j in range(act.n)]
            assert np.abs(np.array(direct) - np.array(twice)).max() < 1e-9


def test_act_on_function_pairing_identity():
    act = dihedral_projection_action(four_point_blocks(), 3)
    rng = np.random.default_rng(0)
    for k in range(5):
        psi = random_state(act.group.algebra, 17 * k)
        f = tuple(rng.uniform(-1, 1, act.n))
        lhs = act_on_function(act, psi, f)
        for x in range(act.n):
            rhs = sum(m * v for m, v in zip(act_on_point(act, x, psi).mass, f))
            assert abs(lhs[x] - rhs) < 1e-9
        eps_f = act_on_function(act, counit_state(act.group), f)
        assert np.abs(np.array(eps_f) - np.array(f)).max() < 1e-12
        const = act_on_function(act, psi, (2.0,) * act.n)
        assert np.abs(np.array(const) - 2.0).max() < 1e-9


def test_a_element_properties():
    act = dihedral_projection_action(four_point_blocks(), 4)
    unit = act.group.algebra.unit()
    rng = np.random.default_rng(1)
    for x in range(act.n):
        assert (a_element(act, x, range(act.n)) - unit).norm() < 1e-12
        assert a_element(act, x, ()).norm() == 0
        for _ in range(5):
            S = [j for j in range(act.n) if rng.random() < 0.5]
            a = a_element(act, x, S)
            assert ((a * a) - a).norm() < 1e-10  # projection
            rest = a_element(act, x, [j for j in range(act.n) if j not in S])
            assert (a + rest - unit).norm() < 1e-12  # additivity over a partition


def test_catalog_action_names_equal_keys():
    for key, build in CATALOG.items():
        assert build(key).name == key


def test_orbits():
    assert orbits(trivial_action(three_point_isosceles())) == \
        [frozenset({0}), frozenset({1}), frozenset({2})]
    act = permutation_action(cycle_metric(4), [(1, 2, 3, 0)])
    assert orbits(act) == [frozenset({0, 1, 2, 3})]
    swap_two = permutation_action(three_point_isosceles(), [(1, 0, 2)])
    assert sorted(orbits(swap_two), key=len) == [frozenset({2}), frozenset({0, 1})]
    quantum = dihedral_projection_action(four_point_blocks(), 4)
    assert sorted(orbits(quantum), key=min) == [frozenset({0, 1}), frozenset({2, 3})]


def test_row_projections_in_a_row_are_orthogonal():
    for act in (permutation_action(equilateral_metric(3), [(1, 2, 0), (1, 0, 2)]),
                dihedral_projection_action(four_point_blocks(), 4)):
        for i in range(act.n):
            for j in range(act.n):
                for k in range(act.n):
                    if j != k:
                        assert (act.u[i][j] * act.u[i][k]).norm() < 1e-10


def _seeded_faults(bases, count, seed):
    """`count` actions, each one base action with one coefficient of one
    entry u_ij moved by 1e-3, 0.1 or 1, times 1, -1 or i."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        action = rng.choice(bases)
        i, j = rng.randrange(action.n), rng.randrange(action.n)
        vec = action.u[i][j].vec()
        vec[rng.randrange(len(vec))] += rng.choice((1e-3, 0.1, 1.0)) * \
            rng.choice((1, -1, 1j))
        u = [list(row) for row in action.u]
        u[i][j] = action.group.algebra.from_vec(vec)
        out.append(CoAction(action.group, action.space, entry_tensor(u)))
    return out


def _row_copied(action):
    """The action with row 0 of u replaced by row 1: the rows still sum
    to 1, the columns do not."""
    u = [list(row) for row in action.u]
    u[0] = u[1]
    return CoAction(action.group, action.space, entry_tensor(u))


def test_tensor_forms_match_entry_references():
    """(D) and the coaction axioms computed from the coefficient tensor
    equal the entry-by-entry references: on the catalog, 20 random
    quantum actions, 200 seeded faults in u and each base action with a
    row of u copied over another, the same residual keys in order within
    1e-12, defects and their norms within 1e-12, and the same verdicts
    for check_D and check_D_state."""
    bases = [e.action for e in standard_actions()] + \
        [random_quantum_action(seed) for seed in range(20)]
    seen = {"check_D": set(), "check_D_state": set()}
    for k, action in enumerate(bases + _seeded_faults(bases, 200, 1212)
                               + [_row_copied(a) for a in bases]):
        alg = action.group.algebra
        tensor = verify_coaction(action).residuals
        by_entry = verify_coaction_by_entry(action).residuals
        assert list(tensor) == list(by_entry), k
        for key, value in by_entry.items():
            assert abs(tensor[key] - value) <= 1e-12, (k, key)
        defects = commutator_defects(action)
        norms = element_norms(alg, defects)
        psi = random_state(alg, k)
        at_pair = {"check_D": {}, "check_D_state": {}}
        for (x, y), c in commutator_defects_by_entry(action).items():
            assert np.abs(defects[x, y] - c.vec()).max() <= 1e-12, (k, x, y)
            assert abs(norms[x, y] - c.norm()) <= 1e-12, (k, x, y)
            at_pair["check_D"][x, y] = c.norm()
            at_pair["check_D_state"][x, y] = abs(state_value(psi, c))
        for check, reference, args in (
                (check_D, check_D_by_entry, ()),
                (check_D_state, check_D_state_by_entry, (psi,))):
            name = check.__name__
            got, want = check(action, *args), reference(action, *args)
            assert got.holds == want.holds, (k, name)
            seen[name].add(got.holds)
            if got.holds:
                assert abs(got.certificate["max_residual"]
                           - want.certificate["max_residual"]) <= 1e-12, \
                    (k, name)
            else:
                # ties between pairs may break either way in the last bit,
                # so the witness pair is checked by its own residual
                assert abs(got.witness["residual"]
                           - want.witness["residual"]) <= 1e-12, (k, name)
                assert abs(at_pair[name][got.witness["pair"]]
                           - got.witness["residual"]) <= 1e-12, (k, name)
    assert seen["check_D"] == seen["check_D_state"] == {True, False}


def test_defect_witness_is_first_pair_within_tie_window():
    """A failing check_D or check_D_state reports the first pair in
    x-major order whose entry-by-entry residual is within a relative
    1e-12 of the largest.  The (D) defects of (x, y) and (y, x) have equal
    norms, so a witness taken as the largest float residual alone flips
    between the two with the last bit.  On the catalog, 20 random quantum
    actions and 200 seeded faults."""
    bases = [e.action for e in standard_actions()] + \
        [random_quantum_action(seed) for seed in range(20)]
    failing = {"check_D": 0, "check_D_state": 0}
    for k, action in enumerate(bases + _seeded_faults(bases, 200, 1212)):
        psi = random_state(action.group.algebra, k)
        defects = sorted(commutator_defects_by_entry(action).items())
        for check, args, residual in (
                (check_D, (), lambda c: c.norm()),
                (check_D_state, (psi,), lambda c: abs(state_value(psi, c)))):
            v = check(action, *args)
            if v.holds:
                continue
            failing[check.__name__] += 1
            worst = max(residual(c) for _, c in defects)
            first = next(xy for xy, c in defects
                         if residual(c) >= worst * (1 - 1e-12))
            assert v.witness["pair"] == first, (k, check.__name__)
    assert all(failing.values())
