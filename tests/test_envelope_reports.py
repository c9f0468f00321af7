"""The envelope's verification reports, read on demand: equal to verifying
the quotient and the induced action directly, computed once, skipped by
the search, and printed unchanged by `qiso envelope`."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qiso import envelope as envelope_module
from qiso import isometry, reports
from qiso.catalog import (catalog_action, dihedral_group_algebra,
                          dihedral_projection_action, four_point_blocks,
                          standard_actions)
from qiso.cli import main
from qiso.coaction import CoAction, verify_coaction
from qiso.envelope import (BlockIdeal, _hopf_violation, envelope,
                           quotient_quantum_group)
from qiso.errors import QisoError
from qiso.fileio import load_coaction, quantum_group_to_dict, save_coaction
from qiso.quantum_group import QuantumGroup, verify_quantum_group
from qiso.reports import SearchConfig, instance_descriptors


def equal_cross_blocks_actions(seed):
    """Two-projection actions of dual-D4 to dual-D7 on seeded 4-point
    block metrics with one cross distance, as the hopf benchmark draws
    its envelope actions: each satisfies (D)."""
    rng = random.Random(seed)
    actions = []
    for m in (4, 5, 6, 7):
        c = Fraction(rng.randint(2, 8), 2)
        a, b = (Fraction(rng.randint(1, 2 * int(2 * c)), 2) for _ in range(2))
        actions.append(dihedral_projection_action(four_point_blocks(a, b, c), m,
                                                  name=f"blocks-D{m}"))
    return actions


def corrupted(action, field, value, index):
    """The action with one entry of a structure map or of u replaced."""
    qg = action.group
    maps = {"delta": qg.delta.copy(), "kappa": qg.kappa.copy(),
            "epsilon": qg.epsilon.copy(), "coeffs": action.coeffs.copy()}
    target = maps[field]
    target[tuple(i % s for i, s in zip(index, target.shape))] = value
    group = QuantumGroup(qg.algebra, maps["delta"], maps["epsilon"],
                         maps["kappa"], name=qg.name)
    return CoAction(group, action.space, maps["coeffs"], name=action.name)


def counting(calls, name, verifier):
    """verifier, appending name to calls on each call."""
    def wrapped(*args, **kwargs):
        calls.append(name)
        return verifier(*args, **kwargs)
    return wrapped


def same_residuals(got, want):
    """== on the residual dicts, in order, with NaN matching NaN."""
    return list(got) == list(want) and all(
        got[k] == want[k] or (math.isnan(got[k]) and math.isnan(want[k]))
        for k in want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reports_equal_direct_verification():
    """`reports` holds what verifying the quotient and the induced action
    gives, on the catalog, on (D)-isometric two-projection actions of
    dual-D4 to dual-D7 and on catalog actions with a huge entry in a
    structure map or in u that the envelope still accepts (its eager steps
    raise on none of them, and neither does the read; it rejects a
    non-finite entry)."""
    actions = [entry.action for entry in standard_actions()]
    actions += equal_cross_blocks_actions(1) + equal_cross_blocks_actions(2)
    envelopes = [envelope(action) for action in actions]
    rng = np.random.default_rng(0)
    for action in actions[:13]:
        for field in ("delta", "kappa", "epsilon", "coeffs"):
            for value in (np.nan, np.inf, 1e300):
                try:
                    envelopes.append(envelope(corrupted(
                        action, field, value, rng.integers(0, 1 << 30, 3))))
                except QisoError:
                    continue
    nans = 0
    for env in envelopes:
        got = env.reports
        want = {"quantum_group": verify_quantum_group(env.quotient),
                "coaction": verify_coaction(env.induced, check_faithful=False)}
        assert list(got) == list(want)
        for key in want:
            assert same_residuals(got[key].residuals, want[key].residuals), key
        nans += any(math.isnan(r.worst()) for r in got.values())
    assert len(envelopes) > len(actions) and nans


def test_reports_are_verified_on_first_read_only(monkeypatch):
    """`envelope()` verifies nothing; the first read of `reports` calls
    each verifier once, and later reads return the same dict."""
    calls = []
    monkeypatch.setattr(envelope_module, "verify_quantum_group",
                        counting(calls, "quantum_group", verify_quantum_group))
    monkeypatch.setattr(envelope_module, "verify_coaction",
                        counting(calls, "coaction", verify_coaction))
    for entry in standard_actions():
        del calls[:]
        env = envelope(entry.action)
        assert calls == []
        first = env.reports
        assert sorted(calls) == ["coaction", "quantum_group"]
        assert env.reports is first and len(calls) == 2


def test_verify_instance_verifies_each_instance_once(monkeypatch):
    """`verify_instance` verifies the quantum group and the coaction of an
    instance once each, wherever the verifiers are called from: the
    envelope it builds reads no report."""
    calls = []
    for module in (reports, envelope_module):
        monkeypatch.setattr(module, "verify_quantum_group",
                            counting(calls, "quantum_group", verify_quantum_group))
        monkeypatch.setattr(module, "verify_coaction",
                            counting(calls, "coaction", verify_coaction))
    config = SearchConfig(random_actions=3, seed=4)
    descriptors = instance_descriptors(config)
    assert len(descriptors) > 13
    for desc in descriptors:
        del calls[:]
        reports.verify_instance(desc)
        assert sorted(calls) == ["coaction", "quantum_group"], desc


def test_verify_instance_decides_D_once_per_uncut_instance(monkeypatch):
    """`verify_instance` reads the D flag off the envelope's cut: one
    `defect_blocks` call on cyclic-4, which (D) leaves uncut, and two on
    z4-broken-diagonal, whose cut is checked again on the induced action.
    The flags equal check_D's verdict."""
    calls = []
    real = isometry.defect_blocks
    counted = counting(calls, "defect_blocks", real)
    monkeypatch.setattr(isometry, "defect_blocks", counted)
    monkeypatch.setattr(envelope_module, "defect_blocks", counted)
    for name, want in (("cyclic-4", 1), ("z4-broken-diagonal", 2)):
        del calls[:]
        rec = reports.verify_instance({"source": "catalog", "name": name})
        assert len(calls) == want, name
        assert rec["conditions"]["D"] == \
            isometry.check_D(catalog_action(name)).holds == (want == 1)


def test_cli_envelope_prints_the_eager_verification(tmp_path, capsys):
    """`qiso envelope` prints, byte for byte, the document with the
    quotient and the induced action verified when the envelope is built."""
    for entry in standard_actions():
        path = tmp_path / f"{entry.name}.json"
        save_coaction(str(path), entry.action)
        assert main(["envelope", str(path)]) == 0
        printed = capsys.readouterr().out
        action = load_coaction(str(path))
        env = envelope(action)
        verification = {
            "quantum_group": verify_quantum_group(env.quotient).worst(),
            "coaction": verify_coaction(env.induced, check_faithful=False).worst()}
        assert printed == json.dumps({
            "original_dimension": action.group.dim,
            "envelope_dimension": env.dimension,
            "killed_blocks": sorted(env.ideal.included_blocks),
            "surviving_blocks": env.survivors,
            "verification": verification,
            "quotient": quantum_group_to_dict(env.quotient)},
            indent=1, default=str) + "\n", entry.name


def test_quotient_by_the_empty_ideal_keeps_the_group():
    """An envelope that kills no block keeps the group dual's group, and
    its report is a certificate's: cyclic-3, dual-d4-blocks and the hopf
    benchmark's blocks-D_m actions.  A nonempty ideal drops the group:
    the quotients of s3-isosceles, and of dual-d4-asymmetric with blocks
    1, 2 and 4 killed, are all 1x1 blocks and take the C(G) certificate,
    and dual-D6 by the Hopf ideal of blocks 2, 3 and 4, which is C*(D3),
    takes the certificate of the group its Delta defines.  Every report
    passes."""
    kept = [catalog_action("cyclic-3"), catalog_action("dual-d4-blocks")] + \
        equal_cross_blocks_actions(11)
    for action in kept:
        env = envelope(action)
        assert not env.ideal, action.name
        assert (env.quotient.group_embedding is None) == \
            (action.group.group_embedding is None), action.name
        report = env.reports["quantum_group"]
        assert "group_table" in report.residuals, action.name
        assert "coassociativity" not in report.residuals, action.name
        assert report.passed(1e-10), (action.name, report.failing(1e-10))
    dropped = {"s3-isosceles": None, "dual-d4-asymmetric": {1, 2, 4}}
    for name, killed in dropped.items():
        env = envelope(catalog_action(name))
        assert env.ideal, name
        if killed is not None:
            assert set(env.ideal.included_blocks) == killed
        assert env.quotient.group_table is None and env.quotient.group_embedding is None
        assert max(env.quotient.algebra.blocks) == 1, name
        report = env.reports["quantum_group"]
        assert "group_table" in report.residuals, name
        assert report.passed(1e-10), (name, report.failing(1e-10))
    ideal = BlockIdeal(frozenset({2, 3, 4}))
    dual_d6 = dihedral_group_algebra(6)
    assert _hopf_violation(dual_d6, ideal.included_blocks, 1e-9) is None
    quotient, survivors = quotient_quantum_group(dual_d6, ideal)
    assert quotient.group_embedding is None and sorted(quotient.algebra.blocks) == [1, 1, 2]
    report = verify_quantum_group(quotient)
    assert "delta_grouplike" in report.residuals, report.residuals
    assert "coassociativity" not in report.residuals, report.residuals
    assert report.passed(1e-10) and report.worst() <= 1e-13, report.residuals
