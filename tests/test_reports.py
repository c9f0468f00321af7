"""Run determinism, emission round trips, no-silent-downgrade markers."""

import json
from fractions import Fraction as F

import numpy as np
import pytest

from qiso.reports import (CONDITION_ORDER, SearchConfig, emit_report,
                          implication_tallies, instance_descriptors,
                          run_catalog_verification)

from oracles import classical_group


SMALL = SearchConfig(catalog=["trivial-3", "s3-isosceles", "cyclic-3"])


def test_catalog_run_shape():
    cfg = SearchConfig(catalog=["trivial-3", "s3-isosceles", "cyclic-3",
                                "dual-d4-asymmetric"])
    rep = run_catalog_verification(cfg)
    assert len(rep["instances"]) == 4
    assert rep["implication_matrix"]["violations"] == []
    names = {r["name"] for r in rep["instances"]}
    assert "dual-d4-asymmetric" in names
    quantum = next(r for r in rep["instances"] if r["name"] == "dual-d4-asymmetric")
    assert quantum["conditions"]["D"] is False
    assert quantum["envelope"]["dimension"] == 2
    for r in rep["instances"]:
        assert r["state_consistency"]
        assert r["quantum_group_residual"] < 1e-9
        # every record decides the whole tower, so no flag is undecided
        assert set(r["conditions"]) == set(CONDITION_ORDER), r["conditions"]


def test_build_instance_builds_only_the_named_entry(monkeypatch):
    """A catalog descriptor builds its own entry and no other: the same
    space, structure maps and magic unitary as in standard_actions(), with
    one call to a catalog constructor."""
    from qiso import catalog
    from qiso.reports import build_instance
    reference = {e.name: e.action for e in catalog.standard_actions()}
    calls = []
    for ctor in ("permutation_action", "dihedral_projection_action"):
        real = getattr(catalog, ctor)
        monkeypatch.setattr(catalog, ctor, lambda *a, _real=real, **k:
                            calls.append(1) or _real(*a, **k))
    for name, want in reference.items():
        calls.clear()
        got = build_instance({"source": "catalog", "name": name})
        assert len(calls) == 1, name
        assert got.space.dist == want.space.dist, name
        assert np.array_equal(got.group.delta, want.group.delta), name
        assert all((a.vec() == b.vec()).all()
                   for row_a, row_b in zip(got.u, want.u)
                   for a, b in zip(row_a, row_b)), name
    with pytest.raises(KeyError):
        build_instance({"source": "catalog", "name": "no-such-entry"})


def test_determinism():
    cfg = SearchConfig(catalog=["cyclic-3"],
                       random_actions=4, seed=11)
    a = run_catalog_verification(cfg)
    b = run_catalog_verification(cfg)
    a["timing"] = b["timing"] = {}
    for r in a["instances"] + b["instances"]:
        r.pop("seconds", None)
    assert a == b


def test_descriptor_mix():
    cfg = SearchConfig(catalog=[], random_actions=6, seed=2, n_range=(3, 4))
    descs = instance_descriptors(cfg)
    assert len(descs) == 6
    kinds = {d["source"] for d in descs}
    assert kinds == {"random-perm", "random-quantum"}


def test_emit_json_roundtrip():
    rep = run_catalog_verification(SMALL)
    text = emit_report(rep, "json")
    assert emit_report(json.loads(text), "json") == text
    assert list(json.loads(text)) == ["config", "instances",
                                      "implication_matrix", "dossiers", "timing"]


def test_emit_csv_row_count():
    rep = run_catalog_verification(SMALL)
    text = emit_report(rep, "csv")
    rows = [r for r in text.strip().splitlines() if r]
    assert len(rows) == 1 + len(rep["instances"])


def test_emit_markdown_has_matrix():
    rep = run_catalog_verification(SMALL)
    text = emit_report(rep, "markdown")
    assert "| condition | held | failed |" in text
    assert "tower violations: 0" in text


def test_empty_report_emits_valid_documents():
    rep = run_catalog_verification(SearchConfig(catalog=[]))
    assert json.loads(emit_report(rep, "json"))["instances"] == []
    assert emit_report(rep, "csv").strip() != ""
    assert emit_report(rep, "markdown").startswith("# catalog run")


def test_implication_tallies_flag_violations():
    """A record that holds (D) and fails main, and holds the rest, breaks
    one implication of the tower, (D) => main."""
    flags = dict.fromkeys(CONDITION_ORDER, True)
    fake = [{"name": "x", "conditions": dict(flags, main=False)}]
    t = implication_tallies(fake)
    assert len(t["violations"]) == 1
    assert t["violations"][0]["stronger"] == "D"
    assert t["violations"][0]["weaker"] == "main"
    assert t["patterns"] == {"TFTTTT": 1}
    assert t["failed"] == dict(dict.fromkeys(CONDITION_ORDER, 0), main=1)


def test_catalog_run_dossiers_each_tower_violation(monkeypatch):
    """With universal Lip_1 patched to fail on cyclic-3 alone, a catalog
    run over cyclic-3 and cyclic-4 writes one dossier, for cyclic-3: its
    violated (stronger, weaker) pairs are those the tallies list for it,
    and its coaction, read back from the emitted JSON and decided again
    under the same patch, gives its conditions.  Unpatched, the run
    writes none."""
    from qiso import reports
    from qiso.fileio import coaction_from_dict
    from qiso.isometry import IsometryVerdict, defect_blocks
    cfg = SearchConfig(catalog=["cyclic-3", "cyclic-4"])
    assert run_catalog_verification(cfg)["dossiers"] == []
    real = reports.check_lip_p_universal

    def patched(action, p):
        if action.name == "cyclic-3" and p == 1:
            return IsometryVerdict("Lip_1", False, witness={})
        return real(action, p)

    monkeypatch.setattr(reports, "check_lip_p_universal", patched)
    doc = json.loads(emit_report(run_catalog_verification(cfg)))
    dossier, = doc["dossiers"]
    assert dossier["descriptor"] == {"source": "catalog", "name": "cyclic-3"}
    assert dossier["name"] == "cyclic-3"
    assert dossier["conditions"] == doc["instances"][0]["conditions"]
    assert dossier["violations"] == [
        {"stronger": v["stronger"], "weaker": v["weaker"]}
        for v in doc["implication_matrix"]["violations"]]
    assert [v["instance"] for v in doc["implication_matrix"]["violations"]] \
        == ["cyclic-3"] * 5
    action = coaction_from_dict(dossier["coaction"])
    assert reports._condition_flags(
        reports._universal_verdicts(action),
        defect_blocks(action).blocks) == dossier["conditions"]


def test_a_replay_that_disagrees_breaks_state_consistency(monkeypatch):
    """Each universal Lip_p verdict is replayed on its own state by the
    per-state check.  Unpatched, every replay agrees on dual-d4-blocks,
    whose holds are decided on its 2x2 block, and on dual-d4-asymmetric,
    where every Lip_p fails.  With universal Lip_2 patched to the opposite
    verdict on the same state (a failure witnessed by the hold's tightest
    state, at a pair where it holds as it holds at every pair, or a hold
    certified by the failure's witness state), that replay disagrees:
    state_consistency is false, and Lip_2 alone is named in
    replay_disagreements."""
    from qiso import reports
    from qiso.isometry import IsometryVerdict
    real = reports.check_lip_p_universal

    def flipped(action, p):
        verdict = real(action, p)
        if p != 2:
            return verdict
        if verdict.holds:
            return IsometryVerdict(verdict.condition, False, witness={
                "pair": (0, 1), "state": verdict.certificate["state"]})
        return IsometryVerdict(verdict.condition, True, certificate={
            "state": verdict.witness["state"]})

    for name in ("dual-d4-blocks", "dual-d4-asymmetric"):
        desc = {"source": "catalog", "name": name}
        rec = reports.verify_instance(desc)
        assert rec["state_consistency"] and rec["replay_disagreements"] == []
        with monkeypatch.context() as patch:
            patch.setattr(reports, "check_lip_p_universal", flipped)
            rec = reports.verify_instance(desc)
        assert not rec["state_consistency"], name
        assert rec["replay_disagreements"] == ["Lip_2"], name


def test_a_failure_replays_at_its_own_witness_pair(monkeypatch):
    """A failing universal verdict claims its witness pair, and its replay
    decides that pair alone.  Universal Lip_1 on dual-d4-asymmetric fails
    on a character at (0, 2), where its witness state gives W_1 = 3 > 2;
    moved to a pair where W_1 of that state, computed by wasserstein_p
    directly, is within d, the failure keeps its state, yet its replay
    disagrees and Lip_1 alone is named."""
    from qiso import reports
    from qiso.coaction import act_on_point
    from qiso.isometry import IsometryVerdict, _state_pairs
    from qiso.transport import wasserstein_p
    desc = {"source": "catalog", "name": "dual-d4-asymmetric"}
    action = reports.build_instance(desc)
    check = reports.check_lip_p_universal
    real = check(action, 1)
    assert not real.holds and real.witness["pair"] == (0, 2)
    state = real.witness["state"]
    images = [act_on_point(action, x, state) for x in range(action.n)]
    held = [(x, y) for x, y in _state_pairs(action.space)
            if float(wasserstein_p(action.space, images[x], images[y], 1))
            <= float(action.space.dist[x][y])]
    assert held and (0, 2) not in held
    moved = IsometryVerdict(real.condition, False,
                            witness=dict(real.witness, pair=held[0]))
    monkeypatch.setattr(reports, "check_lip_p_universal",
                        lambda action, p: moved if p == 1 else check(action, p))
    rec = reports.verify_instance(desc)
    assert not rec["conditions"]["Lip_1"]
    assert rec["replay_disagreements"] == ["Lip_1"]
    assert not rec["state_consistency"]


def _hold_lip_2(monkeypatch) -> list:
    """Patch universal Lip_2 in `reports` to a hold wherever it fails, with
    its failure's witness state as the certificate, so that dual-d4-asymmetric
    breaks the tower's (Lip_2, Lip_1); return the list that records the
    (action, p) of every universal Lip_p call."""
    from qiso import reports
    from qiso.isometry import IsometryVerdict
    real = reports.check_lip_p_universal
    calls = []

    def flipped(action, p):
        calls.append((action.name, p))
        verdict = real(action, p)
        if p != 2 or verdict.holds:
            return verdict
        return IsometryVerdict(verdict.condition, True, certificate={
            "state": verdict.witness["state"]})

    monkeypatch.setattr(reports, "check_lip_p_universal", flipped)
    return calls


def test_a_dossier_replays_each_failure_at_its_witness_pair(monkeypatch,
                                                            tmp_path, capsys):
    """With universal Lip_2 flipped to a hold on dual-d4-asymmetric (its
    failure's witness state as the certificate), the catalog run writes
    one dossier, for the violation (Lip_2, Lip_1).  Its replays name every
    failing Lip_p, each with its witness pair, its witness state as a
    state file and the W_p there; Lip_1's, read back from the emitted JSON
    with the dossier's coaction, fails under `qiso check --state` at the
    same pair with the same W_1, above d(pair)."""
    from qiso.cli import main
    _hold_lip_2(monkeypatch)
    cfg = SearchConfig(catalog=["dual-d4-asymmetric"])
    doc = json.loads(emit_report(run_catalog_verification(cfg)))
    dossier, = doc["dossiers"]
    assert dossier["violations"] == [{"stronger": "Lip_2", "weaker": "Lip_1"}]
    replays = {r["condition"]: r for r in dossier["replays"]}
    assert list(replays) == ["Lip_1", "Lip_3", "Lip_inf"]
    assert all(set(r) == {"condition", "pair", "state", "wasserstein"}
               for r in replays.values())
    lip_1 = replays["Lip_1"]
    act, state = tmp_path / "act.json", tmp_path / "state.json"
    act.write_text(json.dumps(dossier["coaction"]))
    state.write_text(json.dumps(lip_1["state"]))
    code = main(["check", str(act), "--condition", "lip", "--p", "1",
                 "--state", str(state)])
    out = json.loads(capsys.readouterr().out)
    x, y = lip_1["pair"]
    d_xy = float(F(dossier["coaction"]["space"]["dist"][x][y]))
    assert code == 3 and not out["holds"]
    assert out["witness"]["pair"] == lip_1["pair"]
    assert out["witness"]["wasserstein"] == lip_1["wasserstein"] > d_xy


def test_each_instance_is_decided_once(monkeypatch):
    """A run decides each instance's universal Lip_p once, p = 1, 2 and 3
    (Lip_inf comes from the support sweep): its dossier is built from
    those verdicts and their replays, not from verdicts decided again."""
    calls = _hold_lip_2(monkeypatch)
    rep = run_catalog_verification(
        SearchConfig(catalog=["dual-d4-asymmetric", "cyclic-3"]))
    assert [d["name"] for d in rep["dossiers"]] == ["dual-d4-asymmetric"]
    assert sorted(calls) == sorted((name, p) for name in
                                   ("dual-d4-asymmetric", "cyclic-3")
                                   for p in (1, 2, 3))


def test_dossiers_cross_the_process_pool(monkeypatch):
    """With two workers, the patched verdicts reach the workers through
    fork, and the run writes the report of one worker, dossier included,
    apart from its timings and its jobs."""
    import multiprocessing
    assert multiprocessing.get_start_method() == "fork"
    _hold_lip_2(monkeypatch)
    docs = []
    for jobs in (1, 2):
        cfg = SearchConfig(catalog=["dual-d4-asymmetric", "cyclic-3"], jobs=jobs)
        doc = json.loads(emit_report(run_catalog_verification(cfg)))
        assert doc.pop("config")["jobs"] == jobs
        del doc["timing"]
        for rec in doc["instances"]:
            del rec["seconds"]
        docs.append(doc)
    assert len(docs[0]["dossiers"]) == 1
    assert docs[0] == docs[1]


def test_time_budget_skips_instances():
    """A spent budget skips the instances not yet started, of 11, serially
    and with two workers.  The pool starts some (usually 1, at most 4 in
    15 runs) before the first check cancels the rest, so with jobs = 2
    only a skip at all is asserted."""
    for jobs, least in ((1, 9), (2, 1)):
        cfg = SearchConfig(catalog=["cyclic-3"],
                           random_actions=10, seed=3, time_budget=1e-9,
                           jobs=jobs)
        rep = run_catalog_verification(cfg)
        assert rep["timing"]["skipped_by_budget"] >= least, jobs
        assert rep["timing"]["skipped_by_budget"] + rep["timing"]["instances"] == 11


def test_span_counterexample_exact_arithmetic():
    """A finite, zero-tolerance refutation of the span coincidence: on the
    isosceles 3-point space with the full S3 action, the Haar state and its
    six perturbations toward the characters are all (Lip_p)-isometric
    exactly, so the isometric states span the whole dual; the 3-cycle
    character lies in that span and fails (Lip_p) exactly."""
    from fractions import Fraction as F
    from qiso.catalog import permutation_action, three_point_isosceles
    from qiso.transport import ProbVector, transport_with_power

    action = permutation_action(three_point_isosceles(), [(1, 2, 0), (1, 0, 2)])
    space = action.space
    G = classical_group(action)

    def act_exact(x, w):
        return ProbVector(tuple(
            sum((w[gi] for gi, g in enumerate(G) if g[j] == x), start=F(0))
            for j in range(3)))

    def isometric_exact(w, p):
        return all(transport_with_power(space, act_exact(x, w), act_exact(y, w),
                                        p).value <= space.dist[x][y] ** p
                   for x in range(3) for y in range(3) if x != y)

    h = [F(1, 6)] * 6
    t = F(1, 12)
    spanning = [h] + [[(1 - t) * F(1, 6) + (t if i == gi else F(0))
                       for i in range(6)] for gi in range(6)]
    for p in (1, 2):
        assert all(isometric_exact(w, p) for w in spanning)
    # spanning states span all of A^*: h plus t(delta_g - h) for every g
    import numpy as np
    mat = np.array([[float(v) for v in w] for w in spanning])
    assert np.linalg.matrix_rank(mat) == 6
    # ... and a pure character in that span fails, exactly
    three_cycle = G.index((1, 2, 0))
    delta = [F(1) if i == three_cycle else F(0) for i in range(6)]
    for p in (1, 2):
        assert not isometric_exact(delta, p)


def test_envelope_without_a_hopf_ideal_does_not_stop_a_search(monkeypatch):
    """C(S3) on the float triangle with sides 1, 1 + 0.6e-9 and 1 + 1.2e-9
    at tolerance 1e-9: the blocks where (D) fails, {1, 3, 4}, form no
    Hopf ideal, so `envelope` raises.  A catalog search given that
    action records the envelope's error, reads (D) off those blocks and
    goes on to the next instance."""
    from qiso import reports
    from qiso.catalog import permutation_action
    from qiso.envelope import envelope
    from qiso.errors import QisoError
    from qiso.isometry import defect_blocks
    from qiso.metric import validate_metric
    space = validate_metric([[0, 1, 1 + 1.2e-9], [1, 0, 1 + 0.6e-9],
                             [1 + 1.2e-9, 1 + 0.6e-9, 0]], mode="float",
                            tolerance=1e-9)
    action = permutation_action(space, [(1, 2, 0), (1, 0, 2)])
    assert defect_blocks(action).blocks == {1, 3, 4}
    with pytest.raises(QisoError, match="no Hopf ideal"):
        envelope(action)
    real = reports.build_instance
    monkeypatch.setattr(reports, "build_instance", lambda desc: action
                        if desc.get("name") == "cyclic-3" else real(desc))
    rep = run_catalog_verification(SearchConfig(
        catalog=["cyclic-3", "cyclic-4"]))
    assert [r["name"] for r in rep["instances"]] == ["cyclic-3", "cyclic-4"]
    rec = rep["instances"][0]
    assert "no Hopf ideal" in rec["envelope"]["error"]
    assert not any(rec["conditions"][c] for c in ("D", "main", "Lip_inf", "Lip_1"))
    assert rep["instances"][1]["envelope"] == {"dimension": 4, "killed_blocks": []}
