"""Run determinism, emission round trips, no-silent-downgrade markers."""

import json

import numpy as np
import pytest

from qiso.reports import (RunReport, SearchConfig, emit_report,
                          implication_tallies, instance_descriptors,
                          run_catalog_verification, run_search,
                          search_conjecture_span)


SMALL = SearchConfig(kind="catalog", catalog=["trivial-3", "s3-isosceles",
                                              "cyclic-3"], state_samples=2)


def test_catalog_run_shape():
    cfg = SearchConfig(kind="catalog", state_samples=2,
                       catalog=["trivial-3", "s3-isosceles", "cyclic-3",
                                "dual-d4-asymmetric"])
    rep = run_catalog_verification(cfg)
    assert len(rep.instances) == 4
    assert rep.implication_matrix["violations"] == []
    names = {r["name"] for r in rep.instances}
    assert "dual-d4-asymmetric" in names
    quantum = next(r for r in rep.instances if r["name"] == "dual-d4-asymmetric")
    assert quantum["conditions"]["D"] is False
    assert quantum["envelope"]["dimension"] == 2
    for r in rep.instances:
        assert r["state_consistency"]
        assert r["quantum_group_residual"] < 1e-9


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
    cfg = SearchConfig(kind="catalog", catalog=["cyclic-3"],
                       random_actions=4, seed=11, state_samples=2)
    a = run_catalog_verification(cfg).to_dict()
    b = run_catalog_verification(cfg).to_dict()
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


def test_span_search_finds_the_transitive_orbit_hits():
    """On a transitive non-isometric action the Haar state is interior to
    the isometric states (all its inequalities are strict), so their span
    is everything and the pool's failing characters are in-span hits; the
    hit is dossiered with the failing state."""
    cfg = SearchConfig(kind="span", catalog=["s3-isosceles"], state_samples=6,
                       seed=1, p_list=(1,))
    rep = search_conjecture_span(cfg)
    rec = rep.instances[0]
    assert rec["isometric"] >= 2  # at least the counit and the Haar state
    assert rec["in_span_failures"] > 0
    assert rep.implication_matrix["hits"] == 1
    dossier = rep.dossiers[0]
    assert dossier["failing_states"]
    # the dossier replays: its state really is a state and really fails
    from qiso.fileio import coaction_from_dict, state_from_dict
    from qiso.isometry import check_lip_p_state
    action = coaction_from_dict(dossier["coaction"])
    psi = state_from_dict(dossier["failing_states"][0]["state"],
                          action.group.algebra)
    assert psi.is_state(tol=1e-7)
    assert not check_lip_p_state(action, psi, 1).holds


def test_span_record_decides_each_state_once(monkeypatch):
    """A span record decides each pool state and each probed combination
    once, in two check_lip_p_state_sweep calls: the pool, then every
    repaired combination.  The in-span loop reuses the pool's verdicts;
    on s3-isosceles some pool states are in the span, so a second
    decision of them would show."""
    from qiso import reports
    decided, calls = [], []
    sweep = reports.check_lip_p_state_sweep

    def counted_sweep(action, states, ps):
        calls.append(len(states))
        decided.extend(states)  # kept alive, so the ids below stay distinct
        return sweep(action, states, ps)

    monkeypatch.setattr(reports, "check_lip_p_state_sweep", counted_sweep)
    rec, = reports._span_records({"source": "catalog", "name": "s3-isosceles"},
                                 (1,), state_samples=6, seed=1)
    assert any(h["kind"] == "pool-state" for h in rec["failing_in_span_states"])
    assert len(calls) == 2 and calls[0] == rec["sampled"]
    assert len({id(psi) for psi in decided}) == len(decided)


def test_span_search_decides_every_p(monkeypatch):
    """The span search gives one record per (instance, p) of p_list, each
    with its own p, from one sweep of the instance's pool over every p;
    each p's records and dossiers are those of a search over that p
    alone."""
    from qiso import reports
    p_list = (1, 2, 3, "inf")
    sweeps = []
    sweep = reports.check_lip_p_state_sweep

    def counted_sweep(action, states, ps):
        sweeps.append((len(states), tuple(ps)))
        return sweep(action, states, ps)

    monkeypatch.setattr(reports, "check_lip_p_state_sweep", counted_sweep)
    names = ["cyclic-4", "s3-isosceles"]  # in catalog order
    base = dict(kind="span", catalog=names, state_samples=10, seed=1)
    rep = search_conjecture_span(SearchConfig(**base, p_list=p_list))
    assert [(r["name"], r["p"]) for r in rep.instances] == \
        [(name, p) for name in names for p in p_list]
    pools = [n for n, ps in sweeps if ps == p_list]
    assert pools == [rep.instances[0]["sampled"], rep.instances[-1]["sampled"]]
    for p in p_list:
        alone = search_conjecture_span(SearchConfig(**base, p_list=(p,)))
        assert alone.instances == [r for r in rep.instances if r["p"] == p], p
        assert alone.dossiers == [d for d in rep.dossiers if d["p"] == p], p
    assert {d["p"] for d in rep.dossiers} >= {1, 2}


def test_span_pool_counts_each_distinct_state_once():
    """On a function algebra the counit is also the character of its 1x1
    block; the span pool keeps it once, so `sampled` is the Haar state,
    one character per 1x1 block and the random samples."""
    from qiso import reports
    for name in ("s3-isosceles", "cyclic-4"):
        desc = {"source": "catalog", "name": name}
        alg = reports.build_instance(desc).group.algebra
        characters = sum(1 for b in alg.blocks if b == 1)
        rec, = reports._span_records(desc, (1,), state_samples=4, seed=1)
        assert rec["sampled"] == 1 + characters + 4, name


def test_span_search_quiet_when_every_state_is_isometric():
    cfg = SearchConfig(kind="span", catalog=["cyclic-4", "dual-d4-blocks"],
                       state_samples=6, seed=1, p_list=(2,))
    rep = search_conjecture_span(cfg)
    assert rep.implication_matrix["hits"] == 0
    for rec in rep.instances:
        assert rec["isometric"] == rec["sampled"]


def test_emit_json_roundtrip():
    rep = run_catalog_verification(SMALL)
    text = emit_report(rep, "json")
    back = RunReport.from_dict(json.loads(text))
    assert back.to_dict() == json.loads(text)
    assert json.loads(emit_report(back, "json")) == json.loads(text)


def test_emit_csv_row_count():
    rep = run_catalog_verification(SMALL)
    text = emit_report(rep, "csv")
    rows = [r for r in text.strip().splitlines() if r]
    assert len(rows) == 1 + len(rep.instances)


def test_emit_markdown_has_matrix():
    rep = run_catalog_verification(SMALL)
    text = emit_report(rep, "markdown")
    assert "| condition | held | failed | undecided |" in text
    assert "tower violations: 0" in text


def test_empty_report_emits_valid_documents():
    rep = RunReport(kind="catalog", config={})
    assert json.loads(emit_report(rep, "json"))["instances"] == []
    assert emit_report(rep, "csv").strip() != ""
    assert emit_report(rep, "markdown").startswith("# catalog run")


def test_implication_tallies_flag_violations():
    fake = [{"name": "x", "conditions": {"D": True, "Lip_1": False}}]
    t = implication_tallies(fake)
    assert len(t["violations"]) == 1
    assert t["violations"][0]["stronger"] == "D"


def test_time_budget_skips_instances():
    """A spent budget skips the instances not yet started, of 11, serially
    and with two workers.  The pool starts some (usually 1, at most 4 in
    15 runs) before the first check cancels the rest, so with jobs = 2
    only a skip at all is asserted."""
    for jobs, least in ((1, 9), (2, 1)):
        cfg = SearchConfig(kind="catalog", catalog=["cyclic-3"],
                           random_actions=10, seed=3, time_budget=1e-9,
                           jobs=jobs, state_samples=1)
        rep = run_catalog_verification(cfg)
        assert rep.timing["skipped_by_budget"] >= least, jobs
        assert rep.timing["skipped_by_budget"] + rep.timing["instances"] == 11


def test_run_search_dispatch():
    assert run_search(SMALL).kind == "catalog"
    with pytest.raises(ValueError):
        run_search(SearchConfig(kind="nonsense"))


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
    G = action.classical_group

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
        kind="catalog", catalog=["cyclic-3", "cyclic-4"], state_samples=2))
    assert [r["name"] for r in rep.instances] == ["cyclic-3", "cyclic-4"]
    rec = rep.instances[0]
    assert "no Hopf ideal" in rec["envelope"]["error"]
    assert not any(rec["conditions"][c] for c in ("D", "main", "Lip_inf", "Lip_1"))
    assert rep.instances[1]["envelope"] == {"dimension": 4, "killed_blocks": []}
