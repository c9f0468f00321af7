"""File formats and the qiso command line (exit codes, JSON outputs)."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from qiso.cli import main
from qiso.catalog import (dihedral_projection_action, four_point_blocks,
                          permutation_action, standard_actions,
                          three_point_isosceles)
from qiso.fileio import (coaction_to_dict, load_coaction, load_distribution,
                         load_space, parse_complex, quantum_group_from_dict,
                         quantum_group_to_dict, save_coaction,
                         save_quantum_group, space_from_dict,
                         space_to_dict, state_from_dict, state_to_dict)
from qiso.algebra import StateFunctional, random_state
from qiso.coaction import CoAction
from qiso.isometry import check_lip_p_universal
from qiso.metric import validate_metric
from qiso.quantum_group import (close_generators, function_algebra_of_group,
                                verify_quantum_group)
from qiso.scalars import format_scalar, parse_scalar

from oracles import (counit_state, distribution_to_dict, entry_tensor,
                     load_quantum_group, save_space)


def test_scalar_codec():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar(2) == F(2)
    assert parse_scalar("3/4", "float") == 0.75
    assert format_scalar(F(3, 4)) == "3/4"
    assert format_scalar(F(2)) == 2
    assert format_scalar(0.5) == 0.5
    for bad in (float("nan"), float("inf"), -float("inf")):
        for mode in ("rational", "float"):
            with pytest.raises(ValueError):
                parse_scalar(bad, mode)
        with pytest.raises(ValueError):
            parse_complex([0.0, bad])
    for huge in ("1" + "0" * 400, 10 ** 400):  # exact, but no float
        assert parse_scalar(huge) == 10 ** 400
        with pytest.raises(ValueError):
            parse_scalar(huge, "float")


def test_space_roundtrip(tmp_path):
    sp = validate_metric([[F(0), F(1, 2)], [F(1, 2), F(0)]], labels=["a", "b"])
    path = tmp_path / "sp.json"
    save_space(str(path), sp)
    back = load_space(str(path))
    assert back.dist == sp.dist and back.labels == sp.labels
    assert back.mode == "rational"
    assert space_from_dict(space_to_dict(sp)).dist == sp.dist


def test_distribution_file(tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps({"mass": ["1/3", "1/3", "1/3"]}))
    mu = load_distribution(str(path), tol=1e-9)
    assert mu.mass == (F(1, 3), F(1, 3), F(1, 3))
    assert distribution_to_dict(mu) == {"mass": ["1/3", "1/3", "1/3"]}


def test_quantum_group_roundtrip(tmp_path):
    """Two catalog groups and C(S4), of dimension 24, round-trip through
    a file: loading carries Delta to the matrix-unit basis in dim^4
    steps, where one four-operand loop would take dim^6."""
    s4 = function_algebra_of_group(close_generators(
        4, [(1, 2, 3, 0), (1, 0, 2, 3)]), name="C(S4)")
    assert s4.dim == 24
    for qg in (standard_actions()[1].action.group,
               standard_actions()[-1].action.group, s4):
        path = tmp_path / "qg.json"
        save_quantum_group(str(path), qg)
        back = load_quantum_group(str(path))
        assert back.algebra.blocks == qg.algebra.blocks
        assert np.abs(back.delta - qg.delta).max() < 1e-12
        assert verify_quantum_group(back).passed(1e-10)


def test_quantum_group_nonstandard_basis(tmp_path):
    # permute the basis in the file; loading must convert back
    qg = standard_actions()[1].action.group
    doc = quantum_group_to_dict(qg)
    dim = qg.dim
    perm = list(reversed(range(dim)))
    P = np.zeros((dim, dim))
    for a, b in enumerate(perm):
        P[b, a] = 1.0
    doc["basis"] = [doc["basis"][b] for b in perm]
    D3 = qg.delta
    D3f = np.einsum("cb,dg,bga,ae->cde", P.T, P.T, D3, np.linalg.inv(P.T))
    doc["delta"] = [[float(D3f[b, g, a].real) for a in range(dim)]
                    for b in range(dim) for g in range(dim)]
    doc["epsilon"] = [float(v.real) for v in qg.epsilon @ P]
    doc["kappa"] = [[float(v.real) for v in row] for row in P.T @ qg.kappa @ P]
    back = quantum_group_from_dict(doc)
    assert np.abs(back.delta - qg.delta).max() < 1e-10


def test_quantum_group_basis_rank_is_scale_free(tmp_path):
    """A file basis is judged by its rank, not its determinant: the dual-D8
    group with every basis element scaled by 0.1 (det 1e-16 at dim 16)
    loads, passes the axioms and has the unscaled structure maps."""
    from qiso.catalog import dihedral_group_algebra
    from qiso.fileio import format_complex

    def scaled(v, c):
        return format_complex(c * parse_complex(v))

    qg = dihedral_group_algebra(8)
    assert qg.dim == 16
    doc = quantum_group_to_dict(qg)
    doc["basis"] = [[[[scaled(v, 0.1) for v in row] for row in mat]
                     for mat in elem] for elem in doc["basis"]]
    # delta(b/10) = 10 (b/10)(x)(b/10), epsilon(b/10) = epsilon(b)/10
    doc["delta"] = [[scaled(v, 10.0) for v in row] for row in doc["delta"]]
    doc["epsilon"] = [scaled(v, 0.1) for v in doc["epsilon"]]
    path = tmp_path / "scaled.group.json"
    path.write_text(json.dumps(doc))
    back = load_quantum_group(str(path))
    assert verify_quantum_group(back).passed(1e-9)
    assert np.abs(back.delta - qg.delta).max() < 1e-12
    assert np.abs(back.kappa - qg.kappa).max() < 1e-12


def test_state_roundtrip():
    qg = dihedral_projection_action(four_point_blocks(), 4).group
    psi = random_state(qg.algebra, 3)
    back = state_from_dict(state_to_dict(psi), qg.algebra)
    for a, b in zip(psi.densities, back.densities):
        assert np.abs(a - b).max() < 1e-15


# ---------------------------------------------------------------------------
# command line


@pytest.fixture
def files(tmp_path):
    sp = tmp_path / "space.json"
    sp.write_text(json.dumps({"n": 2, "dist": [[0, 1], [1, 0]],
                              "mode": "rational"}))
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"mass": ["3/4", "1/4"]}))
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps({"mass": ["1/4", "3/4"]}))
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_cli_validate(files, capsys):
    code, doc = run_cli(capsys, "validate", str(files / "space.json"))
    assert code == 0 and doc["valid"] and doc["n"] == 2


def test_cli_validate_rejects(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
    code, doc = run_cli(capsys, "validate", str(bad))
    assert code == 3 and not doc["valid"] and doc["witness"] == [0, 1, 2]


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_cli_validate_rejects_tolerance_not_finite_positive(tmp_path, capsys, tol):
    """The space keeps --tol as its one tolerance, so a tolerance that is
    not finite and > 0 is invalid input, not a verdict on the metric: at
    nan every axiom comparison was False and a triangle violation passed."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "mode": "float",
                               "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
    code = main(["validate", str(bad), "--tol", tol])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("command", ["coupling-on", "hall", "catalog"])
def test_cli_rejects_tolerance_not_finite_positive_before_any_command(
        tmp_path, capsys, command, tol):
    """--tol is checked once, before the command runs, also where no metric
    space is loaded: at nan, coupling-on reported an infeasible coupling
    with an empty violator (exit 3) for masses summing to 1.8, which are
    invalid input at the default tolerance, and hall and catalog --verify
    ran with it."""
    (tmp_path / "mu.json").write_text(json.dumps({"mass": [0.9, 0.9]}))
    (tmp_path / "nu.json").write_text(json.dumps({"mass": [0.5, 0.5]}))
    (tmp_path / "pairs.json").write_text(json.dumps({"pairs": [[0, 0], [1, 1]]}))
    (tmp_path / "hall.json").write_text(json.dumps(
        {"mu": [0.5, 0.5], "nu": [0.5, 0.5], "pairs": [[0, 0], [1, 1]]}))
    argv = {"coupling-on": ["coupling-on", "--mu", str(tmp_path / "mu.json"),
                            "--nu", str(tmp_path / "nu.json"),
                            "--pairs", str(tmp_path / "pairs.json")],
            "hall": ["hall", str(tmp_path / "hall.json")],
            "catalog": ["catalog", "--verify"]}[command]
    code = main(["--mode", "float", "--tol", tol] + argv)
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert json.loads(err)["error"] == "ValueError" and "--tol" in err


def test_cli_distribution_file_must_be_an_object(files, capsys):
    """A distribution file whose top level is a list is invalid input, not
    a TypeError traceback."""
    (files / "mu.json").write_text(json.dumps([0.5, 0.5]))
    (files / "pairs.json").write_text(json.dumps({"pairs": [[0, 0], [1, 1]]}))
    code = main(["coupling-on", "--mu", str(files / "mu.json"),
                 "--nu", str(files / "nu.json"),
                 "--pairs", str(files / "pairs.json")])
    out, err = capsys.readouterr()
    assert code == 2 and not out and "JSON object" in err


def test_cli_validate_rejects_bare_matrix(tmp_path, capsys):
    """A space file holding a bare distance matrix instead of {"dist": ...}
    is invalid input, not an AttributeError traceback."""
    path = tmp_path / "space.json"
    path.write_text(json.dumps([[0, 1], [1, 0]]))
    code = main(["validate", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and not out and "JSON object" in err


@pytest.mark.parametrize("field, doc", [
    ("space", {"dist": 5}),
    ("space", {"dist": [[0, 1], 1]}),
    ("space", {"dist": [[0, 1], [1, 0]], "labels": 5}),
    ("space", {"dist": [[0, 1], [1, 0]], "mode": 5}),
    ("mu", {"mass": 5}),
    ("pairs", {"pairs": 5}),
    ("pairs", {"pairs": [[0, 1], 1]}),
    ("pairs", {"pairs": [[0, 2]]}),
    ("pairs", {"pairs": [[-1, 0]]}),
    ("pairs", {"pairs": [[0, "1"]]}),
    ("hall", {"mu": 5, "nu": ["1/2", "1/2"], "pairs": [[0, 0]]}),
    ("hall", {"mu": ["1/2", "1/2"], "nu": ["1/2", "1/2"], "pairs": [[0, 2]]}),
])
def test_cli_mistyped_field_is_invalid_input(files, capsys, field, doc):
    """A file of the right top-level shape whose field has the wrong JSON
    type or shape is invalid input (exit 2, ValueError), not a TypeError
    or IndexError traceback; a negative pair index is no longer read from
    the end."""
    path = files / f"{field}.json"
    path.write_text(json.dumps(doc))
    (files / "pairs-ok.json").write_text(json.dumps({"pairs": [[0, 0], [1, 1]]}))
    mu, nu = str(files / "mu.json"), str(files / "nu.json")
    argv = {"space": ["validate", str(path)],
            "mu": ["coupling-on", "--mu", mu, "--nu", nu,
                   "--pairs", str(files / "pairs-ok.json")],
            "pairs": ["coupling-on", "--mu", mu, "--nu", nu, "--pairs", str(path)],
            "hall": ["hall", str(path)]}[field]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and not out, doc
    assert json.loads(err)["error"] == "ValueError", doc


@pytest.mark.parametrize("field, value", [
    (("u",), 5), (("u", 0, 1), 5), (("group",), 5), (("space",), [1]),
    (("group", "blocks"), "x"), (("group", "blocks", 0), "1"),
    (("group", "basis", 0), 5), (("group", "delta"), 5),
    (("group", "epsilon"), 5), (("group", "kappa", 0), None),
    (("space", "dist", 0), 5), (("name",), 5), (("densities",), 5),
    (("densities", 0), 5), (("densities", 0, 0), None)])
def test_cli_mistyped_coaction_or_state_field_is_invalid_input(
        tmp_path, capsys, field, value):
    """The coaction, quantum-group and state readers check their fields'
    JSON types and shapes too."""
    act = permutation_action(three_point_isosceles(), [(1, 2, 0), (1, 0, 2)])
    path, spath = tmp_path / "act.json", tmp_path / "state.json"
    docs = {"act": coaction_to_dict(act),
            "state": state_to_dict(counit_state(act.group))}
    doc = docs["state" if field[0] == "densities" else "act"]
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    path.write_text(json.dumps(docs["act"]))
    spath.write_text(json.dumps(docs["state"]))
    code = main(["check", str(path), "--condition", "lip", "--state", str(spath)])
    out, err = capsys.readouterr()
    assert code == 2 and not out, field
    assert json.loads(err)["error"] == "ValueError", field


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_cli_metric_file_with_non_finite_entry_is_invalid_input(tmp_path, capsys, bad):
    path = tmp_path / "space.json"
    path.write_text('{"n": 2, "mode": "float", "dist": [[0, %s], [%s, 0]]}'
                    % (bad, bad))
    code = main(["validate", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and not out and "finite" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_cli_quantum_group_file_with_non_finite_entry_is_invalid_input(
        tmp_path, capsys, bad):
    """A NaN or infinite antipode entry in the group file of a coaction is
    rejected when the file is read, whichever command reads it."""
    act = permutation_action(three_point_isosceles(), [(1, 2, 0), (1, 0, 2)])
    path = tmp_path / "act.json"
    save_coaction(str(path), act)
    group_path = tmp_path / "act.group.json"
    doc = json.loads(group_path.read_text())
    doc["kappa"][1][1] = bad
    group_path.write_text(json.dumps(doc))  # writes NaN / Infinity
    for argv in (["check", str(path), "--condition", "d"], ["envelope", str(path)]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and not out and "finite" in err
    with pytest.raises(ValueError):
        quantum_group_from_dict(doc)


def test_cli_missing_file_is_invalid_input(capsys):
    code = main(["validate", "/nonexistent/never.json"])
    assert code == 2


def test_cli_wasserstein(files, capsys):
    code, doc = run_cli(capsys, "wasserstein",
                        "--space", str(files / "space.json"),
                        "--mu", str(files / "mu.json"),
                        "--nu", str(files / "nu.json"), "--p", "1")
    assert code == 0
    assert doc["value_power"] == "1/2"
    assert doc["duals"]["objective"] == "1/2"


def test_integer_valued_float_p_is_exact(tmp_path, capsys):
    """p = 2.0 is the integer 2: `qiso wasserstein --p 2.0` prints the
    exact value_power, plan and duals of --p 2, and check_lip_p_universal
    at 2.0 gives the verdict, witness and margins of p = 2 on the catalog,
    under the condition tag of the p given."""
    space, mu, nu = (tmp_path / f"{name}.json" for name in ("space", "mu", "nu"))
    space.write_text(json.dumps({"n": 3, "mode": "rational",
                                 "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
    mu.write_text(json.dumps({"mass": ["1/3", "1/3", "1/3"]}))
    nu.write_text(json.dumps({"mass": ["2/3", "1/3", "0"]}))
    docs = {}
    for p in ("2", "2.0"):
        code, docs[p] = run_cli(capsys, "wasserstein", "--space", str(space),
                                "--mu", str(mu), "--nu", str(nu), "--p", p)
        assert code == 0
    assert docs["2"]["value_power"] == "1/3"
    for key in ("value_power", "plan", "duals"):
        assert docs["2.0"][key] == docs["2"][key], key
    for entry in standard_actions():
        ints, floats = (check_lip_p_universal(entry.action, p) for p in (2, 2.0))
        assert floats.condition == "Lip_2.0(universal)"
        assert (floats.holds, floats.certificate) == \
            (ints.holds, ints.certificate), entry.name
        wi, wf = dict(ints.witness or {}), dict(floats.witness or {})
        si, sf = wi.pop("state", None), wf.pop("state", None)
        assert wf == wi, entry.name
        if si is not None:
            assert all(np.array_equal(a, b)
                       for a, b in zip(si.densities, sf.densities))


def test_cli_winf(files, capsys):
    code, doc = run_cli(capsys, "winf",
                        "--space", str(files / "space.json"),
                        "--mu", str(files / "mu.json"),
                        "--nu", str(files / "nu.json"))
    assert code == 0 and doc["r"] == 1
    assert doc["lower_infeasibility_witness"] == [0]


def test_cli_coupling_on(files, capsys):
    pairs = files / "pairs.json"
    pairs.write_text(json.dumps({"pairs": [[0, 0], [1, 1]]}))
    code, doc = run_cli(capsys, "coupling-on",
                        "--mu", str(files / "mu.json"),
                        "--nu", str(files / "nu.json"),
                        "--pairs", str(pairs))
    assert code == 3 and doc["violator"] == [0]
    pairs.write_text(json.dumps({"pairs": [[0, 0], [0, 1], [1, 1]]}))
    code, doc = run_cli(capsys, "coupling-on",
                        "--mu", str(files / "mu.json"),
                        "--nu", str(files / "nu.json"),
                        "--pairs", str(pairs))
    assert code == 0 and doc["feasible"]


def test_cli_hall(tmp_path, capsys):
    inst = tmp_path / "hall.json"
    inst.write_text(json.dumps({"mu": ["1/2", "1/2"], "nu": ["1/2", "1/2"],
                                "pairs": [[0, 1], [1, 0]]}))
    code, doc = run_cli(capsys, "hall", str(inst))
    assert code == 0 and doc["feasible"] and doc["subset_condition"]
    inst.write_text(json.dumps({"mu": ["1/2", "1/2"], "nu": ["1/2", "1/2"],
                                "pairs": [[0, 0], [1, 0]]}))
    code, doc = run_cli(capsys, "hall", str(inst))
    assert code == 3 and doc["violator"] == [0, 1]


def test_cli_hall_decides_at_tol(tmp_path, capsys):
    """`qiso hall` decides at --tol as `coupling-on` does: in float mode at
    tol 1e-3, nu off mu by 4e-4 still couples to mu on the diagonal, and
    both commands print the same verdict and plan."""
    mu, nu = [0.5, 0.5], [0.5004, 0.4996]
    inst = tmp_path / "hall.json"
    inst.write_text(json.dumps({"mu": mu, "nu": nu, "pairs": [[0, 0], [1, 1]]}))
    (tmp_path / "mu.json").write_text(json.dumps({"mass": mu}))
    (tmp_path / "nu.json").write_text(json.dumps({"mass": nu}))
    (tmp_path / "pairs.json").write_text(json.dumps({"pairs": [[0, 0], [1, 1]]}))
    tol = ["--mode", "float", "--tol", "1e-3"]
    code, hall = run_cli(capsys, *tol, "hall", str(inst))
    assert code == 0 and hall["feasible"] and hall["subset_condition"]
    code, coupling = run_cli(capsys, *tol, "coupling-on",
                             "--mu", str(tmp_path / "mu.json"),
                             "--nu", str(tmp_path / "nu.json"),
                             "--pairs", str(tmp_path / "pairs.json"))
    assert code == 0 and coupling == {k: v for k, v in hall.items()
                                      if k != "subset_condition"}


def test_cli_winf_decides_at_the_space_tol(tmp_path, capsys):
    """`qiso winf` accepts a float max flow within the space's tol, as
    `coupling-on` does at --tol: in float mode at tol 1e-6, mu off nu by
    1e-7 couples to nu on the diagonal {d <= 0}, so W_inf is 0."""
    files = {"space": {"n": 2, "mode": "float", "dist": [[0, 1], [1, 0]]},
             "mu": {"mass": [0.5000001, 0.4999999]},
             "nu": {"mass": [0.5, 0.5]},
             "pairs": {"pairs": [[0, 0], [1, 1]]}}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    path = {name: str(tmp_path / f"{name}.json") for name in files}
    tol = ["--mode", "float", "--tol", "1e-6"]
    code, coupling = run_cli(capsys, *tol, "coupling-on", "--mu", path["mu"],
                             "--nu", path["nu"], "--pairs", path["pairs"])
    assert code == 0 and coupling["feasible"]
    code, winf = run_cli(capsys, *tol, "winf", "--space", path["space"],
                         "--mu", path["mu"], "--nu", path["nu"])
    assert code == 0 and winf["r"] == 0.0
    assert "lower_infeasibility_witness" not in winf


def test_cli_check_and_envelope(tmp_path, capsys):
    act = permutation_action(three_point_isosceles(), [(1, 2, 0), (1, 0, 2)])
    path = tmp_path / "act.json"
    save_coaction(str(path), act)
    code, doc = run_cli(capsys, "check", str(path), "--condition", "d")
    assert code == 3 and not doc["holds"] and doc["witness"]
    code, doc = run_cli(capsys, "check", str(path), "--condition", "lip", "--p", "2")
    assert code == 3 and not doc["holds"]
    code, doc = run_cli(capsys, "check", str(path), "--condition", "winf")
    assert code == 3
    iso = dihedral_projection_action(four_point_blocks(), 4)
    path2 = tmp_path / "iso.json"
    save_coaction(str(path2), iso)
    for cond in ("d", "winf", "thm-main"):
        code, doc = run_cli(capsys, "check", str(path2), "--condition", cond)
        assert code == 0 and doc["holds"]
    code, doc = run_cli(capsys, "envelope", str(path))
    assert code == 0 and doc["envelope_dimension"] == 2
    assert doc["original_dimension"] == 6


def test_cli_check_state(tmp_path, capsys):
    act = permutation_action(three_point_isosceles(), [(1, 2, 0), (1, 0, 2)])
    path = tmp_path / "act.json"
    save_coaction(str(path), act)
    eps = counit_state(act.group)
    spath = tmp_path / "eps.json"
    spath.write_text(json.dumps(state_to_dict(eps)))
    code, doc = run_cli(capsys, "check", str(path), "--condition", "lip",
                        "--p", "1", "--state", str(spath))
    assert code == 0 and doc["holds"]


def test_cli_nan_p_is_invalid_input(files, capsys):
    """--p nan is invalid input (exit 2, ValueError) for both commands that
    read --p: it passed every `p < 1` guard, so `check` gave a verdict and
    `wasserstein` reached the simplex."""
    iso = dihedral_projection_action(four_point_blocks(), 4)
    act = str(files / "iso.json")
    save_coaction(act, iso)
    state = files / "eps.json"
    state.write_text(json.dumps(state_to_dict(counit_state(iso.group))))
    lip = ["check", act, "--condition", "lip", "--p", "nan"]
    for argv in (lip, lip + ["--state", str(state)],
                 ["wasserstein", "--space", str(files / "space.json"),
                  "--mu", str(files / "mu.json"), "--nu", str(files / "nu.json"),
                  "--p", "nan"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and not out, argv
        assert json.loads(err)["error"] == "ValueError", argv


def doubled_entry_coaction(tmp_path) -> str:
    """A coaction file whose u[0][0] is doubled: no longer a projection,
    and its row no longer sums to 1."""
    act = dihedral_projection_action(four_point_blocks(), 4)
    u = [list(row) for row in act.u]
    u[0][0] = 2 * u[0][0]
    path = tmp_path / "doubled.json"
    save_coaction(str(path), CoAction(act.group, act.space, entry_tensor(u)))
    return str(path)


@pytest.mark.parametrize("argv", [("--condition", "d"), ("--condition", "winf"),
                                  ("--condition", "thm-main"),
                                  ("--condition", "lip", "--p", "2")])
def test_cli_check_rejects_non_magic_unitary(tmp_path, capsys, argv):
    code = main(["check", doubled_entry_coaction(tmp_path), *argv])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert "entries_idempotent" in err and "row_sums" in err


def test_cli_envelope_rejects_non_magic_unitary(tmp_path, capsys):
    code = main(["envelope", doubled_entry_coaction(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert "entries_idempotent" in err and "row_sums" in err


def test_cli_envelope_exits_2_when_the_cut_is_no_hopf_ideal(tmp_path, capsys):
    """The near-isometric triangle of tests/test_envelope.py: at --tol 1e-6
    the transpositions (01) and (02) pass (D) and their products do not,
    so no envelope is decided."""
    e = 0.7e-6
    space = validate_metric([[0, 1, 1 + 2 * e], [1, 0, 1 + e],
                             [1 + 2 * e, 1 + e, 0]])
    path = tmp_path / "near.json"
    save_coaction(str(path), permutation_action(space, [(1, 2, 0), (1, 0, 2)]))
    code = main(["--tol", "1e-6", "envelope", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and not out and "no Hopf ideal" in err


def test_cli_check_rejects_non_state(tmp_path, capsys):
    act = permutation_action(three_point_isosceles(), [(1, 2, 0), (1, 0, 2)])
    path = tmp_path / "act.json"
    save_coaction(str(path), act)
    eps = counit_state(act.group)
    doubled = StateFunctional(eps.owner,
                              tuple(2 * rho for rho in eps.densities))
    spath = tmp_path / "doubled-state.json"
    spath.write_text(json.dumps(state_to_dict(doubled)))
    code = main(["check", str(path), "--condition", "d", "--state", str(spath)])
    out, err = capsys.readouterr()
    assert code == 2 and not out and "not a state" in err


def test_cli_catalog_and_emit(tmp_path, capsys):
    code, doc = run_cli(capsys, "catalog", "--list")
    assert code == 0 and len(doc["actions"]) >= 10
    out = tmp_path / "cat"
    code, doc = run_cli(capsys, "catalog", "--emit", str(out))
    assert code == 0
    reloaded = load_coaction(str(out / "cyclic-4.json"))
    assert reloaded.n == 4
    for entry in standard_actions():  # each file carries its entry's name
        assert load_coaction(str(out / f"{entry.name}.json")).name == entry.name
    assert verify_quantum_group(load_quantum_group(str(out / "dual-S3.group.json"))).passed(1e-9)


def test_cli_search(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "catalog",
                               "catalog": ["trivial-3", "s3-isosceles"],
                               "state_samples": 2}))
    code, doc = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 0
    assert len(doc["instances"]) == 2
    assert doc["implication_matrix"]["violations"] == []


def test_cli_catalog_search_leaves_numpy_random_unimported(tmp_path):
    """The catalog search draws its spaces, random actions and sampled
    states from the standard library's generator: in a fresh interpreter
    (the suite itself imports numpy.random), `qiso search` through
    cli.main, random actions included, leaves numpy.random unimported."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"catalog": ["cyclic-3", "dual-d3-blocks"],
                               "n_range": [3, 3], "state_samples": 3}))
    script = "\n".join([
        "import contextlib, io, sys",
        "from qiso.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    code = main(['search', '--kind', 'catalog', '--config', {str(cfg)!r},",
        "                 '--random', '2', '--seed', '3'])",
        "print(code, 'numpy.random' in sys.modules)"])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split("\n")[0] == "0 False"


def test_cli_search_rejects_unknown_config_key(tmp_path, capsys):
    """A misspelt config key is invalid input naming the key, not a run
    that silently ignores it ("random_action" ran no random actions)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "catalog", "catalog": ["cyclic-3"],
                               "random_action": 5}))
    code = main(["search", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2 and not out and "random_action" in err


def test_cli_search_rejects_mistyped_config_value(tmp_path, capsys):
    """A config value of the wrong type is invalid input naming the field,
    not a TypeError traceback from deep in the run."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "catalog", "catalog": ["cyclic-3"],
                               "random_actions": "5"}))
    code = main(["search", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2 and not out and "random_actions" in err


def test_cli_search_rejects_a_tolerance_it_would_ignore(tmp_path, capsys):
    """`qiso search` builds every instance at the default tolerance, so a
    --tol other than the default, before or after the subcommand, is
    invalid input naming the flag, not a report identical to the default
    run; the default value itself is accepted."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "catalog", "catalog": ["trivial-3"],
                               "state_samples": 1}))
    for argv in (["--tol", "0.5", "search"], ["search", "--tol", "0.5"]):
        code = main(argv + ["--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 2 and not out and "--tol" in err, argv
    assert main(["--tol", "1e-9", "search", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["instances"]


def test_cli_search_checks_flag_overrides_as_config_values(tmp_path, capsys):
    """--random, --seed and --jobs pass the checks a config file's values
    pass: a negative count or seed, or no workers, is invalid input naming
    the field (--random -3 --jobs 0 ran before, and --seed -1 failed late,
    inside the state sampler); SearchConfig rejects a negative seed too."""
    from qiso.reports import SearchConfig
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "catalog", "catalog": ["cyclic-3"]}))
    for flags, field in ((["--random", "-3"], "random_actions"),
                         (["--jobs", "0"], "jobs"),
                         (["--seed", "-1", "--random", "1"], "seed")):
        code = main(["search", "--config", str(cfg)] + flags)
        out, err = capsys.readouterr()
        assert code == 2 and not out and repr(field) in err, flags
    with pytest.raises(ValueError, match="'seed'"):
        SearchConfig.from_dict({"seed": -1})


def test_cli_search_rejects_unknown_kind_and_metric_model(tmp_path, capsys):
    """A run kind or metric model that no run knows is invalid input naming
    the field, at the config boundary: "metric_model": "nope" passed and
    failed only when the first random instance was built (never, with no
    random actions), and the retired kinds "sublevel" and "span" are
    rejected like any other unknown kind, given as --kind or in the config
    file."""
    from qiso.reports import SearchConfig
    for doc, field in (({"metric_model": "nope"}, "metric_model"),
                       ({"metric_model": "nope", "random_actions": 0},
                        "metric_model"),
                       ({"kind": "nonsense"}, "kind")):
        with pytest.raises(ValueError, match=repr(field)):
            SearchConfig.from_dict(doc)
    for kind in ("sublevel", "span"):
        cfg = tmp_path / f"{kind}.json"
        cfg.write_text(json.dumps({"kind": kind, "catalog": ["cyclic-3"]}))
        for argv in (["search", "--kind", kind], ["search", "--config", str(cfg)]):
            code = main(argv)
            out, err = capsys.readouterr()
            assert code == 2 and not out and "'kind'" in err, argv


def test_cli_search_seed_and_jobs_override_config_only_when_given(
        tmp_path, capsys, monkeypatch):
    """--seed and --jobs replace the config file's values when given, before
    or after the subcommand, --seed 0 included; otherwise the file's stand."""
    from dataclasses import asdict
    from qiso import reports
    monkeypatch.setattr(reports, "run_search", lambda config: reports.RunReport(
        kind=config.kind, config=asdict(config)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "catalog", "catalog": ["cyclic-3"],
                               "seed": 5, "jobs": 2}))
    for argv, seed, jobs in (
            (["search", "--config", str(cfg)], 5, 2),
            (["search", "--config", str(cfg), "--seed", "0"], 0, 2),
            (["--seed", "0", "search", "--config", str(cfg)], 0, 2),
            (["search", "--config", str(cfg), "--jobs", "1"], 5, 1),
            (["--jobs", "3", "--seed", "7", "search", "--config", str(cfg)], 7, 3)):
        code, doc = run_cli(capsys, *argv)
        assert code == 0
        assert (doc["config"]["seed"], doc["config"]["jobs"]) == (seed, jobs), argv


def test_cli_check_has_no_universal_flag(tmp_path, capsys):
    """`qiso check` decides over all states unless --state is given; the
    --universal flag that nothing read is gone."""
    with pytest.raises(SystemExit):
        main(["check", str(tmp_path / "a.json"), "--condition", "d",
              "--universal"])
    capsys.readouterr()


def test_cli_out_flag(files, tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(["--out", str(target), "validate", str(files / "space.json")])
    assert code == 0
    assert json.loads(target.read_text())["valid"]
