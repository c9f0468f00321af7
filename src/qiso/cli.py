"""The qiso command line: validation, transport, feasibility, isometry
checks, envelopes, catalog management, and the catalog verification run.

Exit codes: 0 success, 2 invalid input, 3 condition failed (with a
certificate in the JSON output).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import QisoError
from .metric import MetricError
from .scalars import DEFAULT_TOL, FLOAT, RATIONAL, format_scalar

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FAILED = 3


class InvalidInput(QisoError):
    """An input file that parses but is not what the command needs."""


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qiso",
        description="isometry conditions for finite quantum symmetries "
                    "of metric spaces, with exact optimal transport")

    def add_globals(parser, suppress):
        default = argparse.SUPPRESS if suppress else None
        parser.add_argument("--mode", choices=[RATIONAL, FLOAT],
                            default=default if suppress else RATIONAL,
                            help="arithmetic mode for parsing distributions")
        parser.add_argument("--tol", type=float,
                            default=default if suppress else DEFAULT_TOL)
        parser.add_argument("--seed", type=int, default=default)
        parser.add_argument("--jobs", type=int, default=default)
        parser.add_argument("--out", default=default,
                            help="write the JSON result here instead of stdout")

    add_globals(ap, suppress=False)
    # the same flags are accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    add_globals(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a metric-space file",
                       parents=[common])
    v.add_argument("space")

    w = sub.add_parser("wasserstein", help="W_p with plan and dual certificate",
                       parents=[common])
    w.add_argument("--space", required=True)
    w.add_argument("--mu", required=True)
    w.add_argument("--nu", required=True)
    w.add_argument("--p", default="1")

    wi = sub.add_parser("winf", help="bottleneck distance with witness plan",
                        parents=[common])
    wi.add_argument("--space", required=True)
    wi.add_argument("--mu", required=True)
    wi.add_argument("--nu", required=True)

    co = sub.add_parser("coupling-on", help="coupling supported on a pair set",
                        parents=[common])
    co.add_argument("--mu", required=True)
    co.add_argument("--nu", required=True)
    co.add_argument("--pairs", required=True,
                    help='JSON file {"pairs": [[i,j],...]}')

    h = sub.add_parser("hall", help="subset condition vs coupling feasibility",
                       parents=[common])
    h.add_argument("instance", help='JSON {"mu": [...], "nu": [...], "pairs": [...]}')

    c = sub.add_parser("check", help="isometry conditions of a coaction",
                       parents=[common])
    c.add_argument("coaction")
    c.add_argument("--condition", required=True,
                   choices=["d", "lip", "winf", "thm-main"])
    c.add_argument("--p", default="1", help="p for --condition lip (number or inf)")
    c.add_argument("--state", help="state file: check this state only "
                                    "(default: all states)")

    e = sub.add_parser("envelope", help="largest (D)-isometric quotient",
                       parents=[common])
    e.add_argument("coaction")

    cat = sub.add_parser("catalog", help="built-in example management",
                         parents=[common])
    cat.add_argument("--list", action="store_true")
    cat.add_argument("--emit", metavar="DIR", help="write catalog files here")
    cat.add_argument("--verify", action="store_true")

    s = sub.add_parser("search", help="verify the catalog and random actions "
                       "against the tower of isometries; dossier its violations",
                       parents=[common])
    s.add_argument("--config", help="SearchConfig JSON file")
    s.add_argument("--kind", help="run kind, checked with the config")
    s.add_argument("--random", type=int, help="number of random actions")
    s.add_argument("--format", choices=["json", "csv", "markdown"],
                   default="json")
    return ap


def _emit(args, doc) -> None:
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=1, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _plan_json(plan):
    return [[format_scalar(v) for v in row] for row in plan]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # once, before any command: every tolerance test is False at nan
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
        return _dispatch(args)
    except (MetricError, QisoError, FileNotFoundError, KeyError,
            ValueError, json.JSONDecodeError) as ex:
        print(json.dumps({"error": type(ex).__name__, "detail": str(ex)}),
              file=sys.stderr)
        return EXIT_INVALID


def _dispatch(args) -> int:
    from . import fileio
    if args.command == "validate":
        try:
            space = fileio.load_space(args.space, tol=args.tol)
        except MetricError as ex:
            _emit(args, {"valid": False, "error": type(ex).__name__,
                         "detail": str(ex), "witness": list(ex.witness or ())})
            return EXIT_FAILED
        _emit(args, {"valid": True, "n": space.n, "mode": space.mode,
                     "realized_distances":
                         [format_scalar(v) for v in space.realized_distances]})
        return EXIT_OK

    if args.command == "wasserstein":
        from .transport import transport_with_power
        space = fileio.load_space(args.space, tol=args.tol)
        mu = fileio.load_distribution(args.mu, args.mode, tol=args.tol)
        nu = fileio.load_distribution(args.nu, args.mode, tol=args.tol)
        p = _parse_p(args.p)
        if p == float("inf"):
            return _winf(args, space, mu, nu)
        res = transport_with_power(space, mu, nu, p)
        _emit(args, {
            "p": p,
            "value_power": format_scalar(res.value),
            "wasserstein": float(res.value) ** (1.0 / float(p)),
            "plan": _plan_json(res.plan.plan),
            "duals": {"f": [format_scalar(v) for v in res.duals.f],
                      "g": [format_scalar(v) for v in res.duals.g],
                      "objective": format_scalar(res.duals.objective)}})
        return EXIT_OK

    if args.command == "winf":
        space = fileio.load_space(args.space, tol=args.tol)
        mu = fileio.load_distribution(args.mu, args.mode, tol=args.tol)
        nu = fileio.load_distribution(args.nu, args.mode, tol=args.tol)
        return _winf(args, space, mu, nu)

    if args.command == "coupling-on":
        from .transport import feasible_coupling_on
        mu = fileio.load_distribution(args.mu, args.mode, tol=args.tol)
        nu = fileio.load_distribution(args.nu, args.mode, tol=args.tol)
        Y = fileio.pairs_from_dict(fileio.read_json_object(args.pairs), mu.n)
        return _coupling(args, feasible_coupling_on(mu, nu, Y, tol=args.tol), {})

    if args.command == "hall":
        from .transport import feasible_coupling_on
        doc = fileio.read_json_object(args.instance)
        mu = fileio.distribution_from_dict(doc, args.mode, tol=args.tol, field="mu")
        nu = fileio.distribution_from_dict(doc, args.mode, tol=args.tol, field="nu")
        Y = fileio.pairs_from_dict(doc, mu.n)
        res = feasible_coupling_on(mu, nu, Y, tol=args.tol)
        # Hall's theorem: the subset condition holds iff a coupling exists,
        # and the plan or the min-cut violator below certifies which
        return _coupling(args, res, {"subset_condition": res.feasible})

    if args.command == "check":
        return _check(args)

    if args.command == "envelope":
        from .envelope import envelope
        from .fileio import quantum_group_to_dict
        action = _load_coaction(args)
        env = envelope(action)
        _emit(args, {
            "original_dimension": action.group.dim,
            "envelope_dimension": env.dimension,
            "killed_blocks": sorted(env.ideal.included_blocks),
            "surviving_blocks": env.survivors,
            "verification": {k: r.worst() for k, r in env.reports.items()},
            "quotient": quantum_group_to_dict(env.quotient)})
        return EXIT_OK

    if args.command == "catalog":
        return _catalog(args)

    if args.command == "search":
        from .reports import SearchConfig, emit_report, run_search
        if args.tol != DEFAULT_TOL:
            raise ValueError(f"--tol {args.tol} is not accepted by search, which "
                             f"builds every instance at the default tolerance "
                             f"{DEFAULT_TOL}")
        doc = fileio.read_json_object(args.config) if args.config else {}
        # the flags given replace the file's values and are checked with them
        flags = {"kind": args.kind, "random_actions": args.random,
                 "seed": args.seed, "jobs": args.jobs}
        config = SearchConfig.from_dict(
            {**doc, **{k: v for k, v in flags.items() if v is not None}})
        report = run_search(config)
        _emit(args, emit_report(report, fmt=args.format))
        return EXIT_OK

    raise QisoError(f"unhandled command {args.command}")


def _parse_p(text: str):
    """--p of `wasserstein` and `check`: an int, or a float such as inf."""
    return int(text) if text.isdigit() else float(text)


def _coupling(args, res, extra) -> int:
    """Emit a coupling-feasibility verdict, the keys of `extra` after
    "feasible", then its plan or its violator with the two masses that
    certify it."""
    out = {"feasible": res.feasible, **extra}
    if res.feasible:
        out["plan"] = _plan_json(res.coupling.plan)
    else:
        out["violator"] = sorted(res.violator)
        out["mu_S"] = format_scalar(res.mu_S)
        out["nu_neighborhood"] = format_scalar(res.nu_neighborhood)
    _emit(args, out)
    return EXIT_OK if res.feasible else EXIT_FAILED


def _winf(args, space, mu, nu) -> int:
    from .transport import wasserstein_inf
    res = wasserstein_inf(space, mu, nu)
    out = {"r": format_scalar(res.r), "plan": _plan_json(res.plan.plan)}
    if res.lower_violator is not None:
        out["lower_infeasibility_witness"] = sorted(res.lower_violator)
    _emit(args, out)
    return EXIT_OK


def _load_coaction(args):
    """Load args.coaction, rejecting a file that is not a magic-unitary
    coaction of a quantum group.  The isometry checks and the envelope
    assume a Hopf algebra and a magic unitary; faithfulness is not a
    hypothesis of any of them."""
    from . import fileio
    from .coaction import verify_coaction
    from .quantum_group import verify_quantum_group
    action = fileio.load_coaction(args.coaction, tol=args.tol)
    reports = (verify_quantum_group(action.group),
               verify_coaction(action, check_faithful=False))
    failing = {k: float(v) for rep in reports
               for k, v in rep.failing(args.tol).items()}
    if failing:
        raise InvalidInput(f"{args.coaction} is not a magic-unitary coaction "
                           f"of a quantum group; failing residuals {failing}")
    return action


def _check(args) -> int:
    from . import fileio
    from . import isometry as iso
    action = _load_coaction(args)
    p = _parse_p(args.p)
    if args.state:
        psi = fileio.load_state(args.state, action.group.algebra)
        if not psi.is_state(args.tol):
            raise InvalidInput(f"{args.state} is not a state: its densities "
                               f"must be positive with total trace 1")
        if args.condition == "d":
            verdict = iso.check_D_state(action, psi)
        elif args.condition == "lip":
            verdict = iso.check_lip_p_state(action, psi, p)
        elif args.condition == "winf":
            verdict = iso.check_lip_p_state(action, psi, float("inf"))
        else:
            verdict = iso.check_level_coupling_state(action, psi)
    else:
        if args.condition == "d":
            verdict = iso.check_D(action)
        elif args.condition == "lip":
            verdict = iso.check_lip_p_universal(action, p)
        elif args.condition == "winf":
            verdict = iso.check_winf_universal(action)
        else:
            verdict = iso.check_theorem_main(action)
    doc = verdict.as_dict()
    if doc.get("witness") and "state" in (doc["witness"] or {}):
        doc["witness"] = dict(doc["witness"])
        doc["witness"]["state"] = fileio.state_to_dict(doc["witness"]["state"])
    _emit(args, doc)
    return EXIT_OK if verdict.holds else EXIT_FAILED


def _catalog(args) -> int:
    import os
    from .catalog import standard_actions, standard_groups, verified_catalog
    from .fileio import save_coaction, save_quantum_group
    from .quantum_group import haar_state, verify_quantum_group

    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        for entry in standard_actions():
            save_coaction(os.path.join(args.emit, f"{entry.name}.json"),
                          entry.action)
        for qg in standard_groups():
            save_quantum_group(os.path.join(args.emit, f"{qg.name}.group.json"), qg)
        _emit(args, {"written": args.emit})
        return EXIT_OK
    if args.verify:
        named = [(e.name, e.action.group) for e in verified_catalog(tol=args.tol)]
        named += [(qg.name, qg) for qg in standard_groups()]
        _emit(args, {"entries": [
            {"name": name, "dim": qg.dim, "blocks": list(qg.algebra.blocks),
             "qg_residual": verify_quantum_group(qg).worst(),
             "haar_reduced": haar_state(qg).reduced} for name, qg in named]})
        return EXIT_OK
    rows = [{"name": e.name, "points": e.action.n, "dim": e.action.group.dim,
             "blocks": list(e.action.group.algebra.blocks)}
            for e in standard_actions()]
    _emit(args, {"actions": rows,
                 "groups": [q.name for q in standard_groups()]})
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
