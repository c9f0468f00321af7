"""The catalog run, the one run `qiso search` makes, and its reports.

The paper conjectures that its tower of isometries, (D) down to Lip_1,
is one condition.  For a magic-unitary coaction on a finite space, (D),
main and Lip_inf are one condition, so the open part there is the gap
between Lip_inf and Lip_p: the catalog run's `patterns` tally counts
every gap pattern, and every instance on which a stronger condition holds
and a weaker one fails gets a dossier, built from the verdicts and
replays that decided it.  The report is a dict of JSON types.
Runs are pure functions of (config, catalog): every random draw is seeded
from the config seed, and every dossier carries the instance files inline
so a violation can be replayed.  Searches never assert the open
conjectures; they tally evidence and dossier any would-be counterexample.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from .catalog import (CATALOG, catalog_action, random_permutation_action,
                      random_quantum_action)
from .coaction import CoAction, act_on_points, verify_coaction
from .envelope import envelope
from .errors import QisoError
from .fileio import coaction_to_dict, state_to_dict
from .isometry import (IsometryVerdict, _pair_margins, _state_pairs,
                       check_injectivity, check_lip_p_universal,
                       check_support_universal, defect_blocks)
from .metric import METRIC_MODELS, random_metric_space
from .quantum_group import verify_quantum_group

# the tower of isometries, strongest first (every earlier condition must
# imply every later one): each condition's name -> its p, for a Lip_p
TOWER = {"D": None, "main": None, "Lip_inf": "inf", "Lip_3": 3, "Lip_2": 2,
         "Lip_1": 1}
CONDITION_ORDER = list(TOWER)
# the Lip_p conditions, (name, p), in the order they are decided and replayed
LIP_P = [(name, p) for name, p in reversed(TOWER.items()) if p is not None]


@dataclass
class SearchConfig:
    n_range: Sequence[int] = (3, 4)
    metric_model: str = "shortest-path-graph"
    catalog: Optional[List[str]] = None   # entry names; None = all
    random_actions: int = 0
    seed: int = 0
    time_budget: Optional[float] = None   # seconds; soft, between instances
    jobs: int = 1

    @staticmethod
    def from_dict(doc: dict) -> "SearchConfig":
        unknown = sorted(set(doc) - set(SearchConfig.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown SearchConfig keys {unknown}")
        for key, value in doc.items():
            if not _CONFIG_CHECKS[key](value):
                raise ValueError(f"SearchConfig field {key!r} has a bad value "
                                 f"{value!r}")
        return SearchConfig(**doc)


def _is_number(v, low, types=(int, float)) -> bool:
    return isinstance(v, types) and not isinstance(v, bool) and v >= low


def _is_list(v, item) -> bool:
    return isinstance(v, (list, tuple)) and all(item(x) for x in v)


# each SearchConfig field -> whether a value read from a config file is one
_CONFIG_CHECKS = {
    "n_range": lambda v: bool(v) and _is_list(v, lambda n: _is_number(n, 2, int)),
    "metric_model": lambda v: isinstance(v, str) and v in METRIC_MODELS,
    "catalog": lambda v: v is None or _is_list(
        v, lambda s: isinstance(s, str) and s in CATALOG),
    "random_actions": lambda v: _is_number(v, 0, int),
    "seed": lambda v: _is_number(v, 0, int),
    "time_budget": lambda v: v is None or _is_number(v, 0),
    "jobs": lambda v: _is_number(v, 1, int),
}


# ---------------------------------------------------------------------------
# instance descriptors (picklable, replayable)


def instance_descriptors(config: SearchConfig) -> List[dict]:
    names = None if config.catalog is None else set(config.catalog)
    out = []
    for name in CATALOG:
        if names is None or name in names:
            out.append({"source": "catalog", "name": name})
    for k in range(config.random_actions):
        seed = config.seed * 100003 + k
        if k % 3 == 2:
            out.append({"source": "random-quantum", "seed": seed})
        else:
            n_lo, n_hi = min(config.n_range), max(config.n_range)
            out.append({"source": "random-perm", "seed": seed,
                        "n": n_lo + (k % (n_hi - n_lo + 1)),
                        "model": config.metric_model})
    return out


def build_instance(desc: dict) -> CoAction:
    if desc["source"] == "catalog":
        return catalog_action(desc["name"])
    if desc["source"] == "random-perm":
        space = random_metric_space(desc["n"], desc["seed"], desc["model"])
        return random_permutation_action(space, desc["seed"])
    if desc["source"] == "random-quantum":
        return random_quantum_action(desc["seed"])
    raise KeyError(f"unknown instance source {desc['source']!r}")


# ---------------------------------------------------------------------------
# per-instance verification


def _universal_verdicts(action: CoAction) -> Dict[str, IsometryVerdict]:
    """The universal verdict of every condition but (D), keyed by its name
    in TOWER: main and Lip_inf from one sweep, then each finite Lip_p."""
    main, lip_inf = check_support_universal(action)
    verdicts = {"main": main, "Lip_inf": lip_inf}
    for name, p in LIP_P:
        if p != "inf":
            verdicts[name] = check_lip_p_universal(action, p)
    return verdicts


def _condition_flags(verdicts: Dict[str, IsometryVerdict],
                     cut: FrozenSet[int]) -> dict:
    """Every condition's flag.  (D) holds where `cut`, the blocks on which
    it fails (`isometry.defect_blocks`, the envelope's ideal), is empty;
    the others are `verdicts`, those of `_universal_verdicts`."""
    return {"D": not cut, **{name: bool(v.holds) for name, v in verdicts.items()}}


def _state_of(verdict: IsometryVerdict):
    """The state a verdict is replayed on: a failure's witness state, or a
    hold's state at its largest margin or residual on a larger block;
    None for a hold that only characters decide."""
    return ((verdict.certificate if verdict.holds else verdict.witness)
            or {}).get("state")


def _replays(action: CoAction,
             verdicts: Dict[str, IsometryVerdict]) -> Dict[str, list]:
    """Each Lip_p verdict of `verdicts` that has a state (`_state_of`),
    replayed on it by the per-state check's transport solves, in LIP_P
    order: its name -> the (W_p, margin) of `isometry._pair_margins` at a
    failure's witness pair, or at every pair of `_state_pairs` for a hold.
    x <| psi for every replayed state comes from one `act_on_points` call."""
    named = [(name, p) for name, p in LIP_P
             if name in verdicts and _state_of(verdicts[name]) is not None]
    images = act_on_points(action, [_state_of(verdicts[name]) for name, _ in named])
    every = _state_pairs(action.space)
    out = {}
    for (name, p), image in zip(named, images):
        verdict = verdicts[name]
        pairs = every if verdict.holds else [verdict.witness["pair"]]
        out[name] = _pair_margins(action.space, image, p, pairs)
    return out


def _replay_disagreements(action: CoAction,
                          verdicts: Dict[str, IsometryVerdict],
                          replays: Dict[str, list]) -> List[str]:
    """The conditions Lip_p whose universal verdict the per-state check
    contradicts on the verdict's own state, read off `replays`, those of
    `_replays(action, verdicts)`.
    A failure claims one pair, its witness pair, where W_p^p >= lambda_max
    > d_top^p by weak duality (a character's witness sends x and y to Dirac
    masses farther apart, a Lip_inf witness puts mass off the sublevel
    set): it disagrees unless its margin there exceeds tol x max d.  A
    hold disagrees if its margin at any pair does.  A verdict with no
    state, a hold that only characters decide, is a comparison of distance
    ranks and has nothing to replay."""
    limit = action.space.tol * float(action.space.max_distance)
    return [name for name, replayed in replays.items()
            if (max(margin for _, margin in replayed) > limit)
            == verdicts[name].holds]


def verify_instance(desc: dict) -> dict:
    """Everything the verification run records about one action.  An
    action that breaks an implication of the tower also gets a `dossier`:
    its conditions, the (stronger, weaker) pairs it breaks, each failing
    Lip_p with its witness pair, its witness state as a state file
    (`fileio.state_to_dict`) and the W_p replayed there, so that `qiso
    check --state` replays it with no universal check, and the coaction
    inline, which replays them all."""
    t0 = time.perf_counter()
    action = build_instance(desc)
    rec: dict = {"descriptor": desc,
           "name": desc.get("name") or action.name}
    rec["quantum_group_residual"] = verify_quantum_group(action.group).worst()
    rec["coaction_residual"] = verify_coaction(action).worst()
    # an envelope the space's tol cannot decide (see `envelope`) is
    # recorded, and (D) read off the blocks where it fails
    try:
        env = envelope(action)
        cut = env.ideal.included_blocks
        env_rec = {"dimension": env.dimension, "killed_blocks": sorted(cut)}
    except QisoError as exc:
        cut = defect_blocks(action).blocks
        env_rec = {"error": str(exc)}
    verdicts = _universal_verdicts(action)
    rec["conditions"] = _condition_flags(verdicts, cut)
    rec["injective"] = bool(check_injectivity(action))
    rec["envelope"] = env_rec
    replays = _replays(action, verdicts)
    rec["replay_disagreements"] = _replay_disagreements(action, verdicts, replays)
    rec["state_consistency"] = not rec["replay_disagreements"]
    violated = _violated(rec["conditions"])
    if violated:
        rec["dossier"] = {
            "descriptor": desc, "name": rec["name"], "conditions": rec["conditions"],
            "violations": [{"stronger": strong, "weaker": weak}
                           for strong, weak in violated],
            "replays": [{"condition": name,
                         "pair": list(verdicts[name].witness["pair"]),
                         "state": state_to_dict(verdicts[name].witness["state"]),
                         "wasserstein": replayed[0][0]}
                        for name, replayed in replays.items()
                        if not verdicts[name].holds],
            "coaction": coaction_to_dict(action)}
    rec["seconds"] = time.perf_counter() - t0
    return rec


def _violated(flags: dict) -> List[tuple]:
    """The (stronger, weaker) pairs of CONDITION_ORDER where the stronger
    condition holds and the weaker fails: the tower's implications that
    these verdicts break."""
    return [(strong, weak) for i, strong in enumerate(CONDITION_ORDER)
            for weak in CONDITION_ORDER[i + 1:] if flags[strong] and not flags[weak]]


def implication_tallies(instances: List[dict]) -> Dict[str, dict]:
    """Counts per condition and per verdict pattern (a T or F for each
    condition of CONDITION_ORDER); 'violations' lists (instance, stronger,
    weaker) triples where the tower failed."""
    flags = [rec["conditions"] for rec in instances]
    held = {c: sum(f[c] for f in flags) for c in CONDITION_ORDER}
    patterns = Counter("".join("T" if f[c] else "F" for c in CONDITION_ORDER)
                       for f in flags)
    return {"held": held,
            "failed": {c: len(flags) - held[c] for c in CONDITION_ORDER},
            "patterns": dict(patterns),
            "violations": [{"instance": rec["name"], "stronger": strong, "weaker": weak}
                           for rec in instances
                           for strong, weak in _violated(rec["conditions"])]}


# ---------------------------------------------------------------------------
# the catalog run


def run_catalog_verification(config: SearchConfig) -> dict:
    """Verify every descriptor's instance, in order; once the time budget
    is spent, skip (cancel, with jobs > 1) those not yet started.  The
    report is a dict of JSON types, as `emit_report` writes it; each
    instance's dossier (`verify_instance`) moves from its record into
    `dossiers`."""
    descs = instance_descriptors(config)
    t0 = time.perf_counter()
    deadline = t0 + (config.time_budget or float("inf"))
    skipped = 0
    instances = []
    if config.jobs > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(verify_instance, desc) for desc in descs]
            for fut in futures:
                if time.perf_counter() > deadline:
                    skipped += sum(f.cancel() for f in futures if not f.done())
                if not fut.cancelled():
                    instances.append(fut.result())
    else:
        for desc in descs:
            if time.perf_counter() > deadline:
                skipped += 1
                continue
            instances.append(verify_instance(desc))
    dossiers = [rec.pop("dossier") for rec in instances if "dossier" in rec]
    return {"config": asdict(config), "instances": instances,
            "implication_matrix": implication_tallies(instances),
            "dossiers": dossiers,
            "timing": {"seconds": time.perf_counter() - t0,
                       "instances": len(instances), "skipped_by_budget": skipped}}


# ---------------------------------------------------------------------------
# report emission


def emit_report(report: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report, indent=1)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown format {fmt!r}")


def _emit_csv(report: dict) -> str:
    rows = report["instances"]
    cols = ["name"]
    for r in rows:
        cols += [key for key in r
                 if key not in cols and not isinstance(r[key], (dict, list))]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cols + [f"cond_{c}" for c in CONDITION_ORDER])
    for r in rows:
        writer.writerow([r.get(c, "") for c in cols]
                        + [r.get("conditions", {}).get(c, "") for c in CONDITION_ORDER])
    return buf.getvalue()


def _emit_markdown(report: dict) -> str:
    m = report["implication_matrix"]
    lines = ["# catalog run", "",
             f"instances: {len(report['instances'])}  "
             f"time: {report['timing']['seconds']:.1f}s", "",
             "## Condition tallies", "",
             "| condition | held | failed |", "|---|---|---|",
             *(f"| {c} | {m['held'][c]} | {m['failed'][c]} |" for c in CONDITION_ORDER),
             "", "## Verdict patterns (" + ", ".join(CONDITION_ORDER) + ")", "",
             "| pattern | count |", "|---|---|",
             *(f"| `{pat}` | {cnt} |" for pat, cnt in sorted(m["patterns"].items())),
             "", f"tower violations: {len(m['violations'])}"]
    if report["dossiers"]:
        lines += ["", f"## Dossiers: {len(report['dossiers'])}"]
    return "\n".join(lines + [""])
