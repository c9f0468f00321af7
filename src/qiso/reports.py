"""Batch verification over the catalog, and its reports.

The paper conjectures that its tower of isometries, (D) down to Lip_1,
is one condition.  For a magic-unitary coaction on a finite space, (D),
main and Lip_inf are one condition, so the open part there is the gap
between Lip_inf and Lip_p: the catalog run's `patterns` tally counts
every gap pattern, and every instance on which a stronger condition holds
and a weaker one fails gets a dossier.
Runs are pure functions of (config, catalog): every random draw is seeded
from the config seed, and every dossier carries the instance files inline
so a violation can be replayed.  Searches never assert the open
conjectures; they tally evidence and dossier any would-be counterexample.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

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

# strongest first; every earlier condition must imply every later one
CONDITION_ORDER = ["D", "main", "Lip_inf", "Lip_3", "Lip_2", "Lip_1"]


@dataclass
class SearchConfig:
    kind: str = "catalog"            # a key of RUN_KINDS
    n_range: Sequence[int] = (3, 4)
    metric_model: str = "shortest-path-graph"
    catalog: Optional[List[str]] = None   # entry names; None = all
    random_actions: int = 0
    p_list: Sequence = (1, 2, 3, "inf")
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
    "kind": lambda v: isinstance(v, str) and v in RUN_KINDS,
    "n_range": lambda v: bool(v) and _is_list(v, lambda n: _is_number(n, 2, int)),
    "metric_model": lambda v: isinstance(v, str) and v in METRIC_MODELS,
    "catalog": lambda v: v is None or _is_list(v, lambda s: isinstance(s, str)),
    "random_actions": lambda v: _is_number(v, 0, int),
    "p_list": lambda v: _is_list(v, lambda p: p == "inf" or _is_number(p, 1)),
    "seed": lambda v: _is_number(v, 0, int),
    "time_budget": lambda v: v is None or _is_number(v, 0),
    "jobs": lambda v: _is_number(v, 1, int),
}


@dataclass
class RunReport:
    kind: str
    config: dict
    instances: List[dict] = field(default_factory=list)
    implication_matrix: Dict[str, dict] = field(default_factory=dict)
    dossiers: List[dict] = field(default_factory=list)
    timing: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "config": self.config,
                "instances": self.instances,
                "implication_matrix": self.implication_matrix,
                "dossiers": self.dossiers, "timing": self.timing}

    @staticmethod
    def from_dict(doc: dict) -> "RunReport":
        return RunReport(kind=doc["kind"], config=doc["config"],
                         instances=doc["instances"],
                         implication_matrix=doc["implication_matrix"],
                         dossiers=doc["dossiers"], timing=doc["timing"])


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


def _universal_verdicts(action: CoAction, p_list) -> Dict[str, IsometryVerdict]:
    """The universal verdict of every condition but (D), keyed by its name
    in CONDITION_ORDER: main and Lip_inf from one sweep, then Lip_p for
    each finite p of p_list."""
    main, lip_inf = check_support_universal(action)
    verdicts = {"main": main, "Lip_inf": lip_inf}
    for p in p_list:
        if p not in ("inf", float("inf")):
            verdicts[f"Lip_{p}"] = check_lip_p_universal(action, p)
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


def _replays(action: CoAction, p_list,
             verdicts: Dict[str, IsometryVerdict]) -> Dict[str, list]:
    """Each verdict Lip_p, p in p_list, that has a state (`_state_of`),
    replayed on it by the per-state check's transport solves: its name ->
    the (W_p, margin) of `isometry._pair_margins` at a failure's witness
    pair, or at every pair of `_state_pairs` for a hold.  x <| psi for
    every replayed state comes from one `act_on_points` call."""
    named = [(p, f"Lip_{p}") for p in p_list
             if _state_of(verdicts[f"Lip_{p}"]) is not None]
    images = act_on_points(action, [_state_of(verdicts[name]) for _, name in named])
    every = _state_pairs(action.space)
    out = {}
    for (p, name), image in zip(named, images):
        verdict = verdicts[name]
        pairs = every if verdict.holds else [verdict.witness["pair"]]
        out[name] = _pair_margins(action.space, image, p, pairs)
    return out


def _replay_disagreements(action: CoAction, p_list,
                          verdicts: Dict[str, IsometryVerdict]) -> List[str]:
    """The conditions Lip_p, p in p_list, whose universal verdict the
    per-state check contradicts on the verdict's own state (`_replays`).
    A failure claims one pair, its witness pair, where W_p^p >= lambda_max
    > d_top^p by weak duality (a character's witness sends x and y to Dirac
    masses farther apart, a Lip_inf witness puts mass off the sublevel
    set): it disagrees unless its margin there exceeds tol x max d.  A
    hold disagrees if its margin at any pair does.  A verdict with no
    state, a hold that only characters decide, is a comparison of distance
    ranks and has nothing to replay."""
    limit = action.space.tol * float(action.space.max_distance)
    return [name for name, replayed in _replays(action, p_list, verdicts).items()
            if (max(margin for _, margin in replayed) > limit)
            == verdicts[name].holds]


def verify_instance(desc: dict, p_list=(1, 2, 3, "inf")) -> dict:
    """Everything the verification run records about one action."""
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
    verdicts = _universal_verdicts(action, p_list)
    rec["conditions"] = _condition_flags(verdicts, cut)
    rec["injective"] = bool(check_injectivity(action))
    rec["envelope"] = env_rec
    rec["replay_disagreements"] = _replay_disagreements(action, p_list, verdicts)
    rec["state_consistency"] = not rec["replay_disagreements"]
    rec["seconds"] = time.perf_counter() - t0
    return rec


def _violated(flags: dict) -> List[tuple]:
    """The (stronger, weaker) pairs of CONDITION_ORDER where the stronger
    condition holds and the weaker fails: the tower's implications that
    these verdicts break."""
    return [(strong, weak) for i, strong in enumerate(CONDITION_ORDER)
            for weak in CONDITION_ORDER[i + 1:]
            if flags.get(strong) is True and flags.get(weak) is False]


def implication_tallies(instances: List[dict]) -> Dict[str, dict]:
    """Counts per condition and per ordered implication; 'violations' lists
    (instance, stronger, weaker) triples where the tower failed."""
    held = {c: 0 for c in CONDITION_ORDER}
    failed = {c: 0 for c in CONDITION_ORDER}
    undecided = {c: 0 for c in CONDITION_ORDER}
    violations = []
    pattern_counts: Dict[str, int] = {}
    for rec in instances:
        flags = rec.get("conditions", {})
        pat = "".join("T" if flags.get(c) is True else
                      "F" if flags.get(c) is False else "?"
                      for c in CONDITION_ORDER)
        pattern_counts[pat] = pattern_counts.get(pat, 0) + 1
        for c in CONDITION_ORDER:
            v = flags.get(c)
            if v is True:
                held[c] += 1
            elif v is False:
                failed[c] += 1
            else:
                undecided[c] += 1
        for strong, weak in _violated(flags):
            violations.append({"instance": rec.get("name", "?"),
                               "stronger": strong, "weaker": weak})
    return {"held": held, "failed": failed, "undecided": undecided,
            "patterns": pattern_counts, "violations": violations}


# ---------------------------------------------------------------------------
# the run kinds


def _dossier_replays(action: CoAction, p_list) -> List[dict]:
    """Each failing Lip_p verdict of p_list, decided again, with its
    witness pair, its witness state as a state file (`fileio.state_to_dict`)
    and the W_p replayed there, so that `qiso check --state` replays it
    with no universal check."""
    verdicts = _universal_verdicts(action, p_list)
    failing = [p for p in p_list if not verdicts[f"Lip_{p}"].holds]
    return [{"condition": name, "pair": list(verdicts[name].witness["pair"]),
             "state": state_to_dict(verdicts[name].witness["state"]),
             "wasserstein": replayed[0][0]}
            for name, replayed in _replays(action, failing, verdicts).items()]


def run_catalog_verification(config: SearchConfig) -> RunReport:
    """Verify every descriptor's instance, in order; once the time budget
    is spent, skip (cancel, with jobs > 1) those not yet started.  Every
    instance that breaks an implication of the tower gets a dossier, built
    here rather than in the workers: its verdicts, the (stronger, weaker)
    pairs it breaks, its failing Lip_p verdicts replayed at their witness
    pairs (`_dossier_replays`) and the coaction inline, which replays them."""
    worker = functools.partial(verify_instance, p_list=tuple(config.p_list))
    report = RunReport(kind=config.kind, config=asdict(config))
    descs = instance_descriptors(config)
    t0 = time.perf_counter()
    deadline = t0 + (config.time_budget or float("inf"))
    skipped = 0
    if config.jobs > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(worker, desc) for desc in descs]
            for fut in futures:
                if time.perf_counter() > deadline:
                    skipped += sum(f.cancel() for f in futures if not f.done())
                if not fut.cancelled():
                    report.instances.append(fut.result())
    else:
        for desc in descs:
            if time.perf_counter() > deadline:
                skipped += 1
                continue
            report.instances.append(worker(desc))
    for rec in report.instances:
        violated = _violated(rec["conditions"])
        if violated:
            action = build_instance(rec["descriptor"])
            report.dossiers.append({
                "descriptor": rec["descriptor"], "name": rec["name"],
                "conditions": rec["conditions"],
                "violations": [{"stronger": strong, "weaker": weak}
                               for strong, weak in violated],
                "replays": _dossier_replays(action, config.p_list),
                "coaction": coaction_to_dict(action)})
    report.timing["seconds"] = time.perf_counter() - t0
    report.timing["instances"] = len(report.instances)
    report.timing["skipped_by_budget"] = skipped
    report.implication_matrix = implication_tallies(report.instances)
    return report


# each run kind -> its run function
RUN_KINDS = {"catalog": run_catalog_verification}


def run_search(config: SearchConfig) -> RunReport:
    if config.kind not in RUN_KINDS:
        raise ValueError(f"unknown search kind {config.kind!r}")
    return RUN_KINDS[config.kind](config)


# ---------------------------------------------------------------------------
# report emission


def emit_report(report: RunReport, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=1, default=_json_default)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown format {fmt!r}")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit_csv(report: RunReport) -> str:
    buf = io.StringIO()
    rows = report.instances
    cols = ["name"]
    for r in rows:
        for key in r:
            if key not in cols and not isinstance(r[key], (dict, list)):
                cols.append(key)
    for c in CONDITION_ORDER:
        cols.append(f"cond_{c}")
    writer = csv.writer(buf)
    writer.writerow(cols)
    for r in rows:
        row = []
        for c in cols:
            if c.startswith("cond_"):
                row.append(r.get("conditions", {}).get(c[5:], ""))
            else:
                row.append(r.get(c, ""))
        writer.writerow(row)
    return buf.getvalue()


def _emit_markdown(report: RunReport) -> str:
    lines = [f"# {report.kind} run", "",
             f"instances: {len(report.instances)}  "
             f"time: {report.timing.get('seconds', 0):.1f}s", ""]
    if "patterns" in report.implication_matrix:
        m = report.implication_matrix
        lines.append("## Condition tallies")
        lines.append("")
        lines.append("| condition | held | failed | undecided |")
        lines.append("|---|---|---|---|")
        for c in CONDITION_ORDER:
            lines.append(f"| {c} | {m['held'][c]} | {m['failed'][c]} "
                         f"| {m['undecided'][c]} |")
        lines.append("")
        lines.append("## Verdict patterns (" + ", ".join(CONDITION_ORDER) + ")")
        lines.append("")
        lines.append("| pattern | count |")
        lines.append("|---|---|")
        for pat, cnt in sorted(m["patterns"].items()):
            lines.append(f"| `{pat}` | {cnt} |")
        lines.append("")
        lines.append(f"tower violations: {len(m['violations'])}")
    if report.dossiers:
        lines.append("")
        lines.append(f"## Dossiers: {len(report.dossiers)}")
    lines.append("")
    return "\n".join(lines)
