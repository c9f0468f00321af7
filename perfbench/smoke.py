"""Self-tests of the benchmark, at tiny sizes.

    python3 perfbench/run.py --smoke

1. Every workload, untraced and traced, prints each of its metrics with
   its unit, and its outputs pass their checks.
2. Self time is computed correctly for synthetic nested spans, recorded
   and live.
3. Each oracle rejects a deliberately corrupted output, and a catalog
   search that raises counts every item it owed as failed.

Exits 0 when every test passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import sys
import time
from fractions import Fraction

import run
import tracer

ROOT = run.ROOT


def test_metrics_printed(failures: list) -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, lines, child = run.measure(workload, 1, 3, trace, tiny=True)
            tag = f"{workload} trace={int(trace)}"
            if trace:
                units = tracer.UNITS
            else:
                units = {name: run.UNITS[name] for name in run.RESULT_METRICS}
                units["failed_share"] = run.UNITS["failed_share"]
                if result["attempted"] < 11:
                    del units["item_tail_s"]
            text = "\n".join(lines)
            for name, unit in units.items():
                if not any(name in line.split() and unit in line.split()
                           for line in lines):
                    failures.append(f"{tag}: {name} [{unit}] not printed in\n{text}")
                got = result["metrics"].get(name)
                if name != "failed_share" and (got is None or got["unit"] != unit):
                    failures.append(f"{tag}: result line lacks {name} [{unit}]")
            if not result["correct"]:
                failures.append(f"{tag}: outputs failed their checks: {child['failures']}")


def test_self_time(failures: list) -> None:
    # A [0, 10] holds B [1, 4] and C [5, 6]; B holds D [2, 3]
    agg = tracer.aggregate(["A", "B", "D", "C"], [-1, 0, 1, 0],
                           [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 6.0])
    want = {"A": 6.0, "B": 2.0, "C": 1.0, "D": 1.0}
    for name, self_s in want.items():
        if abs(agg[name]["self_s"] - self_s) > 1e-12:
            failures.append(f"self time of {name}: {agg[name]['self_s']}, want {self_s}")

    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()
    t.wrap("outer", body)()
    agg = t.aggregate()
    outer, inner_row = agg["outer"], agg["inner"]
    if inner_row["calls"] != 2 or outer["calls"] != 1:
        failures.append(f"live spans miscounted: {agg}")
    if abs(outer["self_s"] - (outer["total_s"] - inner_row["total_s"])) > 1e-9 \
            or not 0.009 <= outer["self_s"] < 0.03:
        failures.append(f"live self time wrong: {agg}")


def test_oracles(failures: list) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import oracles
    import workloads
    from qiso import isometry, reports

    def expect(label, reason, corrupted: bool):
        if corrupted and reason is None:
            failures.append(f"oracle accepted a corrupted output: {label}")
        if not corrupted and reason is not None:
            failures.append(f"oracle rejected a correct output: {label}: {reason}")

    # a flipped verdict
    action = workloads.cycle_action(4, True, [2, 0, 3, 1])
    verdict = isometry.check_D(action)
    rec = workloads.Record("D4:D", 0.0, verdict, context={"expected": True})
    expect("classical verdict", oracles.check_verdict(rec), False)
    rec.value = dataclasses.replace(verdict, holds=False)
    expect("flipped classical verdict", oracles.check_verdict(rec), True)

    # a catalog record with a flipped condition or a raised residual
    inst = reports.verify_instance({"source": "catalog", "name": "cyclic-3"})
    rec = workloads.Record("cyclic-3", 0.0, inst, context={"violations": []})
    expect("catalog record", oracles.check_catalog_record(rec), False)
    for key, value in (("conditions", dict(inst["conditions"], Lip_2=False)),
                       ("quantum_group_residual", 2e-10),
                       ("state_consistency", False)):
        rec.value = dict(inst, **{key: value})
        expect(f"catalog record with {key} changed",
               oracles.check_catalog_record(rec), True)
    # a search that raises, or exits non-zero, fails every item it owed
    catalog = workloads.Catalog()
    invocation = catalog.prepare(1, tiny=True)
    original = reports.verify_instance
    for exc in (ZeroDivisionError, KeyError):
        calls = []

        def broken(desc, *args, exc=exc, calls=calls, **kwargs):
            calls.append(desc)
            if len(calls) == 2:
                raise exc("injected")
            return original(desc, *args, **kwargs)
        reports.verify_instance = broken
        try:
            with contextlib.redirect_stderr(io.StringIO()):  # the CLI's error line
                records = catalog.run(invocation, workloads.HostSpeed())
        finally:
            reports.verify_instance = original
        reasons = catalog.check(invocation, records)
        if len(records) != invocation["instances"] or not all(reasons) \
                or len(catalog.digest(records)) != len(records):
            failures.append(f"catalog search raising {exc.__name__}: "
                            f"{len(records)} records, reasons {reasons}")
    if oracles.expected_pattern(reports.build_instance(
            {"source": "catalog", "name": "dual-d4-asymmetric"})) != "FFFFFF":
        failures.append("recorded pattern of dual-d4-asymmetric is not FFFFFF")

    # perturbed transport values
    items = workloads.Transport().prepare(1, tiny=True)
    records = workloads.run_items(items, workloads.HostSpeed())
    expect("transport", next(filter(None, oracles.check_transport(records)), None), False)
    by_label = {r.label: r for r in records if r.label.startswith("n5-s1:")}
    tweaks = {
        "n5-s1:exact:W1": lambda v: dataclasses.replace(
            v, value=v.value + Fraction(1, 1000)),
        "n5-s1:exact:W2": lambda v: dataclasses.replace(
            v, duals=dataclasses.replace(v.duals, f=(v.duals.f[0] + 1,) + v.duals.f[1:])),
        "n5-s1:exact:K": lambda v: (v[0] + Fraction(1, 1000), v[1]),
        "n5-s1:exact:Winf": lambda v: dataclasses.replace(v, lower_violator=None),
        "n5-s1:float:W1": lambda v: dataclasses.replace(v, value=v.value * (1 + 1e-6)),
    }
    for label, tweak in tweaks.items():
        rec = by_label[label]
        original = rec.value
        rec.value = tweak(original)
        expect(f"perturbed {label}", next(filter(None, oracles.check_transport(records)),
                                          None), True)
        rec.value = original

    # a raised axiom residual and a non-invariant Haar functional
    items = workloads.Hopf().prepare(1, tiny=True)
    records = workloads.run_items(items, workloads.HostSpeed())
    for rec in records:
        expect(rec.label, oracles.check_hopf(rec), False)
    rec = next(r for r in records if "group" in r.context)
    report, haar = rec.value
    raised = dataclasses.replace(report, residuals=dict(report.residuals, counit=2e-10))
    rec.value = (raised, haar)
    expect("axiom residual raised above 1e-10", oracles.check_hopf(rec), True)
    state = haar.state
    skewed = type(state)(state.owner, [rho * (1 + 0.1 * k) for k, rho in
                                       enumerate(state.densities)])
    rec.value = (report, dataclasses.replace(haar, state=skewed))
    expect("non-invariant Haar functional", oracles.check_hopf(rec), True)
    env_rec = next(r for r in records if "action" in r.context)
    env_rec.context = dict(env_rec.context, action=workloads.equal_cross_blocks_action(
        4, random.Random(0)))
    expect("envelope of the wrong quantum group", oracles.check_hopf(env_rec), True)


def main() -> int:
    failures: list = []
    for test in (test_self_time, test_oracles, test_metrics_printed):
        before = len(failures)
        test(failures)
        print(f"  {test.__name__:24s} {'ok' if len(failures) == before else 'FAILED'}",
              flush=True)
    for failure in failures:
        print(f"FAILED {failure}")
    print("smoke: " + ("all passed" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0
