"""Where the exponential layers stop: time each at rising sizes.

    python3 perfbench/run.py --walls

Runs only on request, never in the measured runs.  Every probe is one
call in its own child process, killed when it exceeds the per-call
budget of BUDGET_S seconds.  Hopf verification builds dense dim^4
complex arrays (16 bytes per entry) in its commutative branch, so a size
whose two such arrays would not fit in half the memory available now is
skipped before anything is built: C(S5), dim 120, needs about 3.3 GB per
array.  The probes also time the ROADMAP's transport baselines at
n = 16 and 32, which are too slow for the measured runs; C(S4)
verification is the Hopf probe at dim 24.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUDGET_S = 40.0
# (layer, size); the size is n points, or the quantum group's dimension
PROBES = [("lipschitz_vertices", n) for n in (5, 6, 7)] + \
    [("boxed_dual_vertices", n) for n in (4, 5)] + \
    [("subset_exhaustion", n) for n in (6, 7, 8, 9)] + \
    [("hopf_verification", dim) for dim in (16, 20, 24, 120)] + \
    [("exact_w1", 16), ("exact_w1", 32), ("float_w1", 32), ("exact_winf", 32)]
HOPF_GROUPS = {16: "dual-D8", 20: "dual-D10", 24: "C(S4)", 120: "C(S5)"}


def dense_bytes(dim: int) -> int:
    return dim ** 4 * 16


def available_bytes() -> int:
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def probe(layer: str, size: int) -> dict:
    """Build the input, then time the one call (in this process)."""
    from qiso import catalog, isometry, quantum_group, transport
    if layer in ("exact_w1", "float_w1", "exact_winf"):
        from workloads import reference_seed, transport_problem
        exact, fl = transport_problem(size, reference_seed(size))
        data = fl if layer == "float_w1" else exact
        t0 = perf_counter()
        if layer == "exact_winf":
            out = [transport.wasserstein_inf(data["space"], data["mu"], data["nu"]).r]
        else:
            out = [transport.transport_with_power(data["space"], data["mu"], data["nu"],
                                                  1).value]
    elif layer == "lipschitz_vertices":
        space = catalog.cycle_metric(size)
        t0 = perf_counter()
        out = transport.enumerate_lipschitz_vertices(space)
    elif layer == "boxed_dual_vertices":
        space = catalog.cycle_metric(size)
        t0 = perf_counter()
        out = transport.enumerate_boxed_dual_vertices(space, 2)
    elif layer == "subset_exhaustion":
        rot = tuple((i + 1) % size for i in range(size))
        ref = tuple((-i) % size for i in range(size))
        action = catalog.permutation_action(catalog.cycle_metric(size), [rot, ref])
        t0 = perf_counter()
        out = [isometry.check_theorem_main(action).holds]
    else:
        name = HOPF_GROUPS[size]
        if name.startswith("dual-D"):
            qg = catalog.dihedral_group_algebra(size // 2, name=name)
        else:
            m = {24: 4, 120: 5}[size]
            gens = [tuple((i + 1) % m for i in range(m)), (1, 0) + tuple(range(2, m))]
            qg = quantum_group.function_algebra_of_group(
                quantum_group.close_generators(m, gens), name=name)
        t0 = perf_counter()
        out = [quantum_group.verify_quantum_group(qg).worst()]
    return {"seconds": perf_counter() - t0, "results": len(out)}


def main() -> int:
    from run import child_env
    env = child_env()
    rows = []
    for layer, size in PROBES:
        row = {"layer": layer, "size": size}
        if layer == "hopf_verification" and 2 * dense_bytes(size) > available_bytes() / 2:
            row["status"] = \
                f"skipped: needs {dense_bytes(size) / 1e9:.1f} GB per dense array"
        else:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), layer, str(size)],
                    cwd=ROOT, env=env, capture_output=True, text=True, timeout=BUDGET_S)
            except subprocess.TimeoutExpired:
                row["status"] = f"over budget: > {BUDGET_S:g} s"
            else:
                if proc.returncode == 0:
                    row.update(json.loads(proc.stdout.strip().splitlines()[-1]))
                    row["status"] = "ok"
                else:
                    row["status"] = f"error: {proc.stderr.strip().splitlines()[-1:]}"
        rows.append(row)
        secs = f"{row['seconds']:10.3f} s" if "seconds" in row else " " * 12
        print(f"  {layer:20s} {size:4d} {secs}  {row['status']}", flush=True)
    print(json.dumps({"budget_s": BUDGET_S, "walls": rows}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    print(json.dumps(probe(sys.argv[1], int(sys.argv[2]))))
