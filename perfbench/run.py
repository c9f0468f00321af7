"""The qiso benchmark.

    python3 perfbench/run.py --workload {catalog,classical,transport,hopf}
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke    # self-tests at tiny sizes
    python3 perfbench/run.py --walls    # exponential-layer walls and baselines

Run from the repository root.  A run is a whole number of passes over
the same seeded inputs, each pass in a fresh interpreter (child.py) with
qiso's `src/` on PYTHONPATH and one BLAS thread; each pass's times are
scaled to a reference host speed (see `at_reference_speed`).  With
`--trace 0` the result carries the end-to-end metrics, taken as medians
over the passes;
with `--trace 1` it carries the per-layer metrics of traced passes plus
the tracing overhead against untraced passes on the same inputs.  The
last line of standard output is the JSON result; the lines before it
print every metric by name and unit, and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
# an upper bound on the seconds one pass of any workload takes on the seed
# commit, at the host's slow phase (a pass takes 4-7.5 s); a run is
# round(seconds / this) passes, so that it repeats the same work on every
# commit
PASS_SECONDS = 7.5
WORKLOADS = ("catalog", "classical", "transport", "hopf")
RUN_DEADLINE_S = 170   # the whole run, children included, ends before this
# median time of one HostSpeed probe slice on the reference host; every
# pass's times are scaled by this over the pass's own median slice
REFERENCE_SLICE_S = 0.0032

UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
         "item_tail_s": "s", "failed_share": "ratio", "peak_rss_mb": "MB"}
# failed_share is 0 on a correct program, so the result line carries it as
# the `attempted` and `failed` counts rather than as a metric
RESULT_METRICS = ("setup_s", "items_per_s", "item_p50_s", "item_tail_s", "peak_rss_mb")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def launch(workload: str, seed: int, index: int, deadline: float,
           trace=False, tiny=False) -> dict:
    """Run pass `index` in a fresh interpreter and return its output."""
    args = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
            "--pass", str(index)]
    args += ["--trace"] if trace else []
    args += ["--tiny"] if tiny else []
    remaining = deadline - perf_counter()
    if remaining <= 1:
        raise ChildFailed("no time left for another pass")
    t0 = perf_counter()
    try:
        proc = subprocess.run(args + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as ex:
        raise ChildFailed(f"{workload} pass exceeded the run deadline") from ex
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} pass exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return at_reference_speed(json.loads(proc.stdout.strip().splitlines()[-1]))


def at_reference_speed(run: dict) -> dict:
    """Scale a pass's times by its host-speed factor, the reference probe
    time over the pass's median probe time, keeping the raw times too."""
    run["speed"] = REFERENCE_SLICE_S / run["host_slice_s"]
    run["raw_latencies"], run["raw_setup_s"] = run["latencies"], run["setup_s"]
    run["latencies"] = [sec * run["speed"] for sec in run["latencies"]]
    run["setup_s"] *= run["speed"]
    return run


def passes_for(seconds: float) -> int:
    return max(1, int(seconds / PASS_SECONDS + 0.5))


def tail(samples):
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it, or None below 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def item_medians(runs) -> list:
    """Each item's latency: its median over the passes."""
    return [statistics.median(lat) for lat in zip(*(r["latencies"] for r in runs))]


def item_kind(label: str) -> str:
    """The label without its draw and seed numbers."""
    label = re.sub(r"-s\d+:", ":", label)
    return re.sub(r"random-(perm|quantum)-\d+", r"random-\1", label)


def by_kind(runs) -> list:
    groups: dict = {}
    for label, sec in zip(runs[0]["labels"], item_medians(runs)):
        groups.setdefault(item_kind(label), []).append(sec)
    return [f"  item {kind:36s} n={len(v):3d} median={statistics.median(v):.6f} s"
            for kind, v in groups.items()]


def mismatches(reference: list, runs) -> int:
    """Outputs of `runs` that differ from the same item's in `reference`."""
    return sum(sum(1 for a, b in zip(reference, r["digest"]) if a != b) +
               abs(len(reference) - len(r["digest"])) for r in runs)


def end_to_end(runs) -> dict:
    """The end-to-end metrics of a run's passes, from times scaled to the
    reference host speed.  Medians over passes damp the host's bursts:
    items_per_s is the item count over the sum of each item's median
    latency, p50 and tail are taken over every latency sample of every
    pass."""
    samples = [sec for r in runs for sec in r["latencies"]]
    per_item = item_medians(runs)
    out = {"setup_s": statistics.median(r["setup_s"] for r in runs),
           "items_per_s": len(per_item) / sum(per_item),
           "item_p50_s": statistics.median(samples),
           "failed_share": sum(r["failed"] for r in runs) / len(samples),
           "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
    t = tail(samples)
    if t is not None:
        out["item_tail_s"] = t[0]
    return out


def describe(metrics: dict, runs) -> list:
    samples = sum(len(r["latencies"]) for r in runs)
    items = len(runs[0]["latencies"])
    failed = sum(r["failed"] for r in runs)
    notes = {"setup_s": f"median of {len(runs)} fresh interpreters",
             "items_per_s": f"{items} items per pass, median latency of each "
                            f"over {len(runs)} passes",
             "item_p50_s": f"median of {samples} samples",
             "failed_share": f"{failed} of {samples} items failed",
             "peak_rss_mb": f"median over {len(runs)} passes of the pass's peak"}
    t = tail([sec for r in runs for sec in r["latencies"]])
    if t is not None:
        notes["item_tail_s"] = f"p{t[1]:.1f} of {samples} samples"
    lines = [f"  {name:14s} {metrics[name]:12.6g} {UNITS[name]:6s} {notes[name]}"
             for name in UNITS if name in metrics]
    raw = [dict(r, latencies=r["raw_latencies"], setup_s=r["raw_setup_s"]) for r in runs]
    unscaled = end_to_end(raw)
    speeds = sorted(r["speed"] for r in runs)
    lines.append(f"  times above are scaled to the reference host speed; host speed "
                 f"factor per pass {speeds[0]:.3f}-{speeds[-1]:.3f}; unscaled: " +
                 " ".join(f"{name}={unscaled[name]:.6g}" for name in
                          ("setup_s", "items_per_s", "item_p50_s", "item_tail_s")
                          if name in unscaled))
    return lines


def provenance(seed: int, child: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": child.get("numpy"),
            "cpu": cpu, "nproc": os.cpu_count(), "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, passes: int, trace: bool,
            tiny: bool = False) -> tuple:
    """(result line, human-readable lines, the first measured pass's
    output) for one benchmark run of `passes` passes."""
    deadline = perf_counter() + RUN_DEADLINE_S
    if not trace:
        runs = [launch(workload, seed, k, deadline, tiny=tiny) for k in range(passes)]
        mismatched = mismatches(runs[0]["digest"], runs[1:])
        failed = sum(r["failed"] for r in runs) + mismatched
        metrics = end_to_end(runs)
        lines = describe(metrics, runs) + by_kind(runs)
        if mismatched:
            lines.append(f"  {mismatched} outputs differ between passes")
        result = {"correct": failed == 0,
                  "attempted": sum(len(r["latencies"]) for r in runs), "failed": failed,
                  "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                              for name in RESULT_METRICS if name in metrics}}
        return result, lines, runs[0]
    # untraced and traced passes alternate, so that a drift in host speed
    # falls on both; the untraced ones give the overhead
    from tracer import UNITS as LAYER_UNITS
    plain, traced = [], []
    for k in range(max(2, passes)):
        if k % 2:
            traced.append(launch(workload, seed, k, deadline, trace=True, tiny=tiny))
        else:
            plain.append(launch(workload, seed, k, deadline, tiny=tiny))
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead"] = (statistics.median(sum(r["latencies"]) for r in traced) /
                                statistics.median(sum(r["latencies"]) for r in plain) - 1)
    mismatched = mismatches(plain[0]["digest"], plain[1:] + traced)
    failed = sum(r["failed"] for r in plain + traced) + mismatched
    lines = [f"  {name:52s} {value:14.6g} {LAYER_UNITS[name]}"
             for name, value in sorted(layers.items())]
    if mismatched:
        lines.append(f"  {mismatched} outputs differ between passes, traced or not")
    result = {"correct": failed == 0,
              "attempted": sum(len(r["latencies"]) for r in plain + traced),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": LAYER_UNITS[name]}
                          for name, value in layers.items()}}
    return result, lines, traced[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the self-tests")
    ap.add_argument("--walls", action="store_true",
                    help="time the exponential layers at rising sizes")
    args = ap.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.smoke:
        import smoke
        return smoke.main()
    if args.walls:
        import walls
        return walls.main()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, lines, child = measure(args.workload, args.seed,
                                       passes_for(args.seconds),
                                       bool(args.trace))
    except ChildFailed as ex:
        print(f"benchmark run failed: {ex}", file=sys.stderr)
        return 1
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("  provenance " + json.dumps(provenance(args.seed, child)))
    for line in lines:
        print(line)
    for failure in child["failures"][:10]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
