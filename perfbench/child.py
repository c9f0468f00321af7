"""One pass of a benchmark run in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N
        --pass K --t0 PARENT_PERF_COUNTER [--trace] [--tiny]

The launcher (run.py) starts this file with qiso's source tree on
PYTHONPATH and single-threaded BLAS, passing the perf_counter value it
read just before starting the process; perf_counter is the system-wide
monotonic clock, so the difference measures interpreter start, `import
qiso` and input generation together.  It also reports the median time
of the host-speed probe (workloads.HostSpeed) over the pass.  The result
is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    import qiso
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(qiso.__file__).startswith(src):
        print(f"qiso imported from {qiso.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    batch = workload.prepare(args.seed, args.tiny)
    setup_s = perf_counter() - args.t0

    host = workloads.HostSpeed()
    for _ in range(3):
        host.probe()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    records = workload.run(batch, host)
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(len(records))
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}-{args.pass_index}.tsv"))

    failures = workload.check(batch, records)
    result = {
        "setup_s": setup_s,
        "host_slice_s": statistics.median(host.slices),
        "latencies": [r.seconds for r in records],
        "labels": [r.label for r in records],
        "failures": [f for f in failures if f],
        "failed": sum(1 for f in failures if f),
        "digest": workload.digest(records),
        "numpy": numpy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
