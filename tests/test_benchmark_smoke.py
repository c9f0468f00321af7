"""The benchmark harness in perfbench/ still runs against this source tree.

perfbench/ drives qiso through its public names; its self-test fails
when one of them is renamed or removed, so running it here catches that
in the test suite rather than at benchmark time.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_passes():
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
