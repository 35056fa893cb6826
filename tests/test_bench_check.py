"""The benchmark's own output check, run as part of the test suite.

`bench/run.py --quick` runs every workload at its smoke size and compares
each output with `bench/reference/`, at the tolerance that `bench/check.py`
applies.  So a change that moves any output the benchmark checks fails
here, and not only when the benchmark itself is run.  It writes its run
records to `bench/out/`, which git ignores.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_quick_run_matches_reference():
    proc = subprocess.run([sys.executable, "bench/run.py", "--quick"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
