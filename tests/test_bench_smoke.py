"""Smoke test of the benchmark: one short run of the measure workload.

It checks that bench/run.py still runs end to end and that every output
passes the benchmark's own correctness checks.  It asserts no timing.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_measure_workload_runs_clean():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "measure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
