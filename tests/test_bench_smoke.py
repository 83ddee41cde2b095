"""Smoke tests of the benchmark: one short run of each of its four workloads.

They check that bench/run.py still runs end to end and that every output
passes the benchmark's own correctness checks: on reduce, every solved
polygon passes the criterion, a 1e-8 halving gap and the diameter bound.
They assert no timing.  The runs do not trace, so a last test checks that
every function the tracer wraps still exists where bench/spans.py looks.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_clean(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0


def test_measure_workload_runs_clean():
    _run_clean("measure")


def test_reduce_workload_runs_clean():
    _run_clean("reduce")


def test_scan_workload_runs_clean():
    _run_clean("scan")


def test_cli_workload_runs_clean():
    _run_clean("cli")


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{name}" for table in (spans.SPANNED, spans.COUNTED)
               for mod, names in table.items() for name in names
               if not callable(getattr(importlib.import_module(f"hypwidth.{mod}"), name, None))]
    assert missing == []
