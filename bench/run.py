"""Benchmark of hypwidth: one workload, one seed, one run per call.

    python3 bench/run.py --workload {scan,measure,reduce,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is imported from
``src/``, so nothing needs to be built or installed.  Every workload runs in
processes of its own with BLAS and OpenMP pinned to one thread, as a closed
loop with one client: the next operation starts when the previous one has
returned.  Inputs come from ``--seed`` only.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
set-up is timed in three processes (two that only set up, and the measuring
one) and reported as their median.  With ``--trace 1`` one process times the
same passes untraced and then traced, and reports the per-layer metrics; its
spans are written to ``bench/out/``.  The last line of output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a full report with the environment, counts and
diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import TAIL_BEYOND

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scan", "measure", "reduce", "cli")
SETUP_PROCESSES = 3
BUDGET_S = 170.0  # a run must end within 180 s

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

KNOWN_FINDINGS = [
    "corpus.perturbed_polygon(regular_ngon(101, 1.0), default_rng(1)) raises "
    "GeometryError ('perturbation kept breaking convexity'); the benchmark "
    "generates its own inputs instead of working around it.",
    "scan seed 4, cell (5, 1.0), ratio_scan rng_seed 2019575649: circumdisk runs its "
    "whole 200000-step descent budget, about 8 s for the cell against about 1 s; about "
    "one scan seed in 18 meets such a cell.",
    "solve_ordinary_reduced at delta 1 from the eighth perturbed_polygon(reg, "
    "default_rng(2033292699)) of the regular 31-gon of thickness 1 passes "
    "check_ordinary_reduced with a halving gap of 1.71e-8 > 1e-8; reduce's fixed "
    "solver seeds do not meet this case.",
]


class WorkerFailed(Exception):
    pass


def worker(args, mode: str, deadline: float, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # A session of its own lets a timeout stop the worker's children too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=dict(os.environ, **THREAD_PINS),
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{mode} process exceeded the time budget") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} process exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def environment(rep: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "python": rep["python"], "numpy": rep["numpy"],
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(), "thread_pins": THREAD_PINS}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND values above it: value, percentile, beyond."""
    s = sorted(latencies)
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s) - k - 1


def end_to_end(rep: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of a timed run.

    Every pass times the same operations, so each operation has one latency
    sample per pass.  Latencies are taken per operation as the mean of its
    samples, and the medians over operations.  The host's speed switches
    between states up to about 1.8x apart, from several times a second to
    once in tens of seconds: a median over few samples, or a fastest sample,
    then lands in either state from run to run, while a mean moves only
    with the share of the run spent in each.  A median over all samples at
    once would also jump from one operation's cost to another's.  Throughput
    is what the run achieved: operations over their summed latency.
    """
    latencies = [dt for _, dt, _ in rep["records"]]
    by_op: dict[int, list[float]] = {}
    size_of: dict[int, str] = {}
    for i, dt, size in rep["records"]:
        by_op.setdefault(i, []).append(dt)
        size_of[i] = size
    op_mean = {i: statistics.fmean(v) for i, v in by_op.items()}
    tail_s, tail_pct, beyond = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": rep["attempted"] / rep["busy_s"],
        "op_p50_ms": 1e3 * statistics.median(op_mean.values()),
        "ok_share": rep["delivered"] / rep["requested"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    for size in ("small", "mid", "large"):
        values[f"op_p50_ms.{size}"] = 1e3 * statistics.median(
            m for i, m in op_mean.items() if size_of[i] == size)
    details = {"op_mean_ms": [1e3 * op_mean[i] for i in sorted(op_mean)],
               "op_min_ms": [1e3 * min(by_op[i]) for i in sorted(by_op)],
               "op_tail_ms": 1e3 * tail_s, "samples": len(latencies),
               "tail_percentile": tail_pct, "samples_beyond_tail": beyond,
               "setup_samples_s": setups, "failed_share": 1.0 - values["ok_share"]}
    return values, details


def main() -> int:
    ap = argparse.ArgumentParser(description="hypwidth benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hypwidth" / "__init__.py").is_file():
        print(f"no hypwidth sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = perf_counter() + BUDGET_S
    try:
        if args.trace:
            (BENCH / "out").mkdir(exist_ok=True)
            spans = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            rep = worker(args, "traced", deadline, spans)
            values, details = rep.pop("layer_metrics"), {"spans_file": str(spans)}
            wanted = spec["per_layer"]
        else:
            setups = [worker(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_PROCESSES - 1)]
            rep = worker(args, "timed", deadline)
            setups.append(rep["setup_s"])
            values, details = end_to_end(rep, setups)
            wanted = spec["end_to_end"]
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = rep["failed"]
    rep.pop("records", None)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(rep), **details,
              "known_findings": KNOWN_FINDINGS,
              **{k: v for k, v in rep.items() if k not in ("python", "numpy", "setup_s")}}
    print(json.dumps(report))
    correct = failed == 0 and not rep.get("warmup_errors")
    print(json.dumps({"correct": correct, "attempted": rep["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
