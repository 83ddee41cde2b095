"""One benchmark process: set up a workload, then time it or trace it.

Started by ``run.py`` with the thread pins already in its environment;
prints one JSON object as its last line of output.  Modes:

- ``setup``: import, input generation and warm-up only, to time set-up;
- ``timed``: set up, then run whole passes for about ``--seconds``;
- ``traced``: set up, run whole passes untraced for about half of
  ``--seconds``, then as many passes again with the tracer installed.

An exception that is not a typed hypwidth error ends the process with a
traceback and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 5
TAIL_BEYOND = 10  # samples the reported tail percentile leaves above it


def run_passes(wl, runner, seconds: float | None = None, passes: int | None = None,
               min_passes: int = 1, before_pass=None) -> dict:
    """Run whole passes of ``wl`` through ``runner`` and check every output.

    Given ``seconds``, passes go on (at least ``min_passes`` of them) while
    the next one is expected to end no more than half a pass after
    ``seconds`` of operation time, which keeps the run length close to
    ``seconds`` without cutting a pass.  Records are (op index in the pass,
    seconds, size class).
    """
    out = {"records": [], "busy_s": 0.0, "passes": 0, "attempted": 0, "failed": 0,
           "requested": 0, "delivered": 0, "errors": [], "failures": {}}
    while True:
        if before_pass is not None:
            before_pass()
        for i, op in enumerate(wl.ops):
            result, dt = runner(op)
            res = wl.check(op, result)
            out["records"].append((i, dt, op.size))
            out["busy_s"] += dt
            out["attempted"] += 1
            out["failed"] += bool(res.errors)
            out["requested"] += res.requested
            out["delivered"] += res.delivered
            out["errors"].extend(res.errors[: max(0, 5 - len(out["errors"]))])
            for cls, k in res.failures.items():
                out["failures"][cls] = out["failures"].get(cls, 0) + k
        out["passes"] += 1
        if passes is not None:
            if out["passes"] >= passes:
                return out
        elif (out["passes"] >= min_passes
              and out["busy_s"] * (1.0 + 0.5 / out["passes"]) >= seconds):
            return out


def import_ms(env: dict) -> float:
    """Median wall time of a bare ``python -c "import hypwidth"`` process."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import hypwidth"], env=env, check=True,
                       timeout=60)
        times.append(1e3 * (perf_counter() - t0))
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--spans", help="file for the spans of a traced run")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import hypwidth  # noqa: F401  (timed as part of set-up)
    import numpy
    from workloads import WORKLOADS

    env = dict(os.environ, PYTHONPATH=str(SRC))
    (BENCH / "tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "tmp") as workdir:
        wl = WORKLOADS[args.workload](args.seed, workdir, env)
        # Warm-up: the first operation of the pass, checked like the rest.
        result, _ = wl.run(wl.ops[0])
        warm = wl.check(wl.ops[0], result)
        setup_s = perf_counter() - T_START
        report = {"setup_s": setup_s, "python": platform.python_version(),
                  "numpy": numpy.__version__, "hypwidth_file": hypwidth.__file__}
        if warm.errors:
            report["warmup_errors"] = warm.errors
        if args.mode == "timed":
            # Enough passes that a percentile with TAIL_BEYOND samples above
            # it lies above the median.
            min_passes = -(-(2 * TAIL_BEYOND + 1) // len(wl.ops))
            report.update(run_passes(wl, wl.run, seconds=args.seconds, min_passes=min_passes))
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            report["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
        elif args.mode == "traced":
            from spans import Tracer, layer_metrics

            base = run_passes(wl, wl.run_traced, seconds=0.5 * args.seconds)
            tracer = Tracer()

            def documents():
                # Each traced pass serialises its input documents again, so
                # polyio.emit_polygon is timed too; these spans carry op -1.
                tracer.op = -1
                wl.documents()

            op_ids = itertools.count()

            def run_op(op):
                tracer.op = next(op_ids)
                return wl.run_traced(op)

            tracer.install()
            try:
                traced = run_passes(wl, run_op, passes=base["passes"], before_pass=documents)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, traced["passes"])
            metrics["cli.import_ms"] = import_ms(env)
            metrics["trace.overhead_share"] = traced["busy_s"] / base["busy_s"] - 1.0
            traced.pop("records")
            report.update(traced, layer_metrics=metrics, spans=len(tracer.spans),
                          span_summary={k: {"calls": v["calls"], "self_s": v["self_s"],
                                            "raised": dict(v["raised"])}
                                        for k, v in tracer.summary().items()},
                          counts=dict(tracer.counts))
            if args.spans:
                tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
