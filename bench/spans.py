"""Per-layer tracing of hypwidth from outside the package.

Nothing under ``src/`` changes.  :meth:`Tracer.install` replaces every module
attribute that refers to a traced function (in the defining module, in the
package namespace and in each module that imported the name) with a wrapper,
and :meth:`Tracer.uninstall` puts the originals back, so timed runs carry no
wrappers.  Spans stay in memory as ``[name, start, end, parent, op, n,
raised]`` and are written out once the run ends.

A span's self time is its duration minus the time its child spans cover;
children nest strictly inside their parent because everything runs on one
thread.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Functions wrapped in spans, by module of the package.  Each runs for tens of
# microseconds or more, so the cost of a span (about a microsecond) stays small
# beside it.
SPANNED = {
    "width": ("thickness", "diameter", "diameter_via_width", "width_line"),
    "reduced": ("regular_ngon", "regular_ngon_with_thickness",
                "solve_ordinary_reduced", "check_ordinary_reduced",
                "perimeter_halving", "diameter_within_bound"),
    "extremal": ("ratio_scan", "circumdisk", "indisk"),
    "polygon": ("make_polygon", "perimeter", "area"),
    "polyio": ("parse_polygon", "emit_polygon"),
    "cli": ("main",),
}

# Microsecond-scale primitives: a span would mostly time its own wrapper, so
# these are only counted.
COUNTED = {
    "hcore": ("dist_pp", "foot", "signed_dist", "angle_at", "unit_timelike",
              "chart_to_hyperboloid"),
}

NAME, START, END, PARENT, OP, N, RAISED = range(7)

REGULAR = "reduced.regular_ngon_with_thickness"
SOLVE = "reduced.solve_ordinary_reduced"


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1  # index of the operation the next spans belong to
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "hypwidth" or name.startswith("hypwidth.")]
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for mod, names in table.items():
                module = sys.modules.get(f"hypwidth.{mod}")
                if module is None:  # e.g. the cli module outside the cli workload
                    continue
                for fname in names:
                    fn = getattr(module, fname)
                    wrapper = make(f"{mod}.{fname}", fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, attr, wrapper)
                                self._restore.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   getattr(args[0], "n", None) if args else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # Attribute the failure to the innermost traced function only.
                if not getattr(exc, "_bench_seen", False):
                    exc._bench_seen = True
                    rec[RAISED] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT], "op": s[OP],
                                     "n": s[N], "raised": s[RAISED]}) + "\n")

    def summary(self) -> dict:
        """Calls, self and total seconds, vertex sums and raised errors per name."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                         "n_sum": 0, "raised": Counter()})
        for s, child in zip(self.spans, covered):
            rec = out[s[NAME]]
            rec["calls"] += 1
            rec["total_s"] += s[END] - s[START]
            rec["self_s"] += s[END] - s[START] - child
            rec["n_sum"] += s[N] if isinstance(s[N], int) else 0
            if s[RAISED]:
                rec["raised"][s[RAISED]] += 1
        return dict(out)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        total = 0
        for s in self.spans:
            if s[NAME] != name:
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] != ancestor:
                p = self.spans[p][PARENT]
            total += p >= 0
        return total


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, normalised to one pass."""
    summ = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "n_sum": 0, "raised": Counter()}

    def get(name):
        return summ.get(name, empty)

    def calls(name):
        return get(name)["calls"] / passes

    def self_ms(name):
        return 1e3 * get(name)["self_s"] / passes

    thick = get("width.thickness")
    regular_calls = get(REGULAR)["calls"]
    solve = get(SOLVE)
    m = {
        "width.thickness.calls": calls("width.thickness"),
        "width.thickness.self_ms": self_ms("width.thickness"),
        "width.thickness.us_per_vertex":
            1e6 * thick["self_s"] / thick["n_sum"] if thick["n_sum"] else 0.0,
        "width.diameter_via_width.self_ms": self_ms("width.diameter_via_width"),
        "width.diameter.self_ms": self_ms("width.diameter"),
        "width.width_line.self_ms": self_ms("width.width_line"),
        f"{REGULAR}.calls": calls(REGULAR),
        f"{REGULAR}.self_ms": self_ms(REGULAR),
        "reduced.regular.thickness_calls_per_call":
            tracer.calls_under("width.thickness", REGULAR) / regular_calls
            if regular_calls else 0.0,
        f"{SOLVE}.calls": calls(SOLVE),
        f"{SOLVE}.self_ms": self_ms(SOLVE),
        f"{SOLVE}.ok_ratio":
            1.0 - sum(solve["raised"].values()) / solve["calls"] if solve["calls"] else 0.0,
        "reduced.solve.failures.NoConvergence": solve["raised"]["NoConvergence"] / passes,
        "reduced.solve.failures.LeftFamily": solve["raised"]["LeftFamily"] / passes,
        "reduced.failures.BracketFailure": sum(
            rec["raised"]["BracketFailure"] for name, rec in summ.items()
            if name.startswith("reduced.")) / passes,
        "reduced.check_ordinary_reduced.self_ms": self_ms("reduced.check_ordinary_reduced"),
        "reduced.perimeter_halving.self_ms": self_ms("reduced.perimeter_halving"),
        "extremal.indisk.calls": calls("extremal.indisk"),
        "extremal.indisk.self_ms": self_ms("extremal.indisk"),
        "extremal.circumdisk.calls": calls("extremal.circumdisk"),
        "extremal.circumdisk.self_ms": self_ms("extremal.circumdisk"),
        "polygon.make_polygon.calls": calls("polygon.make_polygon"),
        "polygon.make_polygon.self_ms": self_ms("polygon.make_polygon"),
        "polyio.parse_polygon.self_ms": self_ms("polyio.parse_polygon"),
        "polyio.emit_polygon.self_ms": self_ms("polyio.emit_polygon"),
        "cli.main.self_ms": self_ms("cli.main"),
    }
    for mod, names in COUNTED.items():
        for fname in names:
            m[f"{mod}.{fname}.calls"] = tracer.counts[f"{mod}.{fname}"] / passes
    for mod in SPANNED:
        m[f"layer.{mod}.self_ms"] = 1e3 * sum(
            rec["self_s"] for name, rec in summ.items()
            if name.startswith(mod + ".")) / passes
    return m
