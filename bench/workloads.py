"""Seeded inputs and the four workloads of the hypwidth benchmark.

Each workload builds its inputs once (from the seed, on measure and cli), then
runs the same *pass* (a fixed, ordered list of operations) again and again.
A pass holds the same number of operations of each of three size classes, so
medians and throughput do not depend on where a run stops.  ``run`` times one
operation and returns its output; ``check`` compares the output with an
independent oracle outside the timed region.

Workloads call hypwidth through module attributes at call time (``hw.thickness``
rather than a local alias), so the tracer in ``spans.py`` sees every call.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import hypwidth as hw
from hypwidth.corpus import perturbed_polygon
from hypwidth.errors import GeometryError, NumericalError

SIZES = ("small", "mid", "large")

EQUAL_TOL = 1e-9      # closed forms and thickness targets
DIAMETER_TOL = 1e-8   # diameter_via_width against diameter
HALVING_TOL = 1e-8    # perimeter-halving gaps of solved polygons


@dataclass
class Outcome:
    """Checked result of one operation.

    requested counts the results the operation was asked for (rows of a scan
    cell, solve attempts of a reduce cell, else 1); delivered those that came
    back and passed their checks.  errors lists wrong outputs; failures counts
    typed hypwidth errors by class.
    """

    requested: int = 1
    delivered: int = 0
    errors: list[str] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)


@dataclass
class Op:
    size: str
    args: tuple
    expect: dict = field(default_factory=dict)


# ----------------------------------------------------------------- inputs

def regular_thickness(n: int, R: float) -> float:
    """Thickness of the regular odd n-gon of circumradius R (closed form)."""
    return R + math.atanh(math.tanh(R) * math.cos(math.pi / n))


def _isometry(rng: np.random.Generator, shift: float) -> np.ndarray:
    """Rotation by a random angle after a translation by ``shift`` along x."""
    a = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(a), math.sin(a)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    ch, sh = math.cosh(shift), math.sinh(shift)
    return rot @ np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])


def convex_polygon(rng: np.random.Generator, n: int, R: float, *,
                   angular: float, shift: float):
    """Strictly convex n-gon inscribed in a circle of radius R, at any n.

    Vertex k sits at angle 2*pi*k/n, jittered by up to ``angular`` (< 0.5) of
    the spacing so the angular order is kept.  Distinct points of a circle
    in angular order are in strictly convex position.  A seeded isometry
    translating by ``shift`` then moves the polygon off the chart origin.
    """
    theta = 2.0 * math.pi / n * (np.arange(n) + angular * rng.uniform(-1.0, 1.0, n))
    pts = np.column_stack([math.sinh(R) * np.cos(theta), math.sinh(R) * np.sin(theta),
                           np.full(n, math.cosh(R))])
    pts = pts @ _isometry(rng, shift).T
    pts /= np.sqrt(pts[:, 2] ** 2 - pts[:, 0] ** 2 - pts[:, 1] ** 2)[:, None]
    return hw.make_polygon(hw.HPoint(*p) for p in pts)


def _measured_polygons(rng: np.random.Generator, n: int):
    """A regular and a non-regular cyclic n-gon, circumradius up to 2, moved."""
    out = []
    for angular in (0.0, 0.35):
        R = rng.uniform(0.5, 2.0)
        V = convex_polygon(rng, n, R, angular=angular, shift=rng.uniform(0.2, 1.0))
        out.append((V, regular_thickness(n, R) if angular == 0.0 else None))
    return out


# -------------------------------------------------------------- workloads

class Workload:
    """One pass of operations over seeded inputs."""

    ns: tuple[int, ...] = ()

    def __init__(self, seed: int, workdir: str, env: dict) -> None:
        """Inputs from ``seed``; ``workdir`` takes files, ``env`` is for subprocesses."""
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.env = env
        self.ops: list[Op] = []

    def size(self, n: int) -> str:
        return SIZES[self.ns.index(n)]

    def documents(self) -> None:
        """Serialise the pass's input documents again (traced runs only)."""

    def run(self, op: Op):
        """Run one operation; returns (output, timed seconds)."""
        raise NotImplementedError

    def run_traced(self, op: Op):
        return self.run(op)

    def check(self, op: Op, out) -> Outcome:
        raise NotImplementedError


class Scan(Workload):
    """The paper's ratio experiment, one (n, delta) cell per operation.

    Every cell runs with ratio_scan's default rng_seed, so the perturbations
    are those the library draws by default and do not change with the seed.
    Drawn from the seed, they made a cell's cost vary by up to 2x between
    seeds (about 1 seed in 18 even meets a cell that runs circumdisk's whole
    descent budget), and scan's per-size medians then spread by more than
    their bound.
    """

    ns = (3, 5, 7)
    deltas = (0.5, 1.0, 2.0)
    perturbations = 2

    def __init__(self, seed, workdir, env) -> None:
        super().__init__(seed, workdir, env)
        self.ops = [Op(self.size(n), (n, delta)) for n in self.ns for delta in self.deltas]

    def run(self, op):
        n, delta = op.args
        t0 = perf_counter()
        rows = hw.ratio_scan([n], [delta], perturbations=self.perturbations)
        return rows, perf_counter() - t0

    def check(self, op, rows):
        n, delta = op.args
        res = Outcome(requested=1 + self.perturbations)
        if not rows or not rows[0].polygon_id.startswith("regular"):
            res.errors.append(f"scan n={n} d={delta}: no regular row")
            return res
        # The regular row's circumradius is R, so the closed form must give delta.
        closed = regular_thickness(n, rows[0].circumradius)
        if abs(closed - delta) > EQUAL_TOL:
            res.errors.append(f"scan n={n} d={delta}: regular closed form {closed!r}")
        if len(rows) < res.requested:  # ratio_scan skips failed solves
            res.failures["skipped"] = res.requested - len(rows)
        for row in rows:
            bad = []
            if 2.0 * row.inradius > row.delta + EQUAL_TOL:
                bad.append(f"2*inradius {2 * row.inradius!r} > thickness {row.delta!r}")
            if row.circumradius < 0.5 * row.diameter - EQUAL_TOL:
                bad.append(f"circumradius {row.circumradius!r} < diameter/2")
            res.errors.extend(f"{row.polygon_id}: {b}" for b in bad)
            res.delivered += not bad
        return res


class Measure(Workload):
    """Per-polygon L2 queries on parsed documents, half of them regular."""

    ns = (5, 25, 101)
    pairs = 2  # regular and non-regular polygons per size class

    def __init__(self, seed, workdir, env) -> None:
        super().__init__(seed, workdir, env)
        self.polygons = [pair for n in self.ns for _ in range(self.pairs)
                         for pair in _measured_polygons(self.rng, n)]
        self.documents()

    def documents(self):
        self.ops = [Op(self.size(V.n), (hw.emit_polygon(V),), {"thickness": t})
                    for V, t in self.polygons]

    def run(self, op):
        t0 = perf_counter()
        V = hw.parse_polygon(op.args[0])
        t = hw.thickness(V).thickness
        d, _ = hw.diameter(V)
        dvw = hw.diameter_via_width(V)
        sides = [hw.width_line(V, hw.side_line(V, j)).width for j in range(V.n)]
        verdict = hw.check_ordinary_reduced(V).verdict
        return (t, d, dvw, sides, verdict), perf_counter() - t0

    def check(self, op, out):
        t, d, dvw, sides, verdict = out
        res = Outcome()
        expect = op.expect["thickness"]
        if expect is not None:
            if abs(t - expect) > EQUAL_TOL:
                res.errors.append(f"regular thickness {t!r}, closed form {expect!r}")
            if not verdict:
                res.errors.append("regular odd-gon judged not ordinary reduced")
        if abs(dvw - d) > DIAMETER_TOL:
            res.errors.append(f"diameter_via_width {dvw!r} != diameter {d!r}")
        if t > min(sides) + 1e-12:
            res.errors.append(f"thickness {t!r} above a side-line width {min(sides)!r}")
        res.delivered = not res.errors
        return res


class Reduce(Workload):
    """The reduced-family pipeline: regular constructor, then K solves.

    The solver seeds are ``corpus.perturbed_polygon`` of the regular polygon,
    drawn as ``ratio_scan`` draws them with its default rng_seed 0: the
    inputs the library's own scan solves from.  At these n it raised no
    error in 1500 draws per cell; the any-n generator above is for the other
    workloads.  Like ``Scan``, the inputs do not change with the seed: drawn
    from it, the solver's failures and their cost varied enough between
    seeds to spread the latency medians by more than their bound.
    """

    ns = (5, 15, 31)
    deltas = (0.01, 1.0, 6.0)
    solves = 10

    def __init__(self, seed, workdir, env) -> None:
        super().__init__(seed, workdir, env)
        self.ops = [Op(self.size(n), (n, delta)) for n in self.ns for delta in self.deltas]

    def run(self, op):
        n, delta = op.args
        t0 = perf_counter()
        try:
            reg = hw.regular_ngon_with_thickness(n, delta)
        except (NumericalError, GeometryError) as exc:
            return (None, type(exc).__name__, []), perf_counter() - t0
        timed = perf_counter() - t0
        # Solver seeds depend on the constructed polygon; building them is
        # the benchmark's work and stays outside the timed region.
        rng = np.random.default_rng(0)
        starts = [perturbed_polygon(reg, rng) for _ in range(self.solves)]
        attempts = []
        t0 = perf_counter()
        for start in starts:
            try:
                P = hw.solve_ordinary_reduced(start, delta)
                report = hw.check_ordinary_reduced(P)
                halving = hw.perimeter_halving(P)
                within = hw.diameter_within_bound(P)
            except (NumericalError, GeometryError) as exc:
                attempts.append(type(exc).__name__)
                continue
            gap = max(abs(rec.half_perimeter_gap) for rec in halving.records)
            attempts.append((report.verdict, gap, within))
        return (reg, None, attempts), timed + perf_counter() - t0

    def check(self, op, out):
        n, delta = op.args
        reg, ctor_error, attempts = out
        res = Outcome(requested=self.solves)
        if ctor_error:
            res.failures[ctor_error] += 1
            return res
        R = math.asinh(math.hypot(reg.vertices[0].x, reg.vertices[0].y))
        if abs(regular_thickness(n, R) - delta) > EQUAL_TOL:
            res.errors.append(f"reduce n={n} d={delta}: regular closed form "
                              f"{regular_thickness(n, R)!r}")
        for a in attempts:
            if isinstance(a, str):
                res.failures[a] += 1
                continue
            verdict, gap, within = a
            bad = [msg for ok, msg in ((verdict, "not ordinary reduced"),
                                       (gap <= HALVING_TOL, f"halving gap {gap!r}"),
                                       (within, "diameter above the bound")) if not ok]
            res.errors.extend(f"reduce n={n} d={delta}: solved polygon {b}" for b in bad)
            res.delivered += not bad
        return res


class Cli(Workload):
    """Sequential ``python -m hypwidth`` processes on generated JSON files."""

    ns = (5, 25, 101)

    def __init__(self, seed, workdir, env) -> None:
        super().__init__(seed, workdir, env)
        import hypwidth.cli  # noqa: F401  (traced as cli.main)
        self.polygons = []
        for n in self.ns:
            self.polygons.extend(V for V, _ in _measured_polygons(self.rng, n))
        paths = self.documents()
        # Per size class: thickness of the regular polygon and the criterion
        # check of the non-regular one.
        for k, n in enumerate(self.ns):
            for command, path in zip(("thickness", "check-reduced"), paths[2 * k: 2 * k + 2]):
                self.ops.append(Op(self.size(n), (command, path),
                                   self._in_process(command, path)))

    @staticmethod
    def _in_process(command: str, path: str) -> dict:
        with open(path, encoding="utf-8") as fh:
            V = hw.parse_polygon(fh.read())
        if command == "thickness":
            rep = hw.thickness(V)
            return {"thickness": rep.thickness, "achieved_on_side": rep.achieved_on_side}
        rep = hw.check_ordinary_reduced(V)
        return {"verdict": rep.verdict, "max_distance_spread": rep.max_distance_spread,
                "mean_distance": rep.mean_distance}

    def documents(self):
        paths = []
        for i, V in enumerate(self.polygons):
            path = os.path.join(self.workdir, f"polygon{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(hw.emit_polygon(V) + "\n")
            paths.append(path)
        return paths

    def run(self, op):
        command, path = op.args
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hypwidth", command, "--input", path],
                              capture_output=True, text=True, env=self.env, timeout=60)
        elapsed = perf_counter() - t0
        return (proc.returncode, proc.stdout, proc.stderr), elapsed

    def run_traced(self, op):
        """The same command through ``cli.main`` in this process."""
        command, path = op.args
        buf = io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(buf):
            code = hw.cli.main([command, "--input", path])
        return (code, buf.getvalue(), ""), perf_counter() - t0

    def check(self, op, out):
        code, stdout, stderr = out
        res = Outcome()
        if code != 0:
            res.errors.append(f"{op.args[0]} exited {code}: {stderr.strip()[-200:]}")
            return res
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            res.errors.append(f"{op.args[0]}: stdout is not JSON: {stdout[:200]!r}")
            return res
        for key, want in op.expect.items():
            if got.get(key) != want:
                res.errors.append(f"{op.args[0]}: {key} {got.get(key)!r} != in-process {want!r}")
        res.delivered = not res.errors
        return res


WORKLOADS = {"scan": Scan, "measure": Measure, "reduce": Reduce, "cli": Cli}
