"""Command-line front end.

Machine-readable results go to standard output as JSON (CSV for ``scan``,
SVG for ``render``); logs go to standard error.  Exit codes: 0 success,
2 validation error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import corpus, extremal, polyio, reduced, render, width
from .errors import GeometryError, NumericalError
from .hcore import HLine, line_relation, unit_spacelike
from .polygon import ConvexPolygon, side_line

log = logging.getLogger("hypwidth")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Pass margins of ``verify``: chord, half-perimeter and diameter-via-width
# gaps; beta - alpha; the gap between a side width and its oracle.
VERIFY_GAP_TOL = 1e-8
VERIFY_ANGLE_TOL = 1e-9
VERIFY_WIDTH_ORACLE_TOL = 1e-7


def _read_polygon(path: str) -> ConvexPolygon:
    if path == "-":
        return polyio.parse_polygon(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return polyio.parse_polygon(fh.read())


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _line_triple(text: str) -> HLine:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise GeometryError("expected --line as 'ux,uy,ut'")
    return unit_spacelike(np.array(parts))


def _cmd_width(args) -> int:
    V = _read_polygon(args.input)
    if (args.side is None) == (args.line is None):
        raise GeometryError("give exactly one of --side or --line")
    if args.side is not None:
        L = side_line(V, args.side)
    else:
        L = _line_triple(args.line)
    rep = width.width_line(V, L)
    _emit_json({"width": rep.width,
                "farthest_vertex_index": rep.farthest_vertex_index,
                "line": list(rep.line.vec)})
    return EXIT_OK


def _cmd_thickness(args) -> int:
    V = _read_polygon(args.input)
    rep = width.thickness(V)
    _emit_json({"thickness": rep.thickness,
                "argmin_line": list(rep.argmin_line.vec),
                "achieved_on_side": rep.achieved_on_side})
    return EXIT_OK


def _cmd_diameter(args) -> int:
    V = _read_polygon(args.input)
    d, pair = width.diameter(V)
    _emit_json({"diameter": d, "pair": list(pair)})
    return EXIT_OK


def _cmd_check_reduced(args) -> int:
    V = _read_polygon(args.input)
    rep = reduced.check_ordinary_reduced(V, tol=args.tol)
    _emit_json({
        "verdict": rep.verdict,
        "max_distance_spread": rep.max_distance_spread,
        "mean_distance": rep.mean_distance,
        "vertices": [{
            "index": r.index,
            "opposite_side": list(r.opposite_side),
            "foot": [r.foot.x, r.foot.y, r.foot.t],
            "distance": r.distance,
            "foot_interior": r.foot_interior,
            "interior_margin": r.interior_margin,
        } for r in rep.records],
    })
    return EXIT_OK


def _cmd_regular(args) -> int:
    if (args.thickness is None) == (args.circumradius is None):
        raise GeometryError("give exactly one of --thickness or --circumradius")
    if args.thickness is not None:
        V = reduced.regular_ngon_with_thickness(args.n, args.thickness)
    else:
        V = reduced.regular_ngon(args.n, args.circumradius)
    _write_output(polyio.emit_polygon(V, model=args.model) + "\n", args.output)
    return EXIT_OK


def _cmd_solve(args) -> int:
    seed = _read_polygon(args.seed)
    V = reduced.solve_ordinary_reduced(seed, args.delta,
                                       max_iterations=args.max_iterations)
    _write_output(polyio.emit_polygon(V, model=args.model) + "\n", args.output)
    return EXIT_OK


def _default_verify_corpus(seed_rng: int) -> list[tuple[str, ConvexPolygon]]:
    rng = np.random.default_rng(seed_rng)
    regular5 = reduced.regular_ngon_with_thickness(5, 1.0)
    solved = reduced.solve_ordinary_reduced(
        corpus.perturbed_polygon(regular5, rng), 1.0)
    return [("regular-n5-d1", regular5),
            ("regular-n7-r0.8", reduced.regular_ngon(7, 0.8)),
            ("solved-n5-d1", solved)]


def _verify_one(theorem: str, name: str, V: ConvexPolygon) -> dict:
    out: dict = {"polygon": name, "n": V.n}
    if theorem == "1":
        rep = reduced.check_ordinary_reduced(V)
        out.update(verdict=rep.verdict,
                   max_distance_spread=rep.max_distance_spread,
                   feet_interior=all(r.foot_interior for r in rep.records))
    elif theorem == "2":
        rep = reduced.perimeter_halving(V)
        chord_gap = max(abs(r.chord_left - r.chord_right) for r in rep.records)
        halving_gap = max(abs(r.half_perimeter_gap) for r in rep.records)
        beta_excess = max(r.beta - r.alpha for r in rep.records)
        out.update(chord_gap=chord_gap, half_perimeter_gap=halving_gap,
                   beta_minus_alpha_max=beta_excess,
                   passed=bool(chord_gap <= VERIFY_GAP_TOL
                               and halving_gap <= VERIFY_GAP_TOL
                               and beta_excess <= VERIFY_ANGLE_TOL))
    elif theorem == "3":
        d, _ = width.diameter(V)
        t = width.thickness(V).thickness
        bound = reduced.diameter_bound(t)
        out.update(diameter=d, thickness=t, bound=bound, passed=bool(d < bound))
    else:  # claims
        gaps = []
        for j in range(V.n):
            rep = width.width_line(V, side_line(V, j))
            gaps.append(abs(width.width_ultraparallel_oracle(V, side_line(V, j))
                            - rep.width))
        d, _ = width.diameter(V)
        dvw = width.diameter_via_width(V)
        out.update(width_oracle_max_gap=max(gaps),
                   diameter_via_width_gap=abs(dvw - d),
                   passed=bool(max(gaps) <= VERIFY_WIDTH_ORACLE_TOL
                               and abs(dvw - d) <= VERIFY_GAP_TOL))
    return out


def _cmd_verify(args) -> int:
    if args.input is not None:
        corpus = [(args.input, _read_polygon(args.input))]
    else:
        corpus = _default_verify_corpus(args.seed_rng)
    results = [_verify_one(args.theorem, name, V) for name, V in corpus]
    _emit_json({"theorem": args.theorem, "results": results})
    return EXIT_OK


def _cmd_scan(args) -> int:
    ns = [int(s) for s in args.ns.split(",")]
    deltas = [float(s) for s in args.deltas.split(",")]
    rows = extremal.ratio_scan(ns, deltas, perturbations=args.perturbations,
                               rng_seed=args.seed_rng)
    _write_output(polyio.scan_rows_to_csv(rows), args.output)
    return EXIT_OK


def _cmd_render(args) -> int:
    V = _read_polygon(args.input)
    spec = render.RenderSpec(chart=args.chart, show_feet=args.show_feet,
                             show_opposite_lines=args.show_opposite_lines)
    _write_output(render.render_svg(V, spec), args.output)
    return EXIT_OK


def _cmd_line_relation(args) -> int:
    rel = line_relation(_line_triple(args.line1), _line_triple(args.line2))
    _emit_json({"kind": rel.kind, "measure": rel.measure})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypwidth",
        description="Width, thickness and reduced polygons in the hyperbolic plane.")
    parser.add_argument("--verbose", action="store_true", help="log details to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("width", help="width determined by a supporting line")
    p.add_argument("--input", required=True, help="polygon JSON file, or - for stdin")
    p.add_argument("--side", type=int, help="side index whose line supports the polygon")
    p.add_argument("--line", help="explicit line normal 'ux,uy,ut'")
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser("thickness", help="minimum width over supporting lines")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_thickness)

    p = sub.add_parser("diameter", help="maximum vertex distance")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("check-reduced", help="ordinary-reducedness criterion")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=reduced.REDUCED_TOL)
    p.set_defaults(func=_cmd_check_reduced)

    p = sub.add_parser("regular", help="regular odd-gon constructor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--thickness", type=float)
    p.add_argument("--circumradius", type=float)
    p.add_argument("--model", default="klein", choices=polyio.MODELS)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_regular)

    p = sub.add_parser("solve", help="solve for a non-regular ordinary reduced polygon")
    p.add_argument("--seed", required=True, help="seed polygon JSON file")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--max-iterations", type=int, default=reduced.SOLVER_MAX_ITERATIONS)
    p.add_argument("--model", default="klein", choices=polyio.MODELS)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="numeric verification on a polygon or demo corpus")
    p.add_argument("--theorem", required=True, choices=("1", "2", "3", "claims"))
    p.add_argument("--input")
    p.add_argument("--seed-rng", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="ratio experiment grid, CSV output")
    p.add_argument("--ns", required=True, help="comma-separated odd vertex counts")
    p.add_argument("--deltas", required=True, help="comma-separated thickness values")
    p.add_argument("--perturbations", type=int, default=0)
    p.add_argument("--seed-rng", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("render", help="SVG rendering in a disk chart")
    p.add_argument("--input", required=True)
    p.add_argument("--chart", default="klein", choices=("klein", "poincare"))
    p.add_argument("--show-feet", action="store_true")
    p.add_argument("--show-opposite-lines", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("line-relation", help="classify two lines by their normals")
    p.add_argument("--line1", required=True)
    p.add_argument("--line2", required=True)
    p.set_defaults(func=_cmd_line_relation)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except (GeometryError, ValueError) as exc:
        log.error("validation error: %s", exc)
        return EXIT_VALIDATION
    except OSError as exc:
        log.error("i/o error: %s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
