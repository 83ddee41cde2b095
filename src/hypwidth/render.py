"""Deterministic SVG rendering of polygons in the Klein and Poincare disks.

Geodesics are straight chords in the Klein chart and circular arcs orthogonal
to the unit circle in the Poincare chart.  Identical inputs produce
byte-identical SVG; coordinates are emitted at 12 significant digits with the
y axis flipped into SVG screen orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hcore import (HLine, HPoint, foot, hyperboloid_to_chart, lorentz_cross,
                    unit_spacelike)
from .polygon import ConvexPolygon, opposite_side, side_line

VIEWBOX = "-1.05 -1.05 2.1 2.1"


@dataclass(frozen=True)
class RenderSpec:
    """Rendering options: chart, decorations, and stroke styling."""

    chart: str = "klein"
    show_feet: bool = False
    show_opposite_lines: bool = False
    stroke_width: float = 0.012
    boundary_color: str = "#222222"
    polygon_color: str = "#1f6feb"
    foot_color: str = "#c0392b"
    opposite_line_color: str = "#999999"
    marker_radius: float = 0.02


def _num(x: float) -> str:
    return f"{x + 0.0:.12g}"


def _svg_pt(xy: tuple[float, float]) -> tuple[float, float]:
    return xy[0], -xy[1]


def _poincare_circle(z1: tuple[float, float], z2: tuple[float, float]):
    """Center and radius of the circle through z1, z2 orthogonal to the unit circle.

    Returns None when the geodesic is a diameter (points collinear with the
    origin), in which case the chart image is a straight segment.
    """
    a11, a12 = 2.0 * z1[0], 2.0 * z1[1]
    a21, a22 = 2.0 * z2[0], 2.0 * z2[1]
    b1 = 1.0 + z1[0] ** 2 + z1[1] ** 2
    b2 = 1.0 + z2[0] ** 2 + z2[1] ** 2
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-12:
        return None
    cx = (b1 * a22 - b2 * a12) / det
    cy = (a11 * b2 - a21 * b1) / det
    r = math.sqrt(max(cx * cx + cy * cy - 1.0, 0.0))
    return (cx, cy), r


def _geodesic_path(z1, z2, chart: str, move: bool = True) -> str:
    """SVG path fragment for the geodesic between the chart points z1 and z2.

    The points may lie on the boundary circle (ideal points).
    """
    s1, s2 = _svg_pt(z1), _svg_pt(z2)
    head = f"M {_num(s1[0])} {_num(s1[1])} " if move else ""
    if chart == "klein":
        return head + f"L {_num(s2[0])} {_num(s2[1])}"
    circ = _poincare_circle(z1, z2)
    if circ is None:
        return head + f"L {_num(s2[0])} {_num(s2[1])}"
    (cx, cy), r = circ
    scx, scy = cx, -cy
    a1 = math.atan2(s1[1] - scy, s1[0] - scx)
    a2 = math.atan2(s2[1] - scy, s2[0] - scx)
    delta = (a2 - a1 + math.pi) % (2.0 * math.pi) - math.pi
    sweep = 1 if delta > 0 else 0
    return head + f"A {_num(r)} {_num(r)} 0 0 {sweep} {_num(s2[0])} {_num(s2[1])}"


def line_ideal_endpoints(L: HLine) -> tuple[tuple[float, float], tuple[float, float]]:
    """Boundary-circle endpoints of a geodesic line (same in both charts)."""
    p0 = foot(HPoint(0.0, 0.0, 1.0), L)
    d = unit_spacelike(lorentz_cross(L, p0)).vec
    return (hyperboloid_to_chart(p0.vec + d, "klein"),
            hyperboloid_to_chart(p0.vec - d, "klein"))


def render_svg(V: ConvexPolygon, spec: RenderSpec = RenderSpec()) -> str:
    """Render a polygon (and optionally its vertex projections) as SVG text."""
    chart = spec.chart
    pts = hyperboloid_to_chart(V.vertex_matrix, chart).tolist()  # rejects an unknown chart
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{VIEWBOX}">',
        f'  <circle cx="0" cy="0" r="1" fill="none" stroke="{spec.boundary_color}" '
        f'stroke-width="{_num(spec.stroke_width)}"/>',
    ]

    side_parts = []
    for i in range(V.n):
        side_parts.append(
            _geodesic_path(pts[i], pts[(i + 1) % V.n], chart, move=(i == 0)))
    out.append(f'  <path d="{" ".join(side_parts)} Z" fill="none" '
               f'stroke="{spec.polygon_color}" stroke-width="{_num(spec.stroke_width)}"/>')

    if spec.show_feet or spec.show_opposite_lines:
        # The polygon's criterion table; feet are drawn whatever the verdict.
        feet = [tuple(z) for z in hyperboloid_to_chart(V.opposite[2], chart).tolist()]
        if spec.show_opposite_lines:
            for i in range(V.n):
                L = side_line(V, opposite_side(i, V.n)[0])
                e1, e2 = line_ideal_endpoints(L)
                out.append(f'  <path d="{_geodesic_path(e1, e2, chart)}" fill="none" '
                           f'stroke="{spec.opposite_line_color}" '
                           f'stroke-width="{_num(0.5 * spec.stroke_width)}"/>')
        if spec.show_feet:
            for i, z in enumerate(feet):
                seg = _geodesic_path(pts[i], z, chart)
                out.append(f'  <path d="{seg}" fill="none" stroke="{spec.foot_color}" '
                           f'stroke-width="{_num(0.5 * spec.stroke_width)}"/>')
            for z in feet:
                fx, fy = _svg_pt(z)
                out.append(f'  <circle cx="{_num(fx)}" cy="{_num(fy)}" '
                           f'r="{_num(spec.marker_radius)}" fill="{spec.foot_color}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
