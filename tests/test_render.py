import math
import re

import pytest

from hypwidth.errors import EvenGon, GeometryError
from hypwidth.extremal import rhombus
from hypwidth.hcore import hyperboloid_to_chart
from hypwidth.render import (RenderSpec, VIEWBOX, _poincare_circle,
                             line_ideal_endpoints, render_svg)
from hypwidth.polygon import side_line
from hypwidth.reduced import regular_ngon


class TestPoincareArcs:
    def test_orthogonality_condition(self, rng):
        for _ in range(50):
            z1 = rng.uniform(-0.6, 0.6, 2)
            z2 = rng.uniform(-0.6, 0.6, 2)
            circ = _poincare_circle(tuple(z1), tuple(z2))
            if circ is None:
                continue
            (cx, cy), r = circ
            # circle through both points, orthogonal to the unit circle
            assert math.hypot(cx - z1[0], cy - z1[1]) == pytest.approx(r, abs=1e-6)
            assert math.hypot(cx - z2[0], cy - z2[1]) == pytest.approx(r, abs=1e-6)
            assert cx * cx + cy * cy - r * r == pytest.approx(1.0, abs=1e-6)

    def test_diameter_degenerates_to_segment(self):
        assert _poincare_circle((0.3, 0.0), (-0.2, 0.0)) is None

    def test_arc_midpoint_inside_disk(self):
        # SVG endpoint-to-center conversion, checking the sweep flag choice
        V = regular_ngon(5, 1.0)
        svg = render_svg(V, RenderSpec(chart="poincare"))
        d_attr = re.search(r'<path d="([^"]+)"', svg).group(1)
        tokens = d_attr.replace("Z", "").split()
        arcs = []
        cur = None
        i = 0
        while i < len(tokens):
            if tokens[i] == "M":
                cur = (float(tokens[i + 1]), float(tokens[i + 2]))
                i += 3
            elif tokens[i] == "A":
                r, sweep = float(tokens[i + 1]), int(tokens[i + 5])
                end = (float(tokens[i + 6]), float(tokens[i + 7]))
                arcs.append((cur[0], cur[1], r, sweep, end[0], end[1]))
                cur = end
                i += 8
            elif tokens[i] == "L":
                cur = (float(tokens[i + 1]), float(tokens[i + 2]))
                i += 3
            else:
                raise AssertionError(f"unexpected token {tokens[i]}")
        assert len(arcs) == 5
        from hypwidth.hcore import dist_pp, geodesic_point
        true_mids = []
        for i in range(5):
            p, q = V.vertex(i), V.vertex(i + 1)
            m = geodesic_point(p, q, 0.5 * dist_pp(p, q))
            mx_, my_ = hyperboloid_to_chart(m, "poincare")
            true_mids.append((mx_, -my_))  # svg y-flip
        for (x1, y1, r, sweep, x2, y2), true_mid in zip(arcs, true_mids):
            # center from endpoints + radius (SVG F.6.5, large-arc = 0)
            mx, my = 0.5 * (x1 - x2), 0.5 * (y1 - y2)
            d2 = mx * mx + my * my
            k = math.sqrt(max(r * r / d2 - 1.0, 0.0))
            if sweep == 1:  # large-arc = 0 and sweep differ: positive sign
                cx = 0.5 * (x1 + x2) + k * my
                cy = 0.5 * (y1 + y2) - k * mx
            else:
                cx = 0.5 * (x1 + x2) - k * my
                cy = 0.5 * (y1 + y2) + k * mx
            a1 = math.atan2(y1 - cy, x1 - cx)
            a2 = math.atan2(y2 - cy, x2 - cx)
            if sweep == 1 and a2 < a1:
                a2 += 2.0 * math.pi
            if sweep == 0 and a2 > a1:
                a2 -= 2.0 * math.pi
            amid = 0.5 * (a1 + a2)
            px, py = cx + r * math.cos(amid), cy + r * math.sin(amid)
            assert px * px + py * py < 1.0
            # the rendered arc midpoint is the image of the geodesic midpoint
            assert math.hypot(px - true_mid[0], py - true_mid[1]) < 1e-6


class TestRenderSvg:
    def test_klein_pentagon_chords(self):
        svg = render_svg(regular_ngon(5, 1.0), RenderSpec(chart="klein"))
        assert VIEWBOX in svg
        path = re.search(r'<path d="([^"]+)"', svg).group(1)
        assert path.count("L") == 5 and "A" not in path

    def test_feet_markers_present(self):
        svg = render_svg(regular_ngon(5, 1.0),
                         RenderSpec(chart="klein", show_feet=True,
                                    show_opposite_lines=True))
        assert svg.count("<circle") == 1 + 5  # boundary + five feet
        assert svg.count("<path") == 1 + 5 + 5  # sides + lines + perpendiculars

    def test_byte_identical(self):
        V = regular_ngon(7, 0.9)
        spec = RenderSpec(chart="poincare", show_feet=True)
        assert render_svg(V, spec) == render_svg(V, spec)

    def test_unknown_chart_rejected(self):
        with pytest.raises(GeometryError, match="unknown chart 'halfplane'"):
            render_svg(regular_ngon(5, 1.0), RenderSpec(chart="halfplane"))

    def test_even_gon_feet_rejected(self):
        with pytest.raises(EvenGon):
            render_svg(rhombus(1.0, 1.0), RenderSpec(show_feet=True))

    def test_ideal_endpoints_on_unit_circle(self):
        V = regular_ngon(5, 1.0)
        for j in range(5):
            e1, e2 = line_ideal_endpoints(side_line(V, j))
            for e in (e1, e2):
                assert math.hypot(*e) == pytest.approx(1.0, abs=1e-12)
