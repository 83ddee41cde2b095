"""Seeded polygon families for the hard-case tests (no test cases here).

The squashed hulls are convex by construction at any size, as a Klein-chart
hull is a hyperbolic hull; so are ``corpus.jittered_circle_polygon``'s
circles, whose points in angular order are in strictly convex position.
"""

import math

import numpy as np

from hypwidth.corpus import jittered_circle_polygon, random_convex_polygon
from hypwidth.extremal import rhombus
from hypwidth.hcore import HPoint, chart_to_hyperboloid, rotation, to_sheet, translation_x
from hypwidth.polygon import ConvexPolygon, make_polygon
from hypwidth.reduced import regular_ngon_with_thickness


# Per n, the exponent k of the smallest quarter-decade thickness 10**(k/4) at
# which regular_ngon_with_thickness builds a strictly convex n-gon; at
# 10**((k-1)/4) it raises BracketFailure.
SMALLEST_REGULAR_EXPONENT = {3: -24, 5: -23, 31: -18}


def regular_thicknesses(n: int) -> list[float]:
    """Quarter-decade thicknesses from the smallest the regular constructor
    accepts at n (3, 5 or 31) up to 17.8, and 30."""
    return [10.0 ** (k / 4) for k in range(SMALLEST_REGULAR_EXPONENT[n], 6)] + [30.0]


def _klein_hull(k: np.ndarray) -> list:
    """Monotone-chain hull, counterclockwise, keeping only clearly strict turns.

    Turns below 1e-9 are dropped, well above make_polygon's convexity
    threshold, so nearly collinear hull points never reach it.
    """
    pts = sorted(map(tuple, k))

    def chain(ps):
        out = []
        for p in ps:
            while len(out) >= 2:
                (x1, y1), (x2, y2) = out[-2], out[-1]
                if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) > 1e-9:
                    break
                out.pop()
            out.append(p)
        return out

    return chain(pts)[:-1] + chain(pts[::-1])[:-1]


def squashed_hull(rng: np.random.Generator, points: int = 40) -> ConvexPolygon:
    """Hull of random points in a disk of radius 0.5-4, squashed in y by 0.05-1.

    Points are uniform in geodesic polar radius and angle; the squash scales
    the Klein y coordinate, which keeps them inside the disk.  Thin hulls
    have sharp vertices whose pencils cross many envelope pieces.
    """
    radius = rng.uniform(0.5, 4.0)
    squash = rng.uniform(0.05, 1.0)
    r = np.tanh(rng.uniform(0.0, radius, points))
    theta = rng.uniform(0.0, 2.0 * math.pi, points)
    k = np.column_stack([r * np.cos(theta), squash * r * np.sin(theta)])
    return make_polygon([chart_to_hyperboloid(x, y, "klein") for x, y in _klein_hull(k)])


def moved(V, rng, max_shift):
    """V under a seeded rotation after a translation by up to max_shift."""
    M = rotation(rng.uniform(0.0, 2.0 * math.pi)) @ translation_x(rng.uniform(0.0, max_shift))
    return make_polygon(HPoint.from_vec(p) for p in to_sheet(V.vertex_matrix @ M.T))


def thin_ellipse(n):
    """n points of a Klein-chart ellipse 50 times longer than wide.

    The pencils at its two ends each range over about 0.4 n vertices.
    """
    t = 2.0 * math.pi * np.arange(n) / n
    return make_polygon(chart_to_hyperboloid(0.9 * math.cos(a), 0.018 * math.sin(a), "klein")
                        for a in t.tolist())


def hard_families():
    """Squashed hulls, moved jittered circles and random polygons, rhombi, thin
    ellipses and regular odd-gons."""
    rng = np.random.default_rng(1212)
    polys = [squashed_hull(rng) for _ in range(40)]
    polys += [jittered_circle_polygon(rng, int(rng.integers(3, 200)), rng.uniform(0.2, 2.5),
                                      rng.uniform(0.0, 5.0)) for _ in range(30)]
    polys += [moved(random_convex_polygon(rng, int(rng.integers(3, 12))), rng, 5.0)
              for _ in range(60)]
    polys += [rhombus(a, b) for a in (0.3, 1.0, 2.5) for b in (0.3, 1.0, 2.5)]
    polys += [thin_ellipse(n) for n in (41, 301)]
    polys += [regular_ngon_with_thickness(n, d) for n in (3, 5, 31, 101, 1001)
              for d in (0.01, 1.0, 6.0)]
    return polys
