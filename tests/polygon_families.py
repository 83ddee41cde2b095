"""Seeded polygon generators and families for the tests (no test cases here).

The generators draw random polygons, triangles, nested pairs, clipped caps
and isometries for the property tests; the hard families are fixed seeded
lists.  The squashed hulls are convex by construction at any size, as a
Klein-chart hull is a hyperbolic hull; so are ``jittered_circle_polygon``'s
circles, whose points in angular order are in strictly convex position.
``random_convex_polygon`` retries non-convex draws instead, and its default
radii fail from about n = 12.

``polygon_cases`` is the hypothesis strategy of the metamorphic tests: a
family (regular, jittered circle or squashed circle), n, a circumradius R,
an offset D and a seed, from which ``family_polygon`` builds a polygon that
is convex by construction at any n, so no draw is rejected.  It shrinks
toward n = 3, D = 0 and round R.
"""

import math

import numpy as np
from hypothesis import strategies as st

from hypwidth.errors import GeometryError, NonConvex
from hypwidth.extremal import rhombus
from hypwidth.hcore import (HLine, HPoint, chart_rows_to_hyperboloid, chart_to_hyperboloid,
                            geodesic_point, polar_rows, rotation, signed_dist, to_sheet,
                            translation_x, unit_spacelike, unit_timelike)
from hypwidth.polygon import ConvexPolygon, make_polygon, polygon_from_rows, side_line
from hypwidth.reduced import regular_ngon_with_thickness


def random_convex_polygon(rng: np.random.Generator, n: int,
                          radius_range: tuple[float, float] = (0.45, 1.1)) -> ConvexPolygon:
    """Random strictly convex n-gon around the chart origin.

    Vertices sit at well separated angles with mildly varying radii; a draw
    that happens to be non-convex is simply retried.  The default radii fail
    from about n = 12; ``jittered_circle_polygon`` is convex at any n.
    """
    for _ in range(500):
        gaps = rng.uniform(0.5, 1.0, size=n)
        angles = 2.0 * math.pi * np.cumsum(gaps) / np.sum(gaps)
        angles += rng.uniform(0.0, 2.0 * math.pi)
        radii = rng.uniform(*radius_range, size=n)
        try:
            return polygon_from_rows(polar_rows(radii, angles))
        except NonConvex:
            continue
    raise GeometryError("could not draw a convex polygon (bad generator parameters)")


def jittered_circle_polygon(rng: np.random.Generator, n: int, R: float,
                            shift: float) -> ConvexPolygon:
    """n-gon inscribed in a circle of radius R, moved a distance shift off the origin.

    Vertex k sits at angle 2*pi*k/n jittered by up to 0.35 of the spacing,
    which keeps the angular order, so the polygon is convex at any n.
    """
    theta = 2.0 * math.pi / n * (np.arange(n) + 0.35 * rng.uniform(-1.0, 1.0, n))
    pts = np.column_stack([math.sinh(R) * np.cos(theta), math.sinh(R) * np.sin(theta),
                           np.full(n, math.cosh(R))])
    M = rotation(rng.uniform(0.0, 2.0 * math.pi)) @ translation_x(shift)
    return polygon_from_rows(to_sheet(pts @ M.T))


def random_nonequilateral_triangle(rng: np.random.Generator,
                                   min_altitude_spread: float = 0.02) -> ConvexPolygon:
    """Random triangle whose three altitudes clearly differ."""
    for _ in range(500):
        T = random_convex_polygon(rng, 3, radius_range=(0.4, 1.0))
        alts = [abs(signed_dist(T.vertex(i), side_line(T, (i + 1) % 3)))
                for i in range(3)]
        if max(alts) - min(alts) >= min_altitude_spread:
            return T
    raise GeometryError("could not draw a non-equilateral triangle")


def nested_pair(rng: np.random.Generator) -> tuple[ConvexPolygon, ConvexPolygon]:
    """A pair (U, W) of convex polygons with U properly contained in W."""
    n = int(rng.integers(4, 10))
    W = random_convex_polygon(rng, n)
    if rng.random() < 0.5:
        lam = rng.uniform(0.35, 0.8)
        center = W.klein.mean(axis=0)
        shrunk = center + lam * (W.klein - center)
        U = polygon_from_rows(chart_rows_to_hyperboloid(shrunk, "klein"))
    else:
        drop = int(rng.integers(0, n))
        U = polygon_from_rows(np.delete(W.vertex_matrix, drop, axis=0))
    return U, W


def clip_vertex_cap(V: ConvexPolygon, k: int, depth: float) -> ConvexPolygon:
    """Cut off a small cap at vertex k with a geodesic line.

    The cut passes through the points at arc length ``depth`` from the vertex
    along its two incident sides, turning an n-gon into an (n+1)-gon.
    """
    n = V.n
    v = V.vertex(k)
    a = geodesic_point(v, V.vertex(k - 1), depth)
    b = geodesic_point(v, V.vertex(k + 1), depth)
    m = V.vertex_matrix
    return polygon_from_rows(np.concatenate((m[:k % n], [a.vec, b.vec], m[k % n + 1:])))


def random_isometry(rng: np.random.Generator, max_shift: float = 1.5) -> np.ndarray:
    """Random orientation-preserving isometry fixing the upper sheet."""
    t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    d = rng.uniform(-max_shift, max_shift)
    return rotation(t1) @ translation_x(d) @ rotation(t2)


def apply_isometry(M: np.ndarray, obj):
    """Apply a Minkowski-orthogonal matrix to a point or a line.

    The image is renormalized, which removes the tiny unit-norm drift of the
    matrix product.
    """
    w = M @ obj.vec
    if isinstance(obj, HLine):
        return unit_spacelike(w)
    return unit_timelike(w)


# Per n, the exponent k of the smallest quarter-decade thickness 10**(k/4) at
# which regular_ngon_with_thickness builds a strictly convex n-gon; at
# 10**((k-1)/4) it raises BracketFailure.
SMALLEST_REGULAR_EXPONENT = {3: -24, 5: -23, 7: -22, 31: -18}


def regular_thicknesses(n: int) -> list[float]:
    """Quarter-decade thicknesses from the smallest the regular constructor
    accepts at n (3, 5, 7 or 31) up to 17.8, and 30."""
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


FAMILIES = ("regular", "jittered", "squashed")


def family_polygon(family: str, n: int, R: float, D: float, seed: int) -> ConvexPolygon:
    """An n-gon of the family on the circle of radius R, moved a distance D.

    Vertex k sits at angle 2*pi*k/n, jittered by up to 0.35 of the spacing
    unless the family is regular, which keeps the angular order; the squashed
    family then scales the Klein y coordinate by 0.05-1, a linear map of the
    chart, which keeps lines straight and so the points in convex position.  The seed draws the jitter,
    the squash and the direction of the move, a rotation after a translation
    along the x axis.
    """
    rng = np.random.default_rng(seed)
    jitter = 0.0 if family == "regular" else 0.35
    theta = 2.0 * math.pi / n * (np.arange(n) + jitter * rng.uniform(-1.0, 1.0, n))
    squash = rng.uniform(0.05, 1.0) if family == "squashed" else 1.0
    k = math.tanh(R) * np.column_stack([np.cos(theta), squash * np.sin(theta)])
    M = rotation(rng.uniform(0.0, 2.0 * math.pi)) @ translation_x(D)
    return polygon_from_rows(to_sheet(chart_rows_to_hyperboloid(k, "klein") @ M.T))


def polygon_cases(families=FAMILIES, ns=st.integers(3, 64)):
    """Strategy of (family, n, R, D, seed) for ``family_polygon``, R in [0.05, 3]
    and D in [0, 3].  Every draw is a convex polygon: the smallest Klein turn
    over these ranges is about 2e-11, twenty times the convexity tolerance."""
    return st.tuples(st.sampled_from(families), ns, st.floats(0.05, 3.0), st.floats(0.0, 3.0),
                     st.integers(0, 2**32 - 1))
