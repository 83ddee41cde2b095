"""Seeded random polygon generators shared by the experiments and the tests."""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError, NoConvergence, NonConvex
from .hcore import (chart_rows_to_hyperboloid, geodesic_point, polar_rows, rotation,
                    signed_dist, to_sheet, translation_x)
from .polygon import ConvexPolygon, polygon_from_rows, side_line


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


def perturbed_polygon(V: ConvexPolygon, rng: np.random.Generator,
                      radial: float = 0.03, angular: float = 0.02) -> ConvexPolygon:
    """Convex perturbation of V: vertices jittered in geodesic polar coordinates.

    Each vertex at distance rho from the chart origin moves to distance
    rho * (1 + radial * u) with u uniform in [-1, 1]; angular scales the
    angle jitter as a fraction of the mean angular spacing.  Retries with
    shrinking magnitude while the result raises GeometryError (a lost
    convexity or a vertex outside the coordinate domain), and raises
    NoConvergence when no retry succeeds.
    """
    m = V.vertex_matrix
    rho = np.arcsinh(np.hypot(m[:, 0], m[:, 1]))
    theta = np.arctan2(m[:, 1], m[:, 0])
    spacing = 2.0 * math.pi / V.n
    for scale in (1.0, 0.5, 0.25, 0.1):
        rr = rho * (1.0 + scale * radial * rng.uniform(-1.0, 1.0, size=V.n))
        tt = theta + scale * angular * spacing * rng.uniform(-1.0, 1.0, size=V.n)
        try:
            return polygon_from_rows(polar_rows(rr, tt))
        except GeometryError:
            continue
    raise NoConvergence("perturbation kept breaking convexity or leaving the coordinate domain")


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
