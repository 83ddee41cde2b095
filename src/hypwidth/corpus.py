"""The perturbation the ratio scan solves from: seeded jitter of a convex polygon."""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError, NoConvergence
from .hcore import polar_rows
from .polygon import ConvexPolygon, polygon_from_rows


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
