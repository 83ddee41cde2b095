"""Strictly convex polygons over the hyperbolic plane.

Convexity and orientation are tested in the Klein chart, where geodesics map
to straight chords, so plain planar cross products decide everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import NonConvex, TooFewVertices
from .hcore import HLine, HPoint, angle_at, dist_pp, lorentz_cross

# Strict left-turn threshold on Klein-chart cross products.
CONVEXITY_TOL = 1e-12

CONTAINS_TOL = 1e-10

_MINK_DIAG = np.array([1.0, 1.0, -1.0])


@dataclass(frozen=True)
class ConvexPolygon:
    """Positively oriented, strictly convex vertex cycle.

    Build instances through :func:`make_polygon`, which validates and
    normalizes orientation.  Derived arrays are cached per instance; the type
    is immutable and freely shareable across threads.
    """

    vertices: tuple[HPoint, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> HPoint:
        return self.vertices[i % self.n]

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[HPoint]:
        return iter(self.vertices)

    @cached_property
    def vertex_matrix(self) -> np.ndarray:
        m = np.array([v.vec for v in self.vertices])
        m.flags.writeable = False
        return m

    @cached_property
    def mink_rows(self) -> np.ndarray:
        """Rows v_i * diag(1,1,-1); mink_rows @ w gives all B(v_i, w) at once."""
        g = self.vertex_matrix * _MINK_DIAG
        g.flags.writeable = False
        return g

    @cached_property
    def klein(self) -> np.ndarray:
        m = self.vertex_matrix
        k = m[:, :2] / m[:, 2:]
        k.flags.writeable = False
        return k

    @cached_property
    def side_normals(self) -> np.ndarray:
        """Unit normals of the side lines, oriented interior-positive.

        The Lorentz cross product of consecutive vertices already points
        inward for a positively oriented cycle, because
        B(lorentz_cross(a, b), c) equals det(a, b, c).
        """
        m = self.vertex_matrix
        w = lorentz_cross(m, np.roll(m, -1, axis=0))
        norms = np.sqrt(w[:, 0] ** 2 + w[:, 1] ** 2 - w[:, 2] ** 2)
        w = w / norms[:, None]
        w.flags.writeable = False
        return w


def _turn_crosses(k: np.ndarray) -> np.ndarray:
    e = np.roll(k, -1, axis=0) - k
    e_next = np.roll(e, -1, axis=0)
    return e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]


def make_polygon(points: Iterable[HPoint]) -> ConvexPolygon:
    """Validate a vertex cycle into a ConvexPolygon.

    Negatively oriented but convex input is reversed; non-convex input
    (a right turn, collinear consecutive vertices, or a cycle winding more
    than once around) is rejected.
    """
    pts = tuple(points)
    if len(pts) < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {len(pts)}")
    k = np.array([(p.x / p.t, p.y / p.t) for p in pts])

    area2 = float(np.sum(k[:, 0] * np.roll(k[:, 1], -1) - np.roll(k[:, 0], -1) * k[:, 1]))
    if area2 < 0.0:
        pts = pts[::-1]
        k = k[::-1]

    crosses = _turn_crosses(k)
    if np.any(crosses <= CONVEXITY_TOL):
        j = int(np.argmin(crosses))
        raise NonConvex(
            f"vertex triple starting at index {(j + 1) % len(pts)} does not "
            f"turn strictly left (cross = {crosses[j]:.3e})")

    e = np.roll(k, -1, axis=0) - k
    angles = np.arctan2(e[:, 1], e[:, 0])
    turns = np.diff(angles, append=angles[:1])
    turns = (turns + math.pi) % (2.0 * math.pi) - math.pi
    if abs(float(np.sum(turns)) - 2.0 * math.pi) > 1e-6:
        raise NonConvex("vertex cycle winds around more than once")

    return ConvexPolygon(pts)


def perimeter(V: ConvexPolygon) -> float:
    """Sum of the side lengths."""
    return sum(dist_pp(V.vertex(i), V.vertex(i + 1)) for i in range(V.n))


def area(V: ConvexPolygon) -> float:
    """Polygon area by angle defect: (n - 2)*pi minus the interior angles."""
    total = sum(
        angle_at(V.vertex(i - 1), V.vertex(i), V.vertex(i + 1)) for i in range(V.n)
    )
    return (V.n - 2) * math.pi - total


def side_line(V: ConvexPolygon, j: int) -> HLine:
    """Line containing the side from vertex j to vertex j+1 (indices mod n).

    Oriented so that the polygon interior has positive signed distance.
    """
    u = V.side_normals[j % V.n]
    return HLine(u[0], u[1], u[2])


def contains(V: ConvexPolygon, p: HPoint) -> bool:
    """Whether p lies in the closed polygon (boundary counts as inside)."""
    b = float(np.min(V.side_normals @ (p.vec * _MINK_DIAG)))
    return math.asinh(b) >= -CONTAINS_TOL


def side_lengths(V: ConvexPolygon) -> list[float]:
    return [dist_pp(V.vertex(i), V.vertex(i + 1)) for i in range(V.n)]
