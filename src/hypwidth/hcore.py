"""Minkowski primitives of the hyperboloid model of the hyperbolic plane.

Points are unit timelike vectors on the upper sheet of x^2 + y^2 - t^2 = -1,
geodesic lines are unit spacelike normal vectors, and every quantity below is
derived from the bilinear form B(p, q) = px*qx + py*qy - pt*qt.  All functions
are pure and all value types are immutable, so everything here is safe to call
concurrently.

Far from the origin the form evaluates with catastrophic cancellation
(coordinates grow like cosh of the distance), so the unit-norm tolerances are
scale-relative and small distances use the cancellation-free chord form
cosh(d) - 1 = B(q - p, q - p) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError

_EPS = float(np.finfo(float).eps)

# Absolute floors for invariant checks; they grow with the squared coordinate
# scale because that is the intrinsic float64 limit of evaluating the form.
UNIT_NORM_TOL = 1e-12
DIST_CLAMP_TOL = 1e-9

# Relation threshold of |B(u1, u2)| against 1.
LINE_RELATION_EPS = 1e-10

INTERSECTING = "intersecting"
ASYMPTOTIC = "asymptotic"
ULTRAPARALLEL = "ultraparallel"
COINCIDENT = "coincident"


def _vec3(obj, stacked: bool = False) -> np.ndarray:
    v = getattr(obj, "vec", None)
    if v is not None:
        return v
    a = np.asarray(obj, dtype=float)
    if a.shape[-1:] != (3,) or (a.ndim > 1 and not stacked):
        raise GeometryError(f"expected a 3-vector, got shape {a.shape}")
    return a


def mink(p, q) -> float:
    """Minkowski bilinear form B(p, q) = px*qx + py*qy - pt*qt."""
    a = _vec3(p)
    b = _vec3(q)
    return float(a[0] * b[0] + a[1] * b[1] - a[2] * b[2])


def _norm_tol(v: np.ndarray) -> float:
    scale = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    return max(UNIT_NORM_TOL, 64.0 * _EPS * scale)


@dataclass(frozen=True)
class HPoint:
    """Point of the hyperbolic plane as an upper-sheet unit timelike vector."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "t", float(self.t))
        v = np.array([self.x, self.y, self.t])
        err = abs(self.x * self.x + self.y * self.y - self.t * self.t + 1.0)
        if err > _norm_tol(v):
            raise GeometryError(
                f"point not on the unit hyperboloid: B(p,p)+1 = {err:.3e}")
        if self.t <= 0.0:
            raise GeometryError("point on the lower sheet (t <= 0)")

    @cached_property
    def vec(self) -> np.ndarray:
        v = np.array([self.x, self.y, self.t])
        v.flags.writeable = False
        return v

    @staticmethod
    def from_vec(v) -> "HPoint":
        a = np.asarray(v, dtype=float)
        return HPoint(a[0], a[1], a[2])


@dataclass(frozen=True)
class HLine:
    """Geodesic line {p : B(p, u) = 0} given by its unit spacelike normal u.

    Negating the normal gives the same line with flipped orientation; use
    :meth:`canonical` before comparing lines for equality.
    """

    ux: float
    uy: float
    ut: float

    def __post_init__(self):
        object.__setattr__(self, "ux", float(self.ux))
        object.__setattr__(self, "uy", float(self.uy))
        object.__setattr__(self, "ut", float(self.ut))
        v = np.array([self.ux, self.uy, self.ut])
        err = abs(self.ux * self.ux + self.uy * self.uy - self.ut * self.ut - 1.0)
        if err > _norm_tol(v):
            raise GeometryError(
                f"normal is not unit spacelike: B(u,u)-1 = {err:.3e}")

    @cached_property
    def vec(self) -> np.ndarray:
        v = np.array([self.ux, self.uy, self.ut])
        v.flags.writeable = False
        return v

    @staticmethod
    def from_vec(v) -> "HLine":
        a = np.asarray(v, dtype=float)
        return HLine(a[0], a[1], a[2])

    def canonical(self) -> "HLine":
        """Sign-normalized form: first coordinate of modulus > 1e-12 positive."""
        v = self.vec
        for c in v:
            if abs(c) > 1e-12:
                return self if c > 0 else HLine(-v[0], -v[1], -v[2])
        return self


@dataclass(frozen=True)
class LineRelation:
    """Mutual position of two geodesics.

    kind is one of "intersecting" (measure = crossing angle in (0, pi/2]),
    "ultraparallel" (measure = distance along the common perpendicular),
    "asymptotic" (measure = 0), or "coincident" (same line, measure = 0).
    """

    kind: str
    measure: float


def unit_timelike(v) -> HPoint:
    """Rescale a timelike vector onto the upper hyperboloid sheet."""
    a = np.asarray(v, dtype=float)
    n = a[2] * a[2] - a[0] * a[0] - a[1] * a[1]
    if n <= 0.0:
        raise GeometryError("vector is not timelike")
    a = a / math.sqrt(n)
    if a[2] < 0.0:
        a = -a
    return HPoint(a[0], a[1], a[2])


def unit_spacelike(v) -> HLine:
    """Rescale a spacelike vector to a unit line normal."""
    a = np.asarray(v, dtype=float)
    n = a[0] * a[0] + a[1] * a[1] - a[2] * a[2]
    scale = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
    if n <= 64.0 * _EPS * scale:
        raise GeometryError("vector is not spacelike")
    a = a / math.sqrt(n)
    return HLine(a[0], a[1], a[2])


def lorentz_cross(a, b) -> np.ndarray:
    """Bilinear-form-adjusted cross product: B(result, a) = B(result, b) = 0.

    Stacked (..., 3) arrays give one product per row.
    """
    c = np.cross(_vec3(a, stacked=True), _vec3(b, stacked=True))
    c[..., 2] = -c[..., 2]
    return c


def dist_pp(p, q) -> float:
    """Geodesic distance arccosh(-B(p, q)) between two points.

    Evaluated through the chord form 2*asinh(sqrt(B(q-p, q-p)/2)), which is
    exact for nearby points where -B(p,q) itself rounds to 1.  Roundoff that
    pushes the chord value slightly negative is absorbed up to a
    scale-relative guard; anything worse means the inputs are off the
    hyperboloid and raises.
    """
    a = _vec3(p)
    b = _vec3(q)
    d = b - a
    x = 0.5 * (d[0] * d[0] + d[1] * d[1] - d[2] * d[2])
    if x < 0.0:
        guard = max(DIST_CLAMP_TOL, 64.0 * _EPS * abs(a[2] * b[2]))
        if x < -guard:
            raise GeometryError(
                f"inputs off the hyperboloid: cosh(d)-1 = {x:.3e}")
        x = 0.0
    return 2.0 * math.asinh(math.sqrt(0.5 * x))


def line_through(p, q) -> HLine:
    """Geodesic through two distinct points, in canonical sign form."""
    if dist_pp(p, q) <= 1e-9:
        raise GeometryError("cannot span a line on (nearly) coincident points")
    return unit_spacelike(lorentz_cross(p, q)).canonical()


def signed_dist(p, L) -> float:
    """Signed distance arcsinh(B(p, u)) from a point to a line.

    The magnitude is the geodesic distance to the line; the sign tells the
    side of L the point lies on.
    """
    return math.asinh(mink(p, L))


def foot(p, L) -> HPoint:
    """Orthogonal projection of a point onto a line."""
    s = mink(p, L)
    return unit_timelike(_vec3(p) - s * _vec3(L))


def line_relation(L1: HLine, L2: HLine) -> LineRelation:
    """Classify two lines as coincident, intersecting, asymptotic or ultraparallel."""
    u1 = L1.canonical().vec
    u2 = L2.canonical().vec
    c = abs(mink(u1, u2))
    if abs(c - 1.0) <= LINE_RELATION_EPS and bool(np.all(np.abs(u1 - u2) <= 1e-10)):
        return LineRelation(COINCIDENT, 0.0)
    if c < 1.0 - LINE_RELATION_EPS:
        return LineRelation(INTERSECTING, math.acos(min(c, 1.0)))
    if c > 1.0 + LINE_RELATION_EPS:
        return LineRelation(ULTRAPARALLEL, math.acosh(c))
    return LineRelation(ASYMPTOTIC, 0.0)


def _cosh_minus_one(d: float) -> float:
    s = math.sinh(0.5 * d)
    return 2.0 * s * s


def angle_at(a, b, c) -> float:
    """Interior angle at b of the geodesic triangle a, b, c.

    Uses the hyperbolic law of cosines for sides, rearranged through
    cosh(x) - 1 terms so that the angle stays accurate for very small
    triangles.
    """
    la = dist_pp(b, a)
    lc = dist_pp(b, c)
    lb = dist_pp(a, c)
    if la < 1e-12 or lc < 1e-12:
        raise GeometryError("angle undefined for coincident points")
    ha = _cosh_minus_one(la)
    hc = _cosh_minus_one(lc)
    hb = _cosh_minus_one(lb)
    num = ha * hc + ha + hc - hb
    den = math.sinh(la) * math.sinh(lc)
    return math.acos(max(-1.0, min(1.0, num / den)))


def geodesic_point(p, q, s: float) -> HPoint:
    """Point at arc length s from p along the geodesic toward q."""
    d = dist_pp(p, q)
    if d <= 1e-12:
        raise GeometryError("geodesic direction undefined for coincident points")
    a = _vec3(p)
    b = _vec3(q)
    w = (math.sinh(d - s) * a + math.sinh(s) * b) / math.sinh(d)
    return unit_timelike(w)


def chart_to_hyperboloid(x: float, y: float, chart: str) -> HPoint:
    """Lift disk-chart coordinates (Klein or Poincare) to the hyperboloid."""
    r2 = x * x + y * y
    if r2 >= 1.0:
        raise GeometryError(f"chart coordinates outside the unit disk: r^2 = {r2}")
    if chart == "klein":
        d = math.sqrt(1.0 - r2)
        return HPoint(x / d, y / d, 1.0 / d)
    if chart == "poincare":
        s = 1.0 - r2
        return HPoint(2.0 * x / s, 2.0 * y / s, (1.0 + r2) / s)
    raise GeometryError(f"unknown chart {chart!r} (expected 'klein' or 'poincare')")


def hyperboloid_to_chart(p, chart: str) -> tuple[float, float]:
    """Project a hyperboloid point into the Klein or Poincare disk."""
    v = _vec3(p)
    if chart == "klein":
        return float(v[0] / v[2]), float(v[1] / v[2])
    if chart == "poincare":
        return float(v[0] / (1.0 + v[2])), float(v[1] / (1.0 + v[2]))
    raise GeometryError(f"unknown chart {chart!r} (expected 'klein' or 'poincare')")


def rotation(theta: float) -> np.ndarray:
    """Isometry rotating the plane around the chart origin."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def translation_x(d: float) -> np.ndarray:
    """Isometry translating by distance d along the x-axis geodesic."""
    c, s = math.cosh(d), math.sinh(d)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])


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
    w = M @ _vec3(obj)
    if isinstance(obj, HLine):
        return unit_spacelike(w)
    return unit_timelike(w)
