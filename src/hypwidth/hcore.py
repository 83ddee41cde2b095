"""Minkowski primitives of the hyperboloid model of the hyperbolic plane.

Points are unit timelike vectors on the upper sheet of x^2 + y^2 - t^2 = -1,
geodesic lines are unit spacelike normal vectors, and every quantity below is
derived from the bilinear form B(p, q) = px*qx + py*qy - pt*qt.  The metric
diagonal, the sheet normalisation and the disk-chart formulas live here only.
``mink``, ``to_sheet``, ``hyperboloid_to_chart``, ``lorentz_cross``,
``dist_pp`` and ``angle_at`` also take stacked (..., 3) rows, one result per
row, and ``angle_from_sides`` takes arrays of side lengths.
``chart_rows_to_hyperboloid`` and ``polar_rows`` are the array forms of
``chart_to_hyperboloid`` and ``polar_point``, with the same arithmetic row by
row.  ``HPoint``, ``HLine``, ``off_sheet`` and ``lines_from_normals`` test the
unit norm by one formula.  All functions are pure and all value types are
immutable, so everything here is safe to call concurrently.

Far from the origin the form evaluates with catastrophic cancellation
(coordinates grow like cosh of the distance), so the unit-norm tolerances are
scale-relative.  ``dist_pp`` is the one point-to-point distance: for each
pair it takes cosh(d) - 1 from the chord form B(q - p, q - p) / 2, which
rounds on the scale |q - p|^2 and keeps near points, or from -B(p, q) - 1,
which rounds on the scale pt*qt and keeps far-apart points, whichever scale
is smaller.  The coordinate domain is finite coordinates with x^2 + y^2 +
t^2 below float64's maximum, that is, up to about distance 355 from the
chart origin.  Beyond it that scale overflows, and ``HPoint``, ``HLine``
and ``unit_spacelike`` raise GeometryError (``off_sheet`` flags the row).
Inside it, only rows are rescaled: ``to_sheet``, the side normals and the
solver divide their rows by powers of two (``scale_rows``), which is exact
and keeps their products finite.  ``angle_from_sides`` needs no rescaling,
as its terms are bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError

_EPS = float(np.finfo(float).eps)

# The metric diagonal: scaling the rows of a matrix by it turns the matrix
# product into the form.
MINK_DIAG = np.array([1.0, 1.0, -1.0])
MINK_DIAG.flags.writeable = False

# Component gathers of lorentz_cross.
_CROSS_P = np.array([1, 2, 1])
_CROSS_Q = np.array([2, 0, 0])

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


def mink(p, q):
    """Minkowski bilinear form B(p, q) = (px*qx + py*qy) - pt*qt, one per stacked row.

    The evaluation order is the one written; far from the origin the rounding
    of the form depends on it.
    """
    pq = _vec3(p, stacked=True) * _vec3(q, stacked=True)
    f = pq[..., 0] + pq[..., 1] - pq[..., 2]
    return f if isinstance(f, np.ndarray) else float(f)


def _unit_error(x, y, t, norm: float):
    """|B(r, r) - norm| of the row r = (x, y, t), and whether the row fails: the
    error is NaN or beyond max(UNIT_NORM_TOL, 64 eps (x^2 + y^2 + t^2)), or that
    scale overflows.  Takes floats (no numpy call) or array columns alike."""
    tt, xy = t * t, x * x + y * y
    err = abs(xy - tt - norm)
    scale = xy + tt
    return err, ((err > UNIT_NORM_TOL) & (err > 64.0 * _EPS * scale)
                 | (scale == math.inf) | (err != err))


def _off_unit(a: np.ndarray, norm: float) -> np.ndarray:
    """Which rows of an (n, 3) array fail the unit-norm test; overflow is silent."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _unit_error(a[:, 0], a[:, 1], a[:, 2], norm)[1]


def off_sheet(a: np.ndarray) -> np.ndarray:
    """Which rows of an (n, 3) array HPoint rejects, by its predicate and tolerance.

    A row fails when |B(p, p) + 1| exceeds the scale-relative tolerance (or
    is NaN), when that tolerance overflows, or when t <= 0.  Rows that
    overflow fail silently.
    """
    return _off_unit(a, -1.0) | (a[:, 2] <= 0.0)


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
        err, bad = _unit_error(self.x, self.y, self.t, -1.0)
        if bad:
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
        err, bad = _unit_error(self.ux, self.uy, self.ut, 1.0)
        if bad:
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
        """Sign-normalized form: first coordinate of modulus > 1e-12 positive.
        As ux^2 + uy^2 = 1 + ut^2, ux or uy always qualifies."""
        v = self.vec
        for c in v:
            if abs(c) > 1e-12:
                return self if c > 0 else HLine(-v[0], -v[1], -v[2])


def lines_from_normals(u) -> tuple[HLine, ...]:
    """One HLine per row of an (n, 3) array of unit line normals.

    The rows are validated together with HLine's predicate and tolerance;
    the first one HLine rejects raises HLine's GeometryError.  They are
    copied once into a read-only array, and each line's vec is its row of
    that copy, so reading vec builds no array.
    """
    rows = np.array(u, dtype=float)
    bad = _off_unit(rows, 1.0).nonzero()[0]
    if bad.size:
        HLine(*rows[bad[0]].tolist())  # raises HLine's error for that row
    rows.flags.writeable = False
    lines = []
    for (ux, uy, ut), r in zip(rows.tolist(), rows):
        line = object.__new__(HLine)  # validated above; skips __post_init__
        line.__dict__.update(ux=ux, uy=uy, ut=ut, vec=r)
        lines.append(line)
    return tuple(lines)


@dataclass(frozen=True)
class LineRelation:
    """Mutual position of two geodesics.

    kind is one of "intersecting" (measure = crossing angle in (0, pi/2]),
    "ultraparallel" (measure = distance along the common perpendicular),
    "asymptotic" (measure = 0), or "coincident" (same line, measure = 0).
    """

    kind: str
    measure: float


def scale_rows(v) -> tuple[np.ndarray, np.ndarray]:
    """(..., 3) rows divided by 2**k, and k, a (..., 1) integer column.

    k brings each row's largest |component| into [0.5, 1) (k = 0 for a zero,
    infinite or NaN row).  That is exact, so a scale-free result, such as a
    unit vector, comes out bit for bit as from the unscaled rows, while the
    products of scaled rows neither overflow nor underflow to zero.
    """
    a = np.asarray(v, dtype=float)
    k = np.frexp(np.abs(a).max(axis=-1, keepdims=True))[1]
    return np.ldexp(a, -k), k


def to_sheet(v) -> np.ndarray:
    """Divide timelike (..., 3) rows by sign(t) sqrt(t^2 - x^2 - y^2), in that order.

    This puts every row on the upper sheet; raises if any row is not timelike.
    The rows are scaled by ``scale_rows`` first, which changes no bit of the
    result.
    """
    a = scale_rows(v)[0]
    sq = a * a
    n = sq[..., 2] - sq[..., 0] - sq[..., 1]
    if not (n > 0.0).all():
        raise GeometryError("vector is not timelike")
    return a / np.copysign(np.sqrt(n), a[..., 2])[..., None]


def unit_timelike(v) -> HPoint:
    """Rescale a timelike vector onto the upper hyperboloid sheet."""
    return HPoint.from_vec(to_sheet(_vec3(v)))


def unit_spacelike(v) -> HLine:
    """Rescale a spacelike vector to a unit line normal; reject one whose scale overflows."""
    x, y, t = np.asarray(v, dtype=float).tolist()  # floats overflow to inf silently
    n = x * x + y * y - t * t
    if not n > 64.0 * _EPS * (x * x + y * y + t * t):  # NaN from inf - inf too
        raise GeometryError("vector is not spacelike")
    s = math.sqrt(n)
    return HLine(x / s, y / s, t / s)


def lorentz_cross(a, b) -> np.ndarray:
    """Bilinear-form-adjusted cross product: B(result, a) = B(result, b) = 0.

    Stacked (..., 3) arrays give one product per row.  The components are
    (a1 b2 - a2 b1, a2 b0 - a0 b2, a1 b0 - a0 b1), from two gathers of each
    of a and b.  ``take`` keeps the result C-ordered, as indexing the last
    axis with an array would not; BLAS products of the result (the side
    normals in ``extremal.indisk``) round differently in the other order.
    """
    a = _vec3(a, stacked=True)
    b = _vec3(b, stacked=True)
    return (a.take(_CROSS_P, axis=-1) * b.take(_CROSS_Q, axis=-1)
            - a.take(_CROSS_Q, axis=-1) * b.take(_CROSS_P, axis=-1))


def dist_pp(p, q):
    """Geodesic distance arccosh(-B(p, q)) between two points.

    Evaluated as 2*asinh(sqrt(x/2)) with x = cosh(d) - 1, taken row by row
    from whichever of two forms rounds on the smaller scale.  The chord form
    x = B(q-p, q-p)/2, so sqrt(x/2) = sqrt(B(q-p, q-p)/4), rounds on the
    scale |q-p|^2 (the sum of its squared components) and is exact for
    nearby points, where -B(p,q) itself rounds to 1; the form
    x = -B(p,q) - 1 rounds on the scale pt*qt and keeps far-apart points,
    where the chord cancels.  Roundoff that pushes x slightly negative is
    absorbed up to a scale-relative guard; anything worse means the inputs
    are off the hyperboloid and raises.  Stacked (..., 3) arrays give an
    array of one distance per row, and raise if any row is off the
    hyperboloid.
    """
    a = _vec3(p, stacked=True)
    b = _vec3(q, stacked=True)
    d = b - a
    dd = d * d
    ab = a * b
    tt = ab[..., 2]
    dxy, dtt = dd[..., 0] + dd[..., 1], dd[..., 2]
    x = np.where(dxy + dtt <= tt, 0.5 * (dxy - dtt), tt - (ab[..., 0] + ab[..., 1]) - 1.0)
    if x.min(initial=0.0) < 0.0:
        guard = np.maximum(DIST_CLAMP_TOL, 64.0 * _EPS * np.abs(tt))
        if np.any(x < -guard):
            raise GeometryError(
                f"inputs off the hyperboloid: cosh(d)-1 = {float(np.min(x)):.3e}")
        x = np.maximum(x, 0.0)
    dist = 2.0 * np.arcsinh(np.sqrt(0.5 * x))
    return float(dist) if np.ndim(dist) == 0 else dist


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


def angle_at(a, b, c):
    """Interior angle at b of the geodesic triangle a, b, c.

    Stacked (..., 3) arrays give an array of one angle per row, and raise if
    any row has b coincident with a or c.
    """
    return angle_from_sides(dist_pp(b, a), dist_pp(b, c), dist_pp(a, c))


def angle_from_sides(la, lc, lb):
    """Angle between the sides of lengths la and lc of a geodesic triangle.

    lb is the length of the third side, opposite the angle.  Uses the
    half-angle formula tan^2(angle / 2) = sinh(s - la) sinh(s - lc) /
    (sinh(s) sinh(s - lb)), s the half perimeter, with each sinh(x) written
    as e^x E(x) / 2, E(x) = -expm1(-2x) in [0, 1), and the exponentials
    cancelled to e^-(s - lb).  Every term is bounded, so nothing overflows,
    and small angles and needle-like triangles keep their accuracy (Kahan
    2014).  With the sides sorted as a >= b >= c, the doubled
    half-differences are c - (a - b), c + (a - b) and a + (b - c), and the
    perimeter a + (b + c), so no difference is taken of rounded sums.
    Half-differences below 0 count as 0.  Arrays give one angle per entry,
    and raise if any la or lc is (nearly) zero.
    """
    sides = np.array(np.broadcast_arrays(la, lc, lb))
    if sides[:2].min(initial=math.inf) < 1e-12:
        raise GeometryError("angle undefined for coincident points")
    c, b, a = np.sort(sides, axis=0)
    ab = a - b
    # Rows: 2(s - la), 2(s - lc), 2(s - lb), each by the rule for its rank.
    h = np.maximum(np.where(sides == a, c - ab, np.where(sides == c, a + (b - c), c + ab)), 0.0)
    ea, ec, eb = -np.expm1(-h)
    es = -np.expm1(-(a + (b + c)))
    angle = 2.0 * np.arctan2(np.sqrt(ea * ec / es) * np.exp(-0.5 * h[2]), np.sqrt(eb))
    return float(angle) if np.ndim(angle) == 0 else angle


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
    return HPoint(*chart_rows_to_hyperboloid(np.array([[x, y]]), chart)[0].tolist())


def chart_rows_to_hyperboloid(xy: np.ndarray, chart: str) -> np.ndarray:
    """Lift (n, 2) disk-chart rows to (n, 3) hyperboloid rows, unvalidated.

    Rows outside the open unit disk come out off the upper sheet, NaN or
    infinite, without a warning, so ``off_sheet`` flags them.
    """
    out = np.empty((len(xy), 3))
    with np.errstate(all="ignore"):
        sq = xy * xy
        r2 = sq[:, 0] + sq[:, 1]
        if chart == "klein":
            d = np.sqrt(1.0 - r2)[:, None]
            out[:, :2], out[:, 2:] = xy / d, 1.0 / d
            return out
        if chart == "poincare":
            s = (1.0 - r2)[:, None]
            out[:, :2], out[:, 2:] = 2.0 * xy / s, (1.0 + r2[:, None]) / s
            return out
    raise GeometryError(f"unknown chart {chart!r} (expected 'klein' or 'poincare')")


def hyperboloid_to_chart(p, chart: str):
    """Project a point into the Klein or Poincare disk; (..., 3) rows give (..., 2) rows."""
    v = _vec3(p, stacked=True)
    if chart not in ("klein", "poincare"):
        raise GeometryError(f"unknown chart {chart!r} (expected 'klein' or 'poincare')")
    xy = v[..., :2] / (v[..., 2:] if chart == "klein" else 1.0 + v[..., 2:])
    return (float(xy[0]), float(xy[1])) if xy.ndim == 1 else xy


def _polar(r: float, theta: float) -> tuple[float, float, float]:
    sh = math.sinh(r)
    return sh * math.cos(theta), sh * math.sin(theta), math.cosh(r)


def polar_point(r: float, theta: float) -> HPoint:
    """Point at distance r from the chart origin in direction theta."""
    return HPoint(*_polar(r, theta))


def polar_rows(r, theta) -> np.ndarray:
    """(n, 3) rows of polar_point(r_k, theta_k), unvalidated.

    math.sinh and math.cosh raise OverflowError from r = 710.5.
    """
    return np.array([_polar(q, t) for q, t in zip(r, theta)], dtype=float).reshape(-1, 3)


def rotation(theta: float) -> np.ndarray:
    """Isometry rotating the plane around the chart origin."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def translation_x(d: float) -> np.ndarray:
    """Isometry translating by distance d along the x-axis geodesic."""
    c, s = math.cosh(d), math.sinh(d)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])

