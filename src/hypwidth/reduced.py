"""Ordinary reduced odd-gons: criterion check, constructors, and verifiers.

A convex odd-gon is *ordinary reduced* when every vertex projects into the
relative interior of the line through its opposite side and all those
vertex-to-line distances share one common value, which then equals the
polygon thickness.  This module checks that criterion, builds regular
odd-gons (by circumradius or by target thickness), solves for non-regular
members of the family with a damped Gauss-Newton iteration on the (x, y)
hyperboloid coordinates of the vertices with an exact Jacobian, and
evaluates the boundary-halving and diameter-bound properties the family
satisfies.  Each solver step is the minimum-norm solution of the linearised
distance equations in the 2n - 3 coordinates the gauge leaves free.  The line
search's trial points and the convergence test evaluate the residuals alone;
the Jacobian is built once per step, from the values the residuals computed
at the accepted point.  The check, the solver's final verdict and the
boundary halving share one criterion kernel: the tolerance-free arrays of
every vertex against its opposite side line are one read-only table per
polygon, ``ConvexPolygon.opposite``, built once and read by every later
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (BracketFailure, EvenGon, GeometryError, LeftFamily,
                     NoConvergence, NonConvex, NotOrdinaryReduced)
from .hcore import (MINK_DIAG, HPoint, angle_from_sides, dist_pp, lorentz_cross, mink,
                    off_sheet, polar_rows)
from .polygon import ConvexPolygon, line_normals, opposite_side, polygon_from_rows
from .width import diameter, thickness

REDUCED_TOL = 1e-9
# Criterion tolerance that perimeter_halving requires of its input.
HALVING_TOL = 1e-8
SOLVER_RESIDUAL_TOL = 1e-10
SOLVER_MAX_ITERATIONS = 200

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class VertexProjection:
    """Projection data of one vertex onto its opposite side line."""

    index: int
    opposite_side: tuple[int, int]
    foot: HPoint
    distance: float
    foot_interior: bool
    interior_margin: float


@dataclass(frozen=True, eq=False, repr=False)
class ReducednessReport:
    """Outcome of the ordinary-reducedness criterion for one polygon.

    records, one VertexProjection per vertex, is built the first time it is
    read, from the criterion kernel's arrays: the tolerance, then the
    distances, feet and margins of ``_criterion``.  Equality, hashing and
    repr are those of (records, verdict, max_distance_spread, mean_distance).
    """

    verdict: bool
    max_distance_spread: float
    mean_distance: float
    kernel: tuple

    @cached_property
    def records(self) -> tuple[VertexProjection, ...]:
        tol, dists, feet, margins = self.kernel
        n = len(dists)
        ia, ib = opposite_side(np.arange(n), n)
        return tuple(VertexProjection(
            index=i, opposite_side=(a, b), foot=HPoint(*p), distance=d,
            foot_interior=m >= tol, interior_margin=m)
            for i, (a, b, p, d, m) in enumerate(zip(
                ia.tolist(), ib.tolist(), feet.tolist(), dists.tolist(), margins.tolist())))

    def _key(self) -> tuple:
        return self.records, self.verdict, self.max_distance_spread, self.mean_distance

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return ("ReducednessReport(records={!r}, verdict={!r}, max_distance_spread={!r}, "
                "mean_distance={!r})".format(*self._key()))


def _criterion(V: ConvexPolygon, tol: float):
    """The ordinary-reducedness criterion of V as arrays.

    Returns the distances d_i from each vertex to its opposite side line, the
    feet of those perpendiculars as hyperboloid rows, the feet's Klein-chart
    barycentric margins inside their sides, the spread max d_i - min d_i and
    the verdict: every margin >= tol and the spread <= tol.  The arrays are
    the polygon's one read-only table ``ConvexPolygon.opposite``, built on the
    first call for that polygon and shared by every later call whatever its
    tolerance; only the verdict reads tol.  Raises GeometryError unless tol
    is finite and >= 0.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise GeometryError(f"tolerance must be finite and >= 0, got {tol}")
    _, dists, feet, margins, spread = V.opposite
    return dists, feet, margins, spread, bool((margins >= tol).all()) and spread <= tol


def check_ordinary_reduced(V: ConvexPolygon, tol: float = REDUCED_TOL) -> ReducednessReport:
    """Test the ordinary-reducedness criterion vertex by vertex.

    Every projection foot must lie strictly inside its side (Klein-chart
    barycentric margin >= tol from both endpoints) and the distance spread
    max d_i - min d_i must stay within tol.  When the verdict holds, the
    common distance equals the polygon thickness.
    """
    dists, feet, margins, spread, verdict = _criterion(V, tol)
    return ReducednessReport(verdict=verdict, max_distance_spread=spread,
                             mean_distance=float(dists.mean()),
                             kernel=(tol, dists, feet, margins))


def regular_ngon(n: int, R: float) -> ConvexPolygon:
    """Regular odd n-gon with circumradius R, centered at the chart origin.

    Raises GeometryError unless R is positive and finite, and when the
    squared vertex coordinates overflow float64 (from about R = 355).
    """
    if n < 3 or n % 2 == 0:
        raise EvenGon(f"regular construction requires an odd n >= 3, got n = {n}")
    if not (R > 0.0) or not math.isfinite(R):
        raise GeometryError(f"circumradius must be positive and finite, got {R}")
    try:
        m = polar_rows([R] * n, [2.0 * math.pi * k / n for k in range(n)])
    except OverflowError:  # math.sinh and math.cosh, from R = 710.5
        m = np.full((1, 3), math.inf)
    if off_sheet(m).any():  # the squared coordinates overflow
        raise GeometryError(f"circumradius {R} is too large: the vertex coordinates "
                            "overflow float64")
    return polygon_from_rows(m)


def regular_apothem(n: int, R: float) -> float:
    """Distance from the center of a regular n-gon to its side lines."""
    return math.atanh(math.tanh(R) * math.cos(math.pi / n))


def regular_ngon_with_thickness(n: int, delta: float) -> ConvexPolygon:
    """Regular odd n-gon whose thickness equals delta.

    The thickness of a regular odd n-gon is the distance from a vertex to
    the opposite side through the center, R + atanh(tanh(R) cos(pi/n)).
    It inverts in closed form: with c = cos(pi/n), tanh R is
    2t / ((1+c) + sqrt((1+c)^2 - 4ct^2)) for t = tanh(delta), here written
    as the positive root u = exp(-2R) of (1+c) u^2 + (1-c)(1-w) u - (1+c) w
    with w = exp(-2 delta), which stays accurate where t rounds to 1.  Three
    Newton steps on the thickness then polish R to rounding level.  Raises
    ``regular_ngon``'s GeometryError, naming R, when the vertex coordinates
    overflow (from delta = 355.8 at n = 3), and BracketFailure when the
    polygon is too small to be strictly convex in floating point.
    """
    if not (delta > 0.0) or not math.isfinite(delta):
        raise GeometryError(f"thickness must be positive and finite, got {delta}")
    if n < 3 or n % 2 == 0:
        raise EvenGon(f"regular construction requires an odd n >= 3, got n = {n}")
    c = math.cos(math.pi / n)
    k = -(1.0 - c) * math.expm1(-2.0 * delta)
    R = delta + 0.5 * math.log(
        (k + math.hypot(k, 2.0 * (1.0 + c) * math.exp(-delta))) / (2.0 * (1.0 + c)))
    for _ in range(3):
        tr = math.tanh(R)
        R -= ((R + regular_apothem(n, R) - delta)
              / (1.0 + c * (1.0 - tr * tr) / (1.0 - c * c * tr * tr)))
    try:
        return regular_ngon(n, R)
    except NonConvex as exc:
        raise BracketFailure(
            f"thickness {delta} needs circumradius {R}, below the size at which a "
            f"regular {n}-gon is strictly convex in floating point") from exc


def _lift(x: np.ndarray) -> np.ndarray:
    """Hyperboloid rows (x, y, sqrt(1 + x^2 + y^2)) of flat (x, y) coordinates."""
    xy = x.reshape(-1, 2)
    v = np.empty((xy.shape[0], 3))
    v[:, :2] = xy
    v[:, 2] = np.sqrt(1.0 + xy[:, 0] ** 2 + xy[:, 1] ** 2)
    return v


class _Frame(NamedTuple):
    """The parts of the solver's system that stay fixed during one solve.

    idx stacks the vertex indices over the two ``opposite_side`` index arrays;
    pos holds the flat positions in J of the (x, y) derivatives of residual i
    in the vertices idx[:, i].  gauge_dir is the seed's unit first-edge
    direction in (x, y): each step keeps vertex 0 fixed and moves vertex 1
    only along it, which removes the isometry group.
    """

    idx: np.ndarray
    pos: np.ndarray
    gauge_dir: np.ndarray


def _frame(n: int, gauge_dir: np.ndarray) -> _Frame:
    """The ``_Frame`` of a solve for an n-gon; an even n raises EvenGon."""
    rows = np.arange(n)
    idx = np.stack([rows, *opposite_side(rows, n)])
    pos = (2 * n * rows + 2 * idx)[..., None] + np.arange(2)
    return _Frame(idx, pos, gauge_dir)


def _residuals(x: np.ndarray, delta: float, frame: _Frame):
    """Residuals of the solver in the 2n coordinates x, and what J reuses of them.

    x holds the (x, y) hyperboloid coordinates of the vertices.  Residual i
    is the distance from v_i to the line through the ends of its opposite
    side minus delta.  The second result holds the lifted vertices v,
    B(v_i, u_i) with u_i the unit normal of the side opposite v_i, and what
    ``line_normals`` returns: the normals u_i, their scales N, and the scaled
    ends of each side with their exponents k.  asinh(B(v_i, u_i)) is the
    signed distance from v_i to that side's line.
    """
    v = _lift(x)
    u, N, ends, k = line_normals(*v[frame.idx[1:]])
    f = mink(v, u)
    return np.abs(np.arcsinh(f)) - delta, (v, f, u, N, ends, k)


def _jacobian(lifted, frame: _Frame) -> np.ndarray:
    """Exact Jacobian of ``_residuals`` from the values it returned.

    With a, b the ends of the side opposite v_i, B(v_i, u_i) = det(v_i, a, b) / N
    with N the Lorentz norm of lorentz_cross(a, b).  On the hyperboloid
    N^2 = B(a, b)^2 - 1, so the gradients in v_i, a and b are cross products
    plus a multiple of J b or J a (J = diag(1, 1, -1)), chained into x, y
    through dt/dx = x/t and dt/dy = y/t.  a and b enter scaled by 2**-k, as
    ``line_normals`` scaled them, and their gradients are scaled back.
    """
    v, f, u, N, ends, k = lifted
    p = v[frame.idx]  # v_i, a_i and b_i
    q = np.concatenate((p[:1], ends))
    c = (f * mink(*ends))[:, None] / N ** 2
    # lorentz_cross(p, q) * J is the Euclidean cross product of p and q.
    # Gradients of B(v_i, u_i) in a_i and b_i, (b, a) x (v, a) minus c (b, a),
    # scaled back by 2**-k; then those in v_i, a_i and b_i.
    ab = np.ldexp(lorentz_cross(q[::-2], q[:2]) / N - c * q[:0:-1], -k)
    g = np.concatenate([u[None], ab]) * MINK_DIAG
    # d|asinh f| / df = sign(f) / sqrt(1 + f*f), by hypot so f*f never overflows.
    scale = (np.sign(f) / np.hypot(1.0, f))[:, None]
    J = np.zeros((len(v), 2 * len(v)))
    J.reshape(-1)[frame.pos] = scale * (g[..., :2] + g[..., 2:] * p[..., :2] / p[..., 2:])
    return J


def solve_ordinary_reduced(seed: ConvexPolygon, delta: float, *,
                           max_iterations: int = SOLVER_MAX_ITERATIONS,
                           residual_tol: float = SOLVER_RESIDUAL_TOL) -> ConvexPolygon:
    """Solve for an ordinary reduced odd-gon of common distance delta.

    Damped Gauss-Newton iteration on the (x, y) hyperboloid coordinates of
    the n vertices, with t = sqrt(1 + x^2 + y^2).  These cover the whole
    plane, so no iterate can leave the chart.  The residuals are the
    per-vertex distances to the opposite side line minus delta, with their
    exact Jacobian (``_jacobian``).  Vertex 0 stays put and vertex 1 moves only
    along the seed's first edge, which removes the isometry group; a seed
    already in the family is returned unchanged up to the rounding of t,
    after max_iterations = 0 too.  Each step is the minimum-norm solution of
    the system linearised in the 2n - 3 free coordinates (``_min_norm_step``),
    damped by backtracking halving until the residual norm decreases.  Trial
    points and the convergence test evaluate the residuals alone; J is built
    once per step, at the point the step starts from.  Raises GeometryError
    for max_iterations < 0, NoConvergence when the iteration stalls or the
    Jacobian is rank deficient, and LeftFamily, naming the vertices whose
    feet left their sides, when the converged polygon is not ordinary
    reduced.  An even seed raises EvenGon from ``opposite_side``.
    """
    if not (delta > 0.0) or not math.isfinite(delta):
        raise GeometryError(f"target distance must be positive and finite, got {delta}")
    if max_iterations < 0:
        raise GeometryError(f"max_iterations must be >= 0, got {max_iterations}")

    x = seed.vertex_matrix[:, :2].reshape(-1).copy()
    d0 = x[2:4] - x[:2]
    frame = _frame(seed.n, d0 / np.hypot(d0[0], d0[1]))
    r, lifted = _residuals(x, delta, frame)

    for _ in range(max_iterations):
        if float(np.abs(r).max()) <= residual_tol:
            break
        J = _jacobian(lifted, frame)
        s = _min_norm_step(np.column_stack((J[:, 2:4] @ frame.gauge_dir, J[:, 4:])), r)
        step = np.concatenate(([0.0, 0.0], s[0] * frame.gauge_dir, s[1:]))
        base = float(np.dot(r, r))
        alpha = 1.0
        while alpha >= 2.0 ** -30:
            xt = x + alpha * step
            # Non-spacelike side normals or overflowing squares give NaN
            # residuals, which fail the test below, so the step halves.
            with np.errstate(all="ignore"):
                rt, lt = _residuals(xt, delta, frame)
            if float(np.dot(rt, rt)) < base:
                x, r, lifted = xt, rt, lt
                break
            alpha *= 0.5
        else:
            raise NoConvergence("backtracking line search stalled")
    else:
        worst = float(np.max(np.abs(r)))
        if worst > residual_tol:
            raise NoConvergence(f"residual {worst:.3e} after {max_iterations} iterations")

    try:
        P = polygon_from_rows(lifted[0])
    except NonConvex as exc:
        raise LeftFamily(f"solution lost convexity: {exc}") from exc
    _, _, margins, spread, verdict = _criterion(P, REDUCED_TOL)
    if not verdict:
        raise LeftFamily(
            "solution violates the ordinary-reducedness criterion "
            f"(spread {spread:.3e}, feet outside their sides at vertices "
            f"{np.flatnonzero(margins < REDUCED_TOL).tolist()})")
    return P


def _min_norm_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimum-norm solution s of J s = -r, for J of full row rank.

    With J^T = Q R (reduced QR), s = Q z where R^T z = -r, so s lies in the
    row space of J.  Raises NoConvergence when J is rank deficient by numpy's
    ``matrix_rank`` rule applied to the diagonal of R: min |R_kk| at most
    max |R_kk| * max(J.shape) * eps.
    """
    Q, R = np.linalg.qr(J.T)
    d = np.abs(R.diagonal())
    if d.min() <= d.max() * max(J.shape) * _EPS:
        raise NoConvergence(
            f"Jacobian is rank deficient (|R_kk| from {d.min():.3e} to {d.max():.3e})")
    return Q @ np.linalg.solve(R.T, -r)


@dataclass(frozen=True)
class HalvingRecord:
    """Boundary-splitting data at one vertex of an ordinary reduced odd-gon.

    alpha is the angle at v_i between the next vertex and the foot p_i; beta
    the angle at v_i between p_i and the far endpoint of the opposite side.
    beta < alpha strictly unless the polygon is a (regular) triangle, where
    the two coincide.
    """

    index: int
    chord_left: float
    chord_right: float
    half_perimeter_gap: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class HalvingReport:
    """Boundary halving of an ordinary reduced odd-gon, one HalvingRecord per vertex."""

    records: tuple[HalvingRecord, ...]


def perimeter_halving(V: ConvexPolygon, tol: float = HALVING_TOL) -> HalvingReport:
    """Boundary chords, perimeter split, and the two angles at each vertex.

    For an ordinary reduced odd-gon: the chord from v_i to the foot on side
    (v_i, v_i+1) matches the chord from the foot of v_i to the far endpoint
    of its opposite side, the segment from v_i to its foot halves the
    perimeter, and beta_i <= alpha_i with equality exactly for triangles.
    Each arc takes its run of (n-1)/2 whole sides as a difference of one
    cumulative sum of the side lengths.  Every distance, from the side
    lengths and both chords to the three sides of each angle's triangle,
    comes from one stacked ``dist_pp`` call, and one stacked
    ``angle_from_sides`` call turns them into alpha and beta.
    """
    _, feet, _, _, verdict = _criterion(V, tol)
    if not verdict:
        raise NotOrdinaryReduced(
            f"polygon fails the criterion at tolerance {tol:g}")
    n = V.n
    half = (n - 1) // 2
    m = V.vertex_matrix
    rows = np.arange(n)
    ia, ib = opposite_side(rows, n)  # ib[i] is vertex i + (n+1)/2
    nxt = (rows + 1) % n
    d = dist_pp(np.stack([m, m, feet, m[ia], m, m[nxt], m]),
                np.stack([m[nxt], feet[ib], m[ib], feet, feet, feet, m[ib]]))
    # Rows: lengths, chord_left, chord_right, near, to_foot, next_foot, to_far.
    lengths, chord_left, chord_right, near = d[:4]
    # window[i] is the length of the (n-1)/2 sides that follow vertex i.
    cum = np.concatenate([[0.0], np.cumsum(np.concatenate([lengths, lengths]))])
    window = cum[half:half + n] - cum[:n]

    arc1 = window + near
    arc2 = chord_right + window[ib]
    # alpha from (lengths, to_foot, next_foot), beta from (to_foot, to_far, chord_right)
    alpha, beta = angle_from_sides(d[[0, 4]], d[[4, 6]], d[[5, 2]])
    return HalvingReport(records=tuple(
        HalvingRecord(index=i, chord_left=cl, chord_right=cr, half_perimeter_gap=g,
                      alpha=a, beta=b)
        for i, (cl, cr, g, a, b) in enumerate(zip(
            chord_left.tolist(), chord_right.tolist(), (arc1 - arc2).tolist(),
            alpha.tolist(), beta.tolist()))))


def diameter_bound(delta: float) -> float:
    """Upper bound on the diameter of an ordinary reduced polygon of thickness delta.

    The bound is arccosh(cosh(delta) q), q = sqrt(1 + sinh(delta)^2 / 3).
    As cosh(delta) q - 1 = 2 sinh(delta/2)^2 q + (q^2 - 1) / (q + 1), it is
    evaluated as 2 asinh(sqrt(sinh(delta/2)^2 q + sinh(delta)^2 / (6 (q + 1)))),
    a sum of positive terms, so small thicknesses keep full accuracy.
    Raises GeometryError unless delta is positive and finite, and when the
    bound overflows float64 (from about delta = 355.6).
    """
    if not (delta > 0.0) or not math.isfinite(delta):
        raise GeometryError(f"thickness must be positive and finite, got {delta}")
    try:
        s2 = math.sinh(delta) ** 2
    except OverflowError:  # sinh(delta) ** 2
        raise GeometryError(f"thickness {delta} is too large: the diameter bound "
                            "overflows float64") from None
    q = math.sqrt(1.0 + s2 / 3.0)
    return 2.0 * math.asinh(math.sqrt(math.sinh(0.5 * delta) ** 2 * q + s2 / (6.0 * (q + 1.0))))


def diameter_within_bound(V: ConvexPolygon) -> bool:
    """Whether diameter(V) < diameter_bound(thickness(V))."""
    d, _ = diameter(V)
    return d < diameter_bound(thickness(V).thickness)
