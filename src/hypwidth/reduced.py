"""Ordinary reduced odd-gons: criterion check, constructors, and verifiers.

A convex odd-gon is *ordinary reduced* when every vertex projects into the
relative interior of the line through its opposite side and all those
vertex-to-line distances share one common value, which then equals the
polygon thickness.  This module checks that criterion, builds regular
odd-gons (by circumradius or by target thickness), solves for non-regular
members of the family with a damped least-squares iteration, and evaluates
the boundary-halving and diameter-bound properties the family satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BracketFailure, EvenGon, GeometryError, LeftFamily,
                     NoConvergence, NonConvex, NotOrdinaryReduced)
from .hcore import (HPoint, angle_at, chart_to_hyperboloid, dist_pp, foot,
                    lorentz_cross, signed_dist)
from .polygon import ConvexPolygon, make_polygon, side_line, side_lengths
from .width import diameter, thickness

REDUCED_TOL = 1e-9
BISECT_TOL = 1e-10
SOLVER_RESIDUAL_TOL = 1e-10
SOLVER_FD_STEP = 1e-7
SOLVER_MAX_ITERATIONS = 200


def opposite_side(i: int, n: int) -> tuple[int, int]:
    """Endpoint indices of the side opposite vertex i of an odd n-gon.

    Returns (i + (n-1)/2, i + (n+1)/2) modulo n.  Indices are 0-based.
    """
    if n < 3 or n % 2 == 0:
        raise EvenGon(f"opposite side requires an odd n >= 3, got n = {n}")
    return ((i + (n - 1) // 2) % n, (i + (n + 1) // 2) % n)


@dataclass(frozen=True)
class VertexProjection:
    """Projection data of one vertex onto its opposite side line."""

    index: int
    opposite_side: tuple[int, int]
    foot: HPoint
    distance: float
    foot_interior: bool
    interior_margin: float


@dataclass(frozen=True)
class ReducednessReport:
    """Outcome of the ordinary-reducedness criterion for one polygon."""

    records: tuple[VertexProjection, ...]
    verdict: bool
    max_distance_spread: float
    mean_distance: float


def check_ordinary_reduced(V: ConvexPolygon, tol: float = REDUCED_TOL) -> ReducednessReport:
    """Test the ordinary-reducedness criterion vertex by vertex.

    Every projection foot must lie strictly inside its side (Klein-chart
    barycentric margin >= tol from both endpoints) and the distance spread
    max d_i - min d_i must stay within tol.  When the verdict holds, the
    common distance equals the polygon thickness.
    """
    n = V.n
    if n % 2 == 0:
        raise EvenGon(f"ordinary reducedness is defined for odd-gons, got n = {n}")
    records = []
    for i in range(n):
        a_idx, b_idx = opposite_side(i, n)
        L = side_line(V, a_idx)
        p = foot(V.vertex(i), L)
        d = abs(signed_dist(V.vertex(i), L))
        ka = V.klein[a_idx]
        kb = V.klein[b_idx]
        kp = np.array([p.x / p.t, p.y / p.t])
        edge = kb - ka
        lam = float(np.dot(kp - ka, edge) / np.dot(edge, edge))
        margin = min(lam, 1.0 - lam)
        records.append(VertexProjection(
            index=i, opposite_side=(a_idx, b_idx), foot=p, distance=d,
            foot_interior=margin >= tol, interior_margin=margin))
    dists = [r.distance for r in records]
    spread = max(dists) - min(dists)
    verdict = all(r.foot_interior for r in records) and spread <= tol
    return ReducednessReport(
        records=tuple(records), verdict=verdict,
        max_distance_spread=spread, mean_distance=sum(dists) / n)


def regular_ngon(n: int, R: float) -> ConvexPolygon:
    """Regular odd n-gon with circumradius R, centered at the chart origin."""
    if n < 3 or n % 2 == 0:
        raise EvenGon(f"regular construction requires an odd n >= 3, got n = {n}")
    if not (R > 0.0) or not math.isfinite(R):
        raise GeometryError(f"circumradius must be positive and finite, got {R}")
    sh, ch = math.sinh(R), math.cosh(R)
    pts = [HPoint(sh * math.cos(2.0 * math.pi * k / n),
                  sh * math.sin(2.0 * math.pi * k / n), ch)
           for k in range(n)]
    return make_polygon(pts)


def regular_apothem(n: int, R: float) -> float:
    """Distance from the center of a regular n-gon to its side lines."""
    return math.atanh(math.tanh(R) * math.cos(math.pi / n))


def regular_ngon_with_thickness(n: int, delta: float,
                                r_max: float = 50.0) -> ConvexPolygon:
    """Regular odd n-gon whose thickness equals delta within BISECT_TOL.

    The circumradius is found by bisection on the full thickness pipeline.
    The map R -> thickness is continuous and strictly increasing; the
    bracket endpoints are verified to straddle delta rather than assumed.
    """
    if not (delta > 0.0) or not math.isfinite(delta):
        raise GeometryError(f"thickness must be positive and finite, got {delta}")
    lo, hi = 1e-8, min(delta, r_max)

    def f(R: float) -> float:
        return thickness(regular_ngon(n, R)).thickness - delta

    # Below a constructibility floor the Klein cross products of a regular
    # polygon drop under the strict-convexity threshold; grow the lower
    # endpoint past it instead of failing there.
    f_lo = None
    while lo < hi:
        try:
            f_lo = f(lo)
            break
        except NonConvex:
            lo *= 10.0
    if f_lo is None or not (f_lo < 0.0 < f(hi)):
        raise BracketFailure(
            f"no circumradius bracket for thickness {delta} in ({lo}, {r_max})")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = f(mid)
        if abs(val) <= BISECT_TOL:
            return regular_ngon(n, mid)
        if val < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, hi):
            break
    raise NoConvergence(
        f"bisection stalled at interval ({lo}, {hi}) without reaching {BISECT_TOL}")


def _residuals(x: np.ndarray, n: int, delta: float,
               gauge_anchor: np.ndarray, gauge_dir: np.ndarray) -> np.ndarray | None:
    """Distance residuals plus the three gauge equations, or None off-chart."""
    k = x.reshape(n, 2)
    r2 = k[:, 0] ** 2 + k[:, 1] ** 2
    if np.any(r2 >= 1.0 - 1e-12):
        return None
    d = np.sqrt(1.0 - r2)
    pts = np.column_stack([k[:, 0] / d, k[:, 1] / d, 1.0 / d])

    half = (n - 1) // 2
    a = np.roll(pts, -half, axis=0)
    b = np.roll(pts, -(half + 1), axis=0)
    w = lorentz_cross(a, b)
    norm_sq = w[:, 0] ** 2 + w[:, 1] ** 2 - w[:, 2] ** 2
    if np.any(norm_sq <= 0.0):
        return None
    w = w / np.sqrt(norm_sq)[:, None]
    bform = (pts[:, 0] * w[:, 0] + pts[:, 1] * w[:, 1] - pts[:, 2] * w[:, 2])
    res = np.abs(np.arcsinh(bform)) - delta

    e = k[1] - k[0]
    gauge = np.array([k[0, 0] - gauge_anchor[0],
                      k[0, 1] - gauge_anchor[1],
                      e[0] * gauge_dir[1] - e[1] * gauge_dir[0]])
    return np.concatenate([res, gauge])


def solve_ordinary_reduced(seed: ConvexPolygon, delta: float, *,
                           max_iterations: int = SOLVER_MAX_ITERATIONS,
                           residual_tol: float = SOLVER_RESIDUAL_TOL) -> ConvexPolygon:
    """Solve for an ordinary reduced odd-gon of common distance delta.

    Damped least-squares iteration on the 2n Klein vertex coordinates,
    minimizing the per-vertex residuals (distance to the opposite side line
    minus delta).  Three gauge equations pin vertex 0 and the direction of
    the first edge to the seed's frame, which removes the isometry group; a
    seed already in the family is returned unchanged.  Steps are damped by
    backtracking halving until the residual norm decreases, with the Jacobian
    taken by central finite differences.
    """
    n = seed.n
    if n % 2 == 0:
        raise EvenGon(f"solver requires an odd-gon seed, got n = {n}")
    if not (delta > 0.0) or not math.isfinite(delta):
        raise GeometryError(f"target distance must be positive, got {delta}")

    x = seed.klein.reshape(-1).copy()
    anchor = seed.klein[0].copy()
    d0 = seed.klein[1] - seed.klein[0]
    gauge_dir = d0 / np.hypot(d0[0], d0[1])

    def res(xv: np.ndarray) -> np.ndarray | None:
        return _residuals(xv, n, delta, anchor, gauge_dir)

    r = res(x)
    if r is None:
        raise GeometryError("seed vertices are not inside the Klein disk")

    h = SOLVER_FD_STEP
    for _ in range(max_iterations):
        if float(np.max(np.abs(r))) <= residual_tol:
            break
        m = x.size
        J = np.empty((r.size, m))
        for kcol in range(m):
            xp = x.copy()
            xp[kcol] += h
            xm = x.copy()
            xm[kcol] -= h
            rp, rm = res(xp), res(xm)
            if rp is None or rm is None:
                raise NoConvergence("iterate drifted to the Klein disk boundary")
            J[:, kcol] = (rp - rm) / (2.0 * h)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)

        base = float(np.dot(r, r))
        alpha = 1.0
        accepted = False
        while alpha >= 2.0 ** -30:
            rt = res(x + alpha * step)
            if rt is not None and float(np.dot(rt, rt)) < base:
                x = x + alpha * step
                r = rt
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise NoConvergence("backtracking line search stalled")
    else:
        raise NoConvergence(
            f"residual {float(np.max(np.abs(r))):.3e} after {max_iterations} iterations")

    if float(np.max(np.abs(r))) > residual_tol:
        raise NoConvergence("did not reach the residual target")

    k = x.reshape(n, 2)
    try:
        P = make_polygon([chart_to_hyperboloid(px, py, "klein") for px, py in k])
    except NonConvex as exc:
        raise LeftFamily(f"solution lost convexity: {exc}") from exc
    report = check_ordinary_reduced(P, tol=REDUCED_TOL)
    if not report.verdict:
        raise LeftFamily(
            "solution violates the ordinary-reducedness criterion "
            f"(spread {report.max_distance_spread:.3e}, feet interior "
            f"{[r.foot_interior for r in report.records]})")
    return P


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
    records: tuple[HalvingRecord, ...]


def perimeter_halving(V: ConvexPolygon, tol: float = 1e-8) -> HalvingReport:
    """Boundary chords, perimeter split, and the two angles at each vertex.

    For an ordinary reduced odd-gon: the chord from v_i to the foot on side
    (v_i, v_i+1) matches the chord from the foot of v_i to the far endpoint
    of its opposite side, the segment from v_i to its foot halves the
    perimeter, and beta_i <= alpha_i with equality exactly for triangles.
    """
    report = check_ordinary_reduced(V, tol=tol)
    if not report.verdict:
        raise NotOrdinaryReduced(
            f"polygon fails the criterion at tolerance {tol:g}")
    n = V.n
    half = (n - 1) // 2
    feet = [r.foot for r in report.records]
    lengths = side_lengths(V)

    records = []
    for i in range(n):
        j = (i + half + 1) % n  # vertex index i + (n+1)/2
        p_i = feet[i]
        p_j = feet[j]
        chord_left = dist_pp(V.vertex(i), p_j)
        chord_right = dist_pp(p_i, V.vertex(j))

        arc1 = sum(lengths[(i + kk) % n] for kk in range(half))
        arc1 += dist_pp(V.vertex(i + half), p_i)
        arc2 = chord_right
        arc2 += sum(lengths[(i + kk) % n] for kk in range(half + 1, n))

        alpha = angle_at(V.vertex(i + 1), V.vertex(i), p_i)
        beta = angle_at(p_i, V.vertex(i), V.vertex(j))
        records.append(HalvingRecord(
            index=i, chord_left=chord_left, chord_right=chord_right,
            half_perimeter_gap=arc1 - arc2, alpha=alpha, beta=beta))
    return HalvingReport(records=tuple(records))


def diameter_bound(delta: float) -> float:
    """Upper bound on the diameter of an ordinary reduced polygon of thickness delta."""
    if not (delta > 0.0):
        raise GeometryError(f"thickness must be positive, got {delta}")
    return math.acosh(math.cosh(delta) * math.sqrt(1.0 + math.sinh(delta) ** 2 / 3.0))


def diameter_within_bound(V: ConvexPolygon) -> bool:
    """Whether diameter(V) < diameter_bound(thickness(V))."""
    d, _ = diameter(V)
    return d < diameter_bound(thickness(V).thickness)
