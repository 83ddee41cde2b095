"""Extremal quantities and ratio experiments over ordinary reduced polygons.

Both extremal disks are exact combinatorial constructions in the hyperboloid
model.  The smallest enclosing disk comes from farthest-violator pivoting
over supports of at most three vertices, the largest inscribed disk from a
collapse sweep over the n - 2 vertices of the polygon's medial axis.  The
grid scan records diameter/thickness ratios together with perimeter, area
and the two radii.  Expected-but-unproved ratio bounds are logged as
findings, never raised: the scan is evidence gathering, not a proof checker.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .corpus import perturbed_polygon
from .errors import GeometryError, NumericalError
from .hcore import MINK_DIAG, HPoint, dist_pp, mink, unit_timelike
from .polygon import ConvexPolygon, area, make_polygon, perimeter
from .reduced import regular_ngon_with_thickness, solve_ordinary_reduced
from .width import diameter, thickness

log = logging.getLogger(__name__)

DISK_TOL = 1e-9
# How far a non-regular diameter may fall below the regular one of its cell
# before ratio_scan logs it as a finding.
SCAN_DIAMETER_TOL = 1e-9


def circumdisk(V: ConvexPolygon) -> tuple[HPoint, float]:
    """Smallest disk containing all vertices of V.

    With w = c / cosh(R), the disk of center c and radius R contains vertex v
    exactly when -B(w, v) <= 1, and the smallest disk is the w of largest
    Lorentz norm.  Supports of this LP-type problem have at most three
    vertices, so farthest-violator pivoting solves it: from vertex 0, each
    pass moves to the smallest disk through the vertex p farthest outside (by
    more than DISK_TOL) that covers the support, spanned by p and one support
    vertex or two (if its w is future timelike).  It holds the old support
    and a point outside the old disk, so the radius grows, no support recurs
    and the loop ends.  As B rounds by about 1e-8 at distance 10, a vertex is
    outside only beyond every support vertex, and a candidate is checked
    only on the support vertices it misses.  The returned radius is the
    largest vertex distance from the returned center.
    """
    g, m = V.mink_rows, V.vertex_matrix
    support, w = [0], m[0]
    while (b := g @ w).min() < b[support].min(initial=-1.0) - DISK_TOL:
        p = int(np.argmin(b))
        disks = [([p, s], (m[p] + m[s]) / (1.0 - g[p] @ m[s])) for s in support]
        for s, t in combinations(support, 2):
            ijk = sorted((p, s, t), reverse=True)
            disks.append((ijk, np.linalg.solve(g[ijk], -np.ones(3))))
        W = np.array([u for _, u in disks])
        norm = -mink(W, W)
        B = np.where([[s in ids for ids, _ in disks] for s in support], -1.0, g[support] @ W.T)
        ok = (W[:, 2] > 0.0) & (norm > 0.0) & (B.min(axis=0) >= -1.0 - DISK_TOL)
        support, w = disks[int(np.argmax(np.where(ok, norm, -np.inf)))]
    c = unit_timelike(w)
    return c, float(dist_pp(c, m).max())


def indisk(V: ConvexPolygon) -> tuple[HPoint, float]:
    """Largest disk inscribed in V.

    With w = c / sinh(r), the disk of center c and radius r lies in V exactly
    when B(w, u_j) >= 1 for every side normal u_j, and the largest disk is the
    w of smallest Lorentz norm, a vertex of the medial axis (the clearance can
    have several local maxima, so no local search is used).  With w = (k, 1)/s
    these are Klein half-planes f_j(k) >= s, f_j affine, so the medial axis is
    a weighted straight skeleton whose n - 2 vertices are the levels s where a
    shrinking side meets both live neighbours.  A heap pops them in level
    order, skipping entries whose neighbours changed; each is scored by its
    clearance B(w, u)/|w| from the nearest of its three defining sides, its
    side unlinked and both neighbours queued again.  No other side is nearer:
    an event that is not stale is a vertex of the lower envelope of the f_j,
    so the sweep takes O(n log n) time.  The best triple's w is then solved
    by LU, for accuracy.
    """
    N = V.side_normals * MINK_DIAG
    rows, n = N.tolist(), V.n
    prv, nxt = [(j - 1) % n for j in range(n)], [(j + 1) % n for j in range(n)]
    heap, best = [], (0.0, None)

    def queue(*sides: int) -> None:
        # q = (b - a) x (c - a) is det(a, b, c) w, and q_t > 0 iff side j shrinks.
        for j in sides:
            a, b, c = rows[prv[j]], rows[j], rows[nxt[j]]
            (x1, y1, t1), (x2, y2, t2) = ([u - v for u, v in zip(r, a)] for r in (b, c))
            q = (y1 * t2 - t1 * y2, t1 * x2 - x1 * t2, x1 * y2 - y1 * x2)
            if q[2] > 0.0 and (m2 := q[2] * q[2] - q[0] * q[0] - q[1] * q[1]) > 0.0:
                s = (a[0] * q[0] + a[1] * q[1] + a[2] * q[2]) / q[2]
                heapq.heappush(heap, (s, j, prv[j], nxt[j], q, m2))
    queue(*range(n))
    while heap:
        _, j, left, right, q, m2 = heapq.heappop(heap)
        if (prv[j], nxt[j]) == (left, right):
            score = min(r[0] * q[0] + r[1] * q[1] + r[2] * q[2]
                        for r in (rows[left], rows[j], rows[right])) / math.sqrt(m2)
            if score > best[0]:
                best = (score, [left, j, right])
            nxt[left], prv[right] = right, left
            queue(left, right)
    c = unit_timelike(np.linalg.solve(N[best[1]], np.ones(3)))
    return c, math.asinh(float(np.min(N @ c.vec)))


def rhombus(a: float, b: float) -> ConvexPolygon:
    """Convex hull of two perpendicular segments crossing at their midpoints.

    a and b are the half-lengths of the diagonals along the x and y axis
    geodesics.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("diagonal half-lengths must be positive")
    return make_polygon([
        HPoint(math.sinh(a), 0.0, math.cosh(a)),
        HPoint(0.0, math.sinh(b), math.cosh(b)),
        HPoint(-math.sinh(a), 0.0, math.cosh(a)),
        HPoint(0.0, -math.sinh(b), math.cosh(b)),
    ])


@dataclass(frozen=True)
class ScanRow:
    """One polygon of the ratio experiment grid."""

    n: int
    delta: float
    polygon_id: str
    diameter: float
    ratio: float
    perimeter: float
    area: float
    circumradius: float
    inradius: float


def _scan_row(P: ConvexPolygon, n: int, polygon_id: str) -> ScanRow:
    thick = thickness(P).thickness
    diam, _ = diameter(P)
    _, circ_r = circumdisk(P)
    _, in_r = indisk(P)
    row = ScanRow(n=n, delta=thick, polygon_id=polygon_id, diameter=diam,
                  ratio=diam / thick, perimeter=perimeter(P), area=area(P),
                  circumradius=circ_r, inradius=in_r)
    if not (1.0 < row.ratio < 2.0):
        log.warning("finding: ratio %.12g outside (1, 2) for %s", row.ratio, polygon_id)
    return row


def ratio_scan(ns: Sequence[int], deltas: Sequence[float], perturbations: int = 0,
               rng_seed: int = 0) -> list[ScanRow]:
    """Diameter/thickness ratios over a grid of regular and solved polygons.

    For each (n, delta) the regular polygon of that thickness is scanned,
    followed by ``perturbations`` solver-generated non-regular ordinary
    reduced polygons seeded from jittered copies of it.  A seed that cannot
    be drawn or solved is logged and skipped without aborting the scan, so a
    cell can hold fewer than 1 + perturbations rows; whether non-regular
    diameters exceed the regular one is logged as evidence.  Raises
    GeometryError for perturbations < 0.
    """
    if perturbations < 0:
        raise GeometryError(f"perturbations must be >= 0, got {perturbations}")
    rng = np.random.default_rng(rng_seed)
    rows: list[ScanRow] = []
    for n in ns:
        for delta in deltas:
            reg = regular_ngon_with_thickness(n, delta)
            reg_row = _scan_row(reg, n, f"regular-n{n}-d{delta:g}")
            rows.append(reg_row)
            for k in range(perturbations):
                pid = f"perturbed-n{n}-d{delta:g}-{k:02d}"
                try:
                    seed_poly = perturbed_polygon(reg, rng)
                    sol = solve_ordinary_reduced(seed_poly, delta)
                except NumericalError as exc:
                    log.warning("skipping %s: %s", pid, exc)
                    continue
                row = _scan_row(sol, n, pid)
                rows.append(row)
                if row.diameter < reg_row.diameter - SCAN_DIAMETER_TOL:
                    log.warning(
                        "finding: non-regular diameter %.12g below regular %.12g (%s)",
                        row.diameter, reg_row.diameter, pid)
                else:
                    log.info("evidence: non-regular diameter %.12g >= regular %.12g (%s)",
                             row.diameter, reg_row.diameter, pid)
    return rows
