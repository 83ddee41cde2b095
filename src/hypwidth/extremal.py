"""Extremal quantities and ratio experiments over ordinary reduced polygons.

Both extremal disks are exact combinatorial constructions in the hyperboloid
model.  The smallest enclosing disk comes from Welzl's incremental algorithm
over the vertices, the largest inscribed disk from an enumeration of the
vertices of the polygon's medial axis.  The grid scan records
diameter/thickness ratios together with perimeter, area and the two radii.
Expected-but-unproved ratio bounds are logged as findings, never raised: the
scan is evidence gathering, not a proof checker.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import perturbed_polygon
from .errors import NumericalError
from .hcore import HPoint, unit_timelike
from .polygon import _MINK_DIAG, ConvexPolygon, area, make_polygon, perimeter
from .reduced import regular_ngon_with_thickness, solve_ordinary_reduced
from .width import diameter, thickness

log = logging.getLogger(__name__)

DISK_TOL = 1e-9


def circumdisk(V: ConvexPolygon) -> tuple[HPoint, float]:
    """Smallest disk containing all vertices of V.

    With w = c / cosh(R), the disk of center c and radius R contains vertex v
    exactly when -B(w, v) <= 1, and the smallest disk is the w of largest
    Lorentz norm.  This is an LP-type problem, so Welzl's incremental
    algorithm solves it exactly: vertices are added in index order, and a
    vertex outside the current disk (by more than DISK_TOL) lies on the
    boundary of the next one, which is rebuilt from at most three boundary
    vertices (a single point, the midpoint of a pair, or the equidistant
    point of a triple).  The returned radius is the largest vertex distance
    from the returned center.
    """
    g = V.mink_rows
    m = V.vertex_matrix

    def first_outside(w: np.ndarray, start: int, stop: int) -> int | None:
        hits = np.flatnonzero(g[start:stop] @ w < -1.0 - DISK_TOL)
        return start + int(hits[0]) if hits.size else None

    w = m[0]
    i = first_outside(w, 1, V.n)
    while i is not None:
        w = m[i]
        j = first_outside(w, 0, i)
        while j is not None:
            w = (m[i] + m[j]) / (1.0 - g[i] @ m[j])
            k = first_outside(w, 0, j)
            while k is not None:
                w = np.linalg.solve(g[[i, j, k]], -np.ones(3))
                k = first_outside(w, k + 1, j)
            j = first_outside(w, j + 1, i)
        i = first_outside(w, i + 1, V.n)
    c = unit_timelike(w)
    return c, math.acosh(max(float(np.max(-(g @ c.vec))), 1.0))


def indisk(V: ConvexPolygon) -> tuple[HPoint, float]:
    """Largest disk inscribed in V.

    With w = c / sinh(r), the disk of center c and radius r lies in V exactly
    when B(w, u_j) >= 1 for every side normal u_j, and the largest disk is
    the point of this polyhedron of smallest Lorentz norm.  That norm is
    concave, so its minimum lies at a vertex of the polyhedron: a point
    equidistant from three sides, i.e. a vertex of the medial axis.  (The
    clearance itself can have several local maxima, e.g. between two
    ultraparallel sides, so no local search is used.)  Each pair of sides
    spans an edge line {B(w, u_i) = B(w, u_j) = 1}; clipping all of them by
    the other n - 2 half-spaces in one vectorised pass leaves segments whose
    finite ends include every vertex.  The answer is the end of largest
    clearance: no point has a larger clearance than the inradius, so the
    choice needs no feasibility test.  O(n^3) time and memory.
    """
    N = V.side_normals * _MINK_DIAG
    i, j = np.triu_indices(V.n, 1)
    e = np.cross(N[i], N[j])
    x0 = np.cross(N[j] - N[i], e) / np.sum(e * e, axis=1)[:, None]
    a = x0 @ N.T
    b = e @ N.T
    side = np.arange(V.n)
    other = (side != i[:, None]) & (side != j[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (1.0 - a) / b
    lo = np.max(np.where(other & (b > 0.0), s, -np.inf), axis=1)
    hi = np.min(np.where(other & (b < 0.0), s, np.inf), axis=1)
    s = np.concatenate([lo, hi])
    finite = np.isfinite(s)
    pair = np.tile(np.arange(len(i)), 2)[finite]
    ends = x0[pair] + s[finite, None] * e[pair]
    norm2 = ends[:, 2] ** 2 - ends[:, 0] ** 2 - ends[:, 1] ** 2
    future = (ends[:, 2] > 0.0) & (norm2 > 0.0)
    ends = ends[future]
    clearance = np.min(ends @ N.T, axis=1) / np.sqrt(norm2[future])
    c = unit_timelike(ends[int(np.argmax(clearance))])
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
    reduced polygons seeded from jittered copies of it.  Solver failures are
    logged and skipped without aborting the scan; whether non-regular
    diameters exceed the regular one is logged as evidence.
    """
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
                if row.diameter < reg_row.diameter - 1e-9:
                    log.warning(
                        "finding: non-regular diameter %.12g below regular %.12g (%s)",
                        row.diameter, reg_row.diameter, pid)
                else:
                    log.info("evidence: non-regular diameter %.12g >= regular %.12g (%s)",
                             row.diameter, reg_row.diameter, pid)
    return rows
