"""Independent oracles used by the acceptance suite (no test cases here).

These deliberately avoid the library's own search strategies: thickness is
re-derived by dense enumeration over the supporting family, the smallest
enclosing disk by exhaustive pair/triple candidate construction, and the
largest inscribed disk by exhaustive side-triple construction.
"""

import math

import numpy as np

from hypwidth.hcore import dist_pp, signed_dist, unit_timelike
from hypwidth.polygon import ConvexPolygon, side_line
from hypwidth.width import pencil_line, width_line

_J = np.array([1.0, 1.0, -1.0])


def dense_thickness(V: ConvexPolygon, total_lines: int = 10_000) -> float:
    """Minimum width over a dense sample of the whole supporting family.

    Pure enumeration, two stages per pencil: a coarse sweep of the whole
    parameter range, then an equally sized sweep of the bracket around the
    coarse minimum (width can have a kink there, where the error of a single
    uniform grid is linear in the step).
    """
    per_stage = max(total_lines // (2 * V.n), 2)
    best = math.inf
    for i in range(V.n):
        coarse = np.linspace(0.0, 1.0, per_stage)
        vals = [width_line(V, pencil_line(V, i, float(s))).width for s in coarse]
        k = int(np.argmin(vals))
        best = min(best, vals[k])
        lo = coarse[max(k - 1, 0)]
        hi = coarse[min(k + 1, per_stage - 1)]
        for s in np.linspace(lo, hi, per_stage):
            best = min(best, width_line(V, pencil_line(V, i, float(s))).width)
    return best


def oracle_circumdisk(V: ConvexPolygon) -> float:
    """Smallest enclosing radius via all pair and triple candidate disks."""
    pts = [v.vec for v in V.vertices]
    n = len(pts)
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            c = unit_timelike(pts[i] + pts[j])
            r = max(dist_pp(c, v) for v in V.vertices)
            if dist_pp(c, V.vertex(i)) >= r - 1e-9:
                best = min(best, r)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                M = np.array([pts[i] * _J, pts[j] * _J, pts[k] * _J])
                try:
                    w = np.linalg.solve(M, -np.ones(3))
                except np.linalg.LinAlgError:
                    continue
                if w[2] ** 2 - w[0] ** 2 - w[1] ** 2 <= 0.0:
                    continue
                c = unit_timelike(w)
                r = max(dist_pp(c, v) for v in V.vertices)
                if abs(dist_pp(c, V.vertex(i)) - r) < 1e-9:
                    best = min(best, r)
    return best


def oracle_indisk(V: ConvexPolygon) -> float:
    """Largest inscribed radius via all points equidistant from three sides."""
    lines = [side_line(V, j) for j in range(V.n)]
    n = len(lines)
    best = -math.inf
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                M = np.array([lines[i].vec * _J, lines[j].vec * _J, lines[k].vec * _J])
                try:
                    w = np.linalg.solve(M, np.ones(3))
                except np.linalg.LinAlgError:
                    continue
                if w[2] <= 0.0 or w[2] ** 2 - w[0] ** 2 - w[1] ** 2 <= 0.0:
                    continue
                c = unit_timelike(w)
                r = min(signed_dist(c, L) for L in lines)
                if abs(signed_dist(c, lines[i]) - r) < 1e-9:
                    best = max(best, r)
    return best
