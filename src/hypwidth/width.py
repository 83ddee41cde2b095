"""Width, thickness and diameter of convex polygons.

The width determined by a supporting line L is the maximum distance from L to
a point of the polygon, which for polygons is attained at a vertex.  Thickness
minimizes and the dual diameter search maximizes that width over the full
family of supporting lines: the n side lines plus, at each vertex v_i, the
pencil of supporting lines rotating between the two adjacent side lines.

Both searches are exact.  With u0 and u1 the normals of the sides meeting at
v_i, cos(omega) = B(u0, u1) and e = (u1 - u0 cos(omega)) / sin(omega), the
pencil is u(theta) = u0 cos(theta) + e sin(theta) for theta in [0, omega],
and B(v_j, u(theta)) = a_j cos(theta) + b_j sin(theta) with a_j = B(v_j, u0)
and b_j = B(v_j, e).  The width along the pencil is asinh of the upper
envelope of these sinusoids.  Each piece of the envelope is a nonnegative,
hence concave, sinusoid, so the thickness is attained at a pencil end (a side
line) or at an envelope breakpoint, which a sweep along the envelope visits
in order; the maximum of a piece is its amplitude sinh d(v_i, v_j) when its
peak lies inside the pencil, which gives the diameter in closed form.

Each pencil needs only its own range of vertices.  P_j = (a_j, b_j) is
sinh d(v_i, v_j) times the direction of v_j seen from v_i, in the frame of
u0 and e, and B(v_j, u(theta)) = <P_j, (cos theta, sin theta)>.  Convexity
sorts these directions by index across the interior angle at v_i, so the top
of the envelope walks the convex hull of the P_j monotonically: from f_i =
argmax_j a_j, the vertex farthest from side i - 1, at theta = 0, to f_{i+1}
at omega.  No vertex outside the cyclic range from f_i to f_{i+1} reaches
the envelope inside the pencil, and the sweep and the peaks read only that
range (rotating calipers, after Toussaint 1983).  A pencil leaves the sweep
once no breakpoint is left below omega or f_{i+1} is the top: from there to
omega the envelope is one concave piece, whose minimum is at one of its
ends, so each pencil takes one sweep step per breakpoint and none after its
last.  The ranges overlap only at their ends and go round the cycle once, so
their lengths add up to about 2n, and each is padded to the longest.  The
frames and the cut ranges are one table per polygon, ``ConvexPolygon.pencils``,
shared by every query here; the n x n products that give a_j, b_j and f_i
are formed once per polygon, when that table is built, and not kept.
``pencil_line`` and the ultraparallel oracle read only the O(n) frames,
``pencil_frames``, which that table reuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSupporting
from .hcore import HLine, mink, unit_spacelike
from .polygon import ConvexPolygon

SUPPORT_TOL = 1e-9
SIDE_ATTAIN_TOL = 1e-9


@dataclass(frozen=True)
class WidthReport:
    """Width determined by one supporting line, with the witnessing vertex."""

    line: HLine
    width: float
    farthest_vertex_index: int


@dataclass(frozen=True)
class ThicknessReport:
    """Minimum width over all supporting lines.

    The minimum is exact: it is taken over the side lines and every
    breakpoint of the width envelope inside the vertex pencils.
    achieved_on_side is the index of a side line attaining the minimum within
    SIDE_ATTAIN_TOL, or None when only a pencil-interior line (an envelope
    breakpoint) attains it.  Ties are not enumerated; one argmin line is
    reported.
    """

    thickness: float
    argmin_line: HLine
    achieved_on_side: int | None


def pencil_line(V: ConvexPolygon, i: int, s: float) -> HLine:
    """Supporting line at vertex i, parametrized by s in [0, 1].

    s = 0 gives the side line ending at vertex i, s = 1 the one starting
    there; interior s touch the polygon at vertex i only.
    """
    u0, e, omega = V.pencil_frames[:3]
    i %= V.n
    w = s * omega[i]
    return HLine.from_vec(u0[i] * math.cos(w) + e[i] * math.sin(w))


def _pencil_peaks(p: np.ndarray, q: np.ndarray, cos_w, sin_w) -> np.ndarray:
    """Largest |p cos(theta) + q sin(theta)| over [0, omega), elementwise.

    The sinusoid peaks (in absolute value, at its amplitude) where its slope
    q cos(theta) - p sin(theta) vanishes; a pencil is shorter than pi, so that
    happens inside it exactly when the slope changes sign between its ends.
    Otherwise the extremum is at an end.  The omega end of pencil i is the
    0 end of pencil i + 1, so a maximum over all pencils needs only |p| there.
    """
    inside = np.sign(q) * (q * cos_w - p * sin_w) <= 0.0
    return np.where(inside, np.hypot(p, q), np.abs(p))


def _envelope_minima(a: np.ndarray, b: np.ndarray, omega: np.ndarray, last: np.ndarray):
    """Minimum of each row's envelope at theta = 0 and its breakpoints in (0, omega).

    The envelope of row i is max_j (a_ij cos(theta) + b_ij sin(theta)).
    Column 0 of each row is its top at theta = 0, f_i, and column last_i its
    top at omega, f_{i+1} (``ConvexPolygon.pencils``).  All rows sweep their
    envelopes together, left to right, one step per breakpoint.  Another
    sinusoid overtakes the active one at the relative angle atan2(-x, y),
    where x <= 0 is its value gap and y its slope gap; the smallest such
    angle is the next breakpoint.  A sinusoid tied with the active one and
    steeper takes over at once, and at a fixed angle every move raises the
    active slope, so the sweep cannot cycle.  Each step takes the gaps from
    the values and slopes of all sinusoids at the current angle.  The angle
    is clamped at omega, so a row whose next breakpoint is not below omega
    reaches omega exactly, with a finite cosine and sine.  A row leaves the
    sweep at the step that brings it to omega or makes column last_i its top:
    from there to omega its envelope is one concave piece, whose minimum is at
    one end, the breakpoint just recorded or omega, which is theta = 0 of the
    next row.  Returns the minima and the angles attaining them.
    """
    low = a[:, 0].copy()
    low_at = np.zeros(a.shape[0])
    live = np.arange(a.shape[0])  # the original index of each row still sweeping
    theta = np.zeros(a.shape[0])
    f, g, k = a, b, np.zeros(a.shape[0], dtype=int)
    while True:
        rows = np.arange(live.size)
        x = np.minimum(f - f[rows, k][:, None], 0.0)
        y = g - g[rows, k][:, None]
        step = np.arctan2(-x, y)
        # Tied but not steeper (the active one itself included): never overtakes.
        step[(x == 0.0) & (y <= 0.0)] = np.inf
        k = step.argmin(axis=1)
        theta = np.minimum(theta + step.min(axis=1), omega)
        inside = theta < omega
        c = np.cos(theta)[:, None]
        s = np.sin(theta)[:, None]
        f = a * c + b * s
        value = f.max(axis=1)
        lower = inside & (value < low[live])
        low[live[lower]] = value[lower]
        low_at[live[lower]] = theta[lower]
        go = inside & (k != last)
        if not go.all():
            if not go.any():
                return low, low_at
            live, a, b, omega, last, theta, k, f, c, s = (
                v[go] for v in (live, a, b, omega, last, theta, k, f, c, s))
        g = b * c - a * s


def _oriented_support_values(V: ConvexPolygon, L: HLine) -> tuple[np.ndarray, int]:
    """B(v_j, u) for all vertices, after checking that L supports V, and the
    index of their maximum.

    Returned values are flipped to the nonnegative side, and the index is
    that of their first maximum, so ties go to the lowest index.  Raises
    NotSupporting when vertices lie strictly on both sides or none touches
    the line.  The extreme values decide all three: the vertices lie on the
    positive side when the minimum is >= -SUPPORT_TOL, else on the negative
    side when the maximum is <= SUPPORT_TOL, and one touches the line when
    the oriented minimum (minus the maximum, after a flip) is <= SUPPORT_TOL.
    A NaN value fails both side tests: argmin and argmax both find the first NaN.
    """
    b = V.mink_rows.dot(L.vec)
    lo, hi = b.argmin(), b.argmax()
    low = b[lo]
    if not low >= -SUPPORT_TOL:
        if not b[hi] <= SUPPORT_TOL:
            raise NotSupporting("polygon has vertices strictly on both sides of the line")
        b, low, hi = -b, -b[hi], lo
    if low > SUPPORT_TOL:
        raise NotSupporting("no polygon vertex touches the line")
    return b, int(hi)


def width_line(V: ConvexPolygon, L: HLine) -> WidthReport:
    """Width of V determined by the supporting line L.

    For a polygon the farthest point from L is always a vertex, so this is a
    maximum of vertex distances; ties go to the lowest index.
    """
    b, k = _oriented_support_values(V, L)
    return WidthReport(line=L, width=math.asinh(float(b[k])), farthest_vertex_index=k)


def width_ultraparallel_oracle(V: ConvexPolygon, L: HLine) -> float:
    """Width of V at L via its definition over ultraparallel supporting lines.

    Maximizes the distance arccosh(|B(uL, u)|) along the common perpendicular
    over the supporting lines u ultraparallel to L.  Along each vertex pencil
    B(uL, u) is a single sinusoid in the two side normals, so its largest
    modulus has a closed form; the vertices enter only through the support
    check.  Side lines are the pencil endpoints, so the full supporting
    family is covered.
    """
    _oriented_support_values(V, L)
    u0, e, _, cos_w, sin_w = V.pencil_frames
    c = float(_pencil_peaks(mink(u0, L), mink(e, L), cos_w, sin_w).max())
    # 0 whenever no supporting line is ultraparallel to L.
    return math.acosh(c) if c > 1.0 else 0.0


def thickness(V: ConvexPolygon) -> ThicknessReport:
    """Minimum width over all supporting lines of V."""
    u0, e, omega, _, _, a, b, last = V.pencils
    low, low_at = _envelope_minima(a, b, omega, last)
    i = int(low.argmin())
    best_val = math.asinh(max(float(low[i]), 0.0))
    # Pencil p starts on side p - 1, whose width is the top of row p at theta = 0.
    hits = (np.arcsinh(np.maximum(a[:, 0], 0.0)) <= best_val + SIDE_ATTAIN_TOL).nonzero()[0]
    if hits.size:
        achieved: int | None = int(((hits - 1) % V.n).min())
        best_line = HLine.from_vec(V.side_normals[achieved])
    else:
        achieved = None
        best_line = unit_spacelike(u0[i] * math.cos(low_at[i]) + e[i] * math.sin(low_at[i]))
    return ThicknessReport(thickness=best_val, argmin_line=best_line,
                           achieved_on_side=achieved)


def diameter(V: ConvexPolygon) -> tuple[float, tuple[int, int]]:
    """Maximum vertex distance with a witnessing pair (lowest index pair wins ties)."""
    cosh = -(V.mink_rows @ V.vertex_matrix.T)
    # Entries above the diagonal are cosh of distances, about 1 or more, so the
    # zeros below never win; argmax keeps the first maximum in row-major order.
    i, j = divmod(int(np.argmax(np.triu(cosh, 1))), V.n)
    return math.acosh(max(float(cosh[i, j]), 1.0)), (i, j)


def diameter_via_width(V: ConvexPolygon) -> float:
    """Maximum width over all supporting lines; equals the diameter.

    Along the pencil at v_i, B(v_j, u) peaks at sinh d(v_i, v_j) where the
    line is perpendicular to the segment v_i v_j, if that line lies in the
    pencil; otherwise at a side line.
    """
    _, _, _, cos_w, sin_w, a, b, _ = V.pencils
    peak = float(_pencil_peaks(a, b, cos_w[:, None], sin_w[:, None]).max())
    return math.asinh(max(peak, 0.0))
