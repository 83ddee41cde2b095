"""Independent oracles used by the acceptance suite (no test cases here).

These deliberately avoid the library's own search strategies: thickness is
re-derived by dense enumeration over the supporting family and by evaluating
every pairwise crossing inside each pencil, the smallest enclosing disk by
exhaustive pair/triple candidate construction, the largest inscribed disk by
exhaustive side-triple construction, the diameter by a loop over vertex
pairs, the ordinary-reducedness criterion and the boundary halving one
vertex at a time, and the vertex pencils by arc interpolation between the
two side normals.  Distances and areas have 50-digit references on the (x, y)
reading of the vertex rows; the diameter's loop takes its value from the
first, and the area is the angle defect, not the library's fan of triangles.
The full-width sweep is the library's envelope sweep before each pencil was
restricted to its own column range: it runs every pencil over all n
sinusoids, so the restricted sweep must reproduce it bit for bit.  The
all-sides collapse sweep is the library's inscribed-disk sweep before each
event was scored from its three defining sides: it scores every event
against all n sides.  The unscaled side normals, sheet step, solver
residuals and solver Jacobian are the library's formulas before their rows
were rescaled by powers of two: inside the old domain the library must
reproduce them bit for bit.  Angles have two references: the half-angle
formula at 50 digits with its conditioning, for any triangle, and the closed
form of a regular polygon's vertex angle.
"""

import heapq
import math
from itertools import combinations

import numpy as np

from hypwidth.hcore import (HLine, angle_at, dist_pp, foot, lorentz_cross, mink, signed_dist,
                            unit_spacelike, unit_timelike)
from hypwidth.polygon import ConvexPolygon, side_line
from hypwidth.reduced import _lift
from hypwidth.width import width_line

_J = np.array([1.0, 1.0, -1.0])


def unscaled_line_normals(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals lorentz_cross(a, b) / N and their Lorentz norms N, from the
    rows as they are; N overflows float64 from about distance 178 from the
    chart origin."""
    w = lorentz_cross(a, b)
    N = np.sqrt(mink(w, w))[:, None]
    return w / N, N


def unscaled_side_normals(V: ConvexPolygon) -> np.ndarray:
    """Side normals crossed from the vertex rows as they are."""
    m = V.vertex_matrix
    return unscaled_line_normals(m, np.roll(m, -1, axis=0))[0]


def mp_angle_from_sides(la, lc, lb) -> tuple[float, float]:
    """The angle between sides la and lc, and its conditioning, at 50 digits.

    The angle is the half-angle formula tan^2(angle / 2) = sinh(s - la)
    sinh(s - lc) / (sinh(s) sinh(s - lb)), s the half perimeter, with the float
    sides read exactly and half-differences below 0 counted as 0.  The
    conditioning is sum |d angle / d l| l over the three sides, by central
    differences: eps times it is the first-order change of the angle when each
    side moves by eps relative, the rounding the sides themselves carry.
    """
    import mpmath

    def angle(a, c, b):
        s = (a + b + c) / 2
        sh = [mpmath.sinh(max(x, 0)) for x in (s - a, s - c, s, s - b)]
        return 2 * mpmath.atan2(mpmath.sqrt(sh[0] * sh[1]), mpmath.sqrt(sh[2] * sh[3]))

    with mpmath.workdps(50):
        sides = [mpmath.mpf(float(x)) for x in (la, lc, lb)]
        cond = 0
        for k, side in enumerate(sides):
            h = side * mpmath.mpf(10) ** -20
            up, down = list(sides), list(sides)
            up[k] += h
            down[k] -= h
            cond += abs(angle(*up) - angle(*down)) / 2 * side / h
        return float(angle(*sides)), float(cond)


def regular_angle(n, R):
    """Interior angle of the regular n-gon of circumradius R: its right triangle
    at a vertex has cot(angle / 2) = cosh(R) tan(pi / n)."""
    return 2.0 * math.atan(1.0 / (math.cosh(R) * math.tan(math.pi / n)))


def unscaled_residuals(x: np.ndarray, delta: float, frame):
    """The solver's residuals and the values its Jacobian reuses, with the side
    normals and their norms N from the unscaled lifted rows."""
    v = _lift(x)
    u, N = unscaled_line_normals(*v[frame.idx[1:]])
    f = mink(v, u)
    return np.abs(np.arcsinh(f)) - delta, (v, f, u, N)


def unscaled_jacobian(lifted, frame) -> np.ndarray:
    """The solver's exact Jacobian from ``unscaled_residuals``' values, with the
    ends of each opposite side as they are; N ** 2 overflows in the far
    field."""
    v, f, u, N = lifted
    p = v[frame.idx]
    c = (f * mink(p[1], p[2]))[:, None] / N ** 2
    g = np.concatenate([u[None], lorentz_cross(p[::-2], p[:2]) / N - c * p[:0:-1]]) * _J
    scale = (np.sign(f) / np.hypot(1.0, f))[:, None]
    J = np.zeros((len(v), 2 * len(v)))
    J.reshape(-1)[frame.pos] = scale * (g[..., :2] + g[..., 2:] * p[..., :2] / p[..., 2:])
    return J


def unscaled_to_sheet(v: np.ndarray) -> np.ndarray:
    """Rows divided by sign(t) sqrt(t^2 - x^2 - y^2), with nothing rescaled first."""
    sq = v * v
    n = sq[..., 2] - sq[..., 0] - sq[..., 1]
    return v / np.copysign(np.sqrt(n), v[..., 2])[..., None]


def slerp_normal(u0: np.ndarray, u1: np.ndarray, s: float) -> np.ndarray:
    """Arc interpolation (u0 sin((1-s) omega) + u1 sin(s omega)) / sin(omega).

    omega is the angle between the two unit normals, cos(omega) = B(u0, u1);
    s = 0 and s = 1 give u0 and u1.
    """
    omega = math.acos(max(-1.0, min(1.0, mink(u0, u1))))
    if omega < 1e-12:
        return u0.copy()
    return (u0 * math.sin((1.0 - s) * omega) + u1 * math.sin(s * omega)) / math.sin(omega)


def slerp_pencil_line(V: ConvexPolygon, i: int, s: float) -> HLine:
    """Supporting line at vertex i, interpolated from the normals of sides i-1 and i."""
    u = V.side_normals
    return HLine.from_vec(slerp_normal(u[(i - 1) % V.n], u[i % V.n], s))


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
        vals = [width_line(V, slerp_pencil_line(V, i, float(s))).width for s in coarse]
        k = int(np.argmin(vals))
        best = min(best, vals[k])
        lo = coarse[max(k - 1, 0)]
        hi = coarse[min(k + 1, per_stage - 1)]
        for s in np.linspace(lo, hi, per_stage):
            best = min(best, width_line(V, slerp_pencil_line(V, i, float(s))).width)
    return best


def brute_thickness(V: ConvexPolygon) -> float:
    """Minimum width with every pairwise crossing in each pencil as a candidate.

    Along the pencil u0 cos(t) + e sin(t), t in [0, omega], at vertex i the
    vertex terms B(v_j, u) are sinusoids a_j cos(t) + b_j sin(t), and the
    minimum of their upper envelope lies at an end or where two of them
    cross.  All O(n^2) crossings are evaluated against all n sinusoids.
    """
    best = math.inf
    for i in range(V.n):
        u0 = side_line(V, i - 1).vec
        u1 = side_line(V, i).vec
        c = mink(u0, u1)
        omega = math.acos(max(-1.0, min(1.0, c)))
        e = (u1 - c * u0) / math.sin(omega)
        a = np.array([mink(v, u0) for v in V.vertices])
        b = np.array([mink(v, e) for v in V.vertices])
        cand = [0.0, omega]
        for j in range(V.n):
            for k in range(j + 1, V.n):
                t = math.atan2(a[j] - a[k], b[k] - b[j]) % math.pi
                if t < omega:
                    cand.append(t)
        cand = np.array(cand)
        envelope = np.max(np.outer(np.cos(cand), a) + np.outer(np.sin(cand), b), axis=1)
        best = min(best, float(np.min(envelope)))
    return math.asinh(max(best, 0.0))


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


def all_sides_indisk(V: ConvexPolygon) -> tuple[float, float]:
    """Inradius from ``extremal.indisk``'s collapse sweep, scoring each event
    against all n sides, and the largest relative gap between an event's
    all-sides score and its score from its three defining sides.

    The events, their order and the final LU solve are the library's; only
    the score differs: min_j B(w, u_j)/|w| over every side normal u_j.
    """
    N = V.side_normals * _J
    rows, n = N.tolist(), V.n
    prv, nxt = [(j - 1) % n for j in range(n)], [(j + 1) % n for j in range(n)]
    heap, best, gap = [], (0.0, None), 0.0

    def queue(*sides):
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
            values = N @ q
            score = float(values.min()) / math.sqrt(m2)
            three = float(values[[left, j, right]].min()) / math.sqrt(m2)
            gap = max(gap, abs(three - score) / abs(score))
            if score > best[0]:
                best = (score, [left, j, right])
            nxt[left], prv[right] = right, left
            queue(left, right)
    c = unit_timelike(np.linalg.solve(N[best[1]], np.ones(3)))
    return math.asinh(float(np.min(N @ c.vec))), gap


def mp_dist(p, q) -> float:
    """Distance of two vertex rows at 50 digits, on the (x, y) reading.

    Each row names the point (x, y, sqrt(1 + x^2 + y^2)); its stored t is not
    read.
    """
    import mpmath

    with mpmath.workdps(50):
        (x1, y1), (x2, y2) = ([mpmath.mpf(float(c)) for c in r[:2]] for r in (p, q))
        t1, t2 = (mpmath.sqrt(1 + x * x + y * y) for x, y in ((x1, y1), (x2, y2)))
        return float(mpmath.acosh(t1 * t2 - x1 * x2 - y1 * y2))


def _mp_points(V: ConvexPolygon) -> list:
    """The vertex rows as columns (x, y, sqrt(1 + x^2 + y^2)) at the working
    precision of mpmath: the (x, y) reading, in which the stored t is not read."""
    import mpmath

    pts = []
    for x, y in V.vertex_matrix[:, :2].tolist():
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        pts.append(mpmath.matrix([x, y, mpmath.sqrt(1 + x * x + y * y)]))
    return pts


def _mp_cosh(p, q):
    """-B(p, q), the cosh of the distance of two points."""
    return p[2] * q[2] - p[0] * q[0] - p[1] * q[1]


def mp_area(V: ConvexPolygon) -> float:
    """Polygon area at 50 digits, on the (x, y) reading of the vertex rows.

    (n - 2)*pi minus the interior angles, each from the law of cosines
    cos(angle) = (cosh a cosh c - cosh b) / (sinh a sinh c); 50 digits leave
    some 25 after the cancellations at the smallest polygons the regular
    constructor builds.
    """
    import mpmath

    with mpmath.workdps(50):
        pts = _mp_points(V)
        total = 0
        for a, b, c in zip(pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1]):
            ca, cc = _mp_cosh(b, a), _mp_cosh(b, c)
            total += mpmath.acos((ca * cc - _mp_cosh(a, c))
                                 / mpmath.sqrt((ca * ca - 1) * (cc * cc - 1)))
        return float((V.n - 2) * mpmath.pi - total)


def mp_circumradius(V: ConvexPolygon) -> float:
    """Smallest enclosing radius at 50 digits, on the (x, y) reading of the rows.

    Every centre of a disk through two vertices (their midpoint) or three
    (w with B(w, v) = -1 at each, normalised when future timelike) is tried,
    and the least largest vertex distance from one of them is the radius: no
    centre does better than the true one, which is among them.
    """
    import mpmath

    with mpmath.workdps(50):
        pts = _mp_points(V)
        centres = [p + q for p, q in combinations(pts, 2)]
        for ijk in combinations(pts, 3):
            M = mpmath.matrix([[p[0], p[1], -p[2]] for p in ijk])
            centres.append(mpmath.lu_solve(M, mpmath.matrix([-1, -1, -1])))
        best = mpmath.inf
        for w in centres:
            if w[2] > 0 and _mp_cosh(w, w) > 0:
                c = w / mpmath.sqrt(_mp_cosh(w, w))
                best = min(best, max(mpmath.acosh(_mp_cosh(c, p)) for p in pts))
        return float(best)


def mp_reducedness(V: ConvexPolygon) -> tuple[list[float], list[float]]:
    """Distance from each vertex to its opposite side line, and the Klein-chart
    barycentric margin of its foot inside that side, at 50 digits on the (x, y)
    reading of the rows.

    The line through a and b has the normal w = (a x b) J, so the distance is
    asinh(|B(v, w)| / sqrt(B(w, w))) and the foot is v - B(v, w) w / B(w, w).
    """
    import mpmath

    def mink_mp(p, q):
        return p[0] * q[0] + p[1] * q[1] - p[2] * q[2]

    n = V.n
    dists, margins = [], []
    with mpmath.workdps(50):
        pts = _mp_points(V)
        for i, v in enumerate(pts):
            a, b = pts[(i + (n - 1) // 2) % n], pts[(i + (n + 1) // 2) % n]
            w = mpmath.matrix([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                               -(a[0] * b[1] - a[1] * b[0])])
            ww, vw = mink_mp(w, w), mink_mp(v, w)
            dists.append(float(mpmath.asinh(abs(vw) / mpmath.sqrt(ww))))
            p = v - w * (vw / ww)
            ka, kb, kp = ([q[0] / q[2], q[1] / q[2]] for q in (a, b, p))
            edge = [kb[0] - ka[0], kb[1] - ka[1]]
            lam = (((kp[0] - ka[0]) * edge[0] + (kp[1] - ka[1]) * edge[1])
                   / (edge[0] ** 2 + edge[1] ** 2))
            margins.append(float(min(lam, 1 - lam)))
    return dists, margins


def oracle_diameter(V: ConvexPolygon) -> tuple[float, tuple[int, int]]:
    """Largest vertex distance by a loop over pairs; the lowest pair wins ties.

    Pairs are ranked by -B(v_i, v_j) in floats, as the library ranks them,
    and the winner's distance is ``mp_dist``'s.
    """
    m = V.vertex_matrix
    cosh = -(V.mink_rows @ m.T)
    best = -math.inf
    pair = (0, 1)
    for i in range(V.n - 1):
        for j in range(i + 1, V.n):
            if cosh[i, j] > best:
                best = cosh[i, j]
                pair = (i, j)
    return mp_dist(m[pair[0]], m[pair[1]]), pair


def oracle_check_ordinary_reduced(V: ConvexPolygon, tol: float = 1e-9):
    """Ordinary-reducedness criterion with an HLine and a foot per vertex.

    Returns the verdict and, per vertex, the distance to the opposite side
    line, the foot and its Klein-chart barycentric margin inside the side.
    """
    n = V.n
    dists, feet, margins = [], [], []
    for i in range(n):
        a_idx, b_idx = (i + (n - 1) // 2) % n, (i + (n + 1) // 2) % n
        L = side_line(V, a_idx)
        p = foot(V.vertex(i), L)
        ka, kb = V.klein[a_idx], V.klein[b_idx]
        edge = kb - ka
        lam = float(np.dot(np.array([p.x / p.t, p.y / p.t]) - ka, edge) / np.dot(edge, edge))
        dists.append(abs(signed_dist(V.vertex(i), L)))
        feet.append(p)
        margins.append(min(lam, 1.0 - lam))
    verdict = min(margins) >= tol and max(dists) - min(dists) <= tol
    return verdict, dists, feet, margins


def oracle_perimeter_halving(V: ConvexPolygon):
    """Boundary chords, half-perimeter gap and the two angles, vertex by vertex.

    Feet come from ``oracle_check_ordinary_reduced``; each arc is a running
    sum of single side lengths.  Returns one (chord_left, chord_right,
    half_perimeter_gap, alpha, beta) tuple per vertex.
    """
    n = V.n
    half = (n - 1) // 2
    _, _, feet, _ = oracle_check_ordinary_reduced(V)
    lengths = [dist_pp(V.vertex(i), V.vertex(i + 1)) for i in range(n)]
    out = []
    for i in range(n):
        j = (i + half + 1) % n
        chord_left = dist_pp(V.vertex(i), feet[j])
        chord_right = dist_pp(feet[i], V.vertex(j))
        arc1 = sum(lengths[(i + kk) % n] for kk in range(half))
        arc1 += dist_pp(V.vertex(i + half), feet[i])
        arc2 = chord_right + sum(lengths[(i + kk) % n] for kk in range(half + 1, n))
        out.append((chord_left, chord_right, arc1 - arc2,
                    angle_at(V.vertex(i + 1), V.vertex(i), feet[i]),
                    angle_at(feet[i], V.vertex(i), V.vertex(j))))
    return out


def _full_width_pencils(V: ConvexPolygon):
    """Pencil frames and the n x n sinusoid coefficients of every vertex pencil.

    Row i of a and b holds B(v_j, u0) and B(v_j, e) of the pencil at vertex
    i, for every vertex j, with the frame of ``width.pencil_line``.
    """
    u1 = V.side_normals
    u0 = np.roll(u1, 1, axis=0)
    cos_w = np.clip(mink(u0, u1), -1.0, 1.0)
    omega = np.arccos(cos_w)
    sin_w = np.sin(omega)
    e = (u1 - cos_w[:, None] * u0) / np.where(sin_w > 0.0, sin_w, 1.0)[:, None]
    return u0, e, omega, cos_w, sin_w, u0 @ V.mink_rows.T, e @ V.mink_rows.T


def full_width_sweep(a: np.ndarray, b: np.ndarray, omega: np.ndarray):
    """Envelope sweep of every pencil over all n sinusoids.

    The same sweep rule as the library's, on every column of every row: from
    the top at theta = 0, step to the nearest angle at which another sinusoid
    overtakes.  Returns each row's minimum, its angle and the list of
    (top column, angle) pairs the row visited, in order.
    """
    low = np.full(a.shape[0], np.inf)
    low_at = np.zeros(a.shape[0])
    theta = np.zeros(a.shape[0])
    top = np.argmax(a, axis=1)
    visited = [[(int(j), 0.0)] for j in top]
    live = np.arange(a.shape[0])
    while live.size:
        rows = np.arange(live.size)
        c = np.cos(theta[live])[:, None]
        s = np.sin(theta[live])[:, None]
        al, bl = a[live], b[live]
        f = al * c + bl * s
        g = bl * c - al * s
        value = f.max(axis=1)
        lower = value < low[live]
        low[live[lower]] = value[lower]
        low_at[live[lower]] = theta[live[lower]]
        j = top[live]
        x = np.minimum(f - f[rows, j][:, None], 0.0)
        y = g - g[rows, j][:, None]
        step = np.arctan2(-x, y)
        step[(x == 0.0) & (y <= 0.0)] = np.inf
        k = np.argmin(step, axis=1)
        nxt = theta[live] + step[rows, k]
        go = nxt < omega[live]
        live = live[go]
        theta[live] = nxt[go]
        top[live] = k[go]
        for i, kk, t in zip(live.tolist(), k[go].tolist(), nxt[go].tolist()):
            visited[i].append((kk, t))
    return low, low_at, visited


def full_width_thickness(V: ConvexPolygon) -> tuple[float, np.ndarray, int | None]:
    """Thickness, argmin line normal and attaining side from the full-width sweep.

    The minimum over every pencil's envelope with all n sinusoids in each
    pencil, and the side attaining it within 1e-9 (the lowest index), else
    the breakpoint line.
    """
    u0, e, omega, _, _, a, b = _full_width_pencils(V)
    low, low_at, _ = full_width_sweep(a, b, omega)
    i = int(np.argmin(low))
    best = math.asinh(max(float(low[i]), 0.0))
    side_widths = np.arcsinh(np.maximum(np.roll(a.max(axis=1), -1), 0.0))
    hits = np.flatnonzero(side_widths <= best + 1e-9)
    if hits.size:
        return best, V.side_normals[int(hits[0])], int(hits[0])
    line = unit_spacelike(u0[i] * math.cos(low_at[i]) + e[i] * math.sin(low_at[i]))
    return best, line.vec, None


def full_width_diameter_via_width(V: ConvexPolygon) -> float:
    """Largest sinusoid peak over every pencil and all n vertices."""
    _, _, _, cos_w, sin_w, a, b = _full_width_pencils(V)
    cos_w, sin_w = cos_w[:, None], sin_w[:, None]
    inside = b * (b * cos_w - a * sin_w) <= 0.0
    peak = float(np.max(np.where(inside, np.hypot(a, b), np.abs(a))))
    return math.asinh(max(peak, 0.0))


def full_width_tops(V: ConvexPolygon) -> np.ndarray:
    """f_i, the vertex farthest from side i - 1 (the lowest index among ties),
    from the n x n sinusoid coefficients."""
    return _full_width_pencils(V)[5].argmax(axis=1)


def envelope_tops(V: ConvexPolygon) -> tuple[list[list[tuple[int, float]]], np.ndarray]:
    """(top column, angle) pairs visited by each pencil's full-width sweep, and omega."""
    _, _, omega, _, _, a, b = _full_width_pencils(V)
    return full_width_sweep(a, b, omega)[2], omega
