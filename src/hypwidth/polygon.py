"""Strictly convex polygons over the hyperbolic plane.

A polygon is one read-only (n, 3) matrix of hyperboloid vertex rows,
validated once in array operations.  Convexity and orientation are tested in
the Klein chart, where geodesics map to straight chords, so plain planar
cross products decide everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import EvenGon, GeometryError, NonConvex, TooFewVertices
from .hcore import (MINK_DIAG, HLine, HPoint, dist_pp, hyperboloid_to_chart, lines_from_normals,
                    lorentz_cross, mink, off_sheet, scale_rows, to_sheet)

# Strict left-turn threshold on Klein-chart cross products.
CONVEXITY_TOL = 1e-12

CONTAINS_TOL = 1e-10


@dataclass(frozen=True, eq=False, repr=False)
class ConvexPolygon:
    """Positively oriented, strictly convex vertex cycle.

    Build instances through :func:`make_polygon` or :func:`polygon_from_rows`,
    which validate and normalize orientation.  vertex_matrix holds one
    read-only hyperboloid row per vertex.  Derived arrays, and the vertices as
    HPoints, are cached per instance on first use; the type is immutable and
    freely shareable across threads.  Equality and hashing are those of the
    tuple of vertex coordinate triples, so -0.0 and 0.0 agree.
    """

    vertex_matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.vertex_matrix.shape[0]

    @cached_property
    def vertices(self) -> tuple[HPoint, ...]:
        return tuple(HPoint(*r) for r in self.vertex_matrix.tolist())

    def vertex(self, i: int) -> HPoint:
        return self.vertices[i % self.n]

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[HPoint]:
        return iter(self.vertices)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return bool(np.array_equal(self.vertex_matrix, other.vertex_matrix))

    def __hash__(self) -> int:
        return hash((tuple(map(tuple, self.vertex_matrix.tolist())),))

    def __repr__(self) -> str:
        return f"ConvexPolygon(vertices={self.vertices!r})"

    @cached_property
    def mink_rows(self) -> np.ndarray:
        """Rows v_i * diag(1,1,-1); mink_rows @ w gives all B(v_i, w) at once."""
        g = self.vertex_matrix * MINK_DIAG
        g.flags.writeable = False
        return g

    @cached_property
    def klein(self) -> np.ndarray:
        k = hyperboloid_to_chart(self.vertex_matrix, "klein")
        k.flags.writeable = False
        return k

    @cached_property
    def side_normals(self) -> np.ndarray:
        """Unit normals of the side lines, oriented interior-positive."""
        m = self.vertex_matrix
        w = line_normals(m, np.concatenate((m[1:], m[:1])))[0]
        w.flags.writeable = False
        return w

    @cached_property
    def side_lines(self) -> tuple[HLine, ...]:
        """The side lines; each one's vec equals its row of side_normals."""
        return lines_from_normals(self.side_normals)

    @cached_property
    def pencil_frames(self) -> tuple[np.ndarray, ...]:
        """The frames of the vertex pencils: read-only arrays (u0, e, omega, cos_w, sin_w).

        Row i belongs to vertex i: u0 is the normal of side i - 1, and the
        pencil u0 cos(theta) + e sin(theta) reaches the normal of side i at
        omega, with cos_w and sin_w its cosine and sine.  Each array has one
        entry or row per vertex.
        """
        u1 = self.side_normals
        u0 = np.concatenate((u1[-1:], u1[:-1]))  # row i is side i - 1
        cos_w = np.minimum(np.maximum(mink(u0, u1), -1.0), 1.0)
        omega = np.arccos(cos_w)
        sin_w = np.sin(omega)
        # A straight angle leaves u1 = u0 and nothing to sweep; any finite e does.
        e = (u1 - cos_w[:, None] * u0) / np.where(sin_w > 0.0, sin_w, 1.0)[:, None]
        frames = (u0, e, omega, cos_w, sin_w)
        for x in frames:
            x.flags.writeable = False
        return frames

    @cached_property
    def pencils(self) -> tuple[np.ndarray, ...]:
        """The vertex pencils: read-only arrays (u0, e, omega, cos_w, sin_w, a, b, last).

        The first five are ``pencil_frames``.  a and b hold a_ij = B(v_j, u0_i)
        and b_ij = B(v_j, e_i) with row i cut to its cyclic column range from
        f_i = argmax_j a_ij (the lowest index among ties) to f_{i+1}; the
        ``hypwidth.width`` module docstring shows why the envelope needs no
        other column.  Column 0 of each row is f_i, and column last_i =
        (f_{i+1} - f_i) mod n is f_{i+1}, the top of the envelope at omega,
        where the sweep of that row ends.  A row shorter than the longest
        repeats its last column; a repeat ties the column it copies and comes
        after it, so it never becomes the top of a sweep or changes a maximum.
        The n x n products that give a, b and f are formed here once and not
        kept; a and b are n x w, w the longest range.
        """
        frames, g, n = self.pencil_frames, self.mink_rows, self.n
        u0, e = frames[:2]
        a = u0 @ g.T
        f = a.argmax(axis=1)
        last = (np.concatenate((f[1:], f[:1])) - f) % n
        cols = (f[:, None] + np.minimum(np.arange(last.max() + 1), last[:, None])) % n
        cols += np.arange(0, n * n, n)[:, None]  # positions in the flat n x n arrays
        cut = (a.take(cols), (e @ g.T).take(cols), last)
        for x in cut:
            x.flags.writeable = False
        return frames + cut

    @cached_property
    def opposite(self) -> tuple:
        """Every vertex against its opposite side: (s, dists, feet, margins, spread).

        Defined for odd n only; an even n raises EvenGon from
        ``opposite_side``.  Row i belongs to vertex i and the side opposite
        it, side i + (n-1)/2, whose unit normal u_i is that row of
        side_normals.  s_i = B(v_i, u_i), dists holds the distances
        |asinh(s_i)| from each vertex to that side's line, feet the feet of
        those perpendiculars as hyperboloid rows, and margins the feet's
        Klein-chart barycentric margins min(lam, 1 - lam) inside their sides;
        spread is max dists - min dists.  The arrays are read-only; nothing
        here depends on a tolerance.
        """
        ia, ib = opposite_side(np.arange(self.n), self.n)
        m, u = self.vertex_matrix, self.side_normals[ia]
        s = mink(m, u)
        dists = np.abs(np.arcsinh(s))
        # The projection v - B(v, u) u is a positive multiple of the foot.
        feet = to_sheet(m - s[:, None] * u)
        k = self.klein
        ka = k[ia]
        edge = k[ib] - ka
        along = (hyperboloid_to_chart(feet, "klein") - ka) * edge
        sq = edge * edge
        lam = (along[:, 0] + along[:, 1]) / (sq[:, 0] + sq[:, 1])
        margins = np.minimum(lam, 1.0 - lam)
        for x in (s, dists, feet, margins):
            x.flags.writeable = False
        return s, dists, feet, margins, float(dists.max() - dists.min())


def opposite_side(i: int, n: int) -> tuple[int, int]:
    """Endpoint indices of the side opposite vertex i of an odd n-gon.

    Returns (i + (n-1)/2, i + (n+1)/2) modulo n.  Indices are 0-based; an
    index array gives two arrays.
    """
    if n < 3 or n % 2 == 0:
        raise EvenGon(f"opposite side requires an odd n >= 3, got n = {n}")
    return ((i + (n - 1) // 2) % n, (i + (n + 1) // 2) % n)


def line_normals(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Unit normals of the lines from row a_j to row b_j, their scales N, and
    the hyperboloid rows a, b stacked and scaled by ``scale_rows``, with k.

    The normal is lorentz_cross(a, b) / N with N its Lorentz norm, both from
    the scaled rows, so N, a column, stays finite across the whole domain.
    It points to the interior of a positively oriented cycle whose side runs
    from a to b, because B(lorentz_cross(a, b), c) equals det(a, b, c).
    """
    ends, k = scale_rows((a, b))
    w = lorentz_cross(*ends)
    N = np.sqrt(mink(w, w))[:, None]
    return w / N, N, ends, k


def _turns(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge vectors of the Klein-chart cycle k, each one's cross with the next, and
    the index of each row's successor."""
    nxt = (np.arange(len(k)) + 1) % len(k)
    e = k[nxt] - k
    e_next = e[nxt]
    return e, e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0], nxt


def make_polygon(points: Iterable[HPoint]) -> ConvexPolygon:
    """Validate a cycle of HPoints into a ConvexPolygon.

    An adapter that passes the points' coordinates to :func:`polygon_from_rows`,
    with its checks and its domain: finite coordinates with x^2 + y^2 + t^2
    below float64's maximum, up to about distance 355 from the chart origin.
    The vertices equal the points (as new objects).
    """
    return polygon_from_rows(np.array([(v.x, v.y, v.t) for v in points]).reshape(-1, 3))


def polygon_from_rows(rows) -> ConvexPolygon:
    """Validate an (n, 3) array of hyperboloid vertex rows into a ConvexPolygon.

    This is the one constructor of ConvexPolygon.  The rows are copied.  Each
    must pass HPoint's validation; the first one that does not raises HPoint's
    GeometryError.  The domain is finite coordinates with x^2 + y^2 + t^2
    below float64's maximum, that is, up to about distance 355 from the chart
    origin; a row beyond it raises GeometryError.  Negatively oriented but
    convex input is reversed; non-convex input (a right turn, collinear
    consecutive vertices, or a cycle winding more than once around) raises
    NonConvex.  The orientation is the common sign of the Klein-chart turn
    crosses.  Once every turn is strictly left, the winding number is the
    number of times the edge direction passes from the lower half-plane to
    the upper one, which sign tests count exactly.
    """
    m = np.array(rows, dtype=float)
    if m.ndim != 2 or m.shape[1] != 3:
        raise GeometryError(f"expected (n, 3) vertex rows, got shape {m.shape}")
    bad = off_sheet(m).nonzero()[0]
    if bad.size:
        HPoint(*m[bad[0]].tolist())  # raises HPoint's error for that row
    if m.shape[0] < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {m.shape[0]}")
    k = hyperboloid_to_chart(m, "klein")
    e, crosses, nxt = _turns(k)
    if (crosses < 0.0).all():
        m, k = m[::-1].copy(), k[::-1]
        e, crosses, nxt = _turns(k)
    if (crosses <= CONVEXITY_TOL).any():
        j = int(np.argmin(crosses))
        raise NonConvex(
            f"vertex triple starting at index {(j + 1) % m.shape[0]} does not "
            f"turn strictly left (cross = {crosses[j]:.3e})")
    upper = (e[:, 1] > 0.0) | ((e[:, 1] == 0.0) & (e[:, 0] > 0.0))
    if np.count_nonzero(~upper & upper[nxt]) != 1:
        raise NonConvex("vertex cycle winds around more than once")
    m.flags.writeable = False
    return ConvexPolygon(m)


def perimeter(V: ConvexPolygon) -> float:
    """Sum of the side lengths."""
    return sum(side_lengths(V))


def area(V: ConvexPolygon) -> float:
    """Sum of the fan triangles (c, v_i, v_i+1) around c = to_sheet(sum of the
    rows), inside and label-free, each by L'Huilier's formula tan(A/4) =
    sqrt(tanh(s/2) tanh((s-a)/2) tanh((s-b)/2) tanh((s-c)/2)), whose terms are
    bounded; the n spokes and n sides come from one stacked dist_pp call, and
    the half-differences from sorted sides as in ``angle_from_sides``."""
    m = V.vertex_matrix
    c = np.broadcast_to(to_sheet(m.sum(axis=0)), m.shape)
    spokes, sides = dist_pp(np.stack((c, m)), np.stack((m, np.concatenate((m[1:], m[:1])))))
    c, b, a = np.sort((spokes, sides, np.concatenate((spokes[1:], spokes[:1]))), axis=0)
    h = np.maximum((c - (a - b), c + (a - b), a + (b - c)), 0.0)
    t = np.tanh(0.25 * (a + (b + c))) * np.tanh(0.25 * h).prod(axis=0)
    return 4.0 * sum(np.arctan(np.sqrt(t)).tolist())


def side_line(V: ConvexPolygon, j: int) -> HLine:
    """Line containing the side from vertex j to vertex j+1 (indices mod n).

    Oriented so that the polygon interior has positive signed distance.
    """
    return V.side_lines[j % V.n]


def contains(V: ConvexPolygon, p: HPoint) -> bool:
    """Whether p lies in the closed polygon (boundary counts as inside)."""
    b = float(np.min(mink(V.side_normals, p)))
    return math.asinh(b) >= -CONTAINS_TOL


def side_lengths(V: ConvexPolygon) -> list[float]:
    m = V.vertex_matrix
    return dist_pp(m, np.concatenate((m[1:], m[:1]))).tolist()
