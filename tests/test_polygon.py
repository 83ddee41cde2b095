import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hypwidth.corpus import nested_pair, random_convex_polygon, random_nonequilateral_triangle
from hypwidth.errors import GeometryError, NonConvex, TooFewVertices
from hypwidth.extremal import indisk
from hypwidth.hcore import (HPoint, chart_to_hyperboloid, dist_pp, hyperboloid_to_chart, mink,
                            signed_dist, to_sheet)
from hypwidth.polygon import (area, contains, make_polygon, perimeter,
                              polygon_from_rows, side_line)
from hypwidth.reduced import check_ordinary_reduced, regular_apothem, regular_ngon
from hypwidth.width import thickness
from polygon_families import hard_families
from test_acceptance_oracles import angle_defect_area, unscaled_side_normals, unscaled_to_sheet


def contains_origin(V):
    return contains(V, HPoint(0.0, 0.0, 1.0))


def klein_polygon(coords):
    return make_polygon([chart_to_hyperboloid(x, y, "klein") for x, y in coords])


class TestMakePolygon:
    def test_triangle(self):
        V = klein_polygon([(0.3, 0.0), (-0.15, 0.26), (-0.15, -0.26)])
        assert V.n == 3

    def test_too_few(self):
        with pytest.raises(TooFewVertices):
            klein_polygon([(0.3, 0.0), (-0.3, 0.0)])

    def test_point_inside_hull_rejected(self):
        with pytest.raises(NonConvex):
            klein_polygon([(0.4, 0.0), (0.0, 0.4), (-0.4, -0.4), (0.05, 0.0)])

    def test_rotated_cyclic_orders_accepted(self):
        base = [(0.4 * math.cos(2 * math.pi * k / 5),
                 0.4 * math.sin(2 * math.pi * k / 5)) for k in range(5)]
        for shift in range(5):
            V = klein_polygon(base[shift:] + base[:shift])
            assert V.n == 5

    def test_clockwise_input_reversed(self):
        ccw = klein_polygon([(0.3, 0.0), (-0.15, 0.26), (-0.15, -0.26)])
        cw = klein_polygon([(0.3, 0.0), (-0.15, -0.26), (-0.15, 0.26)])
        assert {(round(v.x, 12), round(v.y, 12)) for v in ccw.vertices} == \
               {(round(v.x, 12), round(v.y, 12)) for v in cw.vertices}
        for V in (ccw, cw):
            k = V.klein
            area2 = float(np.sum(k[:, 0] * np.roll(k[:, 1], -1)
                                 - np.roll(k[:, 0], -1) * k[:, 1]))
            assert area2 > 0

    def test_collinear_rejected(self):
        with pytest.raises(NonConvex):
            klein_polygon([(0.0, 0.0), (0.2, 0.0), (0.4, 0.0), (0.2, 0.3)])

    def test_star_order_rejected(self):
        # {n/m} stars turn strictly left at every vertex but wind m times.
        for n, m in ((5, 2), (7, 2), (9, 4)):
            base = [(0.4 * math.cos(2 * math.pi * k / n),
                     0.4 * math.sin(2 * math.pi * k / n)) for k in range(n)]
            star = [base[(m * k) % n] for k in range(n)]
            for order in (star, star[::-1]):
                with pytest.raises(NonConvex):
                    klein_polygon(order)


class TestOneConstructor:
    def test_empty_points_too_few(self):
        with pytest.raises(TooFewVertices):
            make_polygon([])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_points_and_rows_agree(self, reverse):
        rng = np.random.default_rng(13)
        for V in [regular_ngon(5, 1.0), regular_ngon(101, 2.0)] + [
                random_convex_polygon(rng, int(rng.integers(3, 12))) for _ in range(10)]:
            pts = V.vertices[::-1] if reverse else V.vertices
            W = make_polygon(pts)
            U = polygon_from_rows(V.vertex_matrix[::-1] if reverse else V.vertex_matrix)
            assert W.vertex_matrix.tobytes() == U.vertex_matrix.tobytes()
            assert W == U and hash(W) == hash(U) and repr(W) == repr(U)
            assert set(W.vertices) == set(pts)

    def test_rows_of_two_rejected(self):
        with pytest.raises(GeometryError) as exc:
            polygon_from_rows(np.zeros((3, 2)))
        assert type(exc.value) is GeometryError
        assert str(exc.value) == "expected (n, 3) vertex rows, got shape (3, 2)"

    @pytest.mark.parametrize("reverse", [False, True])
    def test_klein_rows_built_on_first_read(self, reverse):
        V = regular_ngon(7, 1.3)
        W = polygon_from_rows(V.vertex_matrix[::-1] if reverse else V.vertex_matrix)
        assert "klein" not in W.__dict__
        k = W.klein
        assert k.tobytes() == hyperboloid_to_chart(W.vertex_matrix, "klein").tobytes()
        assert not k.flags.writeable
        assert W.klein is k


class TestCoordinateDomain:
    # x^2 + y^2 + t^2 overflows float64 in each row; B(p,p)+1 is inf for the
    # first and 6.9e307 for the second.
    ROWS = [(math.inf, 0.0, 1.0), (1e154, 0.0, 1.3e154)]

    @pytest.mark.parametrize("row", ROWS)
    def test_polygon_from_rows_rejects(self, row):
        m = regular_ngon(5, 1.0).vertex_matrix.copy()
        m[0] = row
        with pytest.raises(GeometryError, match="unit hyperboloid"):
            polygon_from_rows(m)

    @pytest.mark.parametrize("row", ROWS)
    def test_make_polygon_rejects(self, row):
        # HPoint rejects these coordinates, so they come in an unvalidated
        # stand-in: make_polygon validates the coordinates it is given.
        pts = list(regular_ngon(5, 1.0).vertices)
        pts[0] = SimpleNamespace(x=row[0], y=row[1], t=row[2])
        with pytest.raises(GeometryError, match="unit hyperboloid"):
            make_polygon(pts)


class TestSideNormalOverflow:
    # A side normal is lorentz_cross of two vertex rows, of size about
    # (e^R / 2)^2, and its Lorentz norm squares that again.  Rows rescaled by
    # powers of two keep it finite across the whole coordinate domain.
    QUERIES = [lambda V: V.side_normals, thickness, check_ordinary_reduced, indisk,
               contains_origin]

    def test_edge_still_works(self):
        V = regular_ngon(5, 178.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for query in self.QUERIES:
                query(V)
            assert check_ordinary_reduced(V).verdict

    @pytest.mark.parametrize("n", [3, 5, 7, 31, 101])
    def test_far_field_answered_without_warning(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for R in np.linspace(170.0, 354.9, 29).tolist():
                V = regular_ngon(n, R)
                a = regular_apothem(n, R)
                assert thickness(V).thickness == pytest.approx(R + a, rel=1e-13)
                assert check_ordinary_reduced(V).verdict
                assert indisk(V)[1] == pytest.approx(a, rel=1e-12)
                assert contains_origin(V)


class TestUnscaledReference:
    def test_bit_identical_on_hard_families(self):
        for V in hard_families():
            m = V.vertex_matrix
            assert V.side_normals.tobytes() == unscaled_side_normals(V).tobytes()
            # Vertex rows off the sheet and on the lower one, and the
            # projections of vertex i onto the line of side i + 1.
            u = np.roll(V.side_normals, -1, axis=0)
            for w in (m * 3.7, m * -0.01, m - mink(m, u)[:, None] * u):
                assert to_sheet(w).tobytes() == unscaled_to_sheet(w).tobytes()
            assert area(V) == angle_defect_area(V)


class TestEquality:
    def test_hash_of_vertex_values(self):
        V = regular_ngon(5, 1.0)
        assert hash(V) == hash((tuple((v.x, v.y, v.t) for v in V.vertices),))

    def test_signed_zero(self):
        V = regular_ngon(5, 1.0)
        v0 = V.vertex(0)
        assert v0.y == 0.0 and math.copysign(1.0, v0.y) == 1.0
        W = make_polygon([HPoint(v0.x, -0.0, v0.t), *V.vertices[1:]])
        assert W == V
        assert hash(W) == hash(V)

    def test_len_is_vertex_count(self):
        assert len(regular_ngon(7, 1.0)) == regular_ngon(7, 1.0).n == 7

    def test_unequal(self):
        V = regular_ngon(5, 1.0)
        assert V != regular_ngon(5, 1.1)
        assert V != regular_ngon(7, 1.0)
        assert V != V.vertices
        assert len({V, regular_ngon(5, 1.0), regular_ngon(7, 1.0)}) == 2


class TestCorpusDraws:
    def test_polygon_draw_gives_up(self):
        # Radii spread 500-fold: none of the 500 draws of 40 vertices is convex.
        with pytest.raises(GeometryError) as exc:
            random_convex_polygon(np.random.default_rng(0), 40, radius_range=(0.01, 5.0))
        assert type(exc.value) is GeometryError
        assert str(exc.value) == "could not draw a convex polygon (bad generator parameters)"

    def test_triangle_draw_gives_up(self):
        # Vertices within distance 1 of the origin: altitudes never differ by 10.
        with pytest.raises(GeometryError) as exc:
            random_nonequilateral_triangle(np.random.default_rng(0), min_altitude_spread=10.0)
        assert type(exc.value) is GeometryError
        assert str(exc.value) == "could not draw a non-equilateral triangle"


class TestPerimeter:
    def test_equilateral_triangle(self):
        V = regular_ngon(3, 1.0)
        s = dist_pp(V.vertex(0), V.vertex(1))
        assert perimeter(V) == pytest.approx(3 * s, abs=1e-14)

    def test_regular_ngon_closed_form(self):
        for n, R in ((3, 0.5), (5, 1.0), (9, 2.0)):
            V = regular_ngon(n, R)
            expected = n * 2.0 * math.asinh(math.sinh(R) * math.sin(math.pi / n))
            assert perimeter(V) == pytest.approx(expected, rel=1e-13)

    def test_nested_monotone(self, rng):
        for _ in range(30):
            U, W = nested_pair(rng)
            assert perimeter(U) < perimeter(W)

    def test_vertex_deletion_decreases(self, rng):
        for _ in range(200):
            V = random_convex_polygon(rng, int(rng.integers(4, 10)))
            drop = int(rng.integers(0, V.n))
            U = make_polygon([V.vertex(i) for i in range(V.n) if i != drop])
            assert perimeter(U) < perimeter(V)


class TestArea:
    def test_tiny_triangle_euclidean_limit(self):
        r = 1e-4
        pts = [(r * math.cos(a), r * math.sin(a)) for a in (0.3, 2.1, 4.4)]
        V = klein_polygon(pts)
        k = V.klein
        euclid = 0.5 * abs(float(
            (k[1, 0] - k[0, 0]) * (k[2, 1] - k[0, 1])
            - (k[2, 0] - k[0, 0]) * (k[1, 1] - k[0, 1])))
        assert area(V) == pytest.approx(euclid, rel=1e-4)

    def test_positive_angle_defect(self, rng):
        for _ in range(50):
            V = random_convex_polygon(rng, int(rng.integers(3, 8)))
            assert area(V) > 0.0

    def test_diagonal_split_additivity(self, rng):
        for _ in range(30):
            V = random_convex_polygon(rng, 6)
            A = make_polygon([V.vertex(i) for i in (0, 1, 2, 3)])
            B = make_polygon([V.vertex(i) for i in (3, 4, 5, 0)])
            assert area(A) + area(B) == pytest.approx(area(V), abs=1e-10)


class TestSideLineAndContains:
    def test_vertices_on_positive_side(self, rng):
        for _ in range(50):
            V = random_convex_polygon(rng, int(rng.integers(3, 10)))
            for j in range(V.n):
                L = side_line(V, j)
                for i in range(V.n):
                    assert signed_dist(V.vertex(i), L) >= -1e-10

    def test_vertices_contained(self):
        V = regular_ngon(5, 1.0)
        for v in V.vertices:
            assert contains(V, v)

    def test_chart_centroid_contained(self, rng):
        for _ in range(20):
            V = random_convex_polygon(rng, 7)
            cx, cy = V.klein.mean(axis=0)
            assert contains(V, chart_to_hyperboloid(cx, cy, "klein"))

    def test_point_across_side_excluded(self):
        V = regular_ngon(3, 1.0)
        far = HPoint(-math.sinh(2.0), 0.0, math.cosh(2.0))
        assert not contains(V, far)

    def test_side_index_wraps(self):
        V = regular_ngon(5, 1.0)
        assert np.allclose(side_line(V, 7).vec, side_line(V, 2).vec)

    def test_side_line_is_side_normal_bit_for_bit(self, rng):
        for V in (random_convex_polygon(rng, 7), regular_ngon(5, 1.0)):
            for j in range(-2 * V.n, 2 * V.n):
                u = side_line(V, j).vec
                assert u.tobytes() == V.side_normals[j % V.n].tobytes()
                assert not u.flags.writeable
