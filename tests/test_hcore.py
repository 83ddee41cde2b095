import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypwidth.errors import GeometryError
from hypwidth.hcore import (ASYMPTOTIC, COINCIDENT, HLine, HPoint,
                            INTERSECTING, ULTRAPARALLEL, angle_at,
                            apply_isometry, chart_to_hyperboloid, dist_pp,
                            foot, geodesic_point, hyperboloid_to_chart,
                            line_relation, line_through, lorentz_cross, mink,
                            random_isometry, rotation, signed_dist,
                            translation_x, unit_spacelike)

ORIGIN = HPoint(0.0, 0.0, 1.0)
X1 = HPoint(math.sinh(1.0), 0.0, math.cosh(1.0))
Y1 = HPoint(0.0, math.sinh(1.0), math.cosh(1.0))
X_AXIS = HLine(0.0, 1.0, 0.0)
Y_AXIS = HLine(1.0, 0.0, 0.0)


def random_point(rng, rmax=1.5):
    r = rng.uniform(0.0, rmax)
    t = rng.uniform(0.0, 2.0 * math.pi)
    return HPoint(math.sinh(r) * math.cos(t), math.sinh(r) * math.sin(t), math.cosh(r))


def random_line(rng):
    p, q = random_point(rng), random_point(rng)
    while dist_pp(p, q) < 0.1:
        q = random_point(rng)
    return line_through(p, q)


def points_on_line(L, taus):
    p0 = foot(ORIGIN, L)
    d = unit_spacelike(lorentz_cross(L, p0)).vec
    return [math.cosh(t) * p0.vec + math.sinh(t) * d for t in taus]


class TestMink:
    def test_timelike_unit(self):
        assert mink(ORIGIN, ORIGIN) == -1.0

    def test_spacelike_unit(self):
        assert mink((0.0, 1.0, 0.0), (0.0, 1.0, 0.0)) == 1.0

    def test_parametrized_geodesic(self):
        assert mink(ORIGIN, X1) == pytest.approx(-math.cosh(1.0), abs=1e-15)

    @given(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
    def test_symmetric_bilinear(self, coords):
        p = np.array(coords[:3])
        q = np.array(coords[3:])
        assert mink(p, q) == pytest.approx(mink(q, p), abs=1e-12)
        assert mink(2.5 * p + q, q) == pytest.approx(
            2.5 * mink(p, q) + mink(q, q), rel=1e-12, abs=1e-12)


class TestDist:
    def test_same_point(self):
        assert dist_pp(ORIGIN, ORIGIN) == 0.0

    def test_unit_translate(self):
        assert dist_pp(ORIGIN, X1) == pytest.approx(1.0, abs=1e-15)

    def test_extended_precision_oracle(self, rng):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for _ in range(50):
            p, q = random_point(rng), random_point(rng)
            b = (mp.mpf(p.x) * mp.mpf(q.x) + mp.mpf(p.y) * mp.mpf(q.y)
                 - mp.mpf(p.t) * mp.mpf(q.t))
            expected = float(mp.acosh(-b))
            assert dist_pp(p, q) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_positivity(self, rng):
        for _ in range(200):
            p, q = random_point(rng), random_point(rng)
            assert dist_pp(p, q) == dist_pp(q, p)
            assert dist_pp(p, q) >= 0.0
        assert dist_pp(ORIGIN, ORIGIN) == 0.0

    def test_triangle_inequality(self, rng):
        for _ in range(1000):
            a, b, c = (random_point(rng) for _ in range(3))
            slack = dist_pp(a, b) + dist_pp(b, c) - dist_pp(a, c)
            assert slack >= -1e-10

    def test_off_hyperboloid_rejected(self):
        with pytest.raises(GeometryError):
            dist_pp(np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(GeometryError):
            HPoint(0.0, 0.0, 2.0)
        with pytest.raises(GeometryError):
            HPoint(0.0, 0.0, -1.0)


class TestLineThrough:
    def test_x_axis_geodesic(self):
        L = line_through(ORIGIN, X1)
        assert np.allclose(L.canonical().vec, [0.0, 1.0, 0.0], atol=1e-15)

    def test_y_axis_geodesic(self):
        L = line_through(ORIGIN, Y1)
        assert np.allclose(L.canonical().vec, [1.0, 0.0, 0.0], atol=1e-15)

    def test_defining_property(self, rng):
        pairs = []
        for _ in range(100):
            p, q = random_point(rng), random_point(rng)
            if dist_pp(p, q) < 1e-3:
                continue
            L = line_through(p, q)
            assert abs(mink(L, p)) < 1e-12
            assert abs(mink(L, q)) < 1e-12
            pairs.append((p.vec, q.vec))
        # the Lorentz cross product of stacked rows is the row-wise product
        P, Q = np.array(pairs).transpose(1, 0, 2)
        C = lorentz_cross(P, Q)
        assert C.shape == P.shape
        assert all(np.array_equal(c, lorentz_cross(p, q)) for c, p, q in zip(C, P, Q))

    def test_coincident_points_rejected(self):
        with pytest.raises(GeometryError):
            line_through(ORIGIN, ORIGIN)


class TestSignedDist:
    def test_equidistant_curve(self):
        t = 0.7
        p = HPoint(0.0, math.sinh(t), math.cosh(t))
        assert signed_dist(p, X_AXIS) == pytest.approx(t, abs=1e-14)

    def test_point_on_line(self):
        assert signed_dist(X1, X_AXIS) == 0.0

    def test_brute_force_sampling_oracle(self, rng):
        for _ in range(10):
            p = random_point(rng)
            L = random_line(rng)
            taus = np.arange(-4.0, 4.0, 1e-3)
            dists = [dist_pp(p, q) for q in points_on_line(L, taus)]
            assert abs(signed_dist(p, L)) == pytest.approx(min(dists), abs=1e-6)


class TestFoot:
    def test_symmetric_case(self):
        f = foot(Y1, X_AXIS)
        assert dist_pp(f, ORIGIN) < 1e-15

    def test_point_on_line_is_fixed(self):
        f = foot(X1, X_AXIS)
        assert dist_pp(f, X1) < 1e-12

    def test_distance_matches_signed_dist(self, rng):
        for _ in range(100):
            p = random_point(rng)
            L = random_line(rng)
            f = foot(p, L)
            assert abs(mink(f, L)) < 1e-10
            assert dist_pp(p, f) == pytest.approx(abs(signed_dist(p, L)), abs=1e-10)

    def test_perpendicular_incidence(self, rng):
        for _ in range(50):
            p = random_point(rng)
            L = random_line(rng)
            f = foot(p, L)
            if dist_pp(p, f) < 1e-4:
                continue
            q = points_on_line(L, [0.5])[0]
            fq = HPoint(q[0], q[1], q[2])
            if dist_pp(fq, f) < 1e-4:
                fq = HPoint(*points_on_line(L, [1.5])[0])
            assert angle_at(p, f, fq) == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_minimizes_distance(self, rng):
        p = random_point(rng)
        L = random_line(rng)
        best = dist_pp(p, foot(p, L))
        for q in points_on_line(L, np.linspace(-4.0, 4.0, 100)):
            assert dist_pp(p, q) >= best - 1e-9


class TestLineRelation:
    def test_perpendicular_axes(self):
        rel = line_relation(X_AXIS, Y_AXIS)
        assert rel.kind == INTERSECTING
        assert rel.measure == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_ultraparallel_translate(self):
        d = 1.0
        L2 = HLine(0.0, math.cosh(d), math.sinh(d))
        rel = line_relation(X_AXIS, L2)
        assert rel.kind == ULTRAPARALLEL
        assert rel.measure == pytest.approx(d, abs=1e-14)

    def test_same_line_flag(self):
        rel = line_relation(X_AXIS, HLine(0.0, -1.0, 0.0))
        assert rel.kind == COINCIDENT
        assert rel.measure == 0.0

    def test_asymptotic(self):
        L2 = unit_spacelike(np.array([0.7, 1.0, 0.7]))
        rel = line_relation(X_AXIS, L2)
        assert rel.kind == ASYMPTOTIC

    def test_ultraparallel_distance_vs_dense_sampling(self, rng):
        def min_dist_grid(L1, L2, c1, c2, half_width, m):
            t1 = np.linspace(c1 - half_width, c1 + half_width, m)
            t2 = np.linspace(c2 - half_width, c2 + half_width, m)
            pts1 = np.array(points_on_line(L1, t1))
            pts2 = np.array(points_on_line(L2, t2))
            cosh_all = -(pts1 * [1.0, 1.0, -1.0]) @ pts2.T
            d = np.arccosh(np.maximum(cosh_all, 1.0))
            i, j = np.unravel_index(int(np.argmin(d)), d.shape)
            return float(d[i, j]), float(t1[i]), float(t2[j])

        found = 0
        while found < 5:
            L1, L2 = random_line(rng), random_line(rng)
            rel = line_relation(L1, L2)
            if rel.kind != ULTRAPARALLEL:
                continue
            found += 1
            # coarse pass locates the feet, fine pass resolves to ~1e-8
            _, c1, c2 = min_dist_grid(L1, L2, 0.0, 0.0, 6.0, 500)
            dmin, _, _ = min_dist_grid(L1, L2, c1, c2, 0.05, 400)
            assert rel.measure == pytest.approx(dmin, abs=1e-6)


class TestAngleAt:
    def test_right_angle_at_origin(self):
        assert angle_at(X1, ORIGIN, Y1) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_equilateral_symmetry(self):
        R = 1.2
        pts = [HPoint(math.sinh(R) * math.cos(2 * math.pi * k / 3),
                      math.sinh(R) * math.sin(2 * math.pi * k / 3),
                      math.cosh(R)) for k in range(3)]
        angles = [angle_at(pts[(i - 1) % 3], pts[i], pts[(i + 1) % 3]) for i in range(3)]
        assert max(angles) - min(angles) < 1e-12

    def test_angle_sum_below_pi(self, rng):
        for _ in range(100):
            a, b, c = (random_point(rng) for _ in range(3))
            if min(dist_pp(a, b), dist_pp(b, c), dist_pp(a, c)) < 1e-3:
                continue
            total = (angle_at(b, a, c) + angle_at(a, b, c) + angle_at(a, c, b))
            assert total < math.pi

    def test_coincident_points_rejected(self):
        with pytest.raises(GeometryError):
            angle_at(ORIGIN, ORIGIN, X1)


class TestCharts:
    def test_origin(self):
        for chart in ("klein", "poincare"):
            p = chart_to_hyperboloid(0.0, 0.0, chart)
            assert dist_pp(p, ORIGIN) == 0.0

    def test_klein_tanh(self):
        p = chart_to_hyperboloid(math.tanh(1.0), 0.0, "klein")
        assert dist_pp(p, X1) < 1e-14

    @given(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
    def test_round_trip(self, x, y):
        for chart in ("klein", "poincare"):
            p = chart_to_hyperboloid(x, y, chart)
            bx, by = hyperboloid_to_chart(p, chart)
            assert abs(bx - x) < 1e-12 and abs(by - y) < 1e-12

    def test_outside_disk_rejected(self):
        for chart in ("klein", "poincare"):
            with pytest.raises(GeometryError):
                chart_to_hyperboloid(0.8, 0.7, chart)


class TestIsometries:
    def test_translation_moves_origin(self):
        p = apply_isometry(translation_x(1.0), ORIGIN)
        assert dist_pp(p, X1) < 1e-14

    def test_invariance(self, rng):
        for _ in range(50):
            M = random_isometry(rng)
            p, q, r = (random_point(rng) for _ in range(3))
            L = random_line(rng)
            mp_, mq, mr = (apply_isometry(M, v) for v in (p, q, r))
            mL = apply_isometry(M, L)
            assert dist_pp(mp_, mq) == pytest.approx(dist_pp(p, q), abs=1e-10)
            assert abs(signed_dist(mp_, mL)) == pytest.approx(
                abs(signed_dist(p, L)), abs=1e-10)
            if min(dist_pp(p, q), dist_pp(q, r)) > 1e-2:
                assert angle_at(mp_, mq, mr) == pytest.approx(
                    angle_at(p, q, r), abs=1e-10)

    def test_rotation_fixes_origin(self):
        p = apply_isometry(rotation(1.0), ORIGIN)
        assert dist_pp(p, ORIGIN) == 0.0


class TestGeodesicPoint:
    def test_endpoint_distances(self, rng):
        for _ in range(50):
            p, q = random_point(rng), random_point(rng)
            d = dist_pp(p, q)
            if d < 1e-2:
                continue
            s = 0.3 * d
            m = geodesic_point(p, q, s)
            assert dist_pp(p, m) == pytest.approx(s, abs=1e-12)
            assert dist_pp(m, q) == pytest.approx(d - s, abs=1e-12)
