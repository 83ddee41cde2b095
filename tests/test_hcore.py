import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypwidth.errors import GeometryError
from hypwidth.hcore import (ASYMPTOTIC, COINCIDENT, HLine, HPoint,
                            INTERSECTING, ULTRAPARALLEL, UNIT_NORM_TOL, angle_at,
                            angle_from_sides,
                            chart_rows_to_hyperboloid, chart_to_hyperboloid, dist_pp, foot,
                            geodesic_point, hyperboloid_to_chart,
                            line_relation, line_through, lines_from_normals,
                            lorentz_cross, mink, off_sheet, polar_point,
                            rotation, signed_dist, to_sheet, translation_x,
                            unit_spacelike, unit_timelike)
from polygon_families import apply_isometry, random_isometry
from test_acceptance_oracles import mp_angle_from_sides, mp_dist

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
        # p at distance D from the origin and q at distance d from p, on the
        # (x, y) reading.  Near pairs need the chord form and far pairs the
        # -B form: the chord form raised at (0, 40) and read 5e-15 at (0, 10).
        # Near pairs off the origin keep the rounding of their own rows
        # (ROADMAP item 8) and are not checked.
        for D in (0.0, 1.0, 5.0):
            M = rotation(0.7) @ translation_x(D) @ rotation(1.1)
            for d in (1e-6, 1e-3, 0.5, 2.0, 10.0, 40.0):
                rows = np.array([M[:, 2], M @ polar_point(d, 0.0).vec])
                rows[:, 2] = np.sqrt(1.0 + rows[:, 0] ** 2 + rows[:, 1] ** 2)
                want = mp_dist(*rows)
                err = abs(dist_pp(*rows) - want) / want
                if D == 0.0:
                    assert err <= 4.0 * np.finfo(float).eps, d
                elif d >= 0.5:
                    assert err <= 1e-12, (D, d)

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


class TestNonFinite:
    @pytest.mark.parametrize("kind, coords", [
        (HPoint, (math.nan, 0.0, 1.0)),
        (HPoint, (math.inf, 0.0, math.inf)),
        (HLine, (math.nan, 0.0, 0.0)),
    ], ids=["point-nan", "point-inf", "line-nan"])
    def test_rejected(self, kind, coords):
        with pytest.raises(GeometryError):
            kind(*coords)


def near_tolerance(x, factor):
    """Row (x, 0, t) with |B(p, p) + 1| about factor times HPoint's tolerance."""
    tol = max(UNIT_NORM_TOL, 64.0 * np.finfo(float).eps * (2.0 * x * x + 1.0))
    return (x, 0.0, math.sqrt(x * x + 1.0 + factor * tol))


class TestFiniteScale:
    # x^2 + y^2 + t^2 overflows float64 in each vector below, so the
    # scale-relative tolerance would be inf.  B(p,p)+1 is inf for the first
    # point and 6.9e307 for the second.
    @pytest.mark.parametrize("coords", [(math.inf, 0.0, 1.0), (1e154, 0.0, 1.3e154)])
    def test_point_rejected(self, coords):
        with pytest.raises(GeometryError):
            HPoint(*coords)

    @pytest.mark.parametrize("coords", [(math.inf, 0.0, 1.0), (1.3e154, 0.0, 1e154)])
    def test_line_rejected(self, coords):
        with pytest.raises(GeometryError):
            HLine(*coords)

    def test_unit_spacelike_rejects_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="not spacelike"):
                unit_spacelike(np.array([1.3e154, 0.0, 1e154]))

    @pytest.mark.parametrize("v", [(1e200, 0.0, 1e200), (1e200, 0.0, 0.0), (math.nan, 0.0, 1.0)],
                             ids=["inf-minus-inf", "inf", "nan"])
    def test_unit_spacelike_names_a_nan_norm_not_spacelike(self, v):
        # x^2 + y^2 - t^2 is inf - inf = NaN for the first vector.
        with pytest.raises(GeometryError, match="^vector is not spacelike$"):
            unit_spacelike(np.array(v))

    @pytest.mark.parametrize("v", [(1e10, 0.0, 1e-300), (1.0, 0.0, 0.0)])
    def test_to_sheet_rejects_without_warning(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="^vector is not timelike$"):
                to_sheet(np.array(v))

    @pytest.mark.parametrize("v, row", [
        ((1e300, 1e300, 1.5e300), [2.0, 2.0, 3.0]),  # the squares overflow
        ((0.0, 0.0, -1e-320), [0.0, 0.0, 1.0]),  # the squares underflow to zero
    ], ids=["overflow", "underflow"])
    def test_to_sheet_rescales_without_warning(self, v, row):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert to_sheet(np.array(v)).tolist() == row

    def test_off_sheet_agrees_with_point(self):
        table = [  # row, whether HPoint rejects it
            ((0.0, 0.0, 1.0), False),
            ((math.inf, 0.0, 1.0), True),
            ((0.0, math.nan, 1.0), True),
            ((0.0, 0.0, math.nan), True),
            ((1e154, 0.0, 1.3e154), True),
            ((0.0, 0.0, -1.0), True),
            ((0.0, 0.0, 0.0), True),
            (near_tolerance(0.0, 0.9), False),
            (near_tolerance(0.0, 1.1), True),
            (near_tolerance(1e6, 0.9), False),
            (near_tolerance(1e6, 1.1), True),
            (near_tolerance(1e150, 0.9), False),
            (near_tolerance(1e150, 1.1), True),
        ]
        flags = off_sheet(np.array([row for row, _ in table])).tolist()
        for (row, rejected), flag in zip(table, flags):
            try:
                HPoint(*row)
                verdict = False
            except GeometryError:
                verdict = True
            assert (verdict, flag) == (rejected, rejected), row


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


class TestLinesFromNormals:
    def test_vec_is_a_read_only_copy_of_the_row(self, rng):
        u = np.array([random_line(rng).vec for _ in range(6)])
        lines = lines_from_normals(u)
        want = u.copy()
        u[:] = 0.0  # the lines keep their own copy
        for L, row in zip(lines, want):
            assert L.vec.tobytes() == row.tobytes() == HLine(*row).vec.tobytes()
            assert (L.ux, L.uy, L.ut) == tuple(row)
            assert not L.vec.flags.writeable

    def test_rows_validated(self):
        with pytest.raises(GeometryError):
            lines_from_normals([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])

    @pytest.mark.parametrize("bad", [
        (math.nan, 1.0, 0.0),
        (0.0, 2.0, 0.0),
        (1.3e154, 0.0, 1e154),
        (1e200, 0.0, 1e200),
    ], ids=["nan", "not-unit", "overflow", "overflow-nan"])
    def test_first_bad_row_raises_hlines_error(self, bad):
        # A good row before it, and a bad row with another message after it.
        with pytest.raises(GeometryError) as want:
            HLine(*bad)
        with pytest.raises(GeometryError) as got:
            lines_from_normals([[0.0, 1.0, 0.0], bad, [0.0, 3.0, 0.0]])
        assert str(got.value) == str(want.value)

    def test_lines_equal_hlines_built_one_by_one(self, rng):
        u = np.array([random_line(rng).vec for _ in range(20)]
                     + [[0.0, 1.0, 0.0], [-0.0, -1.0, 0.0], [1.0, 0.0, -0.0]])
        lines = lines_from_normals(u)
        for L, row in zip(lines, u.tolist()):
            H = HLine(*row)
            assert type(L) is HLine
            assert L == H and hash(L) == hash(H) and repr(L) == repr(H)
            assert L.canonical() == H.canonical()

    def test_vec_is_the_read_only_row(self, rng):
        u = np.array([random_line(rng).vec for _ in range(6)])
        lines = lines_from_normals(u)
        rows = lines[0].vec.base
        assert rows is not None and not rows.flags.writeable
        assert np.array_equal(rows, u)
        for k, L in enumerate(lines):
            assert L.vec.base is rows
            assert np.shares_memory(L.vec, rows[k])


class TestLorentzCross:
    def test_matches_numpy_cross_bitwise(self, rng):
        def reference(a, b):
            c = np.cross(a, b)
            c[..., 2] = -c[..., 2]
            return c

        A = rng.normal(size=(50, 3))
        B = rng.normal(size=(50, 3))
        for a, b in ((A[0], B[0]), (A, B), (A[0], B)):
            got, want = lorentz_cross(a, b), reference(a, b)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


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

    def test_stacked_points_rejected(self):
        with pytest.raises(GeometryError) as exc:
            foot(np.stack([X1.vec, Y1.vec]), X_AXIS)
        assert type(exc.value) is GeometryError
        assert str(exc.value) == "expected a 3-vector, got shape (2, 3)"

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

    def test_from_sides_is_angle_at(self, rng):
        for _ in range(50):
            a, b, c = (random_point(rng, 4.0) for _ in range(3))
            want = angle_at(a, b, c)
            got = angle_from_sides(dist_pp(b, a), dist_pp(b, c), dist_pp(a, c))
            assert got.hex() == want.hex()

    def test_from_sides_within_two_conditioning_units_of_mpmath(self):
        # Sides from 1e-10 to 300; the error is in units of eps * sum
        # |d angle / d l| l, the change that rounding the sides alone makes.
        rng = np.random.default_rng(8)
        la, lc = 10.0 ** rng.uniform(-10.0, math.log10(300.0), (2, 400))
        gap = np.abs(la - lc)
        lb = gap + rng.uniform(0.0, 1.0, 400) * (la + lc - gap)
        # The two worst of 32,000 triangles drawn the same way from
        # default_rng(11): 3.3 and 3.1 units when the half-differences were
        # taken from the rounded half perimeter.
        hard = np.array([[1.0552077040111757e-10, 1.0487403963461544e-10, 1.4041334747973132e-11],
                         [4.231364973860624e-08, 4.183558511007148e-08, 4.44201846777512e-09]])
        la, lc, lb = np.concatenate([np.stack([la, lc, lb]), hard.T], axis=1)
        got = angle_from_sides(la, lc, lb)
        for g, a, c, b in zip(got.tolist(), la.tolist(), lc.tolist(), lb.tolist()):
            want, cond = mp_angle_from_sides(a, c, b)
            assert abs(g - want) <= 2.0 * np.finfo(float).eps * cond

    def test_from_sides_finite_over_the_domain(self):
        # Sides up to the coordinate domain's diameter, and third sides from
        # the degenerate |la - lc| to la + lc, both ends included.
        rng = np.random.default_rng(24)
        la, lc = 10.0 ** rng.uniform(-12.0, math.log10(709.7), (2, 100_000))
        t = rng.uniform(0.0, 1.0, 100_000)
        t[:1000], t[1000:2000] = 0.0, 1.0
        gap = np.abs(la - lc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = angle_from_sides(la, lc, gap + t * (la + lc - gap))
        assert np.isfinite(got).all()
        assert ((got >= 0.0) & (got <= math.pi)).all()

    def test_from_sides_rejects_zero_side(self):
        for la, lc in ((0.0, 1.0), (1.0, 1e-13), (np.array([1.0, 0.0]), np.ones(2))):
            with pytest.raises(GeometryError, match="coincident"):
                angle_from_sides(la, lc, 1.0)


class TestStacked:
    """Stacked (..., 3) rows against one call per row, byte for byte."""

    def test_rows_match_scalar_calls(self, rng):
        a, b, c = (np.array([random_point(rng, 4.0).vec for _ in range(40)])
                   for _ in range(3))
        b[0] = a[0]  # a coincident pair
        b[1] = a[1] * (1.0 + 1e-13)  # B(b-a, b-a) < 0 within the guard: clamped to 0
        d = dist_pp(a, b)
        assert d.shape == (40,)
        assert d.tolist() == [dist_pp(p, q) for p, q in zip(a, b)]
        assert d[1] == 0.0
        ang = angle_at(a[2:], c[2:], b[2:])
        assert ang.tolist() == [angle_at(p, q, r) for p, q, r in zip(a[2:], c[2:], b[2:])]
        grid = dist_pp(a[:, None, :], c[None, :, :])
        assert grid.shape == (40, 40)
        assert grid[3].tolist() == [dist_pp(a[3], q) for q in c]
        u = np.array([random_line(rng).vec for _ in range(40)])
        for p, q in ((a, c), (a, u), (u, u)):
            assert mink(p, q).tolist() == [mink(x, y) for x, y in zip(p, q)]
        assert mink(a, X1).tolist() == [mink(x, X1) for x in a]
        assert mink(a[:, None, :], u[None, :, :])[5].tolist() == [mink(a[5], y) for y in u]
        for chart in ("klein", "poincare"):
            xy = hyperboloid_to_chart(a, chart)
            assert xy.tolist() == [list(hyperboloid_to_chart(p, chart)) for p in a]
            assert hyperboloid_to_chart(a.reshape(4, 10, 3), chart).tolist() == \
                xy.reshape(4, 10, 2).tolist()

    def test_sheet_rows_keep_evaluation_order(self, rng):
        def one_row(v):  # t^2 - x^2 - y^2 in this order, then the upper sheet
            r = v / math.sqrt(v[2] * v[2] - v[0] * v[0] - v[1] * v[1])
            return (-r if r[2] < 0.0 else r).tolist()

        w = np.array([random_point(rng, 4.0).vec for _ in range(40)])
        w *= rng.uniform(0.1, 10.0, size=(40, 1))
        w[::3] *= -1.0  # lower sheet
        rows = to_sheet(w)
        assert rows.tolist() == [one_row(v) for v in w]
        assert rows.tolist() == [unit_timelike(v).vec.tolist() for v in w]
        w[7] = [1.0, 0.0, 0.5]  # spacelike
        with pytest.raises(GeometryError):
            to_sheet(w)

    def test_bad_row_raises(self, rng):
        a = np.array([random_point(rng).vec for _ in range(5)])
        off = a.copy()
        off[2] = [0.0, 0.0, 2.0]
        with pytest.raises(GeometryError):
            dist_pp(a, off)
        same = np.array([random_point(rng).vec for _ in range(5)])
        same[3] = a[3]
        with pytest.raises(GeometryError):
            angle_at(same, a, np.roll(a, 1, axis=0))


class TestCharts:
    def test_polar_point(self):
        p = polar_point(1.3, 0.4)
        assert dist_pp(p, ORIGIN) == pytest.approx(1.3, abs=1e-14)
        x, y = hyperboloid_to_chart(p, "klein")
        assert math.atan2(y, x) == pytest.approx(0.4, abs=1e-15)

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

    def test_unknown_chart_rows_rejected(self):
        with pytest.raises(GeometryError) as exc:
            chart_rows_to_hyperboloid(np.array([[0.1, 0.2]]), "halfplane")
        assert type(exc.value) is GeometryError
        assert str(exc.value) == "unknown chart 'halfplane' (expected 'klein' or 'poincare')"


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

    def test_coincident_points_rejected(self):
        with pytest.raises(GeometryError) as exc:
            geodesic_point(X1, X1, 0.1)
        assert type(exc.value) is GeometryError
        assert str(exc.value) == "geodesic direction undefined for coincident points"
