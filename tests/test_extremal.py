import logging
import math
import warnings

import numpy as np
import pytest

from hypwidth.corpus import perturbed_polygon
from hypwidth.errors import EvenGon, GeometryError, NumericalError
from hypwidth.extremal import ScanRow, circumdisk, indisk, ratio_scan, rhombus
from hypwidth.hcore import HPoint, dist_pp, signed_dist, unit_timelike
from hypwidth.polygon import make_polygon, side_line
from hypwidth.reduced import (check_ordinary_reduced, regular_apothem, regular_ngon,
                              regular_ngon_with_thickness, solve_ordinary_reduced)
from hypwidth.width import diameter, thickness
from polygon_families import (apply_isometry, hard_families, jittered_circle_polygon,
                              random_convex_polygon, random_isometry, regular_thicknesses)
from test_acceptance_oracles import (all_sides_indisk, mp_circumradius, mp_reducedness,
                                     oracle_circumdisk, oracle_indisk)


@pytest.fixture(scope="module")
def solved_pentagons():
    """The two non-regular rows of ratio_scan([5], [1.0], 2, rng_seed=2019575649).

    Hard inputs for the disk searches: a descent from the chart centroid used
    to spend seconds and its whole step budget on one of them.
    """
    rng = np.random.default_rng(2019575649)
    reg = regular_ngon_with_thickness(5, 1.0)
    return [solve_ordinary_reduced(perturbed_polygon(reg, rng), 1.0) for _ in range(2)]


def oracle_inputs(rng, solved_pentagons):
    """Random polygons near the origin, copies moved up to distance 4 away
    from it (where float coordinates grow like e^4), and the hard pentagons."""
    polys = [random_convex_polygon(rng, int(rng.integers(3, 10))) for _ in range(25)]
    moved = []
    for V in polys[:5]:
        M = random_isometry(rng, 4.0)
        moved.append(make_polygon([apply_isometry(M, v) for v in V.vertices]))
    return polys + moved + solved_pentagons


def ultraparallel_quadrilateral(h, x1, x2):
    """Vertices at arc length -x1 and x2 on the two lines perpendicular to
    the y-axis geodesic at distance h on either side of the origin."""
    def point(x, y):
        return HPoint(math.sinh(x), math.sinh(y) * math.cosh(x),
                      math.cosh(y) * math.cosh(x))
    return make_polygon([point(x2, -h), point(x2, h), point(-x1, h), point(-x1, -h)])


def moved_ultraparallel_quadrilaterals():
    """200 seeded ultraparallel quadrilaterals, each moved by up to 1."""
    rng = np.random.default_rng(5)
    out = []
    for _ in range(200):
        h = rng.uniform(0.05, 0.4)
        x1, x2 = rng.uniform(1.0, 3.0, size=2)
        M = random_isometry(rng, 1.0)
        out.append(make_polygon([apply_isometry(M, v)
                                 for v in ultraparallel_quadrilateral(h, x1, x2).vertices]))
    return out


class TestCircumdisk:
    def test_regular_polygon(self):
        # Every vertex is on the circle, so the disk has many supports.
        # regular_ngon(3001, 0.01) is too small to be strictly convex in
        # floating point.
        cases = [(5, 1.0), (7, 0.3), (9, 2.0)]
        cases += [(n, R) for n in (3, 5, 9, 31, 1001, 3001) for R in (0.01, 1.0, 10.0, 350.0)
                  if (n, R) != (3001, 0.01)]
        for n, R in cases:
            c, r = circumdisk(regular_ngon(n, R))
            assert r == pytest.approx(R, rel=1e-9)
            assert r == pytest.approx(R, abs=1e-9)
            assert dist_pp(c, (0.0, 0.0, 1.0)) < 1e-9

    def test_two_point_case(self):
        # tall isosceles triangle: the far pair determines the disk
        a = 1.2
        V = make_polygon([
            unit_timelike((math.sinh(a), 0.0, math.cosh(a))),
            unit_timelike((-math.sinh(a), 0.0, math.cosh(a))),
            unit_timelike((0.0, math.sinh(0.1), math.cosh(0.1)))])
        c, r = circumdisk(V)
        d, (i, j) = diameter(V)
        assert r == pytest.approx(d / 2.0, abs=1e-9)
        mid = unit_timelike(V.vertex(i).vec + V.vertex(j).vec)
        assert dist_pp(c, mid) < 1e-7

    def test_matches_combinatorial_oracle(self, rng, solved_pentagons):
        for V in oracle_inputs(rng, solved_pentagons):
            _, r = circumdisk(V)
            assert r == pytest.approx(oracle_circumdisk(V), abs=1e-8)

    def test_covers_all_vertices(self, rng):
        polys = [random_convex_polygon(rng, 6) for _ in range(10)]
        polys += [jittered_circle_polygon(rng, n, rng.uniform(0.2, 2.5), shift)
                  for n in (5, 301, 3001) for shift in (0.0, 2.0)]
        for V in polys:
            c, r = circumdisk(V)
            d = dist_pp(c, V.vertex_matrix)
            assert np.all(d <= r + 1e-9)
            assert np.count_nonzero(d >= r - 1e-9) >= 2
        # Moved 9 away, B and the distances round by about 1e-8, so a support
        # vertex can read outside its own disk.
        for n in (4, 5):
            for seed in range(8):
                V = jittered_circle_polygon(np.random.default_rng(seed), n, 1.0, 9.0)
                c, r = circumdisk(V)
                assert r == pytest.approx(1.0, rel=1e-7)
                assert np.all(dist_pp(c, V.vertex_matrix) <= r + 1e-7)

    @pytest.mark.parametrize("family", ["regular-3", "regular-5", "regular-7", "hexagons"])
    def test_small_polygon_circumradius(self, family):
        # A vertex row's t is 1 to within an ulp, and B(w, v) rounds by a few
        # eps, so each equation -B(w, v) = 1 of a disk of radius R is off by
        # at most 4 eps: 1 for the stored t, 1.5 for the three products in
        # B and 1.5 for the 3 x 3 solve.  As -B(w, v) - 1 is about R (d - R)
        # there, that is a radial move of a vertex by 4 eps / R; the smallest
        # disk of the moved vertices is then at most that far from the true
        # one, and the largest distance from its centre twice that, so the
        # relative error is at most 8 eps / R^2.  An absolute tolerance on
        # -B(w, v) - 1 stops the pivot at once when the diameter is below
        # about 4.5e-5 and returns the diameter as the radius.
        if family == "hexagons":
            polys = [random_convex_polygon(np.random.default_rng(seed), 6,
                                           radius_range=(0.45 * s, 1.1 * s))
                     for s in (1e-4, 1e-5) for seed in range(20)]
        else:
            n = int(family[-1])
            polys = [regular_ngon_with_thickness(n, d) for d in regular_thicknesses(n)
                     if d <= 1e-3]
        eps = np.finfo(float).eps
        for V in polys:
            R = mp_circumradius(V)
            assert circumdisk(V)[1] == pytest.approx(R, rel=8.0 * eps / R ** 2, abs=0.0)


class TestIndisk:
    def test_regular_polygon_apothem(self):
        for n, R in ((5, 1.0), (9, 1.7)):
            c, r = indisk(regular_ngon(n, R))
            assert r == pytest.approx(regular_apothem(n, R), abs=1e-9)
            assert dist_pp(c, (0.0, 0.0, 1.0)) < 1e-9

    def test_consistency_inequalities(self, rng):
        for _ in range(15):
            V = random_convex_polygon(rng, int(rng.integers(3, 9)))
            _, rin = indisk(V)
            _, rout = circumdisk(V)
            t = thickness(V).thickness
            d, _ = diameter(V)
            assert rin <= t + 1e-9
            assert t <= d + 1e-12
            assert d <= 2.0 * rout + 1e-9

    def test_center_clearance(self, rng):
        for _ in range(10):
            V = random_convex_polygon(rng, 5)
            c, r = indisk(V)
            for j in range(V.n):
                assert signed_dist(c, side_line(V, j)) >= r - 1e-9

    def test_isometry_invariance(self, rng):
        for _ in range(10):
            V = random_convex_polygon(rng, int(rng.integers(3, 9)))
            M = random_isometry(rng)
            W = make_polygon([apply_isometry(M, v) for v in V.vertices])
            assert indisk(W)[1] == pytest.approx(indisk(V)[1], abs=1e-9)
            assert circumdisk(W)[1] == pytest.approx(circumdisk(V)[1], abs=1e-9)

    def test_matches_combinatorial_oracle(self, rng, solved_pentagons):
        for V in oracle_inputs(rng, solved_pentagons):
            _, r = indisk(V)
            assert r == pytest.approx(oracle_indisk(V), abs=1e-9)

    def test_ultraparallel_quadrilaterals(self):
        # Two ultraparallel sides drift apart away from their common
        # perpendicular, so the clearance has a local maximum near each end.
        for V in moved_ultraparallel_quadrilaterals():
            _, r = indisk(V)
            assert r == pytest.approx(oracle_indisk(V), abs=1e-9)

    def test_three_side_scores_match_all_sides(self):
        # An event that is not stale is a vertex of the lower envelope of the
        # Klein-affine side functions, so no other side is nearer: scored
        # against all n sides, each event gets its three-side score up to
        # rounding, and the sweep picks the same radius.
        for V in hard_families() + moved_ultraparallel_quadrilaterals():
            r_all, gap = all_sides_indisk(V)
            assert gap <= 1e-12
            assert abs(indisk(V)[1] - r_all) <= 1e-15

    @pytest.mark.parametrize("n", [3, 5, 31, 101, 1001])
    def test_regular_simultaneous_events(self, n):
        # Every side of a regular polygon collapses at the center at one level.
        c, r = indisk(regular_ngon(n, 1.2))
        assert r == pytest.approx(regular_apothem(n, 1.2), abs=1e-9)
        assert dist_pp(c, (0.0, 0.0, 1.0)) < 1e-9

    def test_rhombi_match_oracle(self):
        for a, b in ((1.0, 1.0), (1.0, 0.3)):
            V = rhombus(a, b)
            assert indisk(V)[1] == pytest.approx(oracle_indisk(V), abs=1e-9), (a, b)

    def test_large_moved_polygon(self):
        V = jittered_circle_polygon(np.random.default_rng(11), 1001, 1.0, 2.0)
        c, r = indisk(V)
        assert min(signed_dist(c, side_line(V, j)) for j in range(V.n)) >= r - 1e-9
        assert 2.0 * r <= thickness(V).thickness + 1e-9

    def test_equilateral_radius_chain(self):
        V = regular_ngon(3, 1.0)
        _, rin = indisk(V)
        _, rout = circumdisk(V)
        t = thickness(V).thickness
        assert rin < t < rout + rin


class TestRhombus:
    def test_equal_diagonals_equal_sides(self):
        V = rhombus(1.0, 1.0)
        sides = [dist_pp(V.vertex(i), V.vertex(i + 1)) for i in range(4)]
        assert max(sides) - min(sides) < 1e-15

    def test_diameter_along_diagonal(self):
        d, pair = diameter(rhombus(1.0, 1.0))
        assert d == pytest.approx(2.0, abs=1e-12)
        assert pair == (0, 2)

    def test_thickness_below_diameter(self):
        V = rhombus(1.0, 1.0)
        assert thickness(V).thickness < diameter(V)[0]

    def test_rejected_by_reducedness_check(self):
        with pytest.raises(EvenGon):
            check_ordinary_reduced(rhombus(1.0, 1.0))

    def test_degenerate_diagonal_rejected(self):
        with pytest.raises(ValueError) as exc:
            rhombus(0.0, 1.0)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "diagonal half-lengths must be positive"


class TestRatioScan:
    def test_negative_perturbations_rejected(self):
        with pytest.raises(GeometryError, match="perturbations"):
            ratio_scan([5], [1.0], perturbations=-1)

    def test_small_grid(self, caplog):
        rows = ratio_scan([3, 5], [1.0], perturbations=1, rng_seed=5)
        assert len(rows) == 4
        ids = [r.polygon_id for r in rows]
        assert ids == sorted(ids, key=lambda s: (int(s.split("-n")[1].split("-")[0]),
                                                 s.startswith("perturbed")))
        for r in rows:
            assert isinstance(r, ScanRow)
            assert 1.0 < r.ratio < 2.0
            assert r.ratio == pytest.approx(r.diameter / r.delta, rel=1e-12)
            assert r.area > 0.0 and r.perimeter > 0.0
            assert r.inradius <= r.delta + 1e-9 <= r.diameter + 1e-9
            assert r.delta == pytest.approx(1.0, abs=1e-9)

    def test_far_grid_runs_clean(self, monkeypatch):
        # Regular cells out to the domain edge, and seeds whose jitter crosses it.
        import hypwidth.extremal as ex

        solve, solved = ex.solve_ordinary_reduced, []

        def recorded(seed, delta):
            solved.append((solve(seed, delta), delta))
            return solved[-1][0]
        monkeypatch.setattr(ex, "solve_ordinary_reduced", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = ratio_scan([3, 5, 7, 31], [60, 100, 200, 300, 350], perturbations=2)
        regular = [r for r in rows if r.polygon_id.startswith("regular")]
        assert len(regular) == 20
        assert len(rows) - len(regular) == len(solved) >= 12
        # Every solved row meets the criterion at 50 digits.
        for S, delta in solved:
            dists, margins = mp_reducedness(S)
            assert max(dists) - min(dists) <= 1e-9
            assert max(abs(d - delta) for d in dists) <= 1e-9
            assert min(margins) > 0.0
        for r in rows:
            assert 1.0 < r.ratio < 2.0
            assert math.isfinite(r.area) and r.area > 0.0
        assert [r.delta for r in regular] == pytest.approx([60, 100, 200, 300, 350] * 4, rel=1e-9)

    def test_failures_skipped_not_raised(self, monkeypatch, caplog):
        import hypwidth.extremal as ex
        from hypwidth.errors import NoConvergence

        def boom(seed, delta):
            raise NoConvergence("forced")

        monkeypatch.setattr(ex, "solve_ordinary_reduced", boom)
        with caplog.at_level(logging.WARNING, logger="hypwidth.extremal"):
            rows = ex.ratio_scan([5], [1.0], perturbations=2, rng_seed=1)
        assert len(rows) == 1  # only the regular row survives
        assert any("skipping" in rec.message for rec in caplog.records)

    def test_undrawable_seed_skipped_not_raised(self, caplog):
        # From n = 81 at delta = 1 every perturbation of rng_seed 0 breaks convexity.
        with pytest.raises(NumericalError):
            perturbed_polygon(regular_ngon_with_thickness(81, 1.0), np.random.default_rng(0))
        with caplog.at_level(logging.WARNING, logger="hypwidth.extremal"):
            rows = ratio_scan([81], [1.0], perturbations=1)
        assert [r.polygon_id for r in rows] == ["regular-n81-d1"]
        assert [rec.message for rec in caplog.records if "skipping" in rec.message] == [
            "skipping perturbed-n81-d1-00: perturbation kept breaking convexity or leaving "
            "the coordinate domain"]
