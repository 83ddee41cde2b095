import math
import re
import warnings
from functools import cached_property

import numpy as np
import pytest

from hypwidth import polygon, reduced
from hypwidth.corpus import perturbed_polygon
from hypwidth.errors import (BracketFailure, EvenGon, GeometryError,
                             LeftFamily, NoConvergence, NotOrdinaryReduced,
                             NumericalError)
from hypwidth.hcore import HPoint, dist_pp
from hypwidth.polygon import (make_polygon, perimeter, polygon_from_rows, side_lengths,
                              side_line)
from hypwidth.reduced import (_frame, _jacobian, _min_norm_step, _residuals,
                              HalvingRecord, check_ordinary_reduced,
                              diameter_bound, diameter_within_bound,
                              opposite_side, perimeter_halving,
                              regular_apothem, regular_ngon,
                              regular_ngon_with_thickness,
                              solve_ordinary_reduced)
from hypwidth.width import ThicknessReport, diameter, thickness
from polygon_families import (SMALLEST_REGULAR_EXPONENT, apply_isometry,
                              jittered_circle_polygon, random_isometry,
                              random_nonequilateral_triangle, regular_thicknesses)
from test_acceptance_oracles import (mp_reducedness, oracle_check_ordinary_reduced,
                                     oracle_perimeter_halving, unscaled_jacobian,
                                     unscaled_residuals)


# check_ordinary_reduced(...).records of two triangles, as the per-vertex
# records were built before they became lazy.
REGULAR_TRIANGLE_RECORDS = (
    "(VertexProjection(index=0, opposite_side=(1, 2), foot=HPoint(x=-0.23748495951211696, "
    "y=2.4577233623150296e-16, t=1.0278127776956618), distance=0.7353074598670407, "
    "foot_interior=True, interior_margin=0.49999999999999983), "
    "VertexProjection(index=1, opposite_side=(2, 0), foot=HPoint(x=0.11874247975605828, "
    "y=-0.205668007954212, t=1.0278127776956618), distance=0.7353074598670405, "
    "foot_interior=True, interior_margin=0.4999999999999999), "
    "VertexProjection(index=2, opposite_side=(0, 1), foot=HPoint(x=0.11874247975605831, "
    "y=0.20566800795421217, t=1.0278127776956618), distance=0.7353074598670407, "
    "foot_interior=True, interior_margin=0.4999999999999998))")
TRIANGLE_RECORDS = (
    "(VertexProjection(index=0, opposite_side=(1, 2), foot=HPoint(x=-0.2253799542668374, "
    "y=0.00851941637132813, t=1.025118873224286), distance=0.9221410363041754, "
    "foot_interior=True, interior_margin=0.4812438422816231), "
    "VertexProjection(index=1, opposite_side=(2, 0), foot=HPoint(x=0.3143781588959517, "
    "y=-0.1998938760664108, t=1.0671415972023872), distance=1.0279783347355822, "
    "foot_interior=True, interior_margin=0.3897265759787222), "
    "VertexProjection(index=2, opposite_side=(0, 1), foot=HPoint(x=0.272197622652422, "
    "y=0.2788245313253122, t=1.073235605562176), distance=1.0563799036359636, "
    "foot_interior=True, interior_margin=0.407719274684202))")

# repr(perimeter_halving(regular_ngon(3, 0.5))).
REGULAR_TRIANGLE_HALVING = (
    "HalvingReport(records=(HalvingRecord(index=0, chord_left=0.43721826415672366, "
    "chord_right=0.4372182641567236, half_perimeter_gap=-4.440892098500626e-16, "
    "alpha=0.473205516114806, beta=0.4732055161148062), HalvingRecord(index=1, "
    "chord_left=0.4372182641567233, chord_right=0.4372182641567236, "
    "half_perimeter_gap=-2.220446049250313e-16, alpha=0.4732055161148062, "
    "beta=0.47320551611480627), HalvingRecord(index=2, chord_left=0.43721826415672355, "
    "chord_right=0.43721826415672327, half_perimeter_gap=8.881784197001252e-16, "
    "alpha=0.47320551611480627, beta=0.4732055161148059)))")


def circumradius(V):
    v = V.vertex(0)
    return math.asinh(math.hypot(v.x, v.y))


class TestOppositeSide:
    def test_triangle(self):
        assert opposite_side(0, 3) == (1, 2)

    def test_pentagon(self):
        assert opposite_side(0, 5) == (2, 3)

    def test_modulo_wrap(self):
        assert opposite_side(6, 7) == (2, 3)

    def test_even_rejected(self):
        with pytest.raises(EvenGon):
            opposite_side(0, 4)

    def test_reexported_from_polygon(self):
        assert opposite_side is polygon.opposite_side


class TestCheckOrdinaryReduced:
    def test_regular_pentagon_passes(self):
        rep = check_ordinary_reduced(regular_ngon(5, 1.0))
        assert rep.verdict
        assert rep.max_distance_spread < 1e-12
        assert all(r.foot_interior for r in rep.records)

    def test_nonequilateral_triangle_fails(self, rng):
        T = random_nonequilateral_triangle(rng)
        assert not check_ordinary_reduced(T).verdict

    def test_pushed_vertex_fails(self):
        V = regular_ngon(5, 1.0)
        r = 1.05
        moved = [HPoint(math.sinh(r) * v.x / math.sinh(1.0),
                        math.sinh(r) * v.y / math.sinh(1.0),
                        math.cosh(r)) if i == 0 else v
                 for i, v in enumerate(V.vertices)]
        assert not check_ordinary_reduced(make_polygon(moved)).verdict

    def test_even_gon_rejected(self):
        square = make_polygon([
            HPoint(math.sinh(1.0), 0.0, math.cosh(1.0)),
            HPoint(0.0, math.sinh(1.0), math.cosh(1.0)),
            HPoint(-math.sinh(1.0), 0.0, math.cosh(1.0)),
            HPoint(0.0, -math.sinh(1.0), math.cosh(1.0))])
        text = "^opposite side requires an odd n >= 3, got n = 4$"
        for _ in range(2):  # a failed build caches nothing
            with pytest.raises(EvenGon, match=text):
                check_ordinary_reduced(square)
            with pytest.raises(EvenGon, match=text):
                perimeter_halving(square)

    def test_matches_per_vertex_oracle(self):
        rng = np.random.default_rng(31)
        polys = [jittered_circle_polygon(rng, int(n), rng.uniform(0.3, 3.0),
                                         rng.uniform(0.0, 4.0))
                 for n in rng.choice(np.arange(3, 60, 2), size=80)]
        polys += [regular_ngon_with_thickness(n, delta)
                  for n in (3, 7, 31) for delta in (0.01, 1.0, 6.0)]
        for n, delta in ((5, 1.0), (9, 0.5), (15, 6.0)):
            reg = regular_ngon_with_thickness(n, delta)
            polys += [solve_ordinary_reduced(perturbed_polygon(reg, rng), delta)
                      for _ in range(3)]
        verdicts = set()
        for V in polys:
            rep = check_ordinary_reduced(V)
            verdict, dists, feet, margins = oracle_check_ordinary_reduced(V)
            assert rep.verdict == verdict
            verdicts.add(verdict)
            for rec, d, p, m in zip(rep.records, dists, feet, margins):
                assert rec.distance == pytest.approx(d, rel=1e-14, abs=1e-14)
                assert rec.interior_margin == pytest.approx(m, rel=1e-14, abs=1e-14)
                assert rec.foot_interior == (m >= 1e-9)
                assert np.allclose(rec.foot.vec, p.vec, rtol=1e-13, atol=1e-14)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_invalid_tolerance_rejected(self, tol):
        V = regular_ngon_with_thickness(5, 1.0)
        for _ in range(2):  # before and after the polygon's table is built
            with pytest.raises(GeometryError, match="tolerance must be finite"):
                check_ordinary_reduced(V, tol=tol)
            with pytest.raises(GeometryError, match="tolerance must be finite"):
                perimeter_halving(V, tol=tol)
            check_ordinary_reduced(V)

    def test_cached_table_is_read_only(self):
        V = regular_ngon_with_thickness(7, 1.0)
        rep = check_ordinary_reduced(V)
        assert all(a is b for a, b in zip(rep.kernel[1:], V.opposite[1:4]))
        for x in rep.kernel[1:] + V.opposite[:4]:
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0.0
        assert check_ordinary_reduced(V) == rep

    def test_tolerance_order_does_not_change_reports(self):
        # One polygon's table serves every tolerance: each report, in any call
        # order, equals the one from a polygon that has seen no other call.
        rng = np.random.default_rng(15)
        reg = regular_ngon_with_thickness(9, 1.0)
        polys = [reg, solve_ordinary_reduced(perturbed_polygon(reg, rng), 1.0),
                 random_nonequilateral_triangle(rng),
                 jittered_circle_polygon(rng, 11, 1.0, 2.0)]
        tols = (0.0, 1e-12, 1e-9, 1e-8, 1.0)

        def reports(V, order):
            out = {tol: repr(check_ordinary_reduced(V, tol)) for tol in order}
            try:
                out["halving"] = repr(perimeter_halving(V))
            except NotOrdinaryReduced as exc:
                out["halving"] = repr(exc)
            return out

        verdicts = set()
        for V in polys:
            fresh = {}
            for tol in tols:
                fresh.update(reports(polygon_from_rows(V.vertex_matrix), [tol]))
            fresh["halving"] = reports(polygon_from_rows(V.vertex_matrix), [])["halving"]
            for order in (tols, tols[::-1], tuple(rng.permutation(tols).tolist())):
                W = polygon_from_rows(V.vertex_matrix)
                assert reports(W, order) == fresh
            verdicts.add(check_ordinary_reduced(V).verdict)
        assert verdicts == {True, False}

    def test_zero_tolerance_allowed(self):
        rep = check_ordinary_reduced(regular_ngon_with_thickness(5, 1.0), tol=0.0)
        assert all(r.foot_interior for r in rep.records)

    def test_report_eq_and_hash(self):
        V = regular_ngon(5, 1.0)
        rep = check_ordinary_reduced(V)
        again = check_ordinary_reduced(polygon_from_rows(V.vertex_matrix))
        assert rep is not again
        assert rep == again and hash(rep) == hash(again)
        assert (rep == 1) is False
        assert rep != check_ordinary_reduced(regular_ngon(5, 1.1))

    def test_records_repr_pinned(self):
        tri = make_polygon(HPoint(math.sinh(0.7) * math.cos(a), math.sinh(0.7) * math.sin(a),
                                  math.cosh(0.7)) for a in (0.1, 2.0, 4.4))
        for V, text in ((regular_ngon(3, 0.5), REGULAR_TRIANGLE_RECORDS),
                        (tri, TRIANGLE_RECORDS)):
            records = check_ordinary_reduced(V).records
            assert type(records) is tuple
            assert repr(records) == text


class TestRegularNgon:
    def test_triangle_side_length(self):
        V = regular_ngon(3, 1.0)
        expected = 2.0 * math.asinh(math.sinh(1.0) * math.sin(math.pi / 3.0))
        for i in range(3):
            assert dist_pp(V.vertex(i), V.vertex(i + 1)) == pytest.approx(
                expected, abs=1e-14)

    def test_always_ordinary_reduced(self):
        for n in (3, 5, 9):
            for R in (0.4, 1.5):
                assert check_ordinary_reduced(regular_ngon(n, R), tol=1e-9).verdict

    def test_thickness_closed_form(self):
        for n, R in ((3, 1.0), (5, 0.7), (7, 2.0)):
            V = regular_ngon(n, R)
            expected = R + regular_apothem(n, R)
            assert thickness(V).thickness == pytest.approx(expected, abs=1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(EvenGon):
            regular_ngon(4, 1.0)
        with pytest.raises(GeometryError):
            regular_ngon(5, -1.0)

    @pytest.mark.parametrize("R", [400.0, 800.0])
    def test_overflowing_circumradius_named(self, R):
        # sinh overflows from R = 710.5, the squared coordinates from R = 355.
        with pytest.raises(GeometryError, match=f"circumradius {R}"):
            regular_ngon(5, R)

    def test_overflow_edge(self):
        # Each R either builds the polygon or names the circumradius.
        for R in np.linspace(354.0, 357.0, 61).tolist():
            try:
                assert regular_ngon(5, R).n == 5
            except GeometryError as exc:
                assert f"circumradius {R}" in str(exc)


class TestRegularNgonWithThickness:
    def test_triangle_delta_one(self):
        V = regular_ngon_with_thickness(3, 1.0)
        assert abs(thickness(V).thickness - 1.0) <= 1e-10

    def test_common_distance_equals_target(self):
        rep = check_ordinary_reduced(regular_ngon_with_thickness(5, 1.3))
        assert rep.verdict
        assert rep.mean_distance == pytest.approx(1.3, abs=1e-9)

    def test_ratio_trend_toward_one(self):
        r3 = regular_ngon_with_thickness(3, 1.0)
        r9 = regular_ngon_with_thickness(9, 1.0)
        ratio3 = diameter(r3)[0] / thickness(r3).thickness
        ratio9 = diameter(r9)[0] / thickness(r9).thickness
        assert abs(ratio9 - 1.0) < abs(ratio3 - 1.0)

    def test_bracket_failure(self):
        # too small to be strictly convex in floating point
        with pytest.raises(BracketFailure):
            regular_ngon_with_thickness(3, 1e-7)
        # The small end of the domain, by quarter decades.
        for n, k in SMALLEST_REGULAR_EXPONENT.items():
            assert regular_ngon_with_thickness(n, 10.0 ** (k / 4)).n == n
            with pytest.raises(BracketFailure):
                regular_ngon_with_thickness(n, 10.0 ** ((k - 1) / 4))

    @pytest.mark.parametrize("n", [3, 5, 31])
    def test_far_thickness(self, n):
        for delta in (60.0, 100.0, 200.0, 300.0, 350.0):
            V = regular_ngon_with_thickness(n, delta)
            assert thickness(V).thickness == pytest.approx(delta, rel=1e-9)

    def test_beyond_domain_names_circumradius(self):
        # Thickness 400 needs R = 399.45 for a triangle, past the domain's 355.
        with pytest.raises(GeometryError) as exc:
            regular_ngon_with_thickness(3, 400.0)
        assert type(exc.value) is GeometryError
        assert str(exc.value).startswith("circumradius 399.45")
        # Near the edge each delta either builds the polygon or names R.
        for delta in np.linspace(354.0, 360.0, 61).tolist():
            try:
                assert thickness(regular_ngon_with_thickness(5, delta)).thickness == \
                    pytest.approx(delta, rel=1e-9)
            except GeometryError as exc:
                assert type(exc) is GeometryError and "is too large" in str(exc)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_thickness_rejected(self, delta):
        with pytest.raises(GeometryError) as exc:
            regular_ngon_with_thickness(5, delta)
        assert type(exc.value) is GeometryError
        assert str(exc.value) == f"thickness must be positive and finite, got {delta}"

    def test_even_n_rejected(self):
        with pytest.raises(EvenGon) as exc:
            regular_ngon_with_thickness(4, 1.0)
        assert str(exc.value) == "regular construction requires an odd n >= 3, got n = 4"

    def test_closed_form_grid(self):
        for n in range(3, 52, 2):
            for delta in (1e-3, 0.01, 1.0, 6.0, 10.0):
                V = regular_ngon_with_thickness(n, delta)
                R = circumradius(V)
                assert R + regular_apothem(n, R) == pytest.approx(delta, rel=1e-12)
                assert thickness(V).thickness == pytest.approx(delta, abs=1e-9)


class TestSolve:
    def test_seed_in_family_is_fixed_point(self):
        V = regular_ngon_with_thickness(5, 1.0)
        S = solve_ordinary_reduced(V, 1.0)
        worst = max(max(abs(a.x - b.x), abs(a.y - b.y), abs(a.t - b.t))
                    for a, b in zip(V.vertices, S.vertices))
        assert worst <= 1e-15  # no iteration happens, only t is recomputed

    def test_perturbed_pentagon_nonregular(self, rng):
        V = regular_ngon_with_thickness(5, 1.0)
        seed = perturbed_polygon(V, rng, radial=0.05, angular=0.03)
        S = solve_ordinary_reduced(seed, 1.0)
        rep = check_ordinary_reduced(S, tol=1e-9)
        assert rep.verdict
        lengths = side_lengths(S)
        assert max(lengths) - min(lengths) > 1e-4  # genuinely non-regular
        assert thickness(S).thickness == pytest.approx(1.0, abs=1e-9)

    def test_perturbed_triangle_returns_regular(self, rng):
        T = regular_ngon_with_thickness(3, 1.0)
        seed = perturbed_polygon(T, rng, radial=0.05, angular=0.03)
        S = solve_ordinary_reduced(seed, 1.0)
        lengths = side_lengths(S)
        assert max(lengths) - min(lengths) < 1e-8

    def test_even_seed_rejected(self):
        square = make_polygon([
            HPoint(math.sinh(1.0), 0.0, math.cosh(1.0)),
            HPoint(0.0, math.sinh(1.0), math.cosh(1.0)),
            HPoint(-math.sinh(1.0), 0.0, math.cosh(1.0)),
            HPoint(0.0, -math.sinh(1.0), math.cosh(1.0))])
        with pytest.raises(EvenGon):
            solve_ordinary_reduced(square, 1.0)

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(3)
        cases = [(perturbed_polygon(regular_ngon_with_thickness(n, delta), rng), delta)
                 for n in (3, 5, 15, 31) for delta in (0.01, 1.0, 6.0)]
        cases += [(jittered_circle_polygon(rng, n, 1.0, 2.0), 1.0) for n in (3, 5, 15, 31)]
        for V, delta in cases:
            x = V.vertex_matrix[:, :2].reshape(-1).copy()
            frame = _frame(V.n, np.array([0.6, 0.8]))
            J = _jacobian(_residuals(x, delta, frame)[1], frame)
            # Steps scale with the polygon, so truncation stays below rounding.
            h = 1e-6 * min(1.0, delta)
            fd = np.empty_like(J)
            for k in range(x.size):
                step = np.zeros_like(x)
                step[k] = h
                fd[:, k] = (_residuals(x + step, delta, frame)[0]
                            - _residuals(x - step, delta, frame)[0]) / (2.0 * h)
            assert np.max(np.abs(J - fd)) <= 1e-6, (V.n, delta)

    def test_residuals_and_jacobian_match_unscaled(self):
        # Inside the old domain the scaled rows change no bit of either.
        for n in (3, 5, 7, 9, 15, 31):
            for delta in (0.01, 0.1, 1.0, 3.0, 6.0, 10.0):
                reg = regular_ngon_with_thickness(n, delta)
                rng = np.random.default_rng(100 * n + int(10 * delta))
                for _ in range(10):
                    x = perturbed_polygon(reg, rng).vertex_matrix[:, :2].reshape(-1).copy()
                    d0 = x[2:4] - x[:2]
                    frame = _frame(n, d0 / np.hypot(d0[0], d0[1]))
                    r, lifted = _residuals(x, delta, frame)
                    ref, ref_lifted = unscaled_residuals(x, delta, frame)
                    assert r.tobytes() == ref.tobytes()
                    for a, b in zip(lifted[:3], ref_lifted[:3]):
                        assert a.tobytes() == b.tobytes()
                    J = _jacobian(lifted, frame)
                    assert J.tobytes() == unscaled_jacobian(ref_lifted, frame).tobytes()

    def test_trial_with_non_spacelike_normals_is_rejected_without_warning(self):
        # On this draw some line-search trials put the ends of a side where
        # its normal's Lorentz norm rounds negative; the trial is rejected
        # and the solve ends in a typed error, not a RuntimeWarning.
        rng = np.random.default_rng(15)
        reg = regular_ngon_with_thickness(15, 30.0)
        seed = [perturbed_polygon(reg, rng) for _ in range(8)][-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match="line search stalled"):
                solve_ordinary_reduced(seed, 30.0)

    @pytest.mark.parametrize("R", [180.0, 200.0, 250.0, 300.0, 350.0])
    def test_far_regular_seed_solves_or_raises(self, R):
        # Unscaled, the side normals' Lorentz norm overflowed from R = 178.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                S = solve_ordinary_reduced(regular_ngon(5, R), R + regular_apothem(5, R))
            except NumericalError:
                return
            assert check_ordinary_reduced(S).verdict

    def test_min_norm_step_matches_lstsq(self):
        rng = np.random.default_rng(4)
        for n in (3, 5, 15, 31):
            for delta in (0.01, 1.0, 6.0):
                V = perturbed_polygon(regular_ngon_with_thickness(n, delta), rng)
                x = V.vertex_matrix[:, :2].reshape(-1).copy()
                frame = _frame(n, np.array([0.6, 0.8]))
                r, lifted = _residuals(x, delta, frame)
                J = _jacobian(lifted, frame)
                step = _min_norm_step(J, r)
                ref, *_ = np.linalg.lstsq(J, -r, rcond=None)
                scale = np.linalg.norm(ref)
                assert np.max(np.abs(step - ref)) <= 1e-10 * scale, (n, delta)
                assert np.max(np.abs(J @ step + r)) <= 1e-10 * max(1.0, scale), (n, delta)

    def test_rank_deficient_jacobian_raises(self):
        # A zero row in the Jacobian restricted to the gauge's free coordinates.
        V = perturbed_polygon(regular_ngon_with_thickness(5, 1.0), np.random.default_rng(0))
        x = V.vertex_matrix[:, :2].reshape(-1).copy()
        d0 = x[2:4] - x[:2]
        frame = _frame(V.n, d0 / np.hypot(d0[0], d0[1]))
        r, lifted = _residuals(x, 1.0, frame)
        J = _jacobian(lifted, frame)
        A = np.column_stack((J[:, 2:4] @ frame.gauge_dir, J[:, 4:]))
        assert A.shape == (5, 7)
        _min_norm_step(A, r)
        A[2] = 0.0
        with pytest.raises(NoConvergence, match="rank deficient"):
            _min_norm_step(A, r)

    @staticmethod
    def _count_evaluations(monkeypatch):
        """Log each residual evaluation (with its squared norm) and Jacobian build."""
        events = []
        residuals, jacobian = reduced._residuals, reduced._jacobian

        def counted_residuals(*args):
            r, lifted = residuals(*args)
            events.append(("r", float(np.dot(r, r)), lifted))
            return r, lifted

        def counted_jacobian(lifted, frame):
            events.append(("J", None, lifted))
            return jacobian(lifted, frame)

        monkeypatch.setattr(reduced, "_residuals", counted_residuals)
        monkeypatch.setattr(reduced, "_jacobian", counted_jacobian)
        return events

    @pytest.mark.parametrize("n, rng_seed, rejected", [(5, 0, 0), (31, 3, 2)])
    def test_jacobian_built_once_per_step(self, monkeypatch, n, rng_seed, rejected):
        # The second draw converges after two rejected trials to a polygon
        # whose feet leave their sides.
        events = self._count_evaluations(monkeypatch)
        reg = regular_ngon_with_thickness(n, 1.0)
        seed = perturbed_polygon(reg, np.random.default_rng(rng_seed))
        try:
            S = solve_ordinary_reduced(seed, 1.0)
        except LeftFamily:
            S = None
        # Replay the line search: after the seed's residuals, each step builds J
        # at the last accepted point, then evaluates residuals alone at trial
        # points until the squared norm drops below the accepted one.
        kind, base, accepted = events[0]
        assert kind == "r"
        steps = trials = 0
        searching = False
        for kind, norm2, lifted in events[1:]:
            if kind == "J":
                assert not searching and lifted is accepted
                steps += 1
                searching = True
            else:
                assert searching
                trials += 1
                if norm2 < base:
                    base, accepted, searching = norm2, lifted, False
        assert not searching
        assert steps > 0 and trials == steps + rejected
        assert sum(k == "J" for k, _, _ in events) == steps
        assert sum(k == "r" for k, _, _ in events) == 1 + trials
        # The polygon is built from the last accepted lift.
        assert S is None or S.vertex_matrix.tolist() == accepted[0].tolist()

    def test_opposite_table_built_once(self, monkeypatch):
        # solve -> check -> halving -> bound on one polygon: the criterion
        # table is built once, and forms the returned polygon's side normals
        # once.
        events = self._count_evaluations(monkeypatch)
        for module in (reduced, polygon):
            def counted(a, b, line_normals=module.line_normals):
                events.append(("normals", None, None))
                return line_normals(a, b)
            monkeypatch.setattr(module, "line_normals", counted)
        table = polygon.ConvexPolygon.opposite

        def counted_table(V):
            events.append(("table", None, None))
            return table.func(V)
        counted_property = cached_property(counted_table)
        counted_property.__set_name__(polygon.ConvexPolygon, "opposite")
        monkeypatch.setattr(polygon.ConvexPolygon, "opposite", counted_property)

        reg = regular_ngon_with_thickness(15, 1.0)
        S = solve_ordinary_reduced(perturbed_polygon(reg, np.random.default_rng(0)), 1.0)
        assert check_ordinary_reduced(S).verdict
        perimeter_halving(S)
        assert diameter_within_bound(S)
        kinds = [k for k, _, _ in events]
        last = max(i for i, k in enumerate(kinds) if k == "r")
        assert kinds.count("J") > 0
        assert kinds[:last + 1].count("normals") == kinds.count("r")  # one inside each evaluation
        assert kinds[last + 1:] == ["table", "normals"] and kinds.count("table") == 1

    def test_reordered_rows_are_not_seeded(self, monkeypatch):
        # polygon_from_rows may return the rows in another order (it reverses a
        # negatively oriented cycle); the returned polygon's side normals are
        # those of its own rows, whatever the solver's residuals formed.
        monkeypatch.setattr(reduced, "polygon_from_rows",
                            lambda rows: polygon_from_rows(np.roll(rows, 1, axis=0)))
        reg = regular_ngon_with_thickness(7, 1.0)
        S = solve_ordinary_reduced(perturbed_polygon(reg, np.random.default_rng(0)), 1.0)
        fresh = polygon_from_rows(S.vertex_matrix).side_normals
        assert S.side_normals.tobytes() == fresh.tobytes()

    def test_seed_in_family_builds_no_jacobian(self, monkeypatch):
        events = self._count_evaluations(monkeypatch)
        solve_ordinary_reduced(regular_ngon_with_thickness(5, 1.0), 1.0)
        assert [k for k, _, _ in events] == ["r"]

    def test_zero_iterations_accepts_converged_seed(self):
        V = regular_ngon_with_thickness(5, 1.0)
        S = solve_ordinary_reduced(V, 1.0, max_iterations=0)
        assert S.vertex_matrix.tolist() == solve_ordinary_reduced(V, 1.0).vertex_matrix.tolist()

    def test_zero_iterations_on_unsolved_seed_raises(self):
        seed = perturbed_polygon(regular_ngon_with_thickness(5, 1.0), np.random.default_rng(0))
        with pytest.raises(NoConvergence, match="after 0 iterations"):
            solve_ordinary_reduced(seed, 1.0, max_iterations=0)

    @pytest.mark.parametrize("n,delta,stalls", [
        pytest.param(5, 1.0, True, id="5-1.0"), pytest.param(7, 0.5, True, id="7-0.5"),
        pytest.param(5, 6.0, False, id="5-6.0")])
    def test_line_search_stall_raises(self, n, delta, stalls):
        # A zero residual tolerance asks for more than rounding allows, even
        # from a seed already in the family: no step lowers the residual.
        # At (5, 6) steps within the gauge instead drive every residual to
        # exactly 0.0, moving the regular pentagon only at rounding level.
        V = regular_ngon_with_thickness(n, delta)
        if stalls:
            with pytest.raises(NoConvergence) as exc:
                solve_ordinary_reduced(V, delta, residual_tol=0.0)
            assert type(exc.value) is NoConvergence
            assert str(exc.value) == "backtracking line search stalled"
            return
        S = solve_ordinary_reduced(V, delta, residual_tol=0.0)
        x = S.vertex_matrix[:, :2].reshape(-1).copy()
        d0 = x[2:4] - x[:2]
        r, _ = _residuals(x, delta, _frame(n, d0 / np.hypot(d0[0], d0[1])))
        assert not r.any()
        assert np.abs(S.vertex_matrix - V.vertex_matrix).max() <= 1e-14

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_delta_rejected(self, delta):
        with pytest.raises(GeometryError, match="target distance must be positive and finite"):
            solve_ordinary_reduced(regular_ngon_with_thickness(5, 1.0), delta)

    def test_negative_iterations_rejected(self):
        with pytest.raises(GeometryError, match="max_iterations"):
            solve_ordinary_reduced(regular_ngon_with_thickness(5, 1.0), 1.0, max_iterations=-1)

    def test_nearly_rank_deficient_jacobian_raises(self):
        # Two equal rows leave R a diagonal entry at rounding level, which
        # np.linalg.solve accepts, returning a step of norm about 2.7e15.
        rng = np.random.default_rng(0)
        J = rng.standard_normal((8, 10))
        J[5] = J[2]
        with pytest.raises(NoConvergence, match="rank deficient"):
            _min_norm_step(J, rng.standard_normal(8))

    def test_left_family_names_feet(self):
        # The first draw at (31, 1) converges with feet 1 and 14 off their sides.
        reg = regular_ngon_with_thickness(31, 1.0)
        seed = perturbed_polygon(reg, np.random.default_rng(0))
        with pytest.raises(LeftFamily, match=r"at vertices \[1, 14\]"):
            solve_ordinary_reduced(seed, 1.0)

    @pytest.mark.parametrize("n", [5, 15, 31])
    def test_delta_six_solves(self, n):
        reg = regular_ngon_with_thickness(n, 6.0)
        S = solve_ordinary_reduced(perturbed_polygon(reg, np.random.default_rng(0)), 6.0)
        assert check_ordinary_reduced(S).verdict
        assert max(abs(r.half_perimeter_gap) for r in perimeter_halving(S).records) <= 1e-8
        assert diameter_within_bound(S)


    @pytest.mark.parametrize("n, floor", [(5, 10), (7, 6)])
    def test_far_perturbed_seeds_solve(self, n, floor):
        # At delta = 40 the distance rows' slopes are about 1/sinh(40); with
        # the gauge eliminated, the rank test compares them only with each
        # other, so no Jacobian is rank deficient.  Every solution must meet
        # the criterion at 50 digits.
        reg = regular_ngon_with_thickness(n, 40.0)
        rng = np.random.default_rng(n)
        solved = []
        for _ in range(10):
            try:
                solved.append(solve_ordinary_reduced(perturbed_polygon(reg, rng), 40.0))
            except NumericalError as exc:
                assert "rank deficient" not in str(exc)
        assert len(solved) >= floor
        for S in solved:
            dists, margins = mp_reducedness(S)
            assert max(dists) - min(dists) <= 1e-9
            assert max(abs(d - 40.0) for d in dists) <= 1e-9
            assert min(margins) > 0.0

    def test_outcome_grid_floor(self):
        # Solved draws per (n, delta) cell out of 10 perturbed_polygon draws from
        # default_rng(12345): 313 of 360 in total, every other draw LeftFamily.
        floor = {31: {0.01: 3, 0.1: 3, 1.0: 0, 3.0: 10, 6.0: 10, 10.0: 10},
                 51: {0.01: 0, 0.1: 0, 1.0: 8, 3.0: 9, 6.0: 10, 10.0: 10}}
        low = []
        for n in (3, 5, 9, 15, 31, 51):
            for delta in (0.01, 0.1, 1.0, 3.0, 6.0, 10.0):
                reg = regular_ngon_with_thickness(n, delta)
                rng = np.random.default_rng(12345)
                solved = 0
                for _ in range(10):
                    try:
                        S = solve_ordinary_reduced(perturbed_polygon(reg, rng), delta)
                    except NumericalError:
                        continue
                    solved += 1
                    # The returned polygon's side normals are those a fresh one forms.
                    fresh = polygon_from_rows(S.vertex_matrix).side_normals
                    assert S.side_normals.tobytes() == fresh.tobytes()
                    assert not S.side_normals.flags.writeable
                if solved < floor.get(n, {}).get(delta, 10):
                    low.append((n, delta, solved))
        assert not low


class TestPerturbedPolygon:
    @pytest.mark.parametrize("n", [5, 31])
    def test_draws_past_the_domain_edge_are_retried(self, n):
        # Scale 1 jitters some vertex of these polygons past distance 355.
        R = 349.0
        for k in range(10):
            seed = perturbed_polygon(regular_ngon(n, R), np.random.default_rng(k))
            assert seed.n == n
            assert np.arccosh(seed.vertex_matrix[:, 2]).max() <= 1.03 * R

    def test_delta_six_vertices_stay_near_circumradius(self):
        radial = 0.03
        rng = np.random.default_rng(0)
        for n in (5, 15, 31):
            reg = regular_ngon_with_thickness(n, 6.0)
            R = circumradius(reg)
            for _ in range(10):
                seed = perturbed_polygon(reg, rng, radial=radial)
                for v in seed.vertices:
                    rho = math.asinh(math.hypot(v.x, v.y))
                    assert (1.0 - radial) * R - 1e-9 <= rho <= (1.0 + radial) * R + 1e-9


class TestPerimeterHalving:
    def test_regular_triangle_equal_angles(self):
        rep = perimeter_halving(regular_ngon(3, 1.0))
        for r in rep.records:
            assert r.beta == pytest.approx(r.alpha, abs=1e-9)

    def test_regular_pentagon_halves_exactly(self):
        rep = perimeter_halving(regular_ngon(5, 1.0))
        for r in rep.records:
            assert abs(r.half_perimeter_gap) < 1e-10
            assert r.chord_left == pytest.approx(r.chord_right, abs=1e-10)

    def test_solved_pentagon(self, rng):
        V = regular_ngon_with_thickness(5, 1.0)
        # some draws project onto the regular member; insist on a non-regular one
        for _ in range(20):
            S = solve_ordinary_reduced(perturbed_polygon(V, rng, 0.05, 0.03), 1.0)
            lengths = side_lengths(S)
            if max(lengths) - min(lengths) > 1e-4:
                break
        rep = perimeter_halving(S)
        half = 0.5 * perimeter(S)
        for r in rep.records:
            assert r.chord_left == pytest.approx(r.chord_right, abs=1e-8)
            assert abs(r.half_perimeter_gap) <= 1e-8 * max(1.0, half)
            assert r.beta < r.alpha

    def test_report_repr_eq_and_hash(self):
        V = regular_ngon(3, 0.5)
        rep = perimeter_halving(V)
        assert repr(rep) == REGULAR_TRIANGLE_HALVING
        assert type(rep.records) is tuple
        assert all(type(r) is HalvingRecord for r in rep.records)
        again = perimeter_halving(polygon_from_rows(V.vertex_matrix))
        assert rep == again and hash(rep) == hash(again) == hash((rep.records,))
        assert rep != perimeter_halving(regular_ngon(5, 0.5))
        assert rep != rep.records

    def test_nan_tolerance_is_invalid_not_unreduced(self):
        with pytest.raises(GeometryError, match="tolerance must be finite") as info:
            perimeter_halving(regular_ngon_with_thickness(5, 1.0), tol=math.nan)
        assert not isinstance(info.value, NotOrdinaryReduced)

    def test_rejects_non_reduced(self, rng):
        T = random_nonequilateral_triangle(rng)
        with pytest.raises(NotOrdinaryReduced):
            perimeter_halving(T)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        polys = [regular_ngon_with_thickness(n, delta)
                 for n in (3, 5, 31, 101) for delta in (0.01, 1.0, 6.0)]
        for n, delta in ((5, 1.0), (9, 0.5), (15, 6.0), (21, 3.0)):
            reg = regular_ngon_with_thickness(n, delta)
            polys += [solve_ordinary_reduced(perturbed_polygon(reg, rng), delta)
                      for _ in range(2)]
        moves = [random_isometry(rng, 3.0) for _ in polys[::2]]
        polys += [make_polygon(apply_isometry(M, v) for v in V)
                  for M, V in zip(moves, polys[::2])]
        for V in polys:
            rep = perimeter_halving(V)
            for rec, ref in zip(rep.records, oracle_perimeter_halving(V)):
                got = (rec.chord_left, rec.chord_right, rec.half_perimeter_gap,
                       rec.alpha, rec.beta)
                assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12, V.n


class TestDiameterBound:
    def test_euclidean_limit(self):
        d = 1e-4
        assert diameter_bound(d) / d == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-3)

    def test_regular_triangle_within_bound(self):
        V = regular_ngon_with_thickness(3, 1.0)
        assert diameter_within_bound(V)

    def test_bound_value(self):
        # Against arccosh(cosh d sqrt(1 + sinh(d)^2 / 3)) at 50 digits; acosh
        # of that cosh in floats was 7e-5 off at d = 1e-6.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for d in regular_thicknesses(3):
                x = mp.mpf(d)
                expected = mp.acosh(mp.cosh(x) * mp.sqrt(1 + mp.sinh(x) ** 2 / 3))
                assert abs(diameter_bound(d) - expected) <= 1e-15 * expected, d

    @pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -1.0, -math.inf])
    def test_invalid_thickness_rejected(self, delta):
        with pytest.raises(GeometryError, match="thickness must be positive and finite"):
            diameter_bound(delta)

    @pytest.mark.parametrize("delta", [356.0, 400.0, 1e300])
    def test_overflowing_thickness_named(self, delta):
        with pytest.raises(GeometryError, match=re.escape(f"thickness {delta} is too large")):
            diameter_bound(delta)

    def test_overflow_edge(self):
        # Each delta either gives a finite bound or names the thickness.
        for delta in np.linspace(354.0, 357.0, 61).tolist():
            try:
                assert math.isfinite(diameter_bound(delta))
            except GeometryError as exc:
                assert f"thickness {delta}" in str(exc)

    def test_within_bound_names_overflowing_thickness(self, monkeypatch):
        # thickness() fails before it reaches such values (its side normals
        # overflow first), so a stub reports one.
        V = regular_ngon_with_thickness(5, 1.0)
        monkeypatch.setattr(reduced, "thickness", lambda V: ThicknessReport(
            thickness=400.0, argmin_line=side_line(V, 0), achieved_on_side=0))
        with pytest.raises(GeometryError, match="thickness 400.0 is too large"):
            diameter_within_bound(V)


class TestVertexRemoval:
    def test_thickness_strictly_decreases(self, rng):
        for n, delta in ((5, 1.0), (7, 0.8)):
            V = regular_ngon_with_thickness(n, delta)
            S = solve_ordinary_reduced(perturbed_polygon(V, rng, 0.04, 0.03), delta)
            t0 = thickness(S).thickness
            for drop in range(S.n):
                U = make_polygon([S.vertex(i) for i in range(S.n) if i != drop])
                assert thickness(U).thickness < t0
