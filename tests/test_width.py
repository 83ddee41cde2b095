import math
import warnings

import numpy as np
import pytest

from hypwidth import width
from hypwidth.corpus import jittered_circle_polygon, nested_pair, random_convex_polygon
from hypwidth.errors import NotSupporting
from hypwidth.extremal import rhombus
from hypwidth.hcore import HLine, HPoint, apply_isometry, random_isometry, signed_dist
from hypwidth.polygon import make_polygon, polygon_from_rows, side_line
from hypwidth.reduced import regular_apothem, regular_ngon, regular_ngon_with_thickness
from hypwidth.width import (SUPPORT_TOL, diameter, diameter_via_width, pencil_line,
                            thickness, width_line, width_ultraparallel_oracle)
from polygon_families import hard_families, regular_thicknesses, squashed_hull
from test_acceptance_oracles import (brute_thickness, dense_thickness, envelope_tops,
                                     full_width_diameter_via_width, full_width_thickness,
                                     full_width_tops, oracle_diameter, slerp_pencil_line)


def altitude(R, n):
    return R + regular_apothem(n, R)


class TestWidthLine:
    def test_equilateral_altitude(self):
        V = regular_ngon(3, 1.0)
        rep = width_line(V, side_line(V, 0))
        assert rep.width == pytest.approx(altitude(1.0, 3), abs=1e-12)
        assert rep.farthest_vertex_index == 2

    def test_regular_pentagon_closed_form(self):
        R = 1.0
        V = regular_ngon(5, R)
        rep = width_line(V, side_line(V, 0))
        expected = R + math.atanh(math.tanh(R) * math.cos(math.pi / 5.0))
        assert rep.width == pytest.approx(expected, abs=1e-12)
        brute = max(abs(signed_dist(v, rep.line)) for v in V.vertices)
        assert rep.width == pytest.approx(brute, abs=1e-15)

    def test_thin_polygon_guard(self):
        a, h = 1.0, 1e-3
        V = rhombus(a, h)
        # supporting line tangent at the bottom vertex, parallel to the long axis
        L = HLine(0.0, math.cosh(h), -math.sinh(h))
        rep = width_line(V, L)
        assert rep.width == pytest.approx(2.0 * h, abs=1e-12)

    def test_not_supporting_across(self):
        V = regular_ngon(5, 1.0)
        with pytest.raises(NotSupporting):
            width_line(V, HLine(0.0, 1.0, 0.0))  # passes through the interior

    def test_not_supporting_detached(self):
        V = regular_ngon(3, 0.5)
        d = 2.0
        with pytest.raises(NotSupporting):
            width_line(V, HLine(0.0, math.cosh(d), math.sinh(d)))


def x_axis_triangle(y0, y1, y2):
    """Triangle whose vertices have the y coordinates y0, y1 and y2 exactly.

    Against the x-axis geodesic, normal (0, 1, 0), B(v, u) is v.y itself, so
    these are the values the support test compares with SUPPORT_TOL.
    """
    pts = [(-0.5, y0), (0.5, y1), (0.0, y2)]
    return make_polygon([HPoint(x, y, math.sqrt(1.0 + x * x + y * y)) for x, y in pts])


class TestSupportContract:
    X_AXIS = HLine(0.0, 1.0, 0.0)
    BOTH_SIDES = "polygon has vertices strictly on both sides of the line"
    DETACHED = "no polygon vertex touches the line"

    def test_negated_line_same_width_and_index(self):
        rng = np.random.default_rng(31)
        polys = [random_convex_polygon(rng, int(rng.integers(3, 10))) for _ in range(20)]
        polys += [squashed_hull(rng) for _ in range(5)] + [regular_ngon(7, 1.0)]
        for V in polys:
            lines = [side_line(V, j) for j in range(V.n)]
            lines += [pencil_line(V, i, s) for i in range(V.n) for s in (0.3, 0.7)]
            for L in lines:
                flipped = HLine(-L.ux, -L.uy, -L.ut)
                a, b = width_line(V, L), width_line(V, flipped)
                assert (a.width, a.farthest_vertex_index) == \
                       (b.width, b.farthest_vertex_index)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("scale", [0.0, 0.9, 1.0])
    def test_values_within_tolerance_accepted(self, sign, scale):
        # One vertex on, one just across, one far on the polygon's side.
        V = x_axis_triangle(-sign * scale * SUPPORT_TOL, 0.0, sign * 1.0)
        rep = width_line(V, self.X_AXIS)
        assert rep.width == math.asinh(1.0)
        assert V.vertex(rep.farthest_vertex_index).y == sign * 1.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_values_beyond_tolerance_rejected(self, sign):
        V = x_axis_triangle(-sign * 1.1 * SUPPORT_TOL, 0.0, sign * 1.0)
        with pytest.raises(NotSupporting, match=self.BOTH_SIDES):
            width_line(V, self.X_AXIS)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("scale", [0.9, 1.0])
    def test_touching_within_tolerance_accepted(self, sign, scale):
        V = x_axis_triangle(sign * scale * SUPPORT_TOL, sign * 0.5, sign * 1.0)
        assert width_line(V, self.X_AXIS).width == math.asinh(1.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_detached_beyond_tolerance_rejected(self, sign):
        V = x_axis_triangle(sign * 1.1 * SUPPORT_TOL, sign * 0.5, sign * 1.0)
        with pytest.raises(NotSupporting, match=self.DETACHED):
            width_line(V, self.X_AXIS)

    def test_messages(self):
        V = regular_ngon(5, 1.0)
        d = 3.0
        for check in (width_line, width_ultraparallel_oracle):
            with pytest.raises(NotSupporting, match=self.BOTH_SIDES):
                check(V, self.X_AXIS)  # through the interior
            with pytest.raises(NotSupporting, match=self.DETACHED):
                check(V, HLine(0.0, math.cosh(d), math.sinh(d)))


class TestWidthUltraparallelOracle:
    def test_equilateral(self):
        V = regular_ngon(3, 1.0)
        L = side_line(V, 0)
        assert width_ultraparallel_oracle(V, L) == pytest.approx(
            width_line(V, L).width, abs=1e-7)

    def test_pentagon(self):
        V = regular_ngon(5, 1.0)
        for j in range(5):
            L = side_line(V, j)
            assert width_ultraparallel_oracle(V, L) == pytest.approx(
                width_line(V, L).width, abs=1e-7)

    def test_random_hexagons(self, rng):
        for _ in range(10):
            V = random_convex_polygon(rng, 6)
            j = int(rng.integers(0, 6))
            L = side_line(V, j)
            assert width_ultraparallel_oracle(V, L) == pytest.approx(
                width_line(V, L).width, abs=1e-7)

    def test_rejects_non_supporting(self):
        V = regular_ngon(5, 1.0)
        with pytest.raises(NotSupporting):
            width_ultraparallel_oracle(V, HLine(0.0, 1.0, 0.0))


class TestPencilLine:
    @staticmethod
    def worst_gap(V, s_values):
        worst = 0.0
        for i in range(V.n):
            for s in s_values:
                want = slerp_pencil_line(V, i, s).vec
                gap = np.max(np.abs(pencil_line(V, i, s).vec - want)) / np.max(np.abs(want))
                worst = max(worst, float(gap))
        return worst

    def test_matches_arc_interpolation(self):
        rng = np.random.default_rng(11)
        s_values = [0.0, 0.1, 0.37, 0.5, 0.83, 1.0]
        polys = [random_convex_polygon(rng, int(rng.integers(3, 10))) for _ in range(40)]
        polys += [squashed_hull(rng) for _ in range(20)]
        polys += [regular_ngon(n, 1.0) for n in (3, 5, 31, 101, 1001)]
        assert max(self.worst_gap(V, s_values) for V in polys) <= 1e-14

    def test_ends_are_side_normals(self):
        rng = np.random.default_rng(12)
        for V in [random_convex_polygon(rng, 7), squashed_hull(rng), regular_ngon(101, 1.0)]:
            for i in range(V.n):
                for s, side in ((0.0, i - 1), (1.0, i)):
                    u = side_line(V, side).vec
                    assert np.max(np.abs(pencil_line(V, i, s).vec - u)) <= 1e-14 * np.max(np.abs(u))


class TestThickness:
    def test_equilateral_attained_on_sides(self):
        V = regular_ngon(3, 1.0)
        rep = thickness(V)
        assert rep.thickness == pytest.approx(altitude(1.0, 3), abs=1e-10)
        assert rep.achieved_on_side is not None

    def test_regular_odd_gons_side_values_equal(self):
        for n in (3, 5, 7, 9):
            V = regular_ngon(n, 0.8)
            rep = thickness(V)
            assert rep.achieved_on_side is not None
            for j in range(n):
                w = width_line(V, side_line(V, j)).width
                assert w == pytest.approx(rep.thickness, abs=1e-10)

    def test_rhombus_vs_dense_sampling(self):
        V = rhombus(1.0, 1.0)
        rep = thickness(V)
        samples = np.linspace(0.0, 1.0, 2500)
        dense = min(
            min(width_line(V, pencil_line(V, i, s)).width for s in samples)
            for i in range(V.n))
        assert rep.thickness == pytest.approx(dense, abs=1e-5)
        assert rep.thickness < diameter(V)[0]

    def test_monotone_under_inclusion(self, rng):
        for _ in range(20):
            U, W = nested_pair(rng)
            assert thickness(U).thickness <= thickness(W).thickness + 1e-10

    def test_at_most_diameter(self, rng):
        for _ in range(20):
            V = random_convex_polygon(rng, int(rng.integers(3, 9)))
            assert thickness(V).thickness <= diameter(V)[0]

    def test_isometry_invariance(self, rng):
        for _ in range(10):
            V = random_convex_polygon(rng, int(rng.integers(3, 9)))
            M = random_isometry(rng)
            W = make_polygon([apply_isometry(M, v) for v in V.vertices])
            assert thickness(W).thickness == pytest.approx(
                thickness(V).thickness, abs=1e-10)
            assert diameter(W)[0] == pytest.approx(diameter(V)[0], abs=1e-10)


class TestThicknessExact:
    def test_random_polygons_match_brute_oracle(self):
        # Draw 91 of this stream has its minimum at an envelope breakpoint
        # that a sampled pencil search overshot by 3.2e-5.
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            V = random_convex_polygon(rng, int(rng.integers(3, 10)))
            worst = max(worst, abs(thickness(V).thickness - brute_thickness(V)))
        assert worst <= 1e-12

    def test_squashed_hulls(self):
        rng = np.random.default_rng(11)
        hulls = [squashed_hull(rng) for _ in range(60)]
        reports = [thickness(V) for V in hulls]
        for V, rep in zip(hulls, reports):
            assert rep.thickness == pytest.approx(brute_thickness(V), abs=1e-12)
            assert diameter_via_width(V) == pytest.approx(diameter(V)[0], abs=1e-10)
        # the breakpoint branch is exercised, not only the side lines
        breakpoints = [(V, rep) for V, rep in zip(hulls, reports)
                       if rep.achieved_on_side is None]
        assert breakpoints
        for V, rep in breakpoints:
            assert width_line(V, rep.argmin_line).width == pytest.approx(
                rep.thickness, abs=1e-12)
        for V, rep in zip(hulls[:6], reports):
            assert rep.thickness <= dense_thickness(V) + 1e-9

    def test_large_n(self):
        rng = np.random.default_rng(1001)
        V = jittered_circle_polygon(rng, 1001, 1.5, 1.0)
        t = thickness(V).thickness
        # slack for a matrix product rounding differently from a matrix-vector one
        assert all(t <= width_line(V, side_line(V, j)).width + 1e-12 for j in range(V.n))
        assert diameter_via_width(V) == pytest.approx(diameter(V)[0], abs=1e-10)
        assert thickness(regular_ngon(1001, 1.3)).thickness == pytest.approx(
            altitude(1.3, 1001), abs=1e-9)


class TestDiameter:
    def test_equilateral_side(self):
        V = regular_ngon(3, 1.0)
        d, pair = diameter(V)
        assert d == pytest.approx(2.0 * math.asinh(math.sinh(1.0) * math.sin(math.pi / 3)),
                                  abs=1e-13)
        assert pair[0] < pair[1]  # ties among the equal sides are fp-level

    def test_regular_odd_gap(self):
        for n in (5, 7, 9):
            V = regular_ngon(n, 1.0)
            _, (i, j) = diameter(V)
            gap = (j - i) % n
            assert gap in ((n - 1) // 2, (n + 1) // 2)

    def test_tie_breaks_to_lowest_pair(self):
        V = rhombus(1.0, 1.0)  # both diagonals give the exact same distance
        _, pair = diameter(V)
        assert pair == (0, 2)

    def test_matches_loop_oracle(self, rng):
        # Regular polygons tie exactly in many pairs, which checks the tie rule.
        polys = [regular_ngon(n, R) for n in range(3, 52, 2) for R in (0.3, 1.0, 4.0)]
        polys += [rhombus(1.0, 1.0), rhombus(0.7, 1.3)]
        circles = [jittered_circle_polygon(rng, n, 1.2, 3.0) for n in (4, 9, 40, 101)]
        polys += [squashed_hull(rng) for _ in range(10)]
        # From the smallest regular polygons up: a distance taken as acosh of
        # a cosh was 1e-4 off at (3, 1e-6).
        polys += [regular_ngon_with_thickness(n, delta)
                  for n in (3, 5, 31) for delta in regular_thicknesses(n)]
        for V in polys + circles:
            d, pair = diameter(V)
            d_ref, pair_ref = oracle_diameter(V)
            assert pair == pair_ref
            # The circles, moved 3 off the origin, were put on the sheet
            # radially: their t differs from the (x, y) reading's by up to
            # eps t, which moves d by a few ulps.
            assert abs(d - d_ref) <= (8.0 * math.ulp(d_ref) if V in circles else 1e-15 * d_ref)

    def test_diameter_via_width_matches(self, rng):
        for V in (regular_ngon(3, 1.0), regular_ngon(5, 1.0)):
            assert diameter_via_width(V) == pytest.approx(diameter(V)[0], abs=1e-8)
        for _ in range(10):
            V = random_convex_polygon(rng, 7)
            assert diameter_via_width(V) == pytest.approx(diameter(V)[0], abs=1e-8)

    def test_monotone_under_inclusion(self, rng):
        for _ in range(20):
            U, W = nested_pair(rng)
            assert diameter(U)[0] <= diameter(W)[0] + 1e-10


@pytest.fixture(scope="module")
def families():
    return hard_families()


class TestPencilRanges:
    def test_thickness_matches_full_width_sweep_bit_for_bit(self, families):
        breakpoints = 0
        for V in families:
            rep = thickness(V)
            value, vec, side = full_width_thickness(V)
            assert rep.thickness == value
            assert rep.argmin_line.vec.tobytes() == vec.tobytes()
            assert rep.achieved_on_side == side
            breakpoints += side is None
        assert breakpoints  # the pencil-interior branch is exercised too

    def test_diameter_via_width_matches_full_width_bit_for_bit(self, families):
        for V in families:
            assert diameter_via_width(V) == full_width_diameter_via_width(V)

    def test_tops_stay_in_range(self, families):
        # Every top the full-width sweep visits in pencil i lies in the cyclic
        # range from f_i to f_{i+1}, f_i being the first top of pencil i.  The
        # one exception is a tie at the pencil's end: in the square, sides 0
        # and 2 are equidistant from side 1, and the sweep meets that tie one
        # rounding step before omega.
        end_ties = 0
        for V in families:
            tops, omega = envelope_tops(V)
            first = [t[0][0] for t in tops]
            for i, visited in enumerate(tops):
                span = (first[(i + 1) % V.n] - first[i]) % V.n
                for j, theta in visited:
                    if (j - first[i]) % V.n > span:
                        assert omega[i] - theta <= 4 * np.spacing(omega[i])
                        end_ties += 1
        assert end_ties <= 3

    def test_thickness_memory_at_n_1001(self):
        import tracemalloc

        n = 1001
        polys = [regular_ngon(n, 1.3),
                 jittered_circle_polygon(np.random.default_rng(1001), n, 1.5, 1.0)]
        for V in polys:
            V.side_normals, V.mink_rows  # cached per polygon; not part of the call
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                thickness(V)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 3 * 8 * n * n


class SweepProbe:
    """numpy as the width module sees it, keeping each step array of the sweep.

    Each step of ``width._envelope_minima`` computes its candidate angles in
    one arctan2 call.  The sweep masks ties in that array in place before it
    picks the new tops and never touches it again, so after the sweep
    step.argmin(axis=1) gives the tops of each step.
    """

    def __init__(self):
        self.steps = []

    def __getattr__(self, name):
        return getattr(np, name)

    def arctan2(self, *args):
        out = np.arctan2(*args)
        self.steps.append(out)
        return out


class TestEnvelopeSweep:
    def test_last_column_is_next_first_vertex(self, families):
        for V in families[::3]:
            u0, *_, a, _, last = V.pencils
            f = full_width_tops(V)
            f_next, rows = np.roll(f, -1), np.arange(V.n)
            assert np.array_equal(last, (f_next - f) % V.n)
            assert not last.flags.writeable
            # Column last_i of row i is vertex f_{i+1}, the one farthest from side i.
            assert np.array_equal(a[rows, last], (u0 @ V.mink_rows.T)[rows, f_next])

    def test_one_step_per_breakpoint_and_tops_within_range(self, families, monkeypatch):
        # Each row swept alone: the sweep takes one step per breakpoint of the
        # full-width sweep inside the row's range, and one more, which finds
        # no breakpoint below omega, only when the last of them does not reach
        # column last_i (a tie at omega, as in the symmetric rhombi) or there
        # is none.  No top passes column last_i, and every top before the
        # final one is below it.  The rows' results equal the joint sweep's.
        probe = SweepProbe()
        monkeypatch.setattr(width, "np", probe)
        for V in families[::2]:
            _, _, omega, _, _, a, b, last = V.pencils
            low, low_at = width._envelope_minima(a, b, omega, last)
            tops, _ = envelope_tops(V)
            first = [t[0][0] for t in tops]
            for i in range(V.n):
                probe.steps.clear()
                row = width._envelope_minima(a[i:i + 1], b[i:i + 1], omega[i:i + 1],
                                             last[i:i + 1])
                assert (row[0][0], row[1][0]) == (low[i], low_at[i])
                cols = [int(s.argmin(axis=1)[0]) for s in probe.steps]
                seen = [c for c in ((j - first[i]) % V.n for j, _ in tops[i]) if c <= last[i]]
                assert len(cols) == max(1, len(seen) - 1 + (seen[-1] != last[i]))
                assert max(cols) <= last[i]
                assert all(c < last[i] for c in cols[:-1])

    def test_one_vertex_range_reaches_omega_without_a_warning(self):
        # Column 0 is already the top at omega and its copies tie it, so every
        # step is inf; the angle stops at omega, where cos and sin are finite.
        a, b = np.full((1, 3), 2.0), np.full((1, 3), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, low_at = width._envelope_minima(a, b, np.array([1.0]), np.array([0]))
        assert (low.tolist(), low_at.tolist()) == ([2.0], [0.0])

    def test_regular_odd_gons_take_one_step(self, families, monkeypatch):
        probe = SweepProbe()
        monkeypatch.setattr(width, "np", probe)
        regular = families[-15:]
        assert [V.n for V in regular[::3]] == [3, 5, 31, 101, 1001]
        for V in regular:
            probe.steps.clear()
            _, _, omega, _, _, a, b, last = V.pencils
            width._envelope_minima(a, b, omega, last)
            assert len(probe.steps) == 1


def pencil_queries(V):
    """Every query that reads the pencil table, by name, as hex floats and array bytes."""
    n = V.n
    sides = sorted({0, n // 3, n - 1})
    queries = {"diameter_via_width": lambda: diameter_via_width(V).hex()}

    def thick():
        rep = thickness(V)
        return (rep.thickness.hex(), rep.argmin_line.vec.tobytes(), rep.achieved_on_side)
    queries["thickness"] = thick
    for j in sides:
        queries[f"oracle {j}"] = lambda j=j: width_ultraparallel_oracle(V, side_line(V, j)).hex()
    for i in sides:
        for s in (0.0, 0.4, 1.0):
            queries[f"pencil {i} {s}"] = lambda i=i, s=s: pencil_line(V, i, s).vec.tobytes()
    return queries


def cached_arrays(V):
    """Every array a polygon caches, its pencil table and side lines included."""
    out = []
    for value in vars(V).values():
        values = value if isinstance(value, tuple) else (value,)
        out += [getattr(x, "vec", x) for x in values]
    return [x for x in out if isinstance(x, np.ndarray)]


class TestPencilTable:
    def test_query_order_does_not_change_results(self, families):
        for V in families:
            results = []
            for reverse in (False, True):
                W = polygon_from_rows(V.vertex_matrix)
                queries = pencil_queries(W)
                names = sorted(queries, reverse=reverse)
                results.append({name: queries[name]() for name in names})
            assert results[0] == results[1]

    def test_cached_arrays_are_read_only(self, families):
        for V in families[::7]:
            W = polygon_from_rows(V.vertex_matrix)
            for query in pencil_queries(W).values():
                query()
            arrays = cached_arrays(W)
            assert len(arrays) >= 7 + W.n
            assert not any(x.flags.writeable for x in arrays)

    def test_no_cached_array_is_n_by_n(self):
        n = 1001
        for V in (regular_ngon(n, 1.3),
                  jittered_circle_polygon(np.random.default_rng(1001), n, 1.5, 1.0)):
            for query in pencil_queries(V).values():
                query()
            width_line(V, side_line(V, 5))
            arrays = cached_arrays(V)
            assert len(arrays) >= 7 + n
            assert max(x.size for x in arrays) < n * n

    def test_lone_pencil_line_forms_no_n_by_n_array(self):
        import tracemalloc

        n = 1001
        for V in (regular_ngon(n, 1.3),
                  jittered_circle_polygon(np.random.default_rng(1001), n, 1.5, 1.0)):
            tracemalloc.start()
            try:
                pencil_line(V, 7, 0.4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * n * n  # one n x n float64 array
            assert "pencils" not in vars(V)
