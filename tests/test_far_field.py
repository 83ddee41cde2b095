"""Far-field faults on centred regular polygons (ROADMAP item 2).

Each repro asserts the correct answer and is a strict xfail: the library
gets it wrong today, and a fix makes the test pass, which fails the run
until its marker is removed.  The faults are rounding, whose cancellation
grows like eps * cosh^3 of the distance from the chart origin.  The area
and vertex angle of a large pentagon are plain tests: its vertex angle is
7.6e-87, and ``angle_from_sides`` must keep it to full relative accuracy.
The last test checks that three far calls, which once overflowed inside the
coordinate domain, return finite values without a warning.
"""

import json
import math
import warnings

import pytest

from hypwidth.cli import main
from hypwidth.errors import GeometryError, NotSupporting
from hypwidth.hcore import angle_at
from hypwidth.polygon import area, side_line
from hypwidth.reduced import perimeter_halving, regular_apothem, regular_ngon
from hypwidth.width import diameter, diameter_via_width, width_line
from test_acceptance_oracles import regular_angle


def far_field(raises):
    """Strict xfail that only the fault's own exception satisfies."""
    return pytest.mark.xfail(raises=raises, strict=True,
                             reason="far-field rounding (ROADMAP item 2)")


@far_field(AssertionError)
def test_diameter_via_width_matches_diameter():
    # diameter_via_width - diameter is +1.2e-8 on this pentagon.
    V = regular_ngon(5, 10.0)
    assert diameter_via_width(V) == pytest.approx(diameter(V)[0], abs=1e-10)


@far_field(AssertionError)
def test_verify_claims_passes(capsys, tmp_path):
    path = tmp_path / "pentagon.json"
    assert main(["regular", "--n", "5", "--circumradius", "10", "--model", "hyperboloid",
                 "--output", str(path)]) == 0
    assert main(["verify", "--theorem", "claims", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["passed"] is True


@far_field(NotSupporting)
@pytest.mark.parametrize("n, R, j", [(5, 16.0, 2), (3, 17.5, 0), (3, 17.5, 1),
                                     (31, 13.0, 2), (31, 13.0, 13), (31, 13.0, 27)])
def test_side_line_supports(n, R, j):
    # Each side line raises NotSupporting today.  The width of a regular odd
    # n-gon by a side line is the distance from the opposite vertex to it.
    V = regular_ngon(n, R)
    assert width_line(V, side_line(V, j)).width == pytest.approx(
        R + regular_apothem(n, R), abs=1e-9)


@far_field(GeometryError)
@pytest.mark.parametrize("n, R", [(3, 38.0), (5, 37.5)])
def test_perimeter_halving_holds(n, R):
    # Both raise GeometryError today, from a degenerate angle or a distance
    # whose cosh(d) - 1 rounds negative.
    rep = perimeter_halving(regular_ngon(n, R))
    for r in rep.records:
        assert abs(r.chord_left - r.chord_right) <= 1e-8
        assert abs(r.half_perimeter_gap) <= 1e-8


@far_field(AssertionError)
def test_verify_halving_passes(capsys, tmp_path):
    # chord_gap and half_perimeter_gap read 1.6e-8 against the 1e-8 margin.
    path = tmp_path / "pentagon.json"
    assert main(["regular", "--n", "5", "--circumradius", "18.5", "--model", "hyperboloid",
                 "--output", str(path)]) == 0
    assert main(["verify", "--theorem", "2", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["passed"] is True


def test_area_of_large_pentagon():
    assert area(regular_ngon(5, 200.0)) == pytest.approx(
        3.0 * math.pi - 5.0 * regular_angle(5, 200.0), rel=1e-12)


def test_angle_at_vertex_of_large_pentagon():
    V = regular_ngon(5, 200.0)
    assert angle_at(V.vertex(4), V.vertex(0), V.vertex(1)) == pytest.approx(
        regular_angle(5, 200.0), rel=1e-9)


@far_field(AssertionError)
def test_diameter_via_width_of_large_triangle():
    # The pencil frames cancel (ROADMAP item 2): the answer is 377.2 against a
    # diameter of 679.7.
    V = regular_ngon(3, 340.0)
    assert diameter_via_width(V) == pytest.approx(diameter(V)[0], rel=1e-12)


def test_large_polygons_give_finite_values_without_warning():
    # Each of these calls overflowed here at one time.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        V = regular_ngon(5, 200.0)
        assert area(V) == pytest.approx(3.0 * math.pi, abs=1e-6)
        assert 0.0 <= angle_at(V.vertex(4), V.vertex(0), V.vertex(1)) < 1e-7
        assert math.isfinite(diameter_via_width(regular_ngon(3, 340.0)))
