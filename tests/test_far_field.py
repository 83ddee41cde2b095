"""Far-field rounding faults on centred regular polygons (ROADMAP item 2).

Each test asserts the correct answer and is a strict xfail: the library gets
it wrong today, and a fix makes the test pass, which fails the run until its
marker is removed.  The faults are not overflow; the cancellation grows like
eps * cosh^3 of the distance from the chart origin.
"""

import json

import pytest

from hypwidth.cli import main
from hypwidth.errors import GeometryError, NotSupporting
from hypwidth.polygon import side_line
from hypwidth.reduced import perimeter_halving, regular_apothem, regular_ngon
from hypwidth.width import diameter, diameter_via_width, width_line


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
