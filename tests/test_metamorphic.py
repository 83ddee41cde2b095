"""Metamorphic relations: the queries do not see labels, orientation or position.

Relabelling the vertices cyclically, reversing them and reflecting the plane
in the x axis give the same polygon, so every query must agree to 1e-11
relative.  A seeded isometry (a rotation, a translation by at most 2 along x
and a rotation, applied in floats and put back on the sheet) moves the rows
by their own rounding, so there the queries must agree to 1e-8 relative.
The polygons come from ``polygon_cases``, convex at every n it draws; each
strict xfail names, in an ``example``, a case where its relation fails.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypwidth.extremal import circumdisk, indisk
from hypwidth.hcore import to_sheet
from hypwidth.polygon import area, perimeter, polygon_from_rows
from hypwidth.reduced import check_ordinary_reduced
from hypwidth.width import diameter, diameter_via_width, thickness
from polygon_families import family_polygon, polygon_cases, random_isometry

QUERIES = {
    "thickness": lambda V: thickness(V).thickness,
    "diameter": lambda V: diameter(V)[0],
    "diameter_via_width": diameter_via_width,
    "perimeter": perimeter,
    "area": area,
    "circumradius": lambda V: circumdisk(V)[1],
    "inradius": lambda V: indisk(V)[1],
}

# Odd regular polygons, for the reducedness verdict.
ODD_REGULAR = polygon_cases(families=("regular",), ns=st.integers(1, 31).map(lambda k: 2 * k + 1))

# Cases where a relation fails (ROADMAP item 12).
AREA_FAN = ("squashed", 19, 2.8773202137449583, 2.7771437316432563, 2868563154)
INDISK_TRIPLE = ("regular", 55, 2.2785247701321705, 2.9195129934835, 9221477)
MOVED_VERDICT = ("regular", 55, 2.4434679443477236, 2.8616940640809627, 2895998518)


def relabelled(V, shift):
    """V rolled by shift, reversed, and reflected in the x axis."""
    m = V.vertex_matrix
    return [polygon_from_rows(np.roll(m, shift, axis=0)), polygon_from_rows(m[::-1]),
            polygon_from_rows(m * np.array([1.0, -1.0, 1.0]))]


def moved(V, seed):
    M = random_isometry(np.random.default_rng(seed), 2.0)
    return polygon_from_rows(to_sheet(V.vertex_matrix @ M.T))


# Queries whose relabelling relation fails, and why (ROADMAP item 12).
RELABEL_FAULTS = {
    "area": "the fan from vertex 0 changes with the labels, and L'Huilier's thin "
            "triangles amplify the rounding of the rows: 2.4e-11 apart on AREA_FAN",
    "inradius": "the sweep's best triple changes with the labels: 1.4e-11 apart on "
                "INDISK_TRIPLE reflected",
}


@pytest.mark.parametrize("query", [
    pytest.param(q, marks=pytest.mark.xfail(raises=AssertionError, strict=True,
                                            reason=RELABEL_FAULTS[q]))
    if q in RELABEL_FAULTS else q for q in QUERIES])
@settings(max_examples=100)
@example(case=AREA_FAN, shift=1)
@example(case=INDISK_TRIPLE, shift=0)
@given(case=polygon_cases(), shift=st.integers(0, 63))
def test_relabelling(query, case, shift):
    V = family_polygon(*case)
    f = QUERIES[query]
    expected = f(V)
    for W in relabelled(V, shift % V.n):
        assert f(W) == pytest.approx(expected, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("query", list(QUERIES))
@settings(max_examples=100)
@given(case=polygon_cases(), seed=st.integers(0, 2**32 - 1))
def test_isometry(query, case, seed):
    V = family_polygon(*case)
    f = QUERIES[query]
    assert f(moved(V, seed)) == pytest.approx(f(V), rel=1e-8, abs=0.0)


@settings(max_examples=100)
@given(case=ODD_REGULAR, shift=st.integers(0, 63))
def test_regular_verdict_relabelled(case, shift):
    V = family_polygon(*case)
    verdict = check_ordinary_reduced(V).verdict
    assert [check_ordinary_reduced(W).verdict for W in relabelled(V, shift % V.n)] == [verdict] * 3


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the spread of a moved regular polygon rounds like eps cosh^2 D "
                          "against the absolute tolerance: 6.5e-8 on MOVED_VERDICT "
                          "(ROADMAP item 2)")
@settings(max_examples=100)
@example(case=MOVED_VERDICT, seed=4)
@given(case=ODD_REGULAR, seed=st.integers(0, 2**32 - 1))
def test_regular_verdict_moved(case, seed):
    V = family_polygon(*case)
    assert check_ordinary_reduced(moved(V, seed)).verdict == check_ordinary_reduced(V).verdict
