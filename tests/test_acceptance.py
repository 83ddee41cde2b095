"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is seeded and runs without network access.
"""

import math

import numpy as np
import pytest

from hypwidth.corpus import perturbed_polygon
from hypwidth.extremal import circumdisk, ratio_scan
from hypwidth.hcore import (ULTRAPARALLEL, angle_at, dist_pp, line_relation,
                            signed_dist)
from hypwidth.polygon import perimeter, side_line, side_lengths
from hypwidth.polyio import scan_rows_to_csv
from hypwidth.reduced import (check_ordinary_reduced, diameter_bound,
                              perimeter_halving, regular_ngon,
                              regular_ngon_with_thickness,
                              solve_ordinary_reduced)
from hypwidth.width import (diameter, diameter_via_width, pencil_line,
                            thickness, width_line, width_ultraparallel_oracle)
from polygon_families import (clip_vertex_cap, nested_pair, random_convex_polygon,
                              random_nonequilateral_triangle)
from test_acceptance_oracles import dense_thickness, oracle_circumdisk

PENTAGON_DELTAS = (0.5, 1.0, 1.6, 2.2)
HEPTAGON_DELTAS = (0.8, 1.2)


@pytest.fixture(scope="session")
def random_corpus():
    rng = np.random.default_rng(20240801)
    return [random_convex_polygon(rng, int(rng.integers(3, 10)))
            for _ in range(200)]


@pytest.fixture(scope="session")
def regular_corpus():
    return [(f"regular-n{n}-R{R:g}", regular_ngon(n, R))
            for n in (3, 5, 7, 9, 15) for R in (0.25, 1.0, 3.0)]


def _solve_nonregular(n, delta, rng):
    reg = regular_ngon_with_thickness(n, delta)
    for _ in range(25):
        S = solve_ordinary_reduced(perturbed_polygon(reg, rng, 0.05, 0.03), delta)
        lengths = side_lengths(S)
        if max(lengths) - min(lengths) > 1e-4:
            return S
    raise AssertionError("could not draw a non-regular family member")


@pytest.fixture(scope="session")
def solved_corpus():
    rng = np.random.default_rng(424242)
    polys = []
    for delta in PENTAGON_DELTAS:
        for k in range(4):
            polys.append((f"solved-n5-d{delta:g}-{k}", _solve_nonregular(5, delta, rng)))
    for delta in HEPTAGON_DELTAS:
        for k in range(2):
            polys.append((f"solved-n7-d{delta:g}-{k}", _solve_nonregular(7, delta, rng)))
    assert len(polys) >= 20
    return polys


@pytest.fixture(scope="session")
def reduced_corpus(regular_corpus, solved_corpus):
    return regular_corpus + solved_corpus


def test_criterion_01_width_oracle_equivalence(random_corpus):
    worst = 0.0
    for V in random_corpus:
        for j in range(V.n):
            L = side_line(V, j)
            gap = abs(width_ultraparallel_oracle(V, L) - width_line(V, L).width)
            worst = max(worst, gap)
    assert worst <= 1e-7
    print(f"\n[PASS] width by farthest ultraparallel supporting line equals "
          f"max vertex distance on 200 polygons x all sides (worst {worst:.2e} <= 1e-7)")


def test_criterion_02_max_width_equals_diameter(random_corpus):
    worst = 0.0
    for V in random_corpus:
        worst = max(worst, abs(diameter_via_width(V) - diameter(V)[0]))
    assert worst <= 1e-8
    print(f"\n[PASS] max width over supporting lines equals diameter on 200 "
          f"polygons (worst {worst:.2e} <= 1e-8)")


def test_criterion_03_regular_odd_gons_are_reduced(regular_corpus):
    for name, V in regular_corpus:
        rep = check_ordinary_reduced(V, tol=1e-9)
        assert rep.verdict, f"{name}: spread {rep.max_distance_spread:.2e}"
    print(f"\n[PASS] all {len(regular_corpus)} regular odd-gons "
          f"(n in 3,5,7,9,15; R in 0.25,1,3) satisfy the criterion at tol 1e-9")


def test_criterion_04_nonequilateral_triangles_not_reduced():
    rng = np.random.default_rng(1357)
    worst = 0.0
    for _ in range(50):
        T = random_nonequilateral_triangle(rng)
        assert not check_ordinary_reduced(T).verdict
        altitudes = [abs(signed_dist(T.vertex(i), side_line(T, (i + 1) % 3)))
                     for i in range(3)]
        z = int(np.argmax(altitudes))
        Q = clip_vertex_cap(T, z, 1e-3)
        assert Q.n == 4
        gap = abs(thickness(Q).thickness - thickness(T).thickness)
        worst = max(worst, gap)
    assert worst <= 1e-6
    print(f"\n[PASS] 50 non-equilateral triangles fail the criterion and a cap "
          f"cut at the taller-altitude vertex keeps thickness (worst gap "
          f"{worst:.2e} <= 1e-6)")


def test_criterion_05_widths_minimal_exactly_on_sides(reduced_corpus):
    interior = np.linspace(0.0, 1.0, 66)[1:-1]
    worst_side = 0.0
    worst_margin = math.inf
    for name, V in reduced_corpus:
        rep = check_ordinary_reduced(V, tol=1e-8)
        assert rep.verdict, name
        t = thickness(V)
        assert abs(rep.mean_distance - t.thickness) <= 1e-9, name
        for j in range(V.n):
            worst_side = max(worst_side, abs(width_line(V, side_line(V, j)).width
                                             - t.thickness))
        for i in range(V.n):
            for s in interior:
                w = width_line(V, pencil_line(V, i, float(s))).width
                worst_margin = min(worst_margin, w - t.thickness)
    assert worst_side <= 1e-8
    assert worst_margin > 1e-10
    print(f"\n[PASS] on {len(reduced_corpus)} ordinary reduced polygons every "
          f"side width equals the thickness (worst {worst_side:.2e} <= 1e-8) and "
          f"all 64 pencil-interior lines per vertex exceed it "
          f"(min margin {worst_margin:.2e} > 1e-10)")


def test_criterion_06_halving_chords_and_angles(solved_corpus):
    ultraparallel_seen = 0
    intersecting_seen = 0
    for name, V in solved_corpus:
        n, half = V.n, (V.n - 1) // 2
        rep = perimeter_halving(V)
        for r in rep.records:
            assert abs(r.chord_left - r.chord_right) <= 1e-8, name
            assert abs(r.half_perimeter_gap) <= 1e-8, name
            assert r.beta < r.alpha, name
        for i in range(n):
            rel = line_relation(side_line(V, (i + half) % n), side_line(V, i))
            if rel.kind == ULTRAPARALLEL:
                ultraparallel_seen += 1
            elif rel.kind == "intersecting":
                intersecting_seen += 1
    assert ultraparallel_seen >= 1
    tri = perimeter_halving(regular_ngon(3, 1.0))
    for r in tri.records:
        assert abs(r.beta - r.alpha) <= 1e-9
    print(f"\n[PASS] {len(solved_corpus)} solved non-regular odd-gons: boundary "
          f"chords equal (1e-8), vertex-to-foot segments halve the perimeter "
          f"(1e-8), beta < alpha strictly; regular triangle beta = alpha (1e-9); "
          f"line pairs ultraparallel in {ultraparallel_seen} and intersecting in "
          f"{intersecting_seen} instances, both proof branches exercised")


def test_criterion_07_diameter_bound_and_right_triangle(reduced_corpus):
    worst_sum = worst_pyth = 0.0
    for name, V in reduced_corpus:
        d, (i, j) = diameter(V)
        t = thickness(V).thickness
        assert d < diameter_bound(t), name

        n, half = V.n, (V.n - 1) // 2
        # anchor so that the far endpoint is k + (n+1)/2
        if (j - i) % n == half + 1:
            k, far = i, j
        else:
            k, far = j, i
        assert (far - k) % n == half + 1, name
        rep = check_ordinary_reduced(V)
        p_k = rep.records[k].foot
        halv = perimeter_halving(V)
        alpha, beta = halv.records[k].alpha, halv.records[k].beta
        gamma = angle_at(p_k, V.vertex(far), V.vertex(k))
        worst_sum = max(worst_sum, abs(gamma - (alpha + beta)))
        assert beta < math.pi / 6.0, name
        leg = dist_pp(V.vertex(k), p_k)
        r_i = dist_pp(p_k, V.vertex(far))
        s_i = dist_pp(V.vertex(k), V.vertex(far))
        worst_pyth = max(worst_pyth,
                         abs(math.cosh(s_i) - math.cosh(r_i) * math.cosh(leg)))
    assert worst_sum <= 1e-8
    assert worst_pyth <= 1e-8
    print(f"\n[PASS] diameter < arccosh(cosh(t)*sqrt(1+sinh^2(t)/3)) on all "
          f"{len(reduced_corpus)} corpus polygons; at the diameter pair "
          f"gamma = alpha + beta (worst {worst_sum:.2e}), beta < pi/6, and "
          f"cosh s = cosh r cosh t (worst {worst_pyth:.2e}), all <= 1e-8")


def test_criterion_08_diameter_pair_index_gap(reduced_corpus):
    for name, V in reduced_corpus:
        _, (i, j) = diameter(V)
        gap = (j - i) % V.n
        allowed = ((V.n - 1) // 2, (V.n + 1) // 2)
        assert gap in allowed, f"{name}: gap {gap} not in {allowed}"
    print(f"\n[PASS] diameter-witnessing vertex pairs differ by (n-1)/2 or "
          f"(n+1)/2 on all {len(reduced_corpus)} corpus polygons")


def test_criterion_09_ratio_trends(tmp_path):
    rows_delta = ratio_scan([3], [1.0, 2.0, 4.0, 7.0, 10.0])
    ratios_delta = [r.ratio for r in rows_delta]
    assert all(1.0 < r < 2.0 for r in ratios_delta)
    assert all(a < b for a, b in zip(ratios_delta, ratios_delta[1:]))

    rows_n = ratio_scan([3, 9, 25, 51, 99], [1.0])
    ratios_n = [r.ratio for r in rows_n]
    assert all(1.0 < r < 2.0 for r in ratios_n)
    assert all(a > b for a, b in zip(ratios_n, ratios_n[1:]))
    assert ratios_n[-1] < ratios_n[0]
    assert abs(ratios_n[-1] - 1.0) <= 0.05

    csv_path = tmp_path / "ratio_scan.csv"
    csv_path.write_text(scan_rows_to_csv(rows_delta + rows_n))
    print(f"\n[PASS] diameter/thickness ratios: strictly increasing in thickness "
          f"for triangles ({ratios_delta[0]:.4f} -> {ratios_delta[-1]:.4f} at "
          f"thickness 10, trend target toward 2), strictly decreasing in n at "
          f"thickness 1 ({ratios_n[0]:.4f} -> {ratios_n[-1]:.6f} at n=99, within "
          f"0.05 of 1), all inside (1, 2); grid recorded at {csv_path}")


def test_criterion_10_nested_perimeter_monotone():
    rng = np.random.default_rng(2468)
    for _ in range(200):
        U, W = nested_pair(rng)
        assert perimeter(U) < perimeter(W)
    print("\n[PASS] 200 seeded nested convex polygon pairs satisfy "
          "perimeter(U) < perimeter(W)")


def test_criterion_11_oracle_equivalences(random_corpus):
    worst_thick = 0.0
    for V in random_corpus[:20]:
        worst_thick = max(worst_thick,
                          abs(thickness(V).thickness - dense_thickness(V)))
    assert worst_thick <= 1e-5
    worst_disk = 0.0
    for V in random_corpus[:50]:
        worst_disk = max(worst_disk, abs(circumdisk(V)[1] - oracle_circumdisk(V)))
    assert worst_disk <= 1e-8
    print(f"\n[PASS] thickness matches the 10^4-line dense-sampling oracle on 20 "
          f"polygons (worst {worst_thick:.2e} <= 1e-5); smallest enclosing disk "
          f"matches the pair/triple oracle on 50 polygons (worst "
          f"{worst_disk:.2e} <= 1e-8)")
