"""Acceptance gate: the pinned claims this library must reproduce.

Each test covers one numbered criterion and emits a single pass/fail line.
Tolerances are pinned here on purpose; loosening them requires revisiting the
analysis notes, not editing this file casually.

Criterion 6 is split: the sign claim (6a) holds, while the pinned magnitude
window (6b) is measurably unsatisfiable at these parameters and is kept as an
honest failure — see the decisions ledger kept alongside the project notes.
"""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from zonet import crescent as cr
from zonet.cli import DEFAULT_THETAS, _sweep_cell, main, parse_theta
from zonet.unfold import Net, PlanarZone, assemble_net, planar_zone
from zonet.verify import (
    beta_of_r,
    beta_profile,
    diagonal_perpendicular_test,
    flat_rhomb_check,
    net_overlap_oracle,
    rhomb_subtended_angles,
)
from zonet.zonohedron import Params, build


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def test_01_alpha_anchors():
    """Pole rhomb angle at four pinned parameter points."""
    a16 = math.degrees(planar_zone(16, 0.0).alpha)
    a17 = math.degrees(planar_zone(17, 0.0).alpha)
    a20 = math.degrees(Params(20, 0.5).alpha)
    a24 = math.degrees(Params(24, math.radians(40)).alpha)
    assert a16 == pytest.approx(22.5, abs=1e-12)
    assert a17 == pytest.approx(21.176, abs=0.01)
    assert a20 == pytest.approx(15.8, abs=0.05)
    assert a24 == pytest.approx(11.48, abs=0.01)
    report(
        f"1 alpha anchors: pass "
        f"({a16:.4f}, {a17:.4f}, {a20:.4f}, {a24:.4f} deg)"
    )


def test_02_full_grid_beta_bound_and_overlap_oracle():
    """Every grid cell passes every verify check: max beta(r) <= alpha + 1e-9,
    zero overlapping pairs, and the subtended, diagonal or half-zone, and
    central-rhomb checks."""
    thetas = DEFAULT_THETAS.split(",")
    failures = []
    worst_margin = math.inf
    for n in range(3, 33):
        for t in thetas:
            row = _sweep_cell((n, t))
            worst_margin = min(worst_margin, float(row[4]))
            if row[-1] != "pass":
                failures.append((n, t, row))
    assert not failures, failures
    report(
        f"2 full-grid sweep (480 cells): pass "
        f"(worst alpha - max beta = {worst_margin:.3e} rad, every verify check passes)"
    )


def _theta_zero_bands(n):
    zone = planar_zone(n, 0.0)
    upper, lower, flat = zone.half_split()
    ranges = zone.radius_ranges
    flat_t = () if flat is None else (flat,)
    r_upper_only = min(ranges[i][0] for i in (*lower, *flat_t))
    r_transition = max(
        math.hypot(*p) for i in (*upper, *flat_t) for p in zone.corners[i]
    )
    r_max = max(math.hypot(*p) for i in lower for p in zone.corners[i])
    return zone, lower, r_upper_only, r_transition, r_max


def test_03_theta_zero_upper_half_exact_alpha():
    """Circles meeting only the upper half subtend exactly alpha."""
    worst = 0.0
    for n in range(4, 33):
        zone, _, r_hi, _, _ = _theta_zero_bands(n)
        lo, hi = 1e-6, r_hi - 1e-8
        for i in range(200):
            r = lo + (hi - lo) * (i + 0.5) / 200
            b = beta_of_r(zone, r)
            assert b is not None
            worst = max(worst, abs(b - zone.alpha))
    assert worst < 1e-9
    report(f"3 theta=0 upper half: pass (max |beta - alpha| = {worst:.3e} rad)")


def test_04_theta_zero_lower_half_below_half_alpha():
    """Circles meeting only the lower half stay strictly under alpha/2."""
    worst = -math.inf
    for n in range(4, 33):
        zone, lower, _, r_lo, r_hi = _theta_zero_bands(n)
        lower_zone = PlanarZone(n, 0.0, zone.alpha, tuple(zone.corners[i] for i in lower))
        w = r_hi - r_lo
        count = 0
        for i in range(200):
            r = (r_lo + 1e-4 * w) + (w - 2e-4 * w) * (i + 0.5) / 200
            b = beta_of_r(lower_zone, r)
            if b is None:
                continue
            count += 1
            worst = max(worst, b - (zone.alpha / 2.0 - 1e-12))
            assert b < zone.alpha / 2.0 - 1e-12, (n, r, b, zone.alpha / 2.0)
        assert count >= 150, (n, count)
    report(f"4 theta=0 lower half: pass (worst beta - (alpha/2 - 1e-12) = {worst:.3e})")


def test_05_flat_rhomb_angle_and_chord_bound():
    """Central rhomb: corner angle 2*theta; covering chords short of 2."""
    for n in range(4, 33, 2):
        for theta_deg in (0.5, 1.0, 5.0):
            theta = math.radians(theta_deg)
            zone = planar_zone(n, theta)
            fr = flat_rhomb_check(zone, beta_profile(zone))
            assert abs(fr.corner_angle - 2.0 * theta) < 1e-10, (n, theta_deg)
            assert fr.max_chord < 2.0 - 1e-12, (n, theta_deg, fr.max_chord)
        zone0 = planar_zone(n, 0.0)
        fr0 = flat_rhomb_check(zone0, beta_profile(zone0))
        assert abs(fr0.chord_at_corner_radius - 2.0) <= 1e-9, (n, fr0)
    report("5 flat rhomb: pass (corner = 2 theta, chords < 2; = 2 at theta = 0)")


def test_06a_diagonal_offsets_all_negative():
    """(16, 20 deg): both diagonals' bisectors pass below o in every rhomb beyond R_1."""
    offsets = diagonal_perpendicular_test(planar_zone(16, math.radians(20)))
    assert len(offsets) == 14
    assert all(off < 0.0 for off in offsets)
    report(f"6a diagonal offsets negative: pass (largest = {max(offsets):.3e})")


def test_06b_r2_offset_magnitude_window():
    """(16, 20 deg): pinned claim that |R_2 offset| lies in (1e-7, 1e-5).

    Honest failure: the measured offset at theta = 20 deg is ~9.5e-4 in every
    admissible frame (the perpendicular distance from o to the bisector, which
    is frame-independent, is already 8.9e-4).  The offset scales as theta^2 and
    enters the (1e-7, 1e-5) window only near theta = 1 deg, where it measures
    -2.7e-6.  The window as pinned at 20 deg cannot be satisfied; see the
    decisions ledger for the full analysis.
    """
    off = diagonal_perpendicular_test(planar_zone(16, math.radians(20)))[0]
    line = (
        f"6b R_2 offset magnitude in (1e-7, 1e-5): FAIL "
        f"(measured {off:.6e}; window is reached near theta = 1 deg, "
        f"where the offset is -2.701e-6)"
    )
    report(line)
    assert 1e-7 < abs(off) < 1e-5, line


def test_07_subtended_profile_and_upticks():
    """beta_1 = alpha exactly, beta_i < alpha beyond, upticks at R_12 / R_18."""
    for n, theta_deg, valley in ((16, 20.0, 12), (24, 40.0, 18)):
        zone = planar_zone(n, math.radians(theta_deg))
        betas = rhomb_subtended_angles(zone)
        assert abs(betas[0] - zone.alpha) < 1e-12
        assert all(b < zone.alpha for b in betas[1:])
        # the profile bottoms out at the stated rhomb and rises after it
        assert betas.index(min(betas)) + 1 == valley
        assert betas[valley] > betas[valley - 1]
    report("7 subtended profile: pass (beta_1 = alpha; upticks at R_12 and R_18)")


def test_08_crescent_closed_form_and_ratio():
    """Closed form vs geometric oracle; constant arc; ratio bounds and limit."""
    worst_eq = 0.0
    for i in range(60):
        L = 0.01 * (math.sqrt(3.0) / 0.01) ** (i / 59)
        n = cr.n_from_side(L)
        worst_eq = max(
            worst_eq, abs(cr.beta_from_side(L) - cr.crescent_beta_geometric(n))
        )
    assert worst_eq < 1e-9

    worst_const = max(cr.constancy_deviation(n, radii=50) for n in (3.0, 8.0, 50.0))
    assert worst_const < 1e-9

    # n = 3 sits exactly at the ratio's supremum of 1/2 (the float value
    # rounds a hair below); every larger n is strictly below
    ns = [3.0] + [3.0 * (1e4 / 3.0) ** (i / 99) for i in range(1, 100)]
    ratios = [cr.beta_alpha_ratio(n) for n in ns]
    assert all(r < 0.5 for r in ratios)
    assert abs(cr.beta_alpha_ratio(3.0) - 0.5) < 1e-14

    tail = cr.beta_alpha_ratio(1e4)
    assert abs(tail - 1.0 / 3.0) < 1e-3
    report(
        f"8 crescent: pass (eq-vs-oracle {worst_eq:.1e}, constancy {worst_const:.1e}, "
        f"ratio < 1/2, tail {tail:.9f})"
    )


def test_09_structural_counts_and_cube():
    """Face/vertex/edge counts for n in 3..12, cross-checked against the hull."""
    for n in range(3, 13):
        z = build(Params(n, math.radians(30)))
        assert len(z.faces) == n * (n - 1)
        assert len(z.vertices) == n * (n - 1) + 2
        assert len(z.edge_set()) == 2 * n * (n - 1)
        hull = ConvexHull(z.vertices)
        assert len(hull.vertices) == len(z.vertices)
        # hull facet area equals the n(n-1) unit rhombs' total area
        rhomb_area = sum(
            float(
                np.linalg.norm(
                    np.cross(
                        z.vertices[f.vertex_ids[1]] - z.vertices[f.vertex_ids[0]],
                        z.vertices[f.vertex_ids[3]] - z.vertices[f.vertex_ids[0]],
                    )
                )
            )
            for f in z.faces
        )
        assert hull.area == pytest.approx(rhomb_area, rel=1e-9)
    z3 = build(Params(3, math.radians(30)))
    assert (len(z3.vertices), len(z3.faces), len(z3.edge_set())) == (8, 6, 12)
    report("9 structural counts: pass (n = 3..12 match, hull agrees, n = 3 is a cube)")


def test_10_fault_injection_misrotated_zone():
    """A zone rotated by 0.9*alpha must trip the overlap oracle."""
    net = assemble_net(16, 0.0)
    zones = list(net.zones)
    zones[1] = zones[0].rotated(0.9 * net.alpha)
    bad = Net(net.n, net.theta, net.alpha, tuple(zones))
    hits = net_overlap_oracle(bad)
    assert len(hits) >= 1
    report(f"10 fault injection: pass ({len(hits)} overlapping pairs detected)")


def test_11_sweep_determinism_across_jobs(tmp_path):
    """Sweep CSV is byte-identical at --jobs 1 and --jobs 8."""
    a, b = tmp_path / "j1.csv", tmp_path / "j8.csv"
    grid = ["--n-min", "3", "--n-max", "10", "--thetas", "0,0.5,1,20,50,85"]
    assert main(["sweep", *grid, "--jobs", "1", "--csv", str(a)]) == 0
    assert main(["sweep", *grid, "--jobs", "8", "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report("11 determinism: pass (48-cell sweep byte-identical at --jobs 1 vs 8)")
