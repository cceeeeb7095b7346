"""The beta(r) machinery, per-rhomb angles, diagonal test, and overlap oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonet import verify
from zonet.geom import polygons_interior_overlap
from zonet.unfold import Net, PlanarZone, assemble_net, planar_zone
from zonet.verify import (
    beta_of_r,
    beta_profile,
    critical_radii,
    diagonal_perpendicular_test,
    flat_rhomb_check,
    net_overlap_oracle,
    rhomb_subtended_angles,
    run_verification,
    sample_radii,
    zone_arcs,
)

DEG = math.degrees


class TestBetaOfR:
    def test_none_beyond_zone(self):
        zone = planar_zone(16, math.radians(20))
        far = max(math.hypot(*p) for quad in zone.corners for p in quad)
        assert beta_of_r(zone, far + 1.0) is None

    def test_small_radius_sees_the_pole_corner(self):
        # close to o, C(r) meets only R_1: the arc equals alpha
        zone = planar_zone(16, math.radians(20))
        assert beta_of_r(zone, 1e-4) == pytest.approx(zone.alpha, abs=1e-9)

    def test_profile_is_bounded_by_alpha(self):
        for n, theta_deg in ((16, 20.0), (24, 40.0), (8, 50.0), (5, 85.0)):
            zone = planar_zone(n, math.radians(theta_deg))
            assert max(b for _, b in beta_profile(zone)) <= zone.alpha + 1e-9

    def test_matches_dense_membership_sampling(self):
        """Event-driven arcs agree with brute-force point membership."""
        zone = planar_zone(10, math.radians(35))
        for r in (0.5, 1.7, 3.1):
            arcs = zone_arcs(zone, r)
            m = 20000
            inside = 0
            for i in range(m):
                a = 2 * math.pi * (i + 0.5) / m
                p = (r * math.cos(a), r * math.sin(a))
                if any(q.contains(p) for q in zone.rhombs):
                    inside += 1
            assert arcs.measure == pytest.approx(
                2 * math.pi * inside / m, abs=5 * 2 * math.pi / m
            )

    def test_sample_radii_cover_every_event_interval(self):
        zone = planar_zone(9, math.radians(25))
        events = critical_radii(zone)
        rs = sample_radii(zone)
        assert rs[0] < events[0]  # the interval (0, first event) is sampled
        for a, b in zip(events, events[1:]):
            assert any(a < r < b for r in rs)


class TestSubtendedAngles:
    def test_first_rhomb_subtends_alpha(self):
        for n, theta_deg in ((16, 20.0), (24, 40.0)):
            zone = planar_zone(n, math.radians(theta_deg))
            betas = rhomb_subtended_angles(zone)
            assert betas[0] == pytest.approx(zone.alpha, abs=1e-12)

    def test_strictly_below_alpha_beyond_r1(self):
        zone = planar_zone(16, math.radians(20))
        betas = rhomb_subtended_angles(zone)
        assert all(b < zone.alpha for b in betas[1:])

    def test_frozen_leading_values_16_20(self):
        betas = [DEG(b) for b in rhomb_subtended_angles(planar_zone(16, math.radians(20)))]
        assert betas[0] == pytest.approx(21.126976323, abs=1e-9)
        assert betas[1] == pytest.approx(21.075927274, abs=1e-9)
        assert betas[2] == pytest.approx(20.981594514, abs=1e-9)

    def test_valley_positions(self):
        # the profile dips to its minimum partway down the zone and rises again
        b16 = rhomb_subtended_angles(planar_zone(16, math.radians(20)))
        assert b16.index(min(b16)) + 1 == 12
        assert b16[12] > b16[11]
        b24 = rhomb_subtended_angles(planar_zone(24, math.radians(40)))
        assert b24.index(min(b24)) + 1 == 18
        assert b24[18] > b24[17]

    @given(st.integers(4, 24), st.floats(0.05, 1.4))
    @settings(max_examples=40, deadline=None)
    def test_matches_boundary_point_sampling(self, n, theta):
        """Covering arc of corner directions equals the arc over dense
        boundary points: the rhombs are convex so corners are extremal."""
        from zonet.geom import covering_arc_of_angles

        zone = planar_zone(n, theta)
        betas = rhomb_subtended_angles(zone)
        quad = zone.corners[min(2, n - 2)]
        pts = []
        m = 400
        for i in range(4):
            p, q = quad[i], quad[(i + 1) % 4]
            for j in range(m):
                t = j / m
                pts.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        sampled = covering_arc_of_angles(
            [math.atan2(y, x) for x, y in pts if math.hypot(x, y) > 1e-12]
        )
        assert sampled == pytest.approx(betas[min(2, n - 2)], abs=1e-6)


class TestDiagonalPerpendicular:
    def test_all_offsets_negative_at_16_20(self):
        offsets = diagonal_perpendicular_test(planar_zone(16, math.radians(20)))
        assert len(offsets) == 14
        assert all(off < 0.0 for off in offsets)

    def test_frozen_r2_offset_16_20(self):
        offsets = diagonal_perpendicular_test(planar_zone(16, math.radians(20)))
        assert offsets[0] == pytest.approx(-9.548488e-4, rel=1e-5)

    def test_r2_offset_scales_quadratically_in_theta(self):
        o1 = diagonal_perpendicular_test(planar_zone(16, math.radians(1.0)))[0]
        o2 = diagonal_perpendicular_test(planar_zone(16, math.radians(2.0)))[0]
        assert o2 / o1 == pytest.approx(4.0, rel=0.02)

    def test_r2_offset_at_one_degree(self):
        # the micron-scale displacement regime appears near theta = 1 degree
        off = diagonal_perpendicular_test(planar_zone(16, math.radians(1.0)))[0]
        assert -1e-5 < off < -1e-7

    def test_upper_half_offsets_vanish_as_theta_to_zero(self):
        zone = planar_zone(16, 1e-6)
        upper, _, _ = zone.half_split()
        offsets = diagonal_perpendicular_test(zone)
        # offsets list starts at the second rhomb
        for i in upper[1:]:
            assert abs(offsets[i - 1]) < 1e-6


def flat_rhomb(n, theta):
    zone = planar_zone(n, theta)
    return flat_rhomb_check(zone, beta_profile(zone))


class TestFlatRhomb:
    @pytest.mark.parametrize("theta_deg", [0.5, 1.0, 5.0, 50.0])
    def test_corner_angle_is_two_theta(self, theta_deg):
        theta = math.radians(theta_deg)
        fr = flat_rhomb(16, theta)
        assert fr.corner_angle == pytest.approx(2 * theta, abs=1e-10)

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("theta", [1e-4, 1e-6, 1e-8])
    def test_corner_angle_keeps_full_precision_at_tiny_theta(self, n, theta):
        """The measured corner resolves 2 theta to a few ulps of pi.  The
        flat_rhomb verdict here is not pinned: its fixed margins do not
        scale with theta."""
        assert abs(flat_rhomb(n, theta).corner_angle - 2 * theta) <= 1e-15

    @pytest.mark.parametrize("theta_deg", [0.5, 1.0, 5.0])
    def test_diagonals_are_exact(self, theta_deg):
        theta = math.radians(theta_deg)
        fr = flat_rhomb(12, theta)
        assert fr.axis_diagonal == pytest.approx(2 * math.cos(theta), abs=1e-10)
        assert fr.cross_diagonal == pytest.approx(2 * math.sin(theta), abs=1e-10)

    def test_lift_positive_but_chords_short_of_two(self):
        fr = flat_rhomb(16, math.radians(1.0))
        assert fr.radial_lift > 0.0
        assert fr.max_chord < 2.0
        # frozen: the lift and worst chord at this parameter point
        assert fr.radial_lift == pytest.approx(3.328730e-2, rel=1e-5)
        assert fr.max_chord == pytest.approx(1.876447243, abs=1e-8)

    def test_theta_zero_chord_reaches_two(self):
        fr = flat_rhomb(16, 0.0)
        assert fr.chord_at_corner_radius == pytest.approx(2.0, abs=1e-9)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            flat_rhomb(9, math.radians(20))


class TestOverlapOracle:
    @pytest.mark.parametrize(
        "n,theta_deg", [(8, 50.0), (16, 20.0), (16, 0.0), (5, 0.0), (4, 85.0)]
    )
    def test_true_nets_are_clean(self, n, theta_deg):
        assert net_overlap_oracle(assemble_net(n, math.radians(theta_deg))) == []

    @staticmethod
    def _misrotated_net():
        net = assemble_net(16, 0.0)
        zones = list(net.zones)
        zones[1] = zones[0].rotated(0.9 * net.alpha)
        return Net(net.n, net.theta, net.alpha, tuple(zones))

    @staticmethod
    def _translated_net():
        net = assemble_net(8, math.radians(50))
        zones = list(net.zones)
        shifted = tuple(
            tuple((x + 0.05, y) for x, y in quad) for quad in zones[2].corners
        )
        zones[2] = zones[2].__class__(zones[2].n, zones[2].theta, zones[2].alpha, shifted)
        return Net(net.n, net.theta, net.alpha, tuple(zones))

    def test_misrotated_zone_is_caught(self):
        """Fault injection: a zone rotated short of alpha must collide."""
        hits = net_overlap_oracle(self._misrotated_net())
        assert len(hits) >= 1
        assert any(0 in (a[0], b[0]) or 1 in (a[0], b[0]) for a, b in hits)

    def test_translated_zone_is_caught(self):
        assert len(net_overlap_oracle(self._translated_net())) >= 1

    def test_every_candidate_pair_matches_fraction_reference(self, monkeypatch):
        """The filtered predicate agrees with pure Fraction arithmetic on every
        pair the oracle asks about in the fault-injected nets."""
        from test_geom import reference_overlap

        for bad in (self._misrotated_net(), self._translated_net()):
            asked = []

            def recording(a, b):
                verdict = polygons_interior_overlap(a, b)
                asked.append((a, b, verdict))
                return verdict

            monkeypatch.setattr(verify, "polygons_interior_overlap", recording)
            hits = net_overlap_oracle(bad)
            assert sum(v for _, _, v in asked) == len(hits) >= 1
            for a, b, verdict in asked:
                assert verdict == reference_overlap(a, b)


class TestRunVerification:
    @pytest.mark.parametrize(
        "n,theta_deg",
        [(16, 20.0), (16, 0.0), (17, 0.0), (8, 50.0), (24, 40.0), (3, 0.5), (4, 85.0)],
    )
    def test_representative_cells_pass(self, n, theta_deg):
        rep = run_verification(n, math.radians(theta_deg))
        assert rep.passed, rep.failures()

    def test_theta_zero_runs_degenerate_checks(self):
        rep = run_verification(16, 0.0)
        assert "upper_half" in rep.checks
        assert "lower_half" in rep.checks
        assert "diagonals" in rep.skipped

    def test_positive_theta_runs_diagonal_check(self):
        rep = run_verification(16, math.radians(20))
        assert "diagonals" in rep.checks
        assert "upper_half" in rep.skipped

    def test_odd_n_skips_flat_rhomb(self):
        rep = run_verification(9, math.radians(30))
        assert "flat_rhomb" in rep.skipped

    def test_report_dict_round_trips(self):
        import json

        rep = run_verification(8, math.radians(50))
        doc = rep.as_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["pass"] is True



def _turn(p, angle, about=(0.0, 0.0)):
    c, s = math.cos(angle), math.sin(angle)
    x, y = p[0] - about[0], p[1] - about[1]
    return (about[0] + c * x - s * y, about[1] + s * x + c * y)


def _turn_rhomb(k, alpha_share):
    """Turn rhomb R_{k+1} about o by a share of alpha."""

    def edit(corners, alpha):
        corners[k] = [_turn(p, alpha_share * alpha) for p in corners[k]]

    return edit


def _spin_rhomb(k, angle):
    """Turn rhomb R_{k+1} about its own center."""

    def edit(corners, alpha):
        quad = corners[k]
        center = (sum(p[0] for p in quad) / 4, sum(p[1] for p in quad) / 4)
        corners[k] = [_turn(p, angle, center) for p in quad]

    return edit


def _move_corner(k, j, dx, dy):
    def edit(corners, alpha):
        x, y = corners[k][j]
        corners[k][j] = (x + dx, y + dy)

    return edit


def _turn_corner(k, j, angle):
    def edit(corners, alpha):
        corners[k][j] = _turn(corners[k][j], angle)

    return edit


def _drop_far_edge(k, dy):
    def edit(corners, alpha):
        tl, tr, br, bl = corners[k]
        corners[k] = [tl, tr, (br[0], br[1] - dy), (bl[0], bl[1] - dy)]

    return edit


class TestFaultInjection:
    """A geometric fault in the developed zone trips exactly the named check.

    ``run_verification`` reads its zone through ``verify.planar_zone``; the
    net for the overlap oracle is assembled from the true zone, so these
    faults leave ``net_overlap`` clean.
    """

    @pytest.mark.parametrize(
        "check,n,theta_deg,edit",
        [
            # R_3 turned about o by alpha/2: C(r)'s arc grows beyond alpha
            ("beta_le_alpha", 9, 30.0, _turn_rhomb(2, 0.5)),
            # R_1's corner on the left chain turned 1e-6 toward tr: beta_1 < alpha
            ("subtended", 9, 30.0, _turn_corner(0, 3, 1e-6)),
            # R_2 spun 0.02 rad: its diagonal's bisector passes above o
            ("diagonals", 9, 30.0, _spin_rhomb(1, -0.02)),
            # R_2's top-right corner pulled 1e-6 left: C(r) covers less than alpha
            ("upper_half", 9, 0.0, _move_corner(1, 1, -1e-6, 0.0)),
            # R_6 turned about o by 0.3 alpha: a lower-half arc exceeds alpha/2
            ("lower_half", 9, 0.0, _turn_rhomb(5, 0.3)),
            # the central rhomb's far edge dropped 1e-6: its corner is not 2 theta
            ("flat_rhomb", 16, 20.0, _drop_far_edge(7, 1e-6)),
        ],
    )
    def test_fault_trips_only_its_check(self, monkeypatch, check, n, theta_deg, edit):
        theta = math.radians(theta_deg)
        zone = planar_zone(n, theta)
        corners = [list(quad) for quad in zone.corners]
        edit(corners, zone.alpha)
        bad = PlanarZone(n, theta, zone.alpha, tuple(tuple(q) for q in corners))
        monkeypatch.setattr(verify, "planar_zone", lambda *_: bad)
        rep = run_verification(n, theta)
        assert rep.failures() == [check]
