"""The beta(r) machinery, per-rhomb angles, diagonal test, and overlap oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonet import verify
from zonet.geom import polygons_interior_overlap
from zonet.unfold import Net, assemble_net, planar_zone
from zonet.verify import (
    beta_of_r,
    beta_profile,
    critical_radii,
    diagonal_perpendicular_test,
    flat_rhomb_check,
    max_beta,
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
            assert max_beta(zone) <= zone.alpha + 1e-9

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


class TestFlatRhomb:
    @pytest.mark.parametrize("theta_deg", [0.5, 1.0, 5.0, 50.0])
    def test_corner_angle_is_two_theta(self, theta_deg):
        theta = math.radians(theta_deg)
        fr = flat_rhomb_check(planar_zone(16, theta))
        assert fr.corner_angle == pytest.approx(2 * theta, abs=1e-10)

    @pytest.mark.parametrize("theta_deg", [0.5, 1.0, 5.0])
    def test_diagonals_are_exact(self, theta_deg):
        theta = math.radians(theta_deg)
        fr = flat_rhomb_check(planar_zone(12, theta))
        assert fr.axis_diagonal == pytest.approx(2 * math.cos(theta), abs=1e-10)
        assert fr.cross_diagonal == pytest.approx(2 * math.sin(theta), abs=1e-10)

    def test_lift_positive_but_chords_short_of_two(self):
        fr = flat_rhomb_check(planar_zone(16, math.radians(1.0)))
        assert fr.radial_lift > 0.0
        assert fr.max_chord < 2.0
        # frozen: the lift and worst chord at this parameter point
        assert fr.radial_lift == pytest.approx(3.328730e-2, rel=1e-5)
        assert fr.max_chord == pytest.approx(1.876447243, abs=1e-8)

    def test_theta_zero_chord_reaches_two(self):
        fr = flat_rhomb_check(planar_zone(16, 0.0))
        assert fr.chord_at_corner_radius == pytest.approx(2.0, abs=1e-9)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            flat_rhomb_check(planar_zone(9, math.radians(20)))


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
