"""The beta(r) machinery, per-rhomb angles, diagonal test, and overlap oracle."""

import dataclasses
import math

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_oracle
from test_geom import _reference_contains

from zonet import verify
from zonet.cli import DEFAULT_THETAS, parse_theta
from zonet.geom import circle_quad_arcs, polygons_interior_overlap
from zonet.unfold import Net, PlanarZone, assemble_net, planar_zone
from zonet.verify import (
    Limit,
    beta_of_r,
    beta_profile,
    critical_radii,
    diagonal_perpendicular_test,
    flat_rhomb_check,
    kernel_radii,
    net_overlap_oracle,
    orbit_overlap_oracle,
    rhomb_subtended_angles,
    run_verification,
    sample_radii,
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
            assert max(lim.beta for lim in beta_profile(zone)) <= zone.alpha + 1e-9

    def test_matches_dense_membership_sampling(self):
        """beta(r) is the span of the in-zone directions that brute-force
        point membership finds, to within a sampling step at either end."""
        zone = planar_zone(10, math.radians(35))
        m = 20000
        for r in (0.5, 1.7, 3.1):
            inside = []
            for i in range(m):
                a = 2 * math.pi * (i + 0.5) / m
                p = (r * math.cos(a), r * math.sin(a))
                # the developed rhombs run clockwise: reversed, they run CCW
                if any(_reference_contains(q[::-1], p) for q in zone.corners):
                    inside.append(a)
            assert beta_of_r(zone, r) == pytest.approx(
                max(inside) - min(inside), abs=2 * 2 * math.pi / m
            )

    def test_sample_radii_cover_every_event_interval(self):
        """Each event interval, (0, first event) included, gets exactly one
        kernel radius strictly inside it, and the profile takes both
        one-sided limits at every event but the last, where C(r) leaves the
        zone."""
        zone = planar_zone(9, math.radians(25))
        events = critical_radii(zone)
        rs = kernel_radii(events)
        for a, b in zip([0.0, *events], events):
            assert sum(a < r < b for r in rs) == 1
        assert len(rs) == len(events)
        assert sample_radii(zone) == sorted(events * 2)[:-1]
        profile = beta_profile(zone)
        assert [lim.r for lim in profile] == sample_radii(zone)
        assert [(lim.lo, lim.hi) for lim in profile] == [
            (a, b) for a, b in zip([0.0, *events], events) for r in (a, b) if r > 0.0
        ]


class TestZoneBelowPole:
    """The premise of beta as a span: the zone lies below o, so every arc of
    C(r) inside it lies in the directions [pi, 2 pi]."""

    @given(
        st.integers(3, 64),
        st.one_of(st.just(0.0), st.floats(1e-12, math.radians(89.9999))),
        st.one_of(st.floats(1e-9, 1.05), st.integers(0, 10**6)),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_arc_lies_in_the_lower_half_plane(self, n, theta, pick):
        """Every corner has y <= 0, with y = 0 only at o and (1, 0), the
        ends of R_1's pole-side edge; every arc is within [pi, 2 pi].  The
        radius is a share of the zone's farthest corner distance (a float
        pick) or an event or kernel radius (an integer pick)."""
        zone = planar_zone(n, theta)
        for k, quad in enumerate(zone.corners):
            for j, (_, y) in enumerate(quad):
                assert y < 0.0 or (y == 0.0 and k == 0 and j < 2), (k, j, y)
        if isinstance(pick, int):
            events = critical_radii(zone)
            radii = sorted(events + kernel_radii(events))
            r = radii[pick % len(radii)]
        else:
            r = pick * max(radius for _, radius in zone.radius_ranges)
        for table in zone.circle_tables:
            for start, end, *_ in circle_quad_arcs(r, table):
                assert math.pi <= start < end <= 2.0 * math.pi, (r, start, end)


def span(arcs):
    """From the first start to the last end of ``arcs``, None for no arcs:
    beta, since every arc of C(r) in a zone lies in the directions [pi, 2 pi]."""
    return max(a[1] for a in arcs) - min(a[0] for a in arcs) if arcs else None


def arcs_over_every_rhomb(zone, r):
    """The arcs of C(r) inside the zone, from every rhomb's ``circle_table``
    with no radius-range filter."""
    return [a for table in zone.circle_tables for a in circle_quad_arcs(r, table)]


def reference_betas(zone, radii):
    """beta at ``radii`` with the arcs of each radius collected as before the
    per-quad edge tables: every rhomb is re-tested against its radius range
    and clipped by the uncached reference kernel, and every arc is spanned."""
    from test_geom import reference_circle_quad_arcs

    out = []
    for r in radii:
        pieces = []
        for (dmin, dmax), quad in zip(zone.radius_ranges, zone.corners):
            if dmin - 1e-12 <= r <= dmax + 1e-12:
                pieces.extend(reference_circle_quad_arcs((0.0, 0.0), r, quad))
        out.append(span(pieces))
    return out


def event_and_kernel_radii(zone):
    events = critical_radii(zone)
    return sorted(events + kernel_radii(events))


def sub_zone(zone, idx):
    """The zone cut down to the rhombs ``idx``: its profile is the profile of
    C(r) against those rhombs alone."""
    return PlanarZone(zone.n, zone.theta, zone.alpha, tuple(zone.corners[i] for i in idx))


class TestProfileMatchesReference:
    """The per-quad edge tables and the fold that skips arcs within the span
    so far give the bits of the uncached reference kernel's span, at the
    kernel radii the profile runs at and at the events."""

    @pytest.mark.parametrize("n", range(3, 17))
    def test_profiles_are_bit_identical(self, n):
        for theta_deg in (*(float(t) for t in DEFAULT_THETAS.split(",")), 37.3):
            zone = planar_zone(n, math.radians(theta_deg))
            radii = event_and_kernel_radii(zone)
            assert [beta_of_r(zone, r) for r in radii] == reference_betas(zone, radii), theta_deg


class TestExactRangeFilter:
    """Choosing the rhombs C(r) can meet by their exact [min, max] distance
    from o drops no arc: at a radius at an end of a rhomb's range, C(r)
    only touches the rhomb, and a touch gives no arc."""

    @pytest.mark.parametrize(
        "theta", (*DEFAULT_THETAS.split(","), "37.3", "1e-6rad", "1e-12rad")
    )
    def test_beta_equals_beta_over_every_rhomb(self, theta):
        for n in range(3, 33):
            zone = planar_zone(n, parse_theta(theta))
            radii = event_and_kernel_radii(zone)
            expected = [span(arcs_over_every_rhomb(zone, r)) for r in radii]
            assert [beta_of_r(zone, r) for r in radii] == expected, n


class TestOneProfilePerCell:
    @pytest.mark.parametrize("n", (*range(3, 33), 64))
    def test_half_windows_match_the_half_profiles(self, n):
        """The theta = 0 half checks, read off the one profile, give the
        margins of the profiles of the upper and the lower half alone: the
        upper half's limits on the intervals below r_only_upper, the lower
        half's limits above r_transition."""
        zone = planar_zone(n, 0.0)
        alpha = zone.alpha
        upper, lower, flat = zone.half_split()
        flat_t = () if flat is None else (flat,)
        r_only_upper = min(zone.radius_ranges[i][0] for i in (*lower, *flat_t))
        r_transition = max(math.hypot(*p) for i in (*upper, *flat_t) for p in zone.corners[i])
        udev = max(
            abs(lim.beta - alpha)
            for lim in beta_profile(sub_zone(zone, upper))
            if lim.hi <= r_only_upper
        )
        lmargin = min(
            alpha / 2.0 - lim.beta
            for lim in beta_profile(sub_zone(zone, lower))
            if lim.r > r_transition
        )
        checks = run_verification(n, 0.0, check_overlap=False).checks
        assert checks["upper_half"].margin == verify.BETA_TOL - udev
        assert checks["lower_half"].margin == lmargin - verify.STRICT_MARGIN

    @pytest.mark.parametrize("theta", (0.0, math.radians(20.0)))
    @pytest.mark.parametrize("n", (9, 16))
    def test_profile_runs_once(self, monkeypatch, n, theta):
        calls = []
        real = verify.beta_profile
        monkeypatch.setattr(verify, "beta_profile", lambda zone: calls.append(1) or real(zone))
        run_verification(n, theta, check_overlap=False)
        assert len(calls) == 1


def dense_profile(zone, per_interval=9):
    """beta by the kernel at ``per_interval`` evenly spread radii inside
    every event interval, (0, first event) included, each as a ``Limit`` on
    its interval: an independent reference for the claim that beta is
    monotone between events."""
    events = critical_radii(zone)
    out = []
    for a, b in zip([0.0, *events], events):
        for j in range(1, per_interval + 1):
            r = a + (b - a) * j / (per_interval + 1)
            if (beta := beta_of_r(zone, r)) is not None:
                out.append(Limit(r, beta, a, b))
    return out


class TestEventOnlyProfile:
    """Interior radii never raise max beta or the central-rhomb chord above
    what the one-sided limits at the events give.  Angles live in [0, 2 pi),
    so the unit of float noise in beta is an ulp of 2 pi, not of alpha: the
    largest measured excess is one such ulp, which at small alpha is 64
    ulps of alpha.

    theta starts at 1e-6 deg.  Near 1e-10 deg two events lie 3.5e-12 apart,
    and an interior radius there meets a near-tangent edge within
    CONTAIN_TOL, which widens the kernel's arc by about sqrt(2 *
    CONTAIN_TOL)."""

    @given(st.integers(3, 20), st.one_of(st.just(0.0), st.floats(1e-6, 89.5)))
    @settings(max_examples=60, deadline=None)
    def test_dense_sampling_finds_nothing_above_the_events(self, n, theta_deg):
        zone = planar_zone(n, math.radians(theta_deg))
        limits, dense = beta_profile(zone), dense_profile(zone)
        excess = max(lim.beta for lim in dense) - max(lim.beta for lim in limits)
        assert excess <= 4.0 * math.ulp(2.0 * math.pi)
        if n % 2 == 0:
            assert flat_rhomb_check(zone, dense).max_chord <= flat_rhomb_check(zone, limits).max_chord

    @given(st.integers(3, 64), st.one_of(st.just(0.0), st.floats(1e-6, 89.5)))
    @settings(max_examples=60, deadline=None)
    def test_the_events_need_no_sample(self, n, theta_deg):
        """The kernel's beta at an event is at most the larger one-sided
        limit there, so the profile can drop the sample at e itself."""
        zone = planar_zone(n, math.radians(theta_deg))
        limits = {}
        for lim in beta_profile(zone):
            limits.setdefault(lim.r, []).append(lim.beta)
        for e, sides in limits.items():
            at_e = beta_of_r(zone, e)
            assert at_e is None or at_e <= max(sides) + 4.0 * math.ulp(2.0 * math.pi), e


def eps_sampled_max_beta(zone, eps=1e-9):
    """max beta over every event e and e -+ eps: the profile as it was
    sampled before it took one-sided limits."""
    radii = sorted({r for e in critical_radii(zone) for r in (e - eps, e, e + eps) if r > 0.0})
    return max(arc[1] - arc[0] for arc in verify._covering_arcs(zone, radii) if arc is not None)


class TestLimitsReplaceNeighbourSamples:
    @pytest.mark.parametrize("theta", DEFAULT_THETAS.split(","))
    def test_max_beta_is_within_the_step_of_the_neighbour_samples(self, theta):
        """Where events lie far apart, e -+ 1e-9 sits within 1e-9 of the
        limits, and beta varies by about as much over that step."""
        for n in range(3, 65):
            zone = planar_zone(n, math.radians(float(theta)))
            limits = max(lim.beta for lim in beta_profile(zone))
            assert abs(limits - eps_sampled_max_beta(zone)) <= 1e-9, n

    @pytest.mark.parametrize("n,theta_deg", [(256, 1.0), (512, 20.0)])
    def test_intervals_narrower_than_the_old_step_get_both_limits(self, n, theta_deg):
        """These zones hold event intervals narrower than 2e-9, which the
        samples e -+ 1e-9 stepped over; the profile takes both limits of
        each, and the cell's beta bound holds."""
        zone = planar_zone(n, math.radians(theta_deg))
        events = critical_radii(zone)
        narrow = [(a, b) for a, b in zip(events, events[1:]) if b - a < 2e-9]
        assert narrow
        profile = beta_profile(zone)
        for a, b in narrow:
            assert [lim.r for lim in profile if (lim.lo, lim.hi) == (a, b)] == [a, b]
        assert max(lim.beta for lim in profile) <= zone.alpha + verify.BETA_TOL


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
        _, sampled = covering_arc_of_angles(
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

    @pytest.mark.parametrize("n,k", [(6, 1), (16, 6)])
    def test_near_horizontal_diagonal_reads_unresolved(self, n, k):
        """At theta = 1e-16 rad the collapsed central rhomb's candidate
        diagonal is horizontal up to rounding: dy is -2.2e-16 at n = 6 and
        exactly 0 at n = 16, with |mx| below 4e-16.  Its bisector is too near
        the vertical line through o to give a sign, so the offset reads 0.0,
        which fails the strict rule.  Without ``HORIZONTAL_DY`` the formula
        reads +1.768 at n = 6, where the true offset is -1.732, and divides
        by zero at n = 16; without ``ON_AXIS_X`` both read -inf, a pass."""
        assert diagonal_perpendicular_test(planar_zone(n, 1e-16))[k] == 0.0

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
        # frozen: the lift and worst chord at this parameter point, the
        # chord at beta(r+) for r the central rhomb's nearest radius
        assert fr.radial_lift == pytest.approx(3.328730e-2, rel=1e-5)
        assert fr.max_chord == pytest.approx(1.876447193, abs=1e-8)

    def test_theta_zero_chord_reaches_two(self):
        fr = flat_rhomb(16, 0.0)
        assert fr.chord_at_corner_radius == pytest.approx(2.0, abs=1e-9)

    def test_corner_chord_is_measured_at_theta_zero_only(self, monkeypatch):
        """No rule reads the chord at the corner radius above theta = 0, so
        no kernel pass is spent on it there."""
        zone = planar_zone(16, math.radians(20.0))
        profile = beta_profile(zone)
        monkeypatch.setattr(verify, "beta_of_r", None)
        assert flat_rhomb_check(zone, profile).chord_at_corner_radius is None

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


def orbit_net(n, theta, step):
    """Zone 0 turned by i * step for each zone i, as ``assemble_net`` turns
    it by i * alpha: an orbit consistent with its own ``alpha``."""
    zone = planar_zone(n, theta)
    return Net(n, theta, step, tuple(zone.rotated(i * step) for i in range(n)))


def assert_orbit_matches_all_pairs(net, hits):
    """The orbit hits are the all-pairs ``hits`` whose first zone is 0, and
    each hit (a, k, b) stands for n - k of ``hits``."""
    orbit = orbit_overlap_oracle(net)
    assert orbit == [(a, k, b) for (i, a), (k, b) in hits if i == 0]
    assert sum(net.n - k for _, k, _ in orbit) == len(hits)


class TestOrbitOracle:
    """Zone 0 against zones 1..n-1 finds what all pairs find, on true nets
    and on consistent orbits with a wrong step alpha', which overlap."""

    @pytest.mark.parametrize("theta", DEFAULT_THETAS.split(","))
    def test_true_nets(self, theta):
        for n in range(3, 33):
            net = assemble_net(n, math.radians(float(theta)))
            assert_orbit_matches_all_pairs(net, net_overlap_oracle(net))

    @pytest.mark.parametrize("n", (4, 5, 8, 13, 16, 24))
    def test_wrong_alpha_orbits(self, n):
        found = 0
        for theta in (0.0, 0.01, 0.35, 1.0, 1.5):
            for ratio in (0.5, 0.9, 0.99, 0.999999, 1.01):
                step = ratio * 2.0 * math.pi / n
                if (n - 1) * step < 2.0 * math.pi:
                    net = orbit_net(n, theta, step)
                    hits = net_overlap_oracle(net)
                    assert_orbit_matches_all_pairs(net, hits)
                    found += len(hits)
        assert found > 0


class TestOracleMatchesReference:
    """Sort-and-prune asks the predicate about the same pairs of shrunk
    quads, in the same order, as the per-row ``reference_oracle``, so it
    reports the same hits in the same order.  Both shrink with
    ``geom.shrink_quad``, so float equality suffices here."""

    @staticmethod
    def assert_same(monkeypatch, net):
        asked = {verify: [], reference: []}
        for module, pairs in asked.items():
            def recording(a, b, pairs=pairs):
                pairs.append((tuple(map(tuple, a)), tuple(map(tuple, b))))
                return polygons_interior_overlap(a, b)

            monkeypatch.setattr(module, "polygons_interior_overlap", recording)
        hits = net_overlap_oracle(net)
        assert hits == reference_oracle(net)
        assert asked[verify] == asked[reference]
        return hits

    def test_fault_injected_nets(self, monkeypatch):
        for bad in (TestOverlapOracle._misrotated_net(), TestOverlapOracle._translated_net()):
            assert len(self.assert_same(monkeypatch, bad)) >= 1

    @pytest.mark.parametrize("theta_deg", ("0", "0.5", "20", "60", "89.5"))
    def test_small_n(self, monkeypatch, theta_deg):
        for n in range(3, 33):
            assert self.assert_same(monkeypatch, assemble_net(n, math.radians(float(theta_deg)))) == []

    @pytest.mark.slow
    @pytest.mark.parametrize("n", (64, 128))
    @pytest.mark.parametrize("theta_deg", (20.0, 89.5))
    def test_large_n(self, monkeypatch, n, theta_deg):
        net = assemble_net(n, math.radians(theta_deg))
        hits = self.assert_same(monkeypatch, net)
        assert hits == []
        assert_orbit_matches_all_pairs(net, hits)


class TestRunVerification:
    @pytest.mark.parametrize(
        "n,theta_deg",
        [(16, 20.0), (16, 0.0), (17, 0.0), (8, 50.0), (24, 40.0), (3, 0.5), (4, 85.0)],
    )
    def test_representative_cells_pass(self, n, theta_deg):
        rep = run_verification(n, math.radians(theta_deg))
        assert rep.passed, rep.failures()

    @pytest.mark.slow
    def test_n256_passes(self):
        assert run_verification(256, math.radians(20.0)).passed

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


FAULTS = [
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
]


def _faulty_report(monkeypatch, n, theta_deg, edit):
    theta = math.radians(theta_deg)
    zone = planar_zone(n, theta)
    corners = [list(quad) for quad in zone.corners]
    edit(corners, zone.alpha)
    bad = PlanarZone(n, theta, zone.alpha, tuple(tuple(q) for q in corners))
    monkeypatch.setattr(verify, "planar_zone", lambda *_: bad)
    return run_verification(n, theta)


def _assert_margin_sign_follows_verdict(rep):
    for name, c in rep.checks.items():
        if c.passed:
            assert c.margin >= 0.0, (name, c)
        else:
            assert c.margin <= 0.0, (name, c)


def _orbit_short_of_alpha(n, theta):
    """Every zone i turned by i * 0.9 alpha: a consistent orbit."""
    return orbit_net(n, theta, 0.9 * 2.0 * math.pi / n)


def _last_zone_too_far(n, theta):
    """Only zone n - 1 turned 0.1 alpha further, into zone 0."""
    net = assemble_net(n, theta)
    zones = list(net.zones)
    zones[-1] = zones[-1].rotated(0.1 * net.alpha)
    return Net(n, theta, net.alpha, tuple(zones))


class TestFaultInjection:
    """A geometric fault in the developed zone trips exactly the named check.

    ``run_verification`` reads its zone through ``verify.planar_zone``; the
    net for the overlap oracle is assembled from the true zone, so these
    faults leave ``net_overlap`` clean.  Misplaced nets go in through
    ``verify.assemble_net``.
    """

    @pytest.mark.parametrize("check,n,theta_deg,edit", FAULTS)
    def test_fault_trips_only_its_check(self, monkeypatch, check, n, theta_deg, edit):
        rep = _faulty_report(monkeypatch, n, theta_deg, edit)
        assert rep.failures() == [check]

    @pytest.mark.parametrize(
        "make,theta", [(_orbit_short_of_alpha, 0.3), (_last_zone_too_far, 0.0)]
    )
    def test_misplaced_net_trips_net_overlap(self, monkeypatch, make, theta):
        """A net placed wrong trips net_overlap through ``run_verification``,
        which counts the zone pairs that all pairs find, and leaves every
        other check clean."""
        monkeypatch.setattr(verify, "assemble_net", make)
        rep = run_verification(16, theta)
        assert rep.failures() == ["net_overlap"]
        pairs = len(net_overlap_oracle(make(16, theta)))
        assert rep.overlap_pairs == -rep.checks["net_overlap"].margin == pairs >= 1


_T, _S, _B = verify.ANGLE_TOL, verify.STRICT_MARGIN, verify.BETA_TOL

# (theta_deg, measurement, value past its rule, the rule's gap at that value)
FLAT_RHOMB_RULES = [
    (20.0, "corner_angle", lambda t: 2 * t + 2 * _T, lambda v, t: _T - abs(v - 2 * t)),
    (20.0, "cross_diagonal", lambda t: 2 * math.sin(t) + 2 * _T,
     lambda v, t: _T - abs(v - 2 * math.sin(t))),
    (20.0, "max_chord", lambda t: 2.0, lambda v, t: 2.0 - _S - v),
    (20.0, "radial_lift", lambda t: 0.0, lambda v, t: v - _S),
    (0.0, "corner_angle", lambda t: 2 * t + 2 * _T, lambda v, t: _T - abs(v - 2 * t)),
    (0.0, "cross_diagonal", lambda t: 2 * math.sin(t) + 2 * _T,
     lambda v, t: _T - abs(v - 2 * math.sin(t))),
    (0.0, "chord_at_corner_radius", lambda t: 2.0 - 2 * _B, lambda v, t: _B - abs(v - 2.0)),
    (0.0, "max_chord", lambda t: 2.0 + 2 * _B, lambda v, t: 2.0 + _B - v),
]


@pytest.mark.parametrize(
    "theta_deg,name,value,gap",
    FLAT_RHOMB_RULES,
    ids=[f"{t:g}-{name}" for t, name, _, _ in FLAT_RHOMB_RULES],
)
def test_each_flat_rhomb_rule_trips(monkeypatch, theta_deg, name, value, gap):
    """One measurement of the true central rhomb pushed past its rule fails
    flat_rhomb alone, with that rule's gap as the margin."""
    theta = math.radians(theta_deg)
    v = value(theta)
    real = verify.flat_rhomb_check
    monkeypatch.setattr(
        verify, "flat_rhomb_check", lambda *a: dataclasses.replace(real(*a), **{name: v})
    )
    rep = run_verification(16, theta, check_overlap=False)
    assert rep.failures() == ["flat_rhomb"]
    assert rep.checks["flat_rhomb"].margin == gap(v, theta) <= 0.0


class TestMarginSign:
    """A check's margin is the smallest signed distance of its rules to their
    thresholds: never negative on a pass, never positive on a failure."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_true_zones(self, n):
        for theta_deg in (0.0, 0.5, 20.0, 89.5):
            _assert_margin_sign_follows_verdict(run_verification(n, math.radians(theta_deg)))

    @pytest.mark.parametrize("check,n,theta_deg,edit", FAULTS)
    def test_injected_faults(self, monkeypatch, check, n, theta_deg, edit):
        _assert_margin_sign_follows_verdict(_faulty_report(monkeypatch, n, theta_deg, edit))

    def test_strict_subtended_gap_below_strict_margin(self, monkeypatch):
        """beta_2 short of alpha by less than STRICT_MARGIN fails the strict rule."""
        real = verify.rhomb_subtended_angles

        def betas(zone):
            out = real(zone)
            out[1] = zone.alpha - 0.5 * verify.STRICT_MARGIN
            return out

        monkeypatch.setattr(verify, "rhomb_subtended_angles", betas)
        check = run_verification(9, math.radians(30.0), check_overlap=False).checks["subtended"]
        assert not check.passed
        assert -verify.STRICT_MARGIN < check.margin <= 0.0

    def test_lower_half_gap_below_strict_margin(self, monkeypatch):
        """Lower-half arcs short of alpha/2 by less than STRICT_MARGIN fail."""
        real = verify.beta_profile
        zone = planar_zone(9, 0.0)
        lower = zone.half_split()[1]
        r_transition = max(zone.radius_ranges[i][1] for i in range(lower[0]))

        def profile(zone):
            return [
                lim._replace(beta=zone.alpha / 2.0 - 0.5 * verify.STRICT_MARGIN)
                if lim.r > r_transition
                else lim
                for lim in real(zone)
            ]

        monkeypatch.setattr(verify, "beta_profile", profile)
        check = run_verification(9, 0.0, check_overlap=False).checks["lower_half"]
        assert not check.passed
        assert -verify.STRICT_MARGIN < check.margin <= 0.0
