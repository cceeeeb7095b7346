"""Closed-form crescent tangents versus the geometric circle-intersection oracle."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonet import crescent as cr


class TestParameterMaps:
    def test_side_alpha_anchors(self):
        assert cr.side_from_n(3.0) == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert cr.side_from_n(6.0) == pytest.approx(1.0, abs=1e-12)
        assert cr.alpha_from_n(3.0) == pytest.approx(math.radians(120.0), abs=1e-12)

    @given(st.floats(2.001, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_n_side_round_trip(self, n):
        assert cr.n_from_side(cr.side_from_n(n)) == pytest.approx(n, rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cr.alpha_from_n(2.0)
        with pytest.raises(ValueError):
            cr.n_from_side(2.0)


class TestAlphaForms:
    def test_tan_alpha_pole_at_sqrt_two(self):
        # the tangent blows up where alpha crosses pi/2; atan2 recovery stays finite
        assert abs(cr.tan_alpha(math.sqrt(2.0))) > 1e14
        assert cr.alpha_from_side(math.sqrt(2.0)) == pytest.approx(
            math.pi / 2.0, abs=1e-12
        )

    @given(st.floats(0.01, 1.99))
    @settings(max_examples=200, deadline=None)
    def test_branch_recovery_matches_parameterization(self, L):
        # alpha from the tangent (obtuse branch included) equals 2*pi/n
        n = cr.n_from_side(L)
        assert cr.alpha_from_side(L) == pytest.approx(cr.alpha_from_n(n), abs=1e-12)

    @given(st.floats(0.01, 1.4))
    @settings(max_examples=100, deadline=None)
    def test_tangent_consistency_on_acute_branch(self, L):
        assert math.tan(cr.alpha_from_side(L)) == pytest.approx(
            cr.tan_alpha(L), rel=1e-9
        )


class TestBetaFormVsGeometry:
    def test_frozen_value(self):
        assert float(cr.tan_beta(1.0)) == pytest.approx(0.399704032515895, abs=1e-12)

    def test_simplified_form_agrees(self):
        # the raw quotient simplifies to 3 L sqrt(4 - L^2) / (18 - 5 L^2)
        for L in (0.05, 0.5, 1.0, 1.5, math.sqrt(3.0)):
            simple = 3 * L * math.sqrt(4 - L * L) / (18 - 5 * L * L)
            assert float(cr.tan_beta(L)) == pytest.approx(simple, rel=1e-12)

    @pytest.mark.parametrize(
        "L", [0.01, 0.1, 0.5, 1.0, 1.3, math.sqrt(2.0), 1.6, math.sqrt(3.0)]
    )
    def test_closed_form_matches_oracle(self, L):
        n = cr.n_from_side(L)
        assert cr.beta_from_side(L) == pytest.approx(
            cr.crescent_beta_geometric(n), abs=1e-12
        )

    def test_arc_constant_across_radii(self):
        for n in (3.0, 5.0, 16.0, 100.0):
            assert cr.constancy_deviation(n, radii=50) < 1e-12

    def test_oracle_rejects_radius_outside_window(self):
        geo = cr.crescent_geometry(8.0)
        lo, hi = geo.radius_window()
        with pytest.raises(ValueError):
            cr.crescent_beta_geometric(8.0, hi + 0.1)
        assert lo < 0.5 * (lo + hi) < hi


class TestRatio:
    def test_half_at_n_three(self):
        # the mathematical value at n = 3 is exactly 1/2
        assert cr.beta_alpha_ratio(3.0) == pytest.approx(0.5, abs=1e-14)

    @given(st.floats(3.0001, 1e5))
    @settings(max_examples=300, deadline=None)
    def test_strictly_below_half_beyond_three(self, n):
        assert cr.beta_alpha_ratio(n) < 0.5

    def test_monotone_decrease_toward_one_third(self):
        ns = [3.0, 4.0, 6.0, 10.0, 30.0, 100.0, 1000.0, 1e4]
        ratios = [cr.beta_alpha_ratio(n) for n in ns]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_limit_value_tightly(self):
        assert cr.beta_alpha_ratio(1e4) - 1.0 / 3.0 == pytest.approx(9.7e-9, rel=0.1)

    def test_ratio_curve_shape(self):
        curve = cr.ratio_curve([3, 10, 100])
        assert [n for n, _ in curve] == [3.0, 10.0, 100.0]
        assert all(0.3 < r <= 0.5 for _, r in curve)


class TestGeometry:
    def test_unit_circles_pass_through_scaled_chain(self):
        """Both circles really do carry the boundary chains of the lower half."""
        n = 16
        geo = cr.crescent_geometry(float(n))
        from zonet.unfold import planar_zone

        zone = planar_zone(n, 0.0)
        _, lower, flat = zone.half_split()
        left = [zone.corners[i][0] for i in lower] + [zone.corners[lower[-1]][3]]
        for p in left:
            d = abs(complex(p[0], p[1]) * geo.scale - geo.center_left)
            assert d == pytest.approx(1.0, abs=1e-9)
        right = [(p[0] + 1.0, p[1]) for p in left]
        for p in right:
            d = abs(complex(p[0], p[1]) * geo.scale - geo.center_right)
            assert d == pytest.approx(1.0, abs=1e-9)

    def test_centers_one_scaled_edge_apart(self):
        geo = cr.crescent_geometry(12.0)
        assert abs(geo.center_right - geo.center_left) == pytest.approx(
            geo.scale, abs=1e-12
        )
