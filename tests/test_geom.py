"""Angular interval arithmetic, circle/quad clipping, and exact predicates."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonet import geom
from zonet.geom import (
    AngularIntervalSet,
    ConvexQuad,
    circle_quad_arcs,
    covering_arc_of_angles,
    normalize_angle,
    polygons_interior_overlap,
    shortest_covering_arc,
    shrink_convex,
)

TWO_PI = 2.0 * math.pi


class TestAngularIntervalSet:
    def test_single_interval_total(self):
        s = AngularIntervalSet.from_intervals(((0.2, 0.9),))
        assert s.measure == pytest.approx(0.7, abs=1e-15)

    def test_merge_overlapping(self):
        s = AngularIntervalSet.from_intervals(((0.0, 1.0), (0.5, 2.0)))
        assert s.measure == pytest.approx(2.0, abs=1e-12)
        assert len(s.intervals) == 1

    def test_wraparound_merge(self):
        # two pieces meeting across the branch cut form one arc
        s = AngularIntervalSet.from_intervals(((TWO_PI - 0.3, TWO_PI), (0.0, 0.4)))
        assert s.measure == pytest.approx(0.7, abs=1e-12)
        assert shortest_covering_arc(s) == pytest.approx(0.7, abs=1e-12)

    def test_empty(self):
        s = AngularIntervalSet.from_intervals(())
        assert s.measure == 0.0
        assert shortest_covering_arc(s) is None

    def test_full_circle(self):
        s = AngularIntervalSet.from_intervals(((0.0, TWO_PI),))
        assert shortest_covering_arc(s) == pytest.approx(TWO_PI, abs=1e-12)


class TestShortestCoveringArc:
    def test_two_antipodal_points_like_intervals(self):
        # tiny intervals at 0 and pi: the covering arc is pi plus the slack
        eps = 1e-6
        s = AngularIntervalSet.from_intervals(((0.0, eps), (math.pi, math.pi + eps)))
        assert shortest_covering_arc(s) == pytest.approx(math.pi + eps, abs=1e-12)

    def test_largest_gap_is_excluded(self):
        # intervals leaving gaps of 1.0, 2.0 and the rest: cover = 2*pi - max gap
        a = 0.0
        s = AngularIntervalSet.from_intervals(((a, a + 0.5), (a + 1.5, a + 2.0), (a + 4.0, a + 4.1)))
        gaps = [1.0, 2.0, TWO_PI - 4.1]
        assert shortest_covering_arc(s) == pytest.approx(TWO_PI - max(gaps), abs=1e-12)

    @given(
        st.lists(st.floats(0.0, TWO_PI - 1e-9), min_size=1, max_size=12),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rotation_invariance(self, angles, shift):
        """The covering arc of a direction set is rotation invariant."""
        base = covering_arc_of_angles(angles)
        rotated = covering_arc_of_angles([a + shift for a in angles])
        assert rotated == pytest.approx(base, abs=1e-9)

    @given(st.lists(st.floats(0.0, TWO_PI - 1e-9), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_monotone_under_subset(self, angles):
        """Dropping directions can only shrink the covering arc."""
        whole = covering_arc_of_angles(angles)
        part = covering_arc_of_angles(angles[: max(1, len(angles) // 2)])
        assert part <= whole + 1e-12


UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


class TestCircleQuadArcs:
    def quad(self):
        return ConvexQuad.from_vertices(UNIT_SQUARE)

    def arcs(self, center, r):
        return AngularIntervalSet.from_intervals(circle_quad_arcs(center, r, self.quad()))

    def test_circle_missing_quad(self):
        arcs = self.arcs((5.0, 5.0), 1.0)
        assert arcs.measure == 0.0

    def test_circle_inside_quad(self):
        arcs = self.arcs((0.5, 0.5), 0.25)
        assert arcs.measure == pytest.approx(TWO_PI, abs=1e-12)

    def test_quarter_circle_at_corner(self):
        # circle about the origin crossing the unit square: a quarter arc
        arcs = self.arcs((0.0, 0.0), 0.5)
        assert arcs.measure == pytest.approx(math.pi / 2.0, abs=1e-12)

    @given(
        st.floats(-1.5, 2.5),
        st.floats(-1.5, 2.5),
        st.floats(0.05, 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_against_dense_sampling(self, cx, cy, r):
        """Measured arc length agrees with brute-force membership sampling."""
        arcs = self.arcs((cx, cy), r)
        m = 4000
        inside = 0
        for i in range(m):
            a = TWO_PI * (i + 0.5) / m
            x, y = cx + r * math.cos(a), cy + r * math.sin(a)
            if 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0:
                inside += 1
        sampled = TWO_PI * inside / m
        assert arcs.measure == pytest.approx(sampled, abs=4.0 * TWO_PI / m + 1e-9)


class TestShrinkConvex:
    def test_square_shrinks_to_inner_square(self):
        out = shrink_convex(UNIT_SQUARE, 0.1)
        assert out is not None
        xs = sorted(p[0] for p in out)
        assert xs[0] == pytest.approx(0.1, abs=1e-12)
        assert xs[-1] == pytest.approx(0.9, abs=1e-12)

    def test_orientation_independent(self):
        cw = tuple(reversed(UNIT_SQUARE))
        out = shrink_convex(cw, 0.1)
        assert out is not None
        assert min(p[0] for p in out) == pytest.approx(0.1, abs=1e-12)

    def test_overshrink_returns_none(self):
        assert shrink_convex(UNIT_SQUARE, 0.6) is None

    def test_degenerate_returns_none(self):
        flat = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.0))
        assert shrink_convex(flat, 1e-9) is None

    @given(st.floats(0.3, 3.0), st.floats(0.2, 1.3), st.floats(-3.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_shrunk_quad_stays_inside(self, w, skew, ang):
        c, s = math.cos(ang), math.sin(ang)

        def rot(p):
            return (c * p[0] - s * p[1], s * p[0] + c * p[1])

        quad = tuple(rot(p) for p in ((0.0, 0.0), (w, 0.0), (w + skew, 1.0), (skew, 1.0)))
        out = shrink_convex(quad, 1e-3)
        assert out is not None
        # every shrunk vertex lies strictly inside the original parallelogram
        for p in out:
            assert polygons_interior_overlap(quad, [(p[0] - 1e-9, p[1] - 1e-9),
                                                    (p[0] + 1e-9, p[1] - 1e-9),
                                                    (p[0] + 1e-9, p[1] + 1e-9),
                                                    (p[0] - 1e-9, p[1] + 1e-9)])


class TestExactOverlap:
    def test_disjoint(self):
        b = tuple((x + 2.0, y) for x, y in UNIT_SQUARE)
        assert not polygons_interior_overlap(UNIT_SQUARE, b)

    def test_shared_edge_is_not_overlap(self):
        b = tuple((x + 1.0, y) for x, y in UNIT_SQUARE)
        assert not polygons_interior_overlap(UNIT_SQUARE, b)

    def test_shared_vertex_is_not_overlap(self):
        b = tuple((x + 1.0, y + 1.0) for x, y in UNIT_SQUARE)
        assert not polygons_interior_overlap(UNIT_SQUARE, b)

    def test_true_overlap(self):
        b = tuple((x + 0.5, y + 0.5) for x, y in UNIT_SQUARE)
        assert polygons_interior_overlap(UNIT_SQUARE, b)

    def test_containment_is_overlap(self):
        b = ((0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75))
        assert polygons_interior_overlap(UNIT_SQUARE, b)
        assert polygons_interior_overlap(b, UNIT_SQUARE)

    def test_orientation_robust(self):
        b = tuple((x + 0.5, y + 0.5) for x, y in UNIT_SQUARE)
        assert polygons_interior_overlap(tuple(reversed(UNIT_SQUARE)), b)
        assert polygons_interior_overlap(UNIT_SQUARE, tuple(reversed(b)))

    def test_hairline_overlap_detected(self):
        """The exact predicate sees overlaps far below float-sampling scales."""
        b = tuple((x + 1.0 - 1e-13, y) for x, y in UNIT_SQUARE)
        assert polygons_interior_overlap(UNIT_SQUARE, b)


def _fraction_orient(a, b, c):
    """Sign of (b - a) x (c - a) with every coordinate embedded as a Fraction."""
    (ax, ay), (bx, by), (cx, cy) = ((Fraction(x), Fraction(y)) for x, y in (a, b, c))
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def reference_overlap(a, b):
    """Separating-axis test for convex polygons in pure Fraction arithmetic.

    The winding comes from the shoelace area, independently of the turn-based
    convexity pass in `geom`; no float filter is involved anywhere.
    """
    windings = []
    for poly in (a, b):
        pts = [(Fraction(x), Fraction(y)) for x, y in poly]
        area2 = sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(pts, pts[1:] + pts[:1]))
        if area2 == 0:
            return False
        windings.append(1 if area2 > 0 else -1)
    for poly, winding, other in ((a, windings[0], b), (b, windings[1], a)):
        for e1, e2 in zip(poly, [*poly[1:], poly[0]]):
            if all(_fraction_orient(e1, e2, p) * winding <= 0 for p in other):
                return False
    return True


@pytest.fixture
def exact_calls(monkeypatch):
    """Record every call `geom._orient` hands to the rational fallback."""
    calls = []

    def spy(a, b, c):
        calls.append((a, b, c))
        return _fraction_orient(a, b, c)

    monkeypatch.setattr(geom, "_orient_exact", spy)
    return calls


class TestFilteredOrient:
    @pytest.mark.parametrize("k", (-3, -1, 0, 1, 2))
    def test_near_collinear_triple_takes_exact_fallback(self, exact_calls, k):
        a, b, c = (0.5 + k * 2.0**-53, 0.5), (12.0, 12.0), (24.0, 24.0)
        assert geom._orient(a, b, c) == _fraction_orient(a, b, c)
        assert exact_calls == [(a, b, c)]

    def test_clear_triple_is_decided_in_floats(self, exact_calls):
        assert geom._orient((0.0, 0.0), (1.0, 0.0), (0.3, 1e-6)) == 1
        assert geom._orient((0.0, 0.0), (0.3, 1e-6), (1.0, 0.0)) == -1
        assert exact_calls == []

    def test_underflowed_products_take_exact_fallback(self, exact_calls):
        """Both products are subnormal and round apart: their float
        difference is 2**-1074 with the wrong sign, which a purely relative
        error bound would accept."""
        tiny = 2.0**-1074
        a, b, c = (26 * 2.0**-60, 0.0), (5 / 12, tiny), (2.5, 6 * tiny)
        left = (b[0] - a[0]) * (c[1] - a[1])
        right = (b[1] - a[1]) * (c[0] - a[0])
        assert left - right > 0.0
        assert geom._orient(a, b, c) == _fraction_orient(a, b, c) == -1
        assert len(exact_calls) == 1


@st.composite
def quad_pairs(draw):
    """A convex quad and a second one that nearly touches, shares an edge or a
    vertex, hairline-overlaps, lies inside it, or sits anywhere nearby."""
    f = st.floats
    px, py = draw(f(-5.0, 5.0)), draw(f(-5.0, 5.0))
    ang, turn = draw(f(0.0, TWO_PI)), draw(f(0.2, math.pi - 0.2))
    lu, lv, kite = draw(f(0.1, 3.0)), draw(f(0.1, 3.0)), draw(f(1.0, 1.6))
    u = (lu * math.cos(ang), lu * math.sin(ang))
    v = (lv * math.cos(ang + turn), lv * math.sin(ang + turn))
    # a parallelogram with its far corner pushed out along the diagonal stays convex
    a = [
        (px, py),
        (px + u[0], py + u[1]),
        (px + kite * (u[0] + v[0]), py + kite * (u[1] + v[1])),
        (px + v[0], py + v[1]),
    ]
    i = draw(st.integers(0, 3))
    p, q = a[i], a[(i + 1) % 4]
    ex, ey = q[0] - p[0], q[1] - p[1]
    norm = math.hypot(ex, ey)
    out = (ey / norm, -ex / norm)  # outward normal of edge i (a is CCW)
    gap = draw(st.sampled_from((0.0, 1e-13, -1e-13, 1e-15, -1e-15, 2.0**-52, -(2.0**-52), 1e-6)))
    mode = draw(st.sampled_from(("edge", "vertex", "inside", "nearby")))
    if mode == "edge":
        depth, slide = draw(f(0.1, 2.0)), draw(f(-1.0, 1.0))
        w = (depth * out[0] + slide * ex, depth * out[1] + slide * ey)
        b = [q, p, (p[0] + w[0], p[1] + w[1]), (q[0] + w[0], q[1] + w[1])]
    elif mode == "vertex":
        o = a[(i + 2) % 4]
        b = [(x + p[0] - o[0], y + p[1] - o[1]) for x, y in a]
    elif mode == "inside":
        cx, cy = sum(x for x, _ in a) / 4, sum(y for _, y in a) / 4
        s = draw(f(0.01, 0.99))
        b = [(cx + s * (x - cx), cy + s * (y - cy)) for x, y in a]
    else:
        dx, dy = draw(f(-4.0, 4.0)), draw(f(-4.0, 4.0))
        b = [(x + dx, y + dy) for x, y in a]
    b = [(x + gap * out[0], y + gap * out[1]) for x, y in b]
    if draw(st.booleans()):
        b.reverse()
    return a, b


@st.composite
def rounding_trap_pairs(draw):
    """Quads whose verdict is one orientation that plain float arithmetic gets
    wrong for about half of the offsets (Kettner et al., "Classroom examples of
    robustness problems in geometric computations", CGTA 40(1), 2008): B's
    corner (12, 12) lies on, or within a few ulps of, A's edge from
    (0.5 + x*u, 0.5 + y*u) to (24, 24), and the rest of B lies below it."""
    u = 2.0**-53
    x, y = draw(st.integers(0, 63)), draw(st.integers(0, 63))
    a = [(0.5 + x * u, 0.5 + y * u), (24.0, 24.0), (20.0, 30.0), (0.5, 8.0)]
    b = [(12.0, 12.0), (14.0, 4.0), (10.0, 1.0), (6.0, 3.0)]
    return a, b


class TestFilteredOverlapAgainstFractions:
    @given(st.one_of(quad_pairs(), rounding_trap_pairs()))
    @settings(max_examples=400, deadline=None)
    def test_matches_pure_fraction_reference(self, pair):
        a, b = pair
        expected = reference_overlap(a, b)
        assert polygons_interior_overlap(a, b) == expected
        assert polygons_interior_overlap(b, a) == expected


class TestConvexInputsOnly:
    @pytest.mark.parametrize(
        "poly",
        [
            ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)),  # bowtie
            ((0.0, 0.0), (2.0, 1.0), (0.0, 2.0), (1.0, 1.0)),  # dart: reflex corner
            tuple((math.cos(0.8 * math.pi * k), math.sin(0.8 * math.pi * k)) for k in range(5)),
            # a vertical spike whose every other corner turns left
            ((0.0, 0.0), (0.0, 2.0), (0.0, 1.0), (1.0, 2.0), (-2.0, 3.0), (-1.0, -1.0)),
            ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)),  # repeated vertex
        ],
        ids=["bowtie", "dart", "pentagram", "spike", "repeated"],
    )
    def test_non_convex_raises(self, poly):
        with pytest.raises(ValueError):
            polygons_interior_overlap(UNIT_SQUARE, poly)
        with pytest.raises(ValueError):
            polygons_interior_overlap(poly, UNIT_SQUARE)

    def test_zero_area_polygon_does_not_overlap(self):
        flat = ((0.0, 0.5), (2.0, 0.5), (1.0, 0.5))
        assert not polygons_interior_overlap(UNIT_SQUARE, flat)
        assert not polygons_interior_overlap(flat, UNIT_SQUARE)

    def test_convex_pentagon_is_accepted(self):
        pentagon = tuple((0.5 + 0.4 * math.cos(0.4 * math.pi * k), 0.5 + 0.4 * math.sin(0.4 * math.pi * k)) for k in range(5))
        assert polygons_interior_overlap(UNIT_SQUARE, pentagon)


def test_normalize_angle_range():
    for a in (-7.0, -math.pi, 0.0, 1.0, TWO_PI, 9.5):
        v = normalize_angle(a)
        assert 0.0 <= v < TWO_PI
        assert math.cos(v) == pytest.approx(math.cos(a), abs=1e-12)
