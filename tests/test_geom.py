"""Covering arcs of directions, circle crossings, and exact predicates."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import reference_circle_quad_arcs

from zonet import geom
from zonet.geom import (
    circle_quad_arcs,
    covering_arc_of_angles,
    crossing_angle,
    normalize_angle,
    polygons_interior_overlap,
    shrink_quad,
)
from zonet.unfold import PlanarZone
from zonet.verify import OVERLAP_SLACK

TWO_PI = 2.0 * math.pi


def measure(arcs):
    """Total length of pairwise-disjoint arcs."""
    return sum(e - s for s, e, *_ in arcs)


class TestShortestCoveringArc:
    """``covering_arc_of_angles``: 2 pi less the largest gap between
    consecutive directions."""

    def test_two_antipodal_points_like_intervals(self):
        # directions near 0 and pi: the covering arc is pi plus the slack
        eps = 1e-6
        arc = covering_arc_of_angles([0.0, eps, math.pi, math.pi + eps])
        assert arc[1] == pytest.approx(math.pi + eps, abs=1e-12)

    def test_largest_gap_is_excluded(self):
        # directions leaving gaps of 1.0, 2.0 and the rest: cover = 2*pi - max gap
        start, length = covering_arc_of_angles([0.0, 0.5, 1.5, 2.0, 4.0, 4.1])
        gaps = [1.0, 2.0, TWO_PI - 4.1]
        assert start == 0.0
        assert length == pytest.approx(TWO_PI - max(gaps), abs=1e-12)

    @given(
        st.lists(st.floats(0.0, TWO_PI - 1e-9), min_size=1, max_size=12),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rotation_invariance(self, angles, shift):
        """The covering arc of a direction set is rotation invariant."""
        base = covering_arc_of_angles(angles)[1]
        rotated = covering_arc_of_angles([a + shift for a in angles])[1]
        assert rotated == pytest.approx(base, abs=1e-9)

    @given(st.lists(st.floats(0.0, TWO_PI - 1e-9), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_monotone_under_subset(self, angles):
        """Dropping directions can only shrink the covering arc."""
        whole = covering_arc_of_angles(angles)[1]
        part = covering_arc_of_angles(angles[: max(1, len(angles) // 2)])[1]
        assert part <= whole + 1e-12


UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def translated(vs, center):
    """The quad ``vs`` moved by -center, so that circles about ``center`` sit
    about the origin."""
    return tuple((x - center[0], y - center[1]) for x, y in vs)


class TestReferenceCircleQuadArcs:
    """The per-rhomb reference kernel that ``circle_quad_arcs`` is checked
    against, checked itself against the unit square and brute-force
    membership sampling."""

    def arcs(self, center, r):
        return reference_circle_quad_arcs(center, r, UNIT_SQUARE)

    def test_circle_missing_quad(self):
        arcs = self.arcs((5.0, 5.0), 1.0)
        assert measure(arcs) == 0.0

    def test_circle_inside_quad(self):
        arcs = self.arcs((0.5, 0.5), 0.25)
        assert measure(arcs) == pytest.approx(TWO_PI, abs=1e-12)

    def test_quarter_circle_at_corner(self):
        # circle about the origin crossing the unit square: a quarter arc
        arcs = self.arcs((0.0, 0.0), 0.5)
        assert measure(arcs) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_hairline_gap_past_the_far_edge_is_kept(self):
        """C(r) bulges 1e-10 past the edge y = 1 near (0, 1): the midpoint of
        that gap is outside by 2e-10 in the edge's cross product, beyond
        the reference's 1e-12 membership tolerance, so the two arcs stay
        apart."""
        quad = ((-1.0, 0.5), (1.0, 0.5), (1.0, 1.0), (-1.0, 1.0))
        r = 1.0 + 1e-10
        arcs = sorted(reference_circle_quad_arcs((0.0, 0.0), r, quad))
        assert len(arcs) == 2
        # the crossings sit at pi/2 -+ asin(sqrt(r*r - 1) / r), about 1.4e-5
        gap = arcs[1][0] - arcs[0][1]
        assert gap == pytest.approx(2.0 * math.sqrt(r * r - 1.0) / r, rel=1e-4)
        assert 0.5 * (arcs[0][1] + arcs[1][0]) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_circle_just_past_the_farthest_vertex_misses(self):
        vs = ((-1.0, 0.5), (1.0, 0.5), (1.0, 1.0), (-1.0, 1.0))
        far = max(math.hypot(*v) for v in vs)
        assert reference_circle_quad_arcs((0.0, 0.0), far + 1e-10, vs) == ()

    @given(
        st.floats(-1.5, 2.5),
        st.floats(-1.5, 2.5),
        st.floats(0.05, 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_against_dense_sampling(self, cx, cy, r):
        """The length of the disjoint arcs agrees with brute-force
        membership sampling."""
        arcs = self.arcs((cx, cy), r)
        m = 4000
        inside = 0
        for i in range(m):
            a = TWO_PI * (i + 0.5) / m
            x, y = cx + r * math.cos(a), cy + r * math.sin(a)
            if 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0:
                inside += 1
        sampled = TWO_PI * inside / m
        assert measure(arcs) == pytest.approx(sampled, abs=4.0 * TWO_PI / m + 1e-9)


@st.composite
def circles_and_quads(draw):
    """A convex quad (four points in angular order on an ellipse), a circle
    center, and a radius that is free, reaches a vertex exactly or within a
    few 1e-13 (crossings just off a segment's end), or is the distance to an
    edge's line (a tangent circle when the foot is on the edge)."""
    f = st.floats
    angles = sorted(draw(st.lists(f(0.0, TWO_PI), min_size=4, max_size=4)))
    gaps = [b - a for a, b in zip(angles, angles[1:])] + [angles[0] + TWO_PI - angles[-1]]
    assume(min(gaps) > 0.05)
    ax, ay, tilt = draw(f(0.05, 3.0)), draw(f(0.05, 3.0)), draw(f(0.0, TWO_PI))
    px, py = draw(f(-5.0, 5.0)), draw(f(-5.0, 5.0))
    c, s = math.cos(tilt), math.sin(tilt)
    vs = []
    for t in angles:
        x, y = ax * math.cos(t), ay * math.sin(t)
        vs.append((px + c * x - s * y, py + s * x + c * y))
    q = tuple(vs)
    center = (draw(f(-6.0, 6.0)), draw(f(-6.0, 6.0)))
    i = draw(st.integers(0, 3))
    (x0, y0), (x1, y1) = translated((q[i], q[(i + 1) % 4]), center)
    mode = draw(st.sampled_from(("free", "vertex", "near-vertex", "tangent")))
    if mode == "vertex":
        r = math.hypot(x0, y0)
    elif mode == "near-vertex":
        r = math.hypot(x0, y0) + draw(st.integers(-40, 40)) * 1e-13
    elif mode == "tangent":
        dx, dy = x1 - x0, y1 - y0
        r = abs(x0 * dy - y0 * dx) / math.hypot(dx, dy)
    else:
        r = draw(f(1e-3, 10.0))
    assume(r > 0.0)
    return q, center, r


def quad_boundary(quad):
    """The quad's four edges as a one-rhomb zone's ``PlanarZone.boundary``."""
    return PlanarZone(3, 0.0, 0.0, (tuple(quad),)).boundary


class TestCrossingLabels:
    """Each covering-arc end from ``circle_quad_arcs`` names the edge root
    it lies on; ``crossing_angle`` follows that root to other radii."""

    @given(circles_and_quads())
    @settings(max_examples=300, deadline=None)
    def test_labels_give_back_the_arc_ends(self, case):
        q, center, r = case
        arc, = circle_quad_arcs(quad_boundary(translated(q, center)), [r])
        if arc is not None:
            s, e, s_at, e_at = arc
            assert (crossing_angle(r, s_at), crossing_angle(r, e_at)) == (s, e)

    def test_a_crossing_keeps_its_turn(self):
        """A unit rhomb below the x axis with a corner at (1, 0): at r = 1.5
        the arc ends on the edge up to (1, 0), near (1.375, -0.6), and followed
        down to r = 1 that end reaches the x axis at 2 pi, not 0."""
        quad = ((0.0, 0.0), (1.0, 0.0), (1.5, -0.8), (0.5, -0.8))
        (s, e, s_at, e_at), = circle_quad_arcs(quad_boundary(quad), [1.5])
        assert e == pytest.approx(TWO_PI - math.atan2(0.6, 1.375), abs=1e-3)
        assert crossing_angle(1.0, e_at) == TWO_PI
        assert crossing_angle(1.0, (e_at[0] - TWO_PI, *e_at[1:])) == 0.0

    def test_a_crossing_at_angle_zero_reads_two_pi(self):
        """Near o, C(r) meets R_1 alone: from its left edge to its pole-side
        edge, which it crosses at angle 0, read one turn up."""
        quad = ((0.0, 0.0), (1.0, 0.0), (1.5, -0.8), (0.5, -0.8))
        (s, e, _, e_at), = circle_quad_arcs(quad_boundary(quad), [0.5])
        assert e == e_at[0] == TWO_PI
        assert s == pytest.approx(TWO_PI - math.atan2(0.8, 0.5), abs=1e-12)

    def test_a_graze_clamps_the_discriminant(self):
        """Followed to the radius where C(r) grazes the edge y = -1, both
        roots meet at the foot (0, -1), where the float discriminant may be
        slightly negative."""
        quad = ((-1.0, -1.0), (1.0, -1.0), (1.0, -2.0), (-1.0, -2.0))
        (_, _, s_at, e_at), = circle_quad_arcs(quad_boundary(quad), [1.2])
        for at in (s_at, e_at):
            assert crossing_angle(1.0, at) == pytest.approx(1.5 * math.pi, abs=1e-15)


@st.composite
def parallelograms(draw):
    """Parallelograms of any corner angle, side lengths 0.1..3 and
    orientation, in either vertex order."""
    corner = draw(st.floats(1e-8, math.pi - 1e-8))
    ang = draw(st.floats(0.0, TWO_PI))
    lu, lv = draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
    u = (lu * math.cos(ang), lu * math.sin(ang))
    v = (lv * math.cos(ang + corner), lv * math.sin(ang + corner))
    quad = [(0.0, 0.0), u, (u[0] + v[0], u[1] + v[1]), v]
    return quad[::-1] if draw(st.booleans()) else quad


@st.composite
def thin_parallelograms(draw):
    """Parallelograms whose width is within a few 1e-13 of twice the shrink
    slack, anywhere up to 1e3 from the origin and up to 1e3 long, in either
    orientation: the shrunk corners sit at the float filter's limits."""
    f = st.floats
    ang = draw(f(0.0, TWO_PI))
    length = draw(st.sampled_from((1.0, 10.0, 100.0, 1000.0)))
    width = 2.0 * OVERLAP_SLACK + draw(st.sampled_from((-1e-13, 0.0, 3e-14, 1e-13, 3e-13, 1e-6)))
    cx, cy = draw(f(-1e3, 1e3)), draw(f(-1e3, 1e3))
    u = (length * math.cos(ang), length * math.sin(ang))
    v = (-width * math.sin(ang), width * math.cos(ang))
    quad = [(cx, cy), (cx + u[0], cy + u[1]), (cx + u[0] + v[0], cy + u[1] + v[1]), (cx + v[0], cy + v[1])]
    return quad[::-1] if draw(st.booleans()) else quad


any_quads = st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), min_size=4, max_size=4)


class TestShrinkConvex:
    def test_square_shrinks_to_inner_square(self):
        out = shrink_quad(UNIT_SQUARE, 0.1)
        assert out is not None
        xs = sorted(p[0] for p in out)
        assert xs[0] == pytest.approx(0.1, abs=1e-12)
        assert xs[-1] == pytest.approx(0.9, abs=1e-12)

    def test_orientation_independent(self):
        cw = tuple(reversed(UNIT_SQUARE))
        out = shrink_quad(cw, 0.1)
        assert out is not None
        assert min(p[0] for p in out) == pytest.approx(0.1, abs=1e-12)

    def test_overshrink_returns_none(self):
        assert shrink_quad(UNIT_SQUARE, 0.6) is None

    def test_degenerate_returns_none(self):
        flat = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.0))
        assert shrink_quad(flat, 1e-9) is None

    def test_straight_corner_returns_none(self):
        """A quad of area 1 whose corner (1, 0) lies on the straight line
        from (0, 0) to (2, 0): the two edge lines there are parallel, so the
        shrunk corner does not exist.  Without ``SHRINK_MIN_DET`` the shrink
        divides by their zero determinant and the NaN corner reaches
        ``_orient_exact``."""
        assert shrink_quad([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)], 0.01) is None

    @given(st.floats(0.3, 3.0), st.floats(0.2, 1.3), st.floats(-3.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_shrunk_quad_stays_inside(self, w, skew, ang):
        c, s = math.cos(ang), math.sin(ang)

        def rot(p):
            return (c * p[0] - s * p[1], s * p[0] + c * p[1])

        quad = tuple(rot(p) for p in ((0.0, 0.0), (w, 0.0), (w + skew, 1.0), (skew, 1.0)))
        out = shrink_quad(quad, 1e-3)
        assert out is not None
        # every shrunk vertex lies strictly inside the original parallelogram
        for p in out:
            assert polygons_interior_overlap(quad, [(p[0] - 1e-9, p[1] - 1e-9),
                                                    (p[0] + 1e-9, p[1] - 1e-9),
                                                    (p[0] + 1e-9, p[1] + 1e-9),
                                                    (p[0] - 1e-9, p[1] + 1e-9)])

    @given(
        st.one_of(parallelograms(), thin_parallelograms(), any_quads),
        st.sampled_from((OVERLAP_SLACK, 1e-3, 0.3)),
    )
    @settings(max_examples=600, deadline=None)
    def test_result_is_strictly_convex_ccw(self, quad, delta):
        """Every quad shrink_quad returns turns strictly left at each
        corner, checked in Fraction arithmetic independently of _orient."""
        out = shrink_quad(quad, delta)
        if out is not None:
            assert len(out) == 4
            assert all(_fraction_orient(out[i - 2], out[i - 1], out[i]) > 0 for i in range(4))

    def test_shrunk_area_guard(self):
        """A rectangle 3e-15 wider than twice the slack shrinks to a sliver
        whose doubled area is within ``DEGENERATE_AREA``: it is dropped."""
        w = 2.0 * OVERLAP_SLACK + 3e-15
        assert shrink_quad([(0.0, 0.0), (1.0, 0.0), (1.0, w), (0.0, w)], OVERLAP_SLACK) is None

    def test_undecided_corner_goes_exact(self, monkeypatch):
        """A parallelogram 2*OVERLAP_SLACK + 1e-13 wide and 1e3 long near
        (1e3, 1e3): after the shrink it is 1e-13 wide, and at one corner the
        float determinant reads negative while the exact one is positive.
        The filter cannot decide that corner, the rational fallback keeps the
        quad, and every fallback verdict is the Fraction orientation."""
        quad = [
            (999.7773546484882, 999.9160249174467),
            (363.4624359090793, 1771.3454281616189),
            (363.46243590753636, 1771.3454281603463),
            (999.7773546469452, 999.916024916174),
        ]
        calls = []
        exact = geom._orient_exact

        def spy(a, b, c):
            calls.append((a, b, c, exact(a, b, c)))
            return calls[-1][-1]

        monkeypatch.setattr(geom, "_orient_exact", spy)
        out = shrink_quad(quad, OVERLAP_SLACK)
        assert calls
        for a, b, c, verdict in calls:
            assert verdict == _fraction_orient(a, b, c)
        float_dets = [
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) for a, b, c, _ in calls
        ]
        assert any(d < 0.0 and v == 1 for d, (*_, v) in zip(float_dets, calls))
        assert out is not None
        assert all(_fraction_orient(out[i - 2], out[i - 1], out[i]) > 0 for i in range(4))


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

    The winding comes from the shoelace area, so either orientation is
    accepted; `geom`'s predicate instead takes CCW quads only.  No float
    filter is involved anywhere.
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
    vertex, hairline-overlaps, lies inside it, or sits anywhere nearby; both
    are CCW, and the second starts at any of its vertices."""
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
    k = draw(st.integers(0, 3))
    return a, b[k:] + b[:k]


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
    b = [(12.0, 12.0), (6.0, 3.0), (10.0, 1.0), (14.0, 4.0)]
    return a, b


class TestFilteredOverlapAgainstFractions:
    @given(st.one_of(quad_pairs(), rounding_trap_pairs()))
    @settings(max_examples=400, deadline=None)
    def test_matches_pure_fraction_reference(self, pair):
        a, b = pair
        expected = reference_overlap(a, b)
        assert polygons_interior_overlap(a, b) == expected
        assert polygons_interior_overlap(b, a) == expected
        sa, sb = shrink_quad(a, OVERLAP_SLACK), shrink_quad(b, OVERLAP_SLACK)
        if sa is not None and sb is not None:
            expected = reference_overlap(sa, sb)
            assert polygons_interior_overlap(sa, sb) == expected
            assert polygons_interior_overlap(sb, sa) == expected


class TestConvexInputsOnly:
    """No non-convex shape reaches the predicate: shrink_quad raises
    ValueError for a polygon that is not a quad (four left turns prove
    convexity only for four vertices) and drops a non-convex quad."""

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
        if len(poly) != 4:
            with pytest.raises(ValueError):
                shrink_quad(poly, OVERLAP_SLACK)
        else:
            assert shrink_quad(poly, OVERLAP_SLACK) is None


def test_normalize_angle_range():
    for a in (-7.0, -math.pi, 0.0, 1.0, TWO_PI, 9.5):
        v = normalize_angle(a)
        assert 0.0 <= v < TWO_PI
        assert math.cos(v) == pytest.approx(math.cos(a), abs=1e-12)
