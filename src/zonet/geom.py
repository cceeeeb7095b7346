"""Planar primitives: angles, angular interval sets, circle/quad arcs, exact overlap.

Angles are radians everywhere, normalized to [0, 2*pi).  Lengths are in rhomb-edge
units.  ``circle_quad_arcs`` returns the raw arcs of one circle about the origin
inside one quad, so a caller that collects arcs over many quads merges them once,
with ``AngularIntervalSet.from_intervals``.  Each quad caches its per-edge
circle-crossing coefficients, so only the radius-dependent terms are computed
per call.  ``shrink_convex`` decides, once per quad, that its result is a
strictly convex CCW quad; the overlap predicate for two such quads is then a
bare separating-axis test.  Both use one filtered float orientation with an
exact rational fallback: each orientation is decided in floating point when
its error bound allows and otherwise on the binary-float values embedded
losslessly as rationals, so "touching" versus "overlapping" is decided exactly
with respect to the coordinates actually computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

TWO_PI = 2.0 * math.pi

#: gaps smaller than this are merged when building interval sets (float noise
#: at shared rhomb edges)
MERGE_EPS = 1e-12
#: edges whose squared length is below this are points: they cross no circle
NULL_EDGE_SQ = 1e-30
#: slack on the segment parameter t in [0, 1] of a circle crossing; a root
#: within it is clamped onto the segment's end
CROSSING_T_SLACK = 1e-12
#: a point this far outside an edge line still counts as inside a quad
CONTAIN_TOL = 1e-12
#: a corner turning right by less than this still counts as convex in
#: ``ConvexQuad.is_convex``
CONVEX_TOL = 1e-12
#: ``shrink_convex`` gives None for an edge shorter than this, or for two
#: adjacent edge lines whose unit normals have a cross product below
#: ``SHRINK_MIN_DET`` (parallel lines have no intersection to shrink to)
SHRINK_MIN_EDGE = 1e-15
SHRINK_MIN_DET = 1e-15
#: a shrunk vertex this far beyond a shifted edge line still lies on it; one
#: farther out marks the point-reflected phantom of an over-shrunk quad
PHANTOM_SLACK = 1e-12

Point2 = tuple[float, float]


def normalize_angle(a: float) -> float:
    """Map an angle to [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:  # fmod can round up to 2*pi
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class AngularIntervalSet:
    """A union of arcs on the circle, canonical and pairwise disjoint.

    Each stored interval is (start, end) with start in [0, 2*pi) and
    start < end <= start + 2*pi; end > 2*pi marks an arc wrapping through 0.
    """

    intervals: tuple[tuple[float, float], ...] = ()

    @staticmethod
    def full_circle() -> "AngularIntervalSet":
        return AngularIntervalSet(((0.0, TWO_PI),))

    @staticmethod
    def from_intervals(
        pairs: Iterable[tuple[float, float]], merge_eps: float = MERGE_EPS
    ) -> "AngularIntervalSet":
        """Build a canonical set from CCW (start, end) arcs.

        end < start is read as wrapping through 0.  Arcs of length below
        merge_eps are dropped; arcs separated by gaps below merge_eps are
        merged.
        """
        norm: list[tuple[float, float]] = []
        for a, b in pairs:
            length = b - a
            if length >= TWO_PI - merge_eps:
                return AngularIntervalSet.full_circle()
            length = math.fmod(length, TWO_PI)
            if length < 0.0:
                length += TWO_PI
            if length <= merge_eps:
                continue
            s = normalize_angle(a)
            norm.append((s, s + length))
        if not norm:
            return AngularIntervalSet(())
        norm.sort()
        merged = [list(norm[0])]
        for s, e in norm[1:]:
            if s <= merged[-1][1] + merge_eps:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        # wrap-around: the last interval may reach past 2*pi into leading ones
        while len(merged) > 1 and merged[-1][1] >= merged[0][0] + TWO_PI - merge_eps:
            s0, e0 = merged.pop(0)
            merged[-1][1] = max(merged[-1][1], e0 + TWO_PI)
        total = sum(e - s for s, e in merged)
        if total >= TWO_PI - merge_eps:
            return AngularIntervalSet.full_circle()
        return AngularIntervalSet(tuple((s, e) for s, e in merged))

    def __bool__(self) -> bool:
        return bool(self.intervals)

    @property
    def measure(self) -> float:
        return sum(e - s for s, e in self.intervals)


def shortest_covering_arc(s: AngularIntervalSet) -> float | None:
    """Angle of the shortest single arc covering every interval of ``s``.

    Returns None for an empty set (no intersection), which is distinct from a
    zero-measure answer.  For a single interval this is its measure; in general
    it is 2*pi minus the largest gap between consecutive intervals.
    """
    ivs = s.intervals
    if not ivs:
        return None
    if len(ivs) == 1:
        return min(ivs[0][1] - ivs[0][0], TWO_PI)
    max_gap = 0.0
    for i, (start, end) in enumerate(ivs):
        nxt = ivs[(i + 1) % len(ivs)][0]
        gap = nxt - end
        if gap < 0.0:
            gap += TWO_PI
        if gap > max_gap:
            max_gap = gap
    return TWO_PI - max_gap


def covering_arc_of_angles(angles: Sequence[float]) -> float | None:
    """Shortest arc covering a finite set of directions (max-gap rule)."""
    if not angles:
        return None
    srt = sorted(normalize_angle(a) for a in angles)
    if len(srt) == 1:
        return 0.0
    max_gap = srt[0] + TWO_PI - srt[-1]
    for a, b in zip(srt, srt[1:]):
        if b - a > max_gap:
            max_gap = b - a
    return TWO_PI - max_gap


# ---------------------------------------------------------------------------
# convex quadrilaterals and circle intersection


@dataclass(frozen=True)
class ConvexQuad:
    """Four vertices in CCW order; zero-area quads must be flagged degenerate."""

    vertices: tuple[Point2, Point2, Point2, Point2]
    degenerate: bool = False

    DEGENERATE_AREA = 1e-14

    @staticmethod
    def from_vertices(vs: Sequence[Point2]) -> "ConvexQuad":
        """Orient to CCW; auto-flag degenerate when the area vanishes."""
        if len(vs) != 4:
            raise ValueError("quad needs exactly 4 vertices")
        area2 = _signed_area2(vs)
        if abs(area2) <= ConvexQuad.DEGENERATE_AREA:
            return ConvexQuad(tuple(vs), degenerate=True)  # type: ignore[arg-type]
        if area2 < 0.0:
            vs = list(reversed(vs))
        q = ConvexQuad(tuple(vs))  # type: ignore[arg-type]
        if not q.is_convex():
            raise ValueError("quad is not convex")
        return q

    def is_convex(self, tol: float = CONVEX_TOL) -> bool:
        vs = self.vertices
        for i in range(4):
            a, b, c = vs[i], vs[(i + 1) % 4], vs[(i + 2) % 4]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cross < -tol:
                return False
        return True

    def contains(self, p: Point2, tol: float = CONTAIN_TOL) -> bool:
        """Closed containment test (boundary counts as inside)."""
        if self.degenerate:
            return False
        return _inside(self.circle_table[1], p[0], p[1], tol)

    @cached_property
    def circle_table(
        self,
    ) -> tuple[tuple[tuple[float, ...], ...], tuple[tuple[float, ...], ...]]:
        """Per-edge coefficients for meeting circles about the origin.

        ``(crossing, sides)``: ``crossing`` holds ``(x0, y0, dx, dy, a, b, cc,
        2a)`` for every edge ``(x0, y0) + t (dx, dy)`` of positive length,
        where ``a t^2 + b t + cc - r^2 = 0`` puts the edge point on the circle
        of radius r; ``sides`` holds ``(x0, y0, dx, dy)`` for all four edges,
        for the containment test.  Computed once per quad, so a circle of
        each new radius costs only its radius-dependent terms.
        """
        vs = self.vertices
        crossing = []
        sides = []
        for i in range(4):
            (x0, y0), (x1, y1) = vs[i], vs[(i + 1) % 4]
            dx, dy = x1 - x0, y1 - y0
            sides.append((x0, y0, dx, dy))
            a = dx * dx + dy * dy
            if a < NULL_EDGE_SQ:
                continue
            b = 2.0 * (x0 * dx + y0 * dy)
            crossing.append((x0, y0, dx, dy, a, b, x0 * x0 + y0 * y0, 2.0 * a))
        return tuple(crossing), tuple(sides)


def _inside(sides: tuple[tuple[float, ...], ...], x: float, y: float, tol: float) -> bool:
    """Closed test of (x, y) against the CCW edge lines ``(x0, y0, dx, dy)``."""
    for x0, y0, dx, dy in sides:
        if dx * (y - y0) - dy * (x - x0) < -tol:
            return False
    return True


def shrink_convex(vs: Sequence[Point2], delta: float) -> list[Point2] | None:
    """Offset every edge of a convex quad inward by ``delta``.

    Returns the shrunk vertices (edge-line intersections) in CCW order, or
    None when the quad is too thin to survive the offset.  Used to ignore
    hairline contacts: two convex regions overlap by more than a sliver of
    width ~delta iff their shrunk versions still intersect.

    Every result turns strictly left at each of its four corners, decided by
    the exact ``_orient``, so it is a simple, strictly convex, CCW quad:
    ``polygons_interior_overlap`` relies on that.  Raises ValueError unless
    ``vs`` has four vertices (a pentagram also turns left at every corner).
    """
    if len(vs) != 4:
        raise ValueError("shrink_convex takes quads only")
    pts = list(vs)
    area2 = _signed_area2(pts)
    if abs(area2) <= ConvexQuad.DEGENERATE_AREA:
        return None
    if area2 < 0.0:
        pts = list(reversed(pts))
    lines = []  # (nx, ny, c) with nx*x + ny*y = c on the shifted edge line
    for i in range(4):
        (x0, y0), (x1, y1) = pts[i], pts[(i + 1) % 4]
        ex, ey = x1 - x0, y1 - y0
        length = math.hypot(ex, ey)
        if length < SHRINK_MIN_EDGE:
            return None
        nx, ny = ey / length, -ex / length  # outward normal for CCW order
        lines.append((nx, ny, nx * x0 + ny * y0 - delta))
    out: list[Point2] = []
    for i in range(4):
        a = lines[i - 1]
        b = lines[i]
        det = a[0] * b[1] - a[1] * b[0]
        if abs(det) < SHRINK_MIN_DET:
            return None
        x = (a[2] * b[1] - b[2] * a[1]) / det
        y = (a[0] * b[2] - b[0] * a[2]) / det
        out.append((x, y))
    if _signed_area2(out) <= ConvexQuad.DEGENERATE_AREA:
        return None
    for i in range(4):
        if _orient(out[i - 2], out[i - 1], out[i]) <= 0:
            return None
    # over-shrinking past the inradius produces a point-reflected phantom that
    # is still convex and CCW; it is exposed by violating the shifted planes
    for x, y in out:
        for nx, ny, c in lines:
            if nx * x + ny * y > c + PHANTOM_SLACK:
                return None
    return out


def _signed_area2(vs: Sequence[Point2]) -> float:
    s = 0.0
    n = len(vs)
    for i in range(n):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return s


def circle_quad_arcs(r: float, q: ConvexQuad) -> tuple[tuple[float, float], ...]:
    """CCW arcs (start, end) of angles phi with r*(cos phi, sin phi) inside
    quad ``q``, unmerged; feed them to ``AngularIntervalSet.from_intervals``.

    The circle is about the origin (translate the quad to move it).  It is
    intersected with each edge, using the quad's cached ``circle_table``; the
    resulting angular partition is classified by midpoint membership.  At
    most 4 arcs can result.  Zero-measure contacts (tangency, a degenerate
    quad) give no arc: the overlap machinery cares about interior points only.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if q.degenerate:
        return ()
    crossing, sides = q.circle_table
    rr = r * r
    crossings: list[float] = []
    for x0, y0, dx, dy, a, b, cc, a2 in crossing:
        disc = b * b - 4.0 * a * (cc - rr)
        if disc < 0.0:
            continue
        sq = math.sqrt(disc)
        for t in ((-b - sq) / a2, (-b + sq) / a2):
            if -CROSSING_T_SLACK <= t <= 1.0 + CROSSING_T_SLACK:
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                crossings.append(math.atan2(y0 + t * dy, x0 + t * dx) % TWO_PI)

    # dedupe circularly (circle through a quad vertex hits two edges there)
    crossings.sort()
    dedup: list[float] = []
    for a in crossings:
        if not dedup or a - dedup[-1] > MERGE_EPS:
            dedup.append(a)
    if len(dedup) > 1 and dedup[0] + TWO_PI - dedup[-1] <= MERGE_EPS:
        dedup.pop()

    if not dedup:
        return ((0.0, TWO_PI),) if _inside(sides, r, 0.0, CONTAIN_TOL) else ()

    arcs: list[tuple[float, float]] = []
    m = len(dedup)
    for i in range(m):
        a = dedup[i]
        b = dedup[(i + 1) % m]
        if i == m - 1:
            b += TWO_PI
        mid = 0.5 * (a + b)
        x, y = r * math.cos(mid), r * math.sin(mid)
        for x0, y0, dx, dy in sides:  # _inside, inlined on the beta profile's hot path
            if dx * (y - y0) - dy * (x - x0) < -CONTAIN_TOL:
                break
        else:
            arcs.append((a, b))
    return tuple(arcs)


# ---------------------------------------------------------------------------
# exact interior-overlap predicate for shrunk quads (filtered float
# orientation with an exact rational fallback)

_EPS = 2.0**-53
#: Shewchuk's ccwerrboundA: the float l - r has the sign of the exact
#: determinant when it exceeds this multiple of |l| + |r|
_CCW_ERRBOUND = (3.0 + 16.0 * _EPS) * _EPS
#: absolute allowance for products that underflow, where a relative bound
#: fails: each is off by up to 2**-1075 (half the smallest subnormal), and the
#: relative bound itself may round down by as much
_UNDERFLOW_ERR = 2.0**-1070


def _orient_exact(a: Point2, b: Point2, c: Point2) -> int:
    # Fraction(float) embeds the binary double exactly (denominator a power of 2)
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]) - ax, Fraction(b[1]) - ay
    cx, cy = Fraction(c[0]) - ax, Fraction(c[1]) - ay
    v = bx * cy - by * cx
    return (v > 0) - (v < 0)


def _orient(a: Point2, b: Point2, c: Point2) -> int:
    """Exact sign of (b - a) x (c - a) for float points: +1 left, -1 right, 0 on.

    The float evaluation decides whenever its forward error bound does
    (J. R. Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast
    Robust Geometric Predicates", DCG 18(3), 1997); otherwise the
    determinant is recomputed in rational arithmetic.
    """
    left = (b[0] - a[0]) * (c[1] - a[1])
    right = (b[1] - a[1]) * (c[0] - a[0])
    det = left - right
    bound = _CCW_ERRBOUND * (abs(left) + abs(right)) + _UNDERFLOW_ERR
    if det > bound:
        return 1
    if det < -bound:
        return -1
    return _orient_exact(a, b, c)


def polygons_interior_overlap(a: Sequence[Point2], b: Sequence[Point2]) -> bool:
    """True iff the open interiors of two ``shrink_convex`` results intersect.

    Both inputs must be strictly convex CCW quads, as ``shrink_convex``
    returns them.  Boundary-only contact (shared edges, shared vertices)
    returns False.  Every orientation is exact for the float inputs (a
    filtered float evaluation with a rational fallback), so sliver overlaps
    thinner than any vertex spacing are caught and touching is never
    mistaken for overlap.  The test is by separating axes: convex interiors
    are disjoint iff some edge line of one quad has the other quad on its
    closed right side.
    """
    for poly, other in ((a, b), (b, a)):
        for i in range(4):
            e1, e2 = poly[i], poly[(i + 1) % 4]
            if all(_orient(e1, e2, p) <= 0 for p in other):
                return False
    return True
