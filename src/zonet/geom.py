"""Planar primitives: angles, circle crossings, exact overlap.

Angles are radians everywhere, normalized to [0, 2*pi).  Lengths are in
rhomb-edge units.  ``circle_quad_arcs`` spans the crossings of a circle
about the origin with a set of edges, each labelled with its edge's
coefficients and root branch, and ``crossing_angle`` follows a labelled
crossing to other radii.  ``shrink_quad`` shrinks one quad and decides that
the result is a strictly convex CCW quad; the overlap predicate for two
such quads is then a bare separating-axis test.  Both decide every turn
with the one filtered float orientation ``_orient``, which falls back to
exact rationals: each orientation is decided in floating point when its
error bound allows and otherwise on the binary-float values embedded
losslessly as rationals, so "touching" versus "overlapping" is decided
exactly with respect to the coordinates actually computed.  The module
uses no numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Sequence

TWO_PI = 2.0 * math.pi

#: a quad whose doubled signed area is at most this in magnitude is
#: degenerate: it shrinks to nothing
DEGENERATE_AREA = 1e-14
#: ``shrink_quad`` drops a quad with an edge shorter than this, or with two
#: adjacent edge lines whose unit normals have a cross product below
#: ``SHRINK_MIN_DET`` (parallel lines have no intersection to shrink to)
SHRINK_MIN_EDGE = 1e-15
SHRINK_MIN_DET = 1e-15
#: a shrunk vertex this far beyond a shifted edge line still lies on it; one
#: farther out marks the point-reflected phantom of an over-shrunk quad
PHANTOM_SLACK = 1e-12

Point2 = tuple[float, float]
#: an edge ``(x0, y0) + t (dx, dy)``, t in [0, 1], as ``(x0, y0, dx, dy, a,
#: b, cc, 2a)``, where ``a t^2 + b t + cc - r^2 = 0`` puts the edge point on
#: the circle of radius r about the origin
EdgeRow = tuple[float, float, float, float, float, float, float, float]
#: an edge as ``(lo, hi, row)``: its range [lo, hi] of distances from the
#: origin and its ``EdgeRow``
Edge = tuple[float, float, EdgeRow]
#: a circle crossing: its angle on the circle where it was found, the
#: ``EdgeRow`` of its edge and the root branch (-1.0 or +1.0) of the row's
#: quadratic; the angle picks the turn of the crossing's angle on other
#: circles
Crossing = tuple[float, EdgeRow, float]


def normalize_angle(a: float) -> float:
    """Map an angle to [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:  # fmod can round up to 2*pi
        a -= TWO_PI
    return a


def covering_arc_of_angles(angles: Sequence[float]) -> tuple[float, float] | None:
    """(start, length) of the shortest CCW arc covering a finite set of
    directions (max-gap rule); start is in [0, 2*pi), None for no directions."""
    if not angles:
        return None
    srt = sorted(normalize_angle(a) for a in angles)
    if len(srt) == 1:
        return srt[0], 0.0
    start, max_gap = srt[0], srt[0] + TWO_PI - srt[-1]
    for a, b in zip(srt, srt[1:]):
        if b - a > max_gap:
            start, max_gap = b, b - a
    return start, TWO_PI - max_gap


# ---------------------------------------------------------------------------
# convex quadrilaterals and circle crossings


def shrink_quad(vs: Sequence[Point2], delta: float) -> list[Point2] | None:
    """Offset every edge of the convex quad ``vs`` inward by ``delta``.

    Returns the shrunk vertices (edge-line intersections) in CCW order, or
    None when the quad is too thin to survive the offset.  Used to ignore
    hairline contacts: two convex regions overlap by more than a sliver of
    width ~delta iff their shrunk versions still intersect.

    Every result turns strictly left at each of its four corners, decided
    by ``_orient``, so it is a simple, strictly convex, CCW quad:
    ``polygons_interior_overlap`` relies on that.  Four left turns prove
    convexity for four vertices only (a pentagram turns left at every
    corner), so any other shape raises ValueError.
    """
    if len(vs) != 4:
        raise ValueError("shrink_quad takes quads only")
    pts = list(vs)
    area2 = _signed_area2(pts)
    if abs(area2) <= DEGENERATE_AREA:
        return None
    if area2 < 0.0:
        pts.reverse()
    lines = []  # (nx, ny, c) with nx*x + ny*y = c on the shifted edge line
    for i in range(4):
        (x0, y0), (x1, y1) = pts[i], pts[(i + 1) % 4]
        ex, ey = x1 - x0, y1 - y0
        length = math.hypot(ex, ey)
        if length < SHRINK_MIN_EDGE:
            return None
        nx, ny = ey / length, -ex / length  # outward normal for CCW order
        lines.append((nx, ny, nx * x0 + ny * y0 - delta))
    out = []
    for (pnx, pny, pc), (nx, ny, c) in zip(lines[-1:] + lines[:-1], lines):
        # vertex i is where edge lines i - 1 and i meet
        det = pnx * ny - pny * nx
        if abs(det) < SHRINK_MIN_DET:
            return None
        out.append(((pc * ny - c * pny) / det, (pnx * c - nx * pc) / det))
    if _signed_area2(out) <= DEGENERATE_AREA:
        return None
    if any(_orient(out[i - 2], out[i - 1], out[i]) <= 0 for i in range(4)):
        return None
    # over-shrinking past the inradius produces a point-reflected phantom
    # that is still convex and CCW; it is exposed by violating the shifted
    # lines
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


def edge(p: Point2, q: Point2) -> Edge:
    """The edge from p to q as an ``Edge``: lo is the distance of the
    perpendicular foot from the origin where that falls strictly inside the
    edge, and otherwise of the nearer end."""
    (x0, y0), (x1, y1) = p, q
    dx, dy = x1 - x0, y1 - y0
    a, b = dx * dx + dy * dy, 2.0 * (x0 * dx + y0 * dy)
    t = -b / (2.0 * a)
    near, far = sorted((math.hypot(x0, y0), math.hypot(x1, y1)))
    lo = math.hypot(x0 + t * dx, y0 + t * dy) if 0.0 < t < 1.0 else near
    return lo, far, (x0, y0, dx, dy, a, b, x0 * x0 + y0 * y0, 2.0 * a)


def circle_quad_arcs(
    edges: Sequence[Edge], radii: Sequence[float]
) -> list[tuple[float, float, Crossing, Crossing] | None]:
    """At each of the sorted ``radii``, the arc of C(r) from its smallest to
    its largest crossing with ``edges``, as (start, end, start crossing, end
    crossing); None where C(r) crosses no edge.

    The circle is about the origin, and each crossing's angle lies in (0, 2
    pi]: one at angle 0 reads 2 pi.  For a region in the lower half-plane
    whose boundary is ``edges``, every arc of C(r) inside it lies in the
    directions [pi, 2 pi], and where C(r) passes no vertex and grazes no
    edge every crossing is an arc end, so this is the shortest arc covering
    C(r) within the region, and no point is tested for membership.  Each
    edge's distance range is bisected into the radii, so an edge is solved
    only at the radii where C(r) can meet it.

    The name is the per-rhomb kernel's that this replaced: the benchmark's
    tracer looks the function up under it in ``verify``, and the rename
    goes with the tracer's targets (ROADMAP item 1).
    """
    starts = [math.inf] * len(radii)
    ends = [-math.inf] * len(radii)
    start_at: list = [None] * len(radii)
    end_at: list = [None] * len(radii)
    for lo, hi, row in edges:
        x0, y0, dx, dy, a, b, cc, a2 = row
        for k in range(bisect_left(radii, lo), bisect_right(radii, hi)):
            disc = b * b - 4.0 * a * (cc - radii[k] * radii[k])
            if disc < 0.0:
                continue
            sq = math.sqrt(disc)
            for branch in (-1.0, 1.0):
                t = (-b + branch * sq) / a2
                if 0.0 <= t <= 1.0:
                    angle = math.atan2(y0 + t * dy, x0 + t * dx) % TWO_PI or TWO_PI
                    if angle < starts[k]:
                        starts[k], start_at[k] = angle, (angle, row, branch)
                    if angle > ends[k]:
                        ends[k], end_at[k] = angle, (angle, row, branch)
    return [
        None if s == math.inf else (s, e, s_at, e_at)
        for s, e, s_at, e_at in zip(starts, ends, start_at, end_at)
    ]


def crossing_angle(r: float, crossing: Crossing) -> float:
    """The angle at which C(r) meets the edge root labelled ``crossing``.

    The same closed form as ``circle_quad_arcs``: t = (-b +- sqrt(disc)) /
    2a on the labelled branch, then the direction of the edge point, taken
    within pi of the crossing's labelled angle.  The root moves along its
    edge, which subtends less than pi at the origin, so that picks the turn
    of a crossing followed from the circle where it was labelled: an arc
    end that wraps past 2 pi stays there, and a crossing that reaches the
    positive x axis from below reads 2 pi, not 0.  Here the discriminant is
    clamped at 0 and t onto [0, 1], so at an event radius, where the
    crossing grazes the edge or reaches one of its ends, the angle is its
    limit from the circles where the crossing exists.
    """
    near, (x0, y0, dx, dy, a, b, cc, a2), branch = crossing
    disc = b * b - 4.0 * a * (cc - r * r)
    t = (-b + branch * math.sqrt(disc)) / a2 if disc > 0.0 else -b / a2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    angle = math.atan2(y0 + t * dy, x0 + t * dx) % TWO_PI
    if angle - near > math.pi:
        return angle - TWO_PI
    if near - angle > math.pi:
        return angle + TWO_PI
    return angle


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
    """True iff the open interiors of two ``shrink_quad`` results intersect.

    Both inputs must be strictly convex CCW quads, as ``shrink_quad``
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
