"""Planar primitives: angles, circle/quad arcs, exact overlap.

Angles are radians everywhere, normalized to [0, 2*pi).  Lengths are in rhomb-edge
units.  ``circle_quad_arcs`` returns the arcs of one circle about the origin
inside one quad; ``verify`` spans the arcs it collects over a zone's quads.
``circle_table`` computes a quad's per-edge circle-crossing coefficients once,
so only the radius-dependent terms are computed per call.  ``shrink_quad``
shrinks one quad and decides that the result is a strictly convex CCW quad;
the overlap predicate for two such quads is then a bare separating-axis test.
Both decide every turn with the one filtered float orientation ``_orient``,
which falls back to exact rationals: each orientation is decided in floating
point when its error bound allows and otherwise on the binary-float values
embedded losslessly as rationals, so "touching" versus "overlapping" is
decided exactly with respect to the coordinates actually computed.  The
module uses no numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

TWO_PI = 2.0 * math.pi

#: circle crossings closer than this are one crossing (a circle through a
#: quad vertex crosses both edges there)
MERGE_EPS = 1e-12
#: edges whose squared length is below this are points: they cross no circle
NULL_EDGE_SQ = 1e-30
#: slack on the segment parameter t in [0, 1] of a circle crossing; a root
#: within it is clamped onto the segment's end
CROSSING_T_SLACK = 1e-12
#: a point this far outside an edge line still counts as inside a quad;
#: ``circle_quad_arcs`` scales it by r for a circle of radius r < 1
CONTAIN_TOL = 1e-12
#: a quad whose doubled signed area is at most this in magnitude is
#: degenerate: it has no circle table and shrinks to nothing
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
Arcs = tuple[tuple[float, float], ...]
#: ``circle_table``'s ``(crossing, sides)`` edge coefficients
CircleTable = tuple[tuple[tuple[float, ...], ...], tuple[tuple[float, ...], ...]]


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
# convex quadrilaterals and circle intersection


def circle_table(vs: Sequence[Point2]) -> CircleTable | None:
    """Per-edge coefficients of a convex quad for meeting circles about the
    origin, or None for a degenerate quad (doubled area within DEGENERATE_AREA).

    ``(crossing, sides)``, with the vertices taken in CCW order: ``crossing``
    holds ``(x0, y0, dx, dy, a, b, cc, 2a)`` for every edge ``(x0, y0) + t
    (dx, dy)`` of positive length, where ``a t^2 + b t + cc - r^2 = 0`` puts
    the edge point on the circle of radius r; ``sides`` holds ``(x0, y0, dx,
    dy)`` for all four edges, for the containment test.  Computed once per
    quad, so a circle of each new radius costs only its radius-dependent terms.
    """
    area2 = _signed_area2(vs)
    if abs(area2) <= DEGENERATE_AREA:
        return None
    if area2 < 0.0:
        vs = vs[::-1]
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


def circle_quad_arcs(r: float, table: CircleTable | None) -> Arcs:
    """CCW arcs (start, end) of angles phi with r*(cos phi, sin phi) inside
    the quad whose ``circle_table`` is ``table``, pairwise disjoint and in
    increasing order.

    The circle is about the origin (translate the quad to move it).  It is
    intersected with each edge, using the table's coefficients; the
    resulting angular partition is classified by midpoint membership.  In
    exact geometry the circle crosses the boundary of a convex quad at most
    8 times, so at most 4 arcs lie inside.  Near an edge tangency, though,
    the float discriminant leaves two crossings about 1e-8 apart where
    there is one touch, and these split one arc into adjacent arcs that
    share an end: at (3, 2.1009 deg), R_1 and r = 0.8671861417025767,
    where C(r) grazes two edge lines, 5 arcs result; their span is the
    one arc's.  Zero-measure contacts (tangency, a degenerate quad, whose
    table is None) give no arc: the overlap machinery cares about interior
    points only.  Below unit radius the membership tolerance shrinks with
    r: a small circle about the apex of a thin rhomb lies wholly within
    CONTAIN_TOL of both its edge lines, so with the absolute tolerance the
    arc outside the rhomb counted as inside (at n = 3, theta = 90 deg -
    1.7e-6 rad, R_1 and r = 3e-9, the arcs covered the whole circle).
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if table is None:
        return ()
    crossing, sides = table
    tol = CONTAIN_TOL * r if r < 1.0 else CONTAIN_TOL
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
        return ((0.0, TWO_PI),) if _inside(sides, r, 0.0, tol) else ()

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
            if dx * (y - y0) - dy * (x - x0) < -tol:
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
