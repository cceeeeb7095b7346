"""Planar primitives: angles, circle/quad arcs, exact overlap.

Angles are radians everywhere, normalized to [0, 2*pi).  Lengths are in rhomb-edge
units.  ``circle_quad_arcs`` returns the arcs of one circle about the origin
inside one quad; ``verify`` spans the arcs it collects over a zone's quads.
``circle_table`` computes a quad's per-edge circle-crossing coefficients once,
so only the radius-dependent terms are computed per call.  ``shrink_quads``
shrinks a whole array of quads in one pass and decides, once per quad, that
each result is a strictly convex CCW quad; the overlap predicate for two such
quads is then a bare separating-axis test.
Both use one filtered float orientation with an exact rational fallback: each
orientation is decided in floating point when its error bound allows and
otherwise on the binary-float values embedded losslessly as rationals, so
"touching" versus "overlapping" is decided exactly with respect to the
coordinates actually computed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: circle crossings closer than this are one crossing (a circle through a
#: quad vertex crosses both edges there)
MERGE_EPS = 1e-12
#: edges whose squared length is below this are points: they cross no circle
NULL_EDGE_SQ = 1e-30
#: slack on the segment parameter t in [0, 1] of a circle crossing; a root
#: within it is clamped onto the segment's end
CROSSING_T_SLACK = 1e-12
#: a point this far outside an edge line still counts as inside a quad
CONTAIN_TOL = 1e-12
#: a quad whose doubled signed area is at most this in magnitude is
#: degenerate: it has no circle table and shrinks to nothing
DEGENERATE_AREA = 1e-14
#: ``shrink_quads`` drops a quad with an edge shorter than this, or with two
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


#: index of each quad corner's successor and predecessor
_NEXT = np.array([1, 2, 3, 0])
_PREV = np.array([3, 0, 1, 2])


def shrink_quads(quads: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Offset every edge of each convex quad in ``quads`` (N, 4, 2) inward by ``delta``.

    Returns ``(out, ok)``: where ``ok[k]``, ``out[k]`` holds quad k's shrunk
    vertices (edge-line intersections) in CCW order; elsewhere quad k was too
    thin to survive the offset and ``out[k]`` is meaningless.  Used to ignore
    hairline contacts: two convex regions overlap by more than a sliver of
    width ~delta iff their shrunk versions still intersect.

    One array pass over all quads, with the float operations of a per-quad
    loop in the same order, so each result is the same bits the quad alone
    gives; edge lengths come from ``math.hypot``.  Every result turns
    strictly left at each of its four corners, decided by the filtered float
    orientation with ``_orient_exact`` for each corner the filter cannot
    decide, so it is a simple, strictly convex, CCW quad:
    ``polygons_interior_overlap`` relies on that.  Four left turns prove
    convexity for four vertices only (a pentagram turns left at every
    corner), so any other shape raises ValueError.
    """
    q = np.asarray(quads, dtype=float)
    if q.ndim != 3 or q.shape[1:] != (4, 2):
        raise ValueError("shrink_quads takes an (N, 4, 2) array of quads")
    with np.errstate(all="ignore"):  # rejected quads may divide by zero
        area2 = _area2(q[..., 0], q[..., 1])
        ok = ~(np.abs(area2) <= DEGENERATE_AREA)
        q = np.where((area2 < 0.0)[:, None, None], q[:, ::-1], q)  # to CCW
        x, y = q[..., 0], q[..., 1]
        ex, ey = x[:, _NEXT] - x, y[:, _NEXT] - y
        length = np.array(
            list(map(math.hypot, ex.ravel().tolist(), ey.ravel().tolist()))
        ).reshape(ex.shape)
        ok &= ~(length < SHRINK_MIN_EDGE).any(axis=1)
        # edge line i (outward normal for CCW order): nx*x + ny*y = c
        nx, ny = ey / length, -ex / length
        c = (nx * x + ny * y) - delta
        # vertex i is where edge lines i - 1 and i meet
        pnx, pny, pc = nx[:, _PREV], ny[:, _PREV], c[:, _PREV]
        det = pnx * ny - pny * nx
        ok &= ~(np.abs(det) < SHRINK_MIN_DET).any(axis=1)
        ox = (pc * ny - c * pny) / det
        oy = (pnx * c - nx * pc) / det
        ok &= ~(_area2(ox, oy) <= DEGENERATE_AREA)
        _reject_right_turns(ox, oy, ok)
        # over-shrinking past the inradius produces a point-reflected phantom
        # that is still convex and CCW; it is exposed by violating the
        # shifted lines: side[k, vertex, line]
        side = nx[:, None, :] * ox[:, :, None] + ny[:, None, :] * oy[:, :, None]
        ok &= ~(side > (c + PHANTOM_SLACK)[:, None, :]).any(axis=(1, 2))
    return np.stack((ox, oy), axis=-1), ok


def _signed_area2(vs: Sequence[Point2]) -> float:
    s = 0.0
    n = len(vs)
    for i in range(n):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return s


def _area2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Twice the signed area of each quad, summed from 0.0 edge by edge as
    ``_signed_area2`` sums it."""
    t = x * y[:, _NEXT] - x[:, _NEXT] * y
    return 0.0 + t[:, 0] + t[:, 1] + t[:, 2] + t[:, 3]


def _reject_right_turns(x: np.ndarray, y: np.ndarray, ok: np.ndarray) -> None:
    """Clear ``ok[k]`` unless quad k turns strictly left at every corner.

    ``_orient`` over all corners (i - 2, i - 1, i) at once: the float filter
    decides most, and each corner it cannot decide of a quad still in ``ok``
    goes to ``_orient_exact``.
    """
    ax, ay = x[:, _PREV[_PREV]], y[:, _PREV[_PREV]]
    bx, by = x[:, _PREV], y[:, _PREV]
    left = (bx - ax) * (y - ay)
    right = (by - ay) * (x - ax)
    det = left - right
    bound = _CCW_ERRBOUND * (np.abs(left) + np.abs(right)) + _UNDERFLOW_ERR
    ok &= ~(det < -bound).any(axis=1)
    undecided = ~((det > bound) | (det < -bound)) & ok[:, None]
    for k, i in np.argwhere(undecided).tolist():
        if ok[k] and _orient_exact(
            (float(ax[k, i]), float(ay[k, i])),
            (float(bx[k, i]), float(by[k, i])),
            (float(x[k, i]), float(y[k, i])),
        ) <= 0:
            ok[k] = False


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
    points only.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if table is None:
        return ()
    crossing, sides = table
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
    """True iff the open interiors of two ``shrink_quads`` results intersect.

    Both inputs must be strictly convex CCW quads, as ``shrink_quads``
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
