"""Scalar references for the overlap oracle and the beta profile.

``reference_oracle`` is the per-row bounding-box oracle that
``verify.net_overlap_oracle`` replaces with sort-and-prune.  It is kept as
it was written for one row at a time, over the same ``geom.shrink_quad``
results, so the tests can assert the same hits and the same predicate calls
in the same order.  ``net_overlap_oracle`` is in turn the reference for
``verify.orbit_overlap_oracle``, which ``run_verification`` runs: the tests
require its hits to be the all-pairs hits whose first zone is 0.

``reference_circle_quad_arcs`` is the per-rhomb circle kernel that the beta
profile ran before it read beta off the zone's boundary edges: it clips
C(r) against one quad by a midpoint membership test.  ``reference_betas``
spans its arcs over a zone's rhombs, the reference for
``verify.circle_quad_arcs``.
"""

from __future__ import annotations

import math

import numpy as np

from zonet import geom
from zonet.geom import polygons_interior_overlap, shrink_quad
from zonet.verify import OVERLAP_SLACK

TWO_PI = 2.0 * math.pi
#: crossings of one circle closer than this are one crossing (a circle
#: through a quad vertex crosses both edges there)
MERGE_EPS = 1e-12


def reference_oracle(net, slack=OVERLAP_SLACK):
    """Overlapping cross-zone rhomb pairs, by one bounding-box row per rhomb.

    Calls ``polygons_interior_overlap`` on every cross-zone pair whose open
    boxes overlap, in (i, j) order.
    """
    labels = []
    quads = []
    for zi, zone in enumerate(net.zones):
        for ri, quad in enumerate(zone.corners):
            labels.append((zi, ri))
            quads.append(shrink_quad(quad, slack))
    keep = [i for i, q in enumerate(quads) if q is not None]
    labels = [labels[i] for i in keep]
    quads = [quads[i] for i in keep]
    if not quads:
        return []
    pts = np.array(quads)  # (N, 4, 2)
    mins = pts.min(axis=1)
    maxs = pts.max(axis=1)
    zones = np.array([z for z, _ in labels])

    hits = []
    n_quads = len(quads)
    for i in range(n_quads):
        cross = zones[i + 1 :] != zones[i]
        box = (
            (mins[i + 1 :, 0] < maxs[i, 0])
            & (mins[i, 0] < maxs[i + 1 :, 0])
            & (mins[i + 1 :, 1] < maxs[i, 1])
            & (mins[i, 1] < maxs[i + 1 :, 1])
        )
        for off in np.nonzero(cross & box)[0]:
            j = i + 1 + int(off)
            if polygons_interior_overlap(quads[i], quads[j]):
                hits.append((labels[i], labels[j]))
    return hits


def _segment_circle_params(p, q, r):
    """Parameters t in [0,1] where segment p+t(q-p) meets the circle |x|=r."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    a = dx * dx + dy * dy
    if a < 1e-30:
        return []
    b = 2.0 * (p[0] * dx + p[1] * dy)
    c = p[0] * p[0] + p[1] * p[1] - r * r
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    ts = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
    out = []
    for t in ts:
        if -1e-12 <= t <= 1.0 + 1e-12:
            out.append(min(max(t, 0.0), 1.0))
    return out


def reference_contains(vs, p, tol=1e-12):
    """Closed test of the point p against the CCW quad ``vs``, ``tol`` wide."""
    for i in range(4):
        a, b = vs[i], vs[(i + 1) % 4]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol:
            return False
    return True


def reference_circle_quad_arcs(center, r, vs):
    """CCW arcs (start, end) of the circle of radius r about ``center``
    inside the quad ``vs``, pairwise disjoint and in increasing order.

    The quad is oriented CCW and moved by -center; the circle's crossings
    with its edges, merged within ``MERGE_EPS``, partition the circle, and
    each piece whose midpoint lies in the quad is an arc.  The membership
    tolerance is 1e-12, times r below unit radius.  A degenerate quad gives
    no arc.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    area2 = geom._signed_area2(vs)
    if abs(area2) <= geom.DEGENERATE_AREA:
        return ()
    if area2 < 0.0:
        vs = vs[::-1]
    vs = [(x - center[0], y - center[1]) for x, y in vs]

    crossings = []
    for i in range(4):
        p0, p1 = vs[i], vs[(i + 1) % 4]
        for t in _segment_circle_params(p0, p1, r):
            x = p0[0] + t * (p1[0] - p0[0])
            y = p0[1] + t * (p1[1] - p0[1])
            crossings.append(math.atan2(y, x) % TWO_PI)

    tol = 1e-12 * min(r, 1.0)
    crossings.sort()
    dedup = []
    for a in crossings:
        if not dedup or a - dedup[-1] > MERGE_EPS:
            dedup.append(a)
    if len(dedup) > 1 and dedup[0] + TWO_PI - dedup[-1] <= MERGE_EPS:
        dedup.pop()

    if not dedup:
        return ((0.0, TWO_PI),) if reference_contains(vs, (r, 0.0), tol) else ()

    arcs = []
    m = len(dedup)
    for i in range(m):
        a = dedup[i]
        b = dedup[(i + 1) % m]
        if i == m - 1:
            b += TWO_PI
        mid = 0.5 * (a + b)
        if reference_contains(vs, (r * math.cos(mid), r * math.sin(mid)), tol):
            arcs.append((a, b))
    return tuple(arcs)


def span(arcs):
    """From the first start to the last end of ``arcs``, None for no arcs:
    beta, since every arc of C(r) in a zone lies in the directions [pi, 2 pi]."""
    return max(a[1] for a in arcs) - min(a[0] for a in arcs) if arcs else None


def reference_betas(zone, radii):
    """beta at each of ``radii``: the span of the reference kernel's arcs
    over every rhomb of the zone."""
    return [
        span([a for quad in zone.corners for a in reference_circle_quad_arcs((0.0, 0.0), r, quad)])
        for r in radii
    ]
