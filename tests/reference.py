"""Scalar reference implementations that the array code must reproduce exactly.

``reference_shrink`` is the per-quad shrink that ``geom.shrink_quads``
batches, and ``reference_oracle`` the per-row bounding-box oracle that
``verify.net_overlap_oracle`` replaces with sort-and-prune.  Both are kept
as they were written for one quad and one row at a time, so the tests can
assert bit-identical shrinks and the same hits in the same order.
``net_overlap_oracle`` is in turn the reference for
``verify.orbit_overlap_oracle``, which ``run_verification`` runs: the tests
require its hits to be the all-pairs hits whose first zone is 0.
"""

from __future__ import annotations

import math

import numpy as np

from zonet.geom import (
    PHANTOM_SLACK,
    SHRINK_MIN_DET,
    SHRINK_MIN_EDGE,
    DEGENERATE_AREA,
    _orient,
    _signed_area2,
    polygons_interior_overlap,
)
from zonet.verify import OVERLAP_SLACK


def reference_shrink(vs, delta):
    """Offset every edge of a convex quad inward by ``delta``, one quad at a time."""
    if len(vs) != 4:
        raise ValueError("shrink_convex takes quads only")
    pts = list(vs)
    area2 = _signed_area2(pts)
    if abs(area2) <= DEGENERATE_AREA:
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
    out = []
    for i in range(4):
        a = lines[i - 1]
        b = lines[i]
        det = a[0] * b[1] - a[1] * b[0]
        if abs(det) < SHRINK_MIN_DET:
            return None
        x = (a[2] * b[1] - b[2] * a[1]) / det
        y = (a[0] * b[2] - b[0] * a[2]) / det
        out.append((x, y))
    if _signed_area2(out) <= DEGENERATE_AREA:
        return None
    for i in range(4):
        if _orient(out[i - 2], out[i - 1], out[i]) <= 0:
            return None
    for x, y in out:
        for nx, ny, c in lines:
            if nx * x + ny * y > c + PHANTOM_SLACK:
                return None
    return out


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
            quads.append(reference_shrink(quad, slack))
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
