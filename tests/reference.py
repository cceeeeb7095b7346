"""Scalar reference for the overlap oracle's sort-and-prune pass.

``reference_oracle`` is the per-row bounding-box oracle that
``verify.net_overlap_oracle`` replaces with sort-and-prune.  It is kept as
it was written for one row at a time, over the same ``geom.shrink_quad``
results, so the tests can assert the same hits and the same predicate calls
in the same order.  ``net_overlap_oracle`` is in turn the reference for
``verify.orbit_overlap_oracle``, which ``run_verification`` runs: the tests
require its hits to be the all-pairs hits whose first zone is 0.
"""

from __future__ import annotations

import numpy as np

from zonet.geom import polygons_interior_overlap, shrink_quad
from zonet.verify import OVERLAP_SLACK


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
