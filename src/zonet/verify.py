"""Numeric verification that the zone-by-zone unfolding cannot overlap.

The central quantity is beta(r): the angle of the shortest arc of the circle
C(r) about the pole image o that covers C(r)'s intersection with one unfolded
zone.  Adjacent zones in the net are copies of the same zone rotated by alpha
about o, so the net is overlap-free when beta(r) <= alpha for every radius.

Everything here is numeric but event-driven: the combinatorics of C(r) within
the zone only change at radii where the circle passes through a vertex or
grazes an edge.  beta is evaluated at every such event radius and at both of
its one-sided neighbours; beta is monotone between events, so those samples
reach its supremum.  Each cell computes that profile once: at theta = 0 the
upper-half and lower-half checks read their radius windows off the same
profile that bounds beta by alpha.

The one fully exact check is `net_overlap_oracle`, which tests rhomb pairs of
the assembled net with a filtered float predicate with an exact rational
fallback and is independent of the beta machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import (
    NULL_EDGE_SQ,
    Arcs,
    circle_quad_arcs,
    covering_arc_of_angles,
    merge_arcs,
    polygons_interior_overlap,
    shortest_covering_arc,
    shrink_quads,
)
from .unfold import Net, PlanarZone, assemble_net, planar_zone

BETA_TOL = 1e-9
STRICT_MARGIN = 1e-12
EVENT_EPS = 1e-9
ANGLE_TOL = 1e-10
#: slack on each rhomb's [min, max] distance from o when choosing the rhombs
#: a circle C(r) can meet
RANGE_SLACK = 1e-12
#: points this close to o are o itself: they give no event radius, no sample
#: radius and no direction
MIN_RADIUS = 1e-12
#: event radii closer than this are one event computed two ways
EVENT_MERGE = 1e-12
#: an edge's perpendicular foot from o gives a grazing event radius only when
#: its segment parameter lies this far inside (0, 1); nearer an end, the
#: vertex radius is the event
FOOT_T_MARGIN = 1e-9
#: a candidate diagonal whose |dy| is below this is horizontal, and its
#: bisector, the vertical line x = mx, passes through o when |mx| is below
#: ``ON_AXIS_X``
HORIZONTAL_DY = 1e-12
ON_AXIS_X = 1e-9
#: the chord at the central rhomb's corner radius is measured this far inside
#: that radius (and at least this far from o)
CORNER_RADIUS_OFFSET = 1e-10


# ---------------------------------------------------------------------------
# beta(r) and its profile over all radii


def _quad_edges(quad):
    return [(quad[i], quad[(i + 1) % 4]) for i in range(4)]


def zone_arcs(zone: PlanarZone, r: float) -> Arcs:
    """The merged arcs of C(r) inside the zone's rhombs."""
    pieces = []
    for (lo, hi), table in zip(zone.radius_ranges, zone.circle_tables):
        if lo - RANGE_SLACK <= r <= hi + RANGE_SLACK:
            pieces.extend(circle_quad_arcs(r, table))
    return merge_arcs(pieces)


def beta_of_r(zone: PlanarZone, r: float) -> float | None:
    """Covering-arc angle of C(r) within the zone; None if C(r) misses it."""
    return shortest_covering_arc(zone_arcs(zone, r))


def critical_radii(zone: PlanarZone) -> list[float]:
    """Radii where C(r) passes through a vertex or grazes an edge of the zone."""
    events: set[float] = set()
    for quad in zone.corners:
        for p in quad:
            d = math.hypot(*p)
            if d > MIN_RADIUS:
                events.add(d)
        for p, q in _quad_edges(quad):
            # perpendicular foot strictly inside the segment: a grazing radius
            dx, dy = q[0] - p[0], q[1] - p[1]
            dd = dx * dx + dy * dy
            if dd < NULL_EDGE_SQ:
                continue
            t = -(p[0] * dx + p[1] * dy) / dd
            if FOOT_T_MARGIN < t < 1.0 - FOOT_T_MARGIN:
                events.add(math.hypot(p[0] + t * dx, p[1] + t * dy))
    # merge float-noise duplicates (the same vertex radius computed two ways)
    out: list[float] = []
    for e in sorted(events):
        if not out or e - out[-1] > EVENT_MERGE:
            out.append(e)
    return out


def sample_radii(zone: PlanarZone) -> list[float]:
    """Every event radius e with its neighbours e - EVENT_EPS and e + EVENT_EPS.

    Between consecutive events C(r) crosses the same edges, and while beta < pi
    the covering arc ends on the same two of them.  An end on an edge line at
    distance d from o sits at phi0 +- acos(d/r), so beta' = +-f(d_a) -+ f(d_b)
    with f(d) = d / (r * sqrt(r*r - d*d)) increasing in d: beta is monotone or
    constant between events, and its supremum is a one-sided limit at an event,
    which e -+ EVENT_EPS approaches while events lie more than EVENT_EPS apart.
    Below the first event C(r) meets only R_1, cornered at o: beta = alpha.
    """
    rs: set[float] = set()
    for e in critical_radii(zone):
        for r in (e - EVENT_EPS, e, e + EVENT_EPS):
            if r > MIN_RADIUS:
                rs.add(r)
    return sorted(rs)


def beta_profile(zone: PlanarZone) -> list[tuple[float, float]]:
    """(r, beta(r)) over the event radii and their neighbours, skipping misses."""
    out = []
    for r in sample_radii(zone):
        b = beta_of_r(zone, r)
        if b is not None:
            out.append((r, b))
    return out


# ---------------------------------------------------------------------------
# per-rhomb subtended angles and the diagonal-perpendicular test


def rhomb_subtended_angles(zone: PlanarZone) -> list[float]:
    """beta_i: angle subtended at o by rhomb R_i (list index i-1).

    The rhombs are convex and o lies outside each of them except for the
    corner of R_1 at o itself, so the subtended angle is attained at corner
    directions; corners at o contribute no direction of their own.
    """
    out = []
    for quad in zone.corners:
        angles = [math.atan2(p[1], p[0]) for p in quad if math.hypot(*p) > MIN_RADIUS]
        arc = covering_arc_of_angles(angles)
        assert arc is not None
        out.append(arc)
    return out


def candidate_diagonal(quad) -> tuple:
    """The diagonal that could be a chord of a circle about o.

    A chord has endpoints equidistant from the center, so the candidate is the
    diagonal whose endpoint distances from o are the more nearly equal.
    """
    tl, tr, br, bl = quad
    best = None
    for p, q in ((tr, bl), (tl, br)):
        imbalance = abs(math.hypot(*q) - math.hypot(*p))
        if best is None or imbalance < best[0]:
            best = (imbalance, (p, q))
    return best[1]


def diagonal_perpendicular_test(zone: PlanarZone) -> list[float]:
    """Signed heights where each candidate diagonal's perpendicular bisector
    crosses the vertical line through o, for rhombs R_2..R_{n-1}.

    The bisector of one rhomb diagonal is the line of the other diagonal; a
    negative value means it passes below o, so the diagonal cannot be a chord
    of any circle about o.  List index k holds rhomb R_{k+2}.
    """
    offsets = []
    for quad in zone.corners[1:]:
        p, q = candidate_diagonal(quad)
        mx, my = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
        dx, dy = q[0] - p[0], q[1] - p[1]
        if abs(dy) < HORIZONTAL_DY:
            # horizontal diagonal: the bisector is the vertical line x = mx,
            # which passes through o exactly when mx = 0
            offsets.append(0.0 if abs(mx) < ON_AXIS_X else math.copysign(math.inf, -1.0))
            continue
        offsets.append(my + (mx / dy) * dx)
    return offsets


# ---------------------------------------------------------------------------
# the nearly flat central rhomb (n even)


@dataclass(frozen=True)
class FlatRhombReport:
    corner_angle: float  # the central-rhomb corner angle that matches 2*theta
    axis_diagonal: float  # along the near-flat axis: 2*cos(theta) in theory
    cross_diagonal: float  # across it: 2*sin(theta), the "lift" of the far end
    radial_lift: float  # |o b| - |o a| for the axis-diagonal ends a, b
    max_chord: float  # over the profile's radii crossing the central rhomb
    chord_at_corner_radius: float


def flat_rhomb_check(
    zone: PlanarZone, profile: list[tuple[float, float]]
) -> FlatRhombReport:
    """Measurements backing the chord bound |xy| < 2 at the central rhomb.

    Requires n even.  The central rhomb has unit sides and one corner angle
    equal to 2*theta, so its diagonals are exactly 2*cos(theta) (the near-flat
    axis, approaching the doubled unit segment as theta -> 0) and 2*sin(theta)
    (how far the outer end is pushed off that axis).  That push strictly
    raises the outer end's radius from o once theta > 0, which is what keeps
    every chord of C(r) within the zone short of length 2.  ``profile`` is
    the zone's ``beta_profile``: the chords are measured at its radii.
    """
    n = zone.n
    if n % 2 != 0:
        raise ValueError("the central rhomb exists only for n even")
    theta = zone.theta
    quad = zone.corners[n // 2 - 1]
    tl, tr, br, bl = quad
    pairs = ((tl, br), (tr, bl))
    lengths = [math.dist(p, q) for p, q in pairs]
    axis_idx = min((0, 1), key=lambda i: abs(lengths[i] - 2.0 * math.cos(theta)))
    axis_d = lengths[axis_idx]
    cross_d = lengths[1 - axis_idx]
    ra, rb = sorted(math.hypot(*p) for p in pairs[axis_idx])

    corner = _corner_angle(tr, tl, bl)
    if abs(math.pi - corner - 2.0 * theta) < abs(corner - 2.0 * theta):
        corner = math.pi - corner

    lo, hi = zone.radius_ranges[n // 2 - 1]
    worst = max(
        (
            2.0 * r * math.sin(min(b, math.pi) / 2.0)
            for r, b in profile
            if lo - EVENT_EPS <= r <= hi + EVENT_EPS
        ),
        default=0.0,
    )
    r_corner = max(ra - CORNER_RADIUS_OFFSET, CORNER_RADIUS_OFFSET)
    b = beta_of_r(zone, r_corner)
    chord_corner = 0.0 if b is None else 2.0 * r_corner * math.sin(min(b, math.pi) / 2.0)
    return FlatRhombReport(corner, axis_d, cross_d, rb - ra, worst, chord_corner)


def _corner_angle(u, v, w) -> float:
    # atan2 keeps full relative precision at angles near 0 and pi, where acos
    # of the normalised dot product loses half the digits
    ax, ay = u[0] - v[0], u[1] - v[1]
    bx, by = w[0] - v[0], w[1] - v[1]
    return math.atan2(abs(ax * by - ay * bx), ax * bx + ay * by)


# ---------------------------------------------------------------------------
# exact pairwise overlap oracle over the assembled net


OVERLAP_SLACK = 1e-9
#: box pairs the sort-and-prune pass expands at once: its temporaries stay
#: at a few arrays of this many entries whatever n is
PRUNE_BLOCK = 1 << 18


def net_overlap_oracle(net: Net) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All pairs of rhombs from different zones whose interiors overlap.

    Every rhomb of ``net.corners`` is first shrunk inward by
    ``OVERLAP_SLACK`` in one ``shrink_quads`` pass, which decides exactly,
    once per rhomb, that the result is a strictly convex CCW quad (or drops
    it), so each candidate pair is tested with a bare exact separating-axis
    predicate (a filtered float predicate with an exact rational fallback).  The shrink absorbs
    the ~1e-16 placement noise of the floating-point net: zones that touch
    along exactly-shared boundaries in the ideal net (the pole-edge fan; the
    theta = 0 chain abutments) would otherwise produce hairline "overlaps"
    whose presence depends on rounding direction.  Real overlaps are many
    orders of magnitude wider than the slack and are always reported.

    The candidates are the cross-zone pairs whose open bounding boxes
    overlap, found by sort-and-prune; overlap of the shrunk interiors forces
    their boxes to overlap, so the prefilter loses nothing.  Pairs and hits
    come in (zone, rhomb)-major order.
    """
    per_zone = net.corners.shape[1]
    shrunk, ok = shrink_quads(net.corners.reshape(-1, 4, 2), OVERLAP_SLACK)
    keep = np.flatnonzero(ok)
    quads = shrunk[keep]
    first, second = _candidate_pairs(quads.min(axis=1), quads.max(axis=1), keep // per_zone)
    pts = quads.tolist()
    labels = keep.tolist()
    hits = []
    for i, j in zip(first.tolist(), second.tolist()):
        if polygons_interior_overlap(pts[i], pts[j]):
            hits.append((divmod(labels[i], per_zone), divmod(labels[j], per_zone)))
    return hits


def _candidate_pairs(
    mins: np.ndarray, maxs: np.ndarray, zones: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j, in (i, j) order, of boxes from different zones
    whose open boxes overlap.

    Sort-and-prune on x (J. D. Cohen, M. C. Lin, D. Manocha, M. Ponamgi,
    "I-COLLIDE", I3D 1995): in order of left edge, box k's x-range meets
    exactly the boxes after it that start before it ends, a contiguous run.
    Every box has positive width, so those runs are all the x-overlapping
    pairs, each once; the runs are expanded ``PRUNE_BLOCK`` pairs at a time
    and kept when their zones differ and their y-ranges overlap.
    """
    order = np.argsort(mins[:, 0], kind="stable")
    lo_x = mins[order, 0]
    lo_y, hi_y, zone = mins[order, 1], maxs[order, 1], zones[order]
    count = np.searchsorted(lo_x, maxs[order, 0], side="left") - np.arange(len(order)) - 1
    done = np.concatenate(([0], np.cumsum(count)))  # pairs before each row
    firsts, seconds = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    start = 0
    while start < len(order):
        # the rows whose runs fit in one block, and at least one row
        stop = int(np.searchsorted(done, done[start] + PRUNE_BLOCK, side="right")) - 1
        stop = max(stop, start + 1)
        rows = np.arange(start, stop)
        runs = count[start:stop]
        a = np.repeat(rows, runs)
        b = np.arange(len(a)) - np.repeat(done[start:stop] - done[start], runs) + a + 1
        hit = (zone[a] != zone[b]) & (lo_y[b] < hi_y[a]) & (lo_y[a] < hi_y[b])
        a, b = order[a[hit]], order[b[hit]]
        firsts.append(np.minimum(a, b))
        seconds.append(np.maximum(a, b))
        start = stop
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    pick = np.lexsort((second, first))
    return first[pick], second[pick]


# ---------------------------------------------------------------------------
# aggregated verification


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    margin: float
    detail: str = ""

    @staticmethod
    def of(rules: list[tuple[float, bool]], detail: str) -> "CheckResult":
        """A check that passes when every rule does, with the smallest gap as margin.

        Each rule is ``(gap, strict)``: the signed distance from a measurement
        to its threshold, positive on the passing side; a strict rule needs
        ``gap > 0``, the others ``gap >= 0``.  So a passing check has margin
        >= 0 and a failing one margin <= 0.  A float difference ``t - x`` has
        the sign of ``x < t`` exactly, so each rule decides as the plain
        comparison would.
        """
        passed = all(g > 0.0 if strict else g >= 0.0 for g, strict in rules)
        return CheckResult(passed, min(g for g, _ in rules), detail)


@dataclass
class VerificationReport:
    n: int
    theta: float
    alpha: float
    checks: dict[str, CheckResult] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    # raw measurements behind beta_le_alpha and net_overlap, kept out of
    # as_dict; overlap_pairs stays 0 when the oracle is not run
    max_beta: float = math.nan
    overlap_pairs: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failures(self) -> list[str]:
        return [k for k, c in self.checks.items() if not c.passed]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "theta_rad": self.theta,
            "alpha_rad": self.alpha,
            "pass": self.passed,
            "checks": {
                k: {"pass": c.passed, "margin": c.margin, "detail": c.detail}
                for k, c in self.checks.items()
            },
            "skipped": dict(self.skipped),
        }


def run_verification(n: int, theta: float, check_overlap: bool = True) -> VerificationReport:
    """Run every applicable check for P(n, theta); deterministic."""
    zone = planar_zone(n, theta)
    alpha = zone.alpha
    rep = VerificationReport(n, theta, alpha)

    profile = beta_profile(zone)
    worst = rep.max_beta = max(b for _, b in profile)
    rep.checks["beta_le_alpha"] = CheckResult.of(
        [(alpha + BETA_TOL - worst, False)], f"max beta {worst:.12f}"
    )

    betas = rhomb_subtended_angles(zone)
    rest_margin = min((alpha - b for b in betas[1:]), default=math.inf)
    if theta > 0.0:
        # strict for theta > 0; at theta = 0 every upper rhomb subtends
        # exactly alpha, so only the upper bound is meaningful there
        rest_gap = rest_margin - STRICT_MARGIN
        detail = "beta_1 = alpha; beta_i < alpha for i >= 2"
    else:
        rest_gap = rest_margin + ANGLE_TOL
        detail = "beta_1 = alpha; beta_i <= alpha for i >= 2"
    rep.checks["subtended"] = CheckResult.of(
        [(ANGLE_TOL - abs(betas[0] - alpha), False), (rest_gap, True)], detail
    )

    upper, lower, flat = zone.half_split()
    if theta == 0.0:
        # below r_only_upper C(r) meets the upper half alone, where the
        # exact-alpha claim holds; radii reaching the central rhomb or the
        # lower half are the transition cases where the arc is split across
        # the halves
        ranges = zone.radius_ranges
        r_only_upper = min(ranges[i][0] for i in range(len(upper), n - 1))
        udev = max(abs(b - alpha) for r, b in profile if r < r_only_upper)
        rep.checks["upper_half"] = CheckResult.of(
            [(BETA_TOL - udev, True)], "C(r) covers exactly alpha of the upper half"
        )
        # strictly inside the lower half: at the transition radius (through
        # the corners where the halves meet) the arc subtends exactly alpha/2;
        # beta is monotone up to the next event, so that event's lower
        # neighbour bounds the interval just above the transition.  Past
        # r_transition + 2 EVENT_EPS every upper rhomb and the central one
        # lie more than RANGE_SLACK out of range, so C(r) meets the lower
        # half alone
        r_transition = max(ranges[i][1] for i in range(lower[0]))
        lmargin = min(
            alpha / 2.0 - b for r, b in profile if r > r_transition + 2.0 * EVENT_EPS
        )
        rep.checks["lower_half"] = CheckResult.of(
            [(lmargin - STRICT_MARGIN, True)], "lower-half arcs stay under alpha/2"
        )
        rep.skipped["diagonals"] = "theta = 0: diagonal bisectors pass through o exactly"
    else:
        rep.skipped["upper_half"] = "theta > 0: specific to the degenerate case"
        rep.skipped["lower_half"] = "theta > 0: specific to the degenerate case"
        rep.checks["diagonals"] = CheckResult.of(
            [(-off, True) for off in diagonal_perpendicular_test(zone)],
            "all diagonal perpendicular bisectors pass below o",
        )

    if flat is not None:
        fr = flat_rhomb_check(zone, profile)
        rules = [
            (ANGLE_TOL - abs(fr.corner_angle - 2.0 * theta), False),
            (ANGLE_TOL - abs(fr.cross_diagonal - 2.0 * math.sin(theta)), False),
        ]
        if theta > 0.0:
            rules += [
                (2.0 - STRICT_MARGIN - fr.max_chord, True),
                (fr.radial_lift - STRICT_MARGIN, True),
            ]
        else:
            rules += [
                (BETA_TOL - abs(fr.chord_at_corner_radius - 2.0), False),
                (2.0 + BETA_TOL - fr.max_chord, False),
            ]
        rep.checks["flat_rhomb"] = CheckResult.of(
            rules, f"corner {fr.corner_angle:.12f} = 2 theta; chords stay under 2"
        )
    else:
        rep.skipped["flat_rhomb"] = "n odd: no central rhomb"

    if check_overlap:
        net = assemble_net(n, theta)
        hits = net_overlap_oracle(net)
        rep.overlap_pairs = len(hits)
        rep.checks["net_overlap"] = CheckResult.of(
            [(float(-len(hits)), False)], f"{len(hits)} overlapping pairs"
        )
    return rep
