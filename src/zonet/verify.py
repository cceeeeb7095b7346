"""Numeric verification that the zone-by-zone unfolding cannot overlap.

The central quantity is beta(r): the angle of the shortest arc of the circle
C(r) about the pole image o that covers C(r)'s intersection with one unfolded
zone.  Adjacent zones in the net are copies of the same zone rotated by alpha
about o, so the net is overlap-free when beta(r) <= alpha for every radius.

Everything here is numeric but event-driven: the combinatorics of C(r) within
the zone only change at radii where the circle passes through a vertex or
grazes an edge, so sampling each interval between such events (plus points
hugging the events themselves) exercises every case.  The one fully exact
check is `net_overlap_oracle`, which tests rhomb pairs of the assembled net
with a filtered float predicate with an exact rational fallback and is
independent of the beta machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import (
    AngularIntervalSet,
    circle_quad_arcs,
    covering_arc_of_angles,
    polygons_interior_overlap,
    shortest_covering_arc,
    shrink_convex,
)
from .unfold import Net, PlanarZone, assemble_net, planar_zone

BETA_TOL = 1e-9
STRICT_MARGIN = 1e-12
EVENT_EPS = 1e-9
ANGLE_TOL = 1e-10
SAMPLES_PER_INTERVAL = 9


# ---------------------------------------------------------------------------
# beta(r) and its profile over all radii


def _quad_edges(quad):
    return [(quad[i], quad[(i + 1) % 4]) for i in range(4)]


def zone_arcs(
    zone: PlanarZone, r: float, indices: tuple[int, ...] | None = None
) -> AngularIntervalSet:
    """Union of angular intervals of C(r) inside the selected rhombs."""
    ranges = zone.radius_ranges
    idx = range(len(zone.corners)) if indices is None else indices
    pieces = []
    for i in idx:
        dmin, dmax = ranges[i]
        if not (dmin - 1e-12 <= r <= dmax + 1e-12):
            continue
        pieces.extend(circle_quad_arcs((0.0, 0.0), r, zone.rhombs[i]))
    return AngularIntervalSet.from_intervals(pieces)


def beta_of_r(
    zone: PlanarZone, r: float, indices: tuple[int, ...] | None = None
) -> float | None:
    """Covering-arc angle of C(r) within the zone; None if C(r) misses it."""
    return shortest_covering_arc(zone_arcs(zone, r, indices))


def critical_radii(zone: PlanarZone, indices: tuple[int, ...] | None = None) -> list[float]:
    """Radii where C(r) passes through a vertex or grazes an edge of the zone."""
    idx = range(len(zone.corners)) if indices is None else indices
    events: set[float] = set()
    for i in idx:
        quad = zone.corners[i]
        for p in quad:
            d = math.hypot(*p)
            if d > 1e-12:
                events.add(d)
        for p, q in _quad_edges(quad):
            # perpendicular foot strictly inside the segment: a grazing radius
            dx, dy = q[0] - p[0], q[1] - p[1]
            dd = dx * dx + dy * dy
            if dd < 1e-30:
                continue
            t = -(p[0] * dx + p[1] * dy) / dd
            if 1e-9 < t < 1.0 - 1e-9:
                events.add(math.hypot(p[0] + t * dx, p[1] + t * dy))
    # merge float-noise duplicates (the same vertex radius computed two ways)
    out: list[float] = []
    for e in sorted(events):
        if not out or e - out[-1] > 1e-12:
            out.append(e)
    return out


def sample_radii(
    zone: PlanarZone,
    samples_per_interval: int = SAMPLES_PER_INTERVAL,
    indices: tuple[int, ...] | None = None,
) -> list[float]:
    """Event radii hugged by +-EVENT_EPS plus evenly spread interior samples."""
    events = critical_radii(zone, indices)
    if not events:
        return []
    rs: set[float] = set()
    for e in events:
        for r in (e - EVENT_EPS, e, e + EVENT_EPS):
            if r > 1e-12:
                rs.add(r)
    # (0, first event) is a combinatorial interval of its own
    for a, b in zip([0.0, *events], events):
        for j in range(1, samples_per_interval + 1):
            rs.add(a + (b - a) * j / (samples_per_interval + 1))
    return sorted(rs)


def beta_profile(
    zone: PlanarZone,
    samples_per_interval: int = SAMPLES_PER_INTERVAL,
    indices: tuple[int, ...] | None = None,
) -> list[tuple[float, float]]:
    """(r, beta(r)) over the event-based radius sample, skipping misses."""
    out = []
    for r in sample_radii(zone, samples_per_interval, indices):
        b = beta_of_r(zone, r, indices)
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
        angles = [math.atan2(p[1], p[0]) for p in quad if math.hypot(*p) > 1e-12]
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
        if abs(dy) < 1e-12:
            # horizontal diagonal: the bisector is the vertical line x = mx,
            # which passes through o exactly when mx = 0
            offsets.append(0.0 if abs(mx) < 1e-9 else math.copysign(math.inf, -1.0))
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
    r_corner = max(ra - 1e-10, 1e-10)
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


def net_overlap_oracle(
    net: Net, slack: float = OVERLAP_SLACK
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All pairs of rhombs from different zones whose interiors overlap.

    Every rhomb is first shrunk inward by ``slack`` and the shrunk pairs are
    tested with the exact separating-axis predicate (a filtered float
    predicate with an exact rational fallback).  The shrink absorbs
    the ~1e-16 placement noise of the floating-point net: zones that touch
    along exactly-shared boundaries in the ideal net (the pole-edge fan; the
    theta = 0 chain abutments) would otherwise produce hairline "overlaps"
    whose presence depends on rounding direction.  Real overlaps are many
    orders of magnitude wider than the slack and are always reported.

    A fast bounding-box pass discards the overwhelming majority of pairs;
    overlap of the shrunk interiors forces their open bounding boxes to
    overlap, so the prefilter loses nothing.
    """
    labels = []
    quads = []
    for zi, ri, quad in net.labeled_quads():
        labels.append((zi, ri))
        quads.append(shrink_convex(quad, slack))
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


# ---------------------------------------------------------------------------
# aggregated verification


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    margin: float
    detail: str = ""


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


def run_verification(
    n: int,
    theta: float,
    samples_per_interval: int = SAMPLES_PER_INTERVAL,
    check_overlap: bool = True,
) -> VerificationReport:
    """Run every applicable check for P(n, theta); deterministic."""
    zone = planar_zone(n, theta)
    alpha = zone.alpha
    rep = VerificationReport(n, theta, alpha)

    profile = beta_profile(zone, samples_per_interval)
    worst = rep.max_beta = max(b for _, b in profile)
    rep.checks["beta_le_alpha"] = CheckResult(
        worst <= alpha + BETA_TOL, alpha + BETA_TOL - worst, f"max beta {worst:.12f}"
    )

    betas = rhomb_subtended_angles(zone)
    first_ok = abs(betas[0] - alpha) <= ANGLE_TOL
    rest_margin = min((alpha - b for b in betas[1:]), default=math.inf)
    if theta > 0.0:
        # strict for theta > 0; at theta = 0 every upper rhomb subtends
        # exactly alpha, so only the upper bound is meaningful there
        rest_ok = rest_margin > STRICT_MARGIN
        detail = "beta_1 = alpha; beta_i < alpha for i >= 2"
    else:
        rest_ok = rest_margin > -ANGLE_TOL
        detail = "beta_1 = alpha; beta_i <= alpha for i >= 2"
    rep.checks["subtended"] = CheckResult(
        first_ok and rest_ok,
        min(ANGLE_TOL - abs(betas[0] - alpha), rest_margin),
        detail,
    )

    upper, lower, flat = zone.half_split()
    if theta == 0.0:
        # radii reaching the central rhomb or the lower half are the
        # transition cases where the arc is split across the halves; the
        # exact-alpha claim is for circles meeting the upper half alone
        ranges = zone.radius_ranges
        r_only_upper = min(
            ranges[i][0] for i in (*lower, *(() if flat is None else (flat,)))
        )
        ub = [
            b
            for r, b in beta_profile(zone, samples_per_interval, upper)
            if r < r_only_upper - 2.0 * EVENT_EPS
        ]
        udev = max(abs(b - alpha) for b in ub)
        rep.checks["upper_half"] = CheckResult(
            udev < BETA_TOL, BETA_TOL - udev, "C(r) covers exactly alpha of the upper half"
        )
        # strictly inside the lower half: at the transition radius (through
        # the corners where the halves meet) the arc subtends exactly alpha/2
        r_transition = max(
            math.hypot(*p) for i in (*upper, *(() if flat is None else (flat,))) for p in zone.corners[i]
        )
        lb = [
            b
            for r, b in beta_profile(zone, samples_per_interval, lower)
            if r > r_transition + 2.0 * EVENT_EPS
        ]
        lmargin = min(alpha / 2.0 - b for b in lb)
        rep.checks["lower_half"] = CheckResult(
            lmargin > STRICT_MARGIN, lmargin, "lower-half arcs stay under alpha/2"
        )
        rep.skipped["diagonals"] = "theta = 0: diagonal bisectors pass through o exactly"
    else:
        rep.skipped["upper_half"] = "theta > 0: specific to the degenerate case"
        rep.skipped["lower_half"] = "theta > 0: specific to the degenerate case"
        offsets = diagonal_perpendicular_test(zone)
        margin = min(-off for off in offsets)
        rep.checks["diagonals"] = CheckResult(
            all(off < 0.0 for off in offsets),
            margin,
            "all diagonal perpendicular bisectors pass below o",
        )

    if flat is not None:
        fr = flat_rhomb_check(zone, profile)
        angle_ok = abs(fr.corner_angle - 2.0 * theta) <= ANGLE_TOL
        lift_ok = abs(fr.cross_diagonal - 2.0 * math.sin(theta)) <= ANGLE_TOL
        if theta > 0.0:
            chord_ok = fr.max_chord < 2.0 - STRICT_MARGIN and fr.radial_lift > STRICT_MARGIN
            margin = 2.0 - STRICT_MARGIN - fr.max_chord
        else:
            chord_ok = (
                abs(fr.chord_at_corner_radius - 2.0) <= BETA_TOL
                and fr.max_chord <= 2.0 + BETA_TOL
            )
            margin = BETA_TOL - abs(fr.chord_at_corner_radius - 2.0)
        rep.checks["flat_rhomb"] = CheckResult(
            angle_ok and lift_ok and chord_ok,
            margin,
            f"corner {fr.corner_angle:.12f} = 2 theta; chords stay under 2",
        )
    else:
        rep.skipped["flat_rhomb"] = "n odd: no central rhomb"

    if check_overlap:
        net = assemble_net(n, theta)
        hits = net_overlap_oracle(net)
        rep.overlap_pairs = len(hits)
        rep.checks["net_overlap"] = CheckResult(
            not hits, float(-len(hits)), f"{len(hits)} overlapping pairs"
        )
    return rep
