"""Numeric verification that the zone-by-zone unfolding cannot overlap.

The central quantity is beta(r): the angle of the shortest arc of the circle
C(r) about the pole image o that covers C(r)'s intersection with one unfolded
zone.  Adjacent zones in the net are copies of the same zone rotated by alpha
about o, so the net is overlap-free when beta(r) <= alpha for every radius.

Everything here is numeric but event-driven: the combinatorics of C(r) within
the zone only change at radii where the circle passes through a vertex or
grazes an edge.  beta is monotone between events and lower semicontinuous at
them, so its supremum is one of its one-sided limits at the event radii.
The profile takes each limit exactly: inside each event interval, the
smallest and the largest crossing of C(r) with the zone's 2n boundary edges
are the two crossings the covering arc ends on, and a closed form follows
them to both ends of the interval.  Each cell computes that profile once:
at theta = 0 the upper-half and lower-half checks, and the central rhomb's
corner chord, read their radii off the same profile that bounds beta by
alpha.

The one fully exact check is the overlap oracle, which tests rhomb pairs of
the assembled net with a filtered float predicate with an exact rational
fallback and is independent of the beta machinery.  ``run_verification``
runs its orbit form, ``orbit_overlap_oracle``: zone i of the net is zone 0
turned by i * alpha, so testing zone 0 against zones 1..n-1 covers every
zone pair, and a hit between zones 0 and k counts the n - k zone pairs
(i, i + k).  ``net_overlap_oracle`` tests every zone pair of any net, orbit
or not, and is the reference for the orbit form.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geom import (
    TWO_PI,
    circle_quad_arcs,
    crossing_angle,
    polygons_interior_overlap,
    shrink_quad,
)
from .unfold import Net, PlanarZone, assemble_net, planar_zone

BETA_TOL = 1e-9
STRICT_MARGIN = 1e-12
ANGLE_TOL = 1e-10
#: event radii closer than this are one event computed two ways
EVENT_MERGE = 1e-12


# ---------------------------------------------------------------------------
# beta(r) and its profile over all radii


class Limit(NamedTuple):
    """A one-sided limit of beta on the event interval (lo, hi): beta(lo+)
    at r = lo, or beta(hi-) at r = hi."""

    r: float
    beta: float
    lo: float
    hi: float


def beta_of_r(zone: PlanarZone, r: float) -> float | None:
    """Covering-arc angle of C(r) within the zone; None if C(r) misses it.

    The span of ``circle_quad_arcs``.  At an event radius e, where C(e)
    passes a vertex or grazes an edge, the span also counts C(e)'s isolated
    contacts with the zone; they lie in the closure of the arcs of nearby
    circles, so beta(e) is at most the larger one-sided limit, beta(e-) or
    beta(e+), within a few ulps of 2 pi.  That is the bound that lets
    ``beta_profile`` skip e.
    """
    arc = circle_quad_arcs(zone.boundary, [r])[0]
    return None if arc is None else arc[1] - arc[0]


def critical_radii(zone: PlanarZone) -> list[float]:
    """Radii where C(r) passes through a vertex or grazes an edge of the zone:
    every ``rhomb_radii`` entry but o's own 0.0."""
    events = {d for radii in zone.rhomb_radii for d in radii if d > 0.0}
    # merge float-noise duplicates (the same vertex radius computed two ways)
    out: list[float] = []
    for e in sorted(events):
        if not out or e - out[-1] > EVENT_MERGE:
            out.append(e)
    return out


def kernel_radii(events: list[float]) -> list[float]:
    """The midpoint of each event interval (0, e_1), (e_1, e_2), ...: the one
    radius of each interval where ``beta_profile`` solves the boundary."""
    return [0.5 * (lo + hi) for lo, hi in zip([0.0, *events], events)]


def sample_radii(zone: PlanarZone) -> list[float]:
    """The radius of every one-sided limit of beta the profile takes: beta(e_1-),
    beta(e_1+), ..., beta(e_k-) for the k event radii e_1 < ... < e_k, so every
    event twice but the last, 2k - 1 radii.

    Between consecutive events C(r) crosses the same edges, and while beta < pi
    the covering arc ends on the same two of them.  An end on an edge line at
    distance d from o sits at phi0 +- acos(d/r), so beta' = +-f(d_a) -+ f(d_b)
    with f(d) = d / (r * sqrt(r*r - d*d)) increasing in d: beta is monotone or
    constant between events, and its supremum on an interval is a one-sided
    limit at one of its ends.  At an event itself beta(e) <= min(beta(e-),
    beta(e+)): an arc of positive length in a closed rhomb has interior points
    of the rhomb, which circles of nearby radii still meet, so beta is lower
    semicontinuous and e needs no sample.  Below the first event C(r) meets
    only R_1, cornered at o: beta = alpha, so beta(0+) = beta(e_1-); above the
    last event C(r) misses the zone.
    """
    return [r for e in critical_radii(zone) for r in (e, e)][:-1]


def beta_profile(zone: PlanarZone) -> list[Limit]:
    """Every one-sided limit of beta at ``sample_radii``, in that order,
    skipping the intervals where C(r) misses the zone.

    The zone lies below o: its pole-side edge runs along the x axis and
    every left-chain step is (cos g, -sin g) with g in (0, pi].  So every
    arc of C(r) inside it lies in the directions [pi, 2 pi], and beta is the
    span from the first arc's start to the last arc's end, at most pi.
    Inside an event interval C(r) meets no vertex and grazes no edge, so
    every crossing of C(r) with the zone's boundary is an arc end, and the
    span runs from the smallest crossing to the largest: at each interval's
    ``kernel_radii`` entry, ``circle_quad_arcs`` names those two crossings
    of ``PlanarZone.boundary``.  They are the arc's ends on the whole
    interval (see ``sample_radii``), so ``crossing_angle`` follows them to
    both ends of the interval in closed form.
    """
    radii = sample_radii(zone)
    events = radii[::2]  # every event twice but the last, so each once
    profile = []
    arcs = circle_quad_arcs(zone.boundary, kernel_radii(events))
    for lo, hi, arc in zip([0.0, *events], events, arcs):
        if arc is None:
            continue
        _, _, start, end = arc
        for r in (lo, hi) if lo > 0.0 else (hi,):  # beta(0+) = beta(e_1-)
            profile.append(Limit(r, crossing_angle(r, end) - crossing_angle(r, start), lo, hi))
    return profile


# ---------------------------------------------------------------------------
# per-rhomb subtended angles and the diagonal-perpendicular test


def rhomb_subtended_angles(zone: PlanarZone) -> list[float]:
    """beta_i: angle subtended at o by rhomb R_i (list index i-1), the
    length of its ``direction_arcs`` entry."""
    return [length for _, length in zone.direction_arcs]


def diagonal_perpendicular_test(zone: PlanarZone) -> list[float]:
    """For rhombs R_2..R_{n-1}, the larger of the two signed heights where
    the rhomb's diagonal lines cross the vertical line through o.

    The line of one rhomb diagonal is the perpendicular bisector of the
    other, so a negative value means both bisectors pass below o and
    neither diagonal can be a chord of any circle about o.  Each diagonal
    is read by its role: the top edge leaves tl at angle ``top`` and the
    left side at ``left``, each the atan2 of one difference of corners, and
    the tl-br diagonal bisects that corner, so its slope is tan((top +
    left) / 2) and the tr-bl diagonal is perpendicular to it.  In the
    developed zone top = 0 and left = -gamma_k with gamma_k in (0, pi) for
    theta > 0, so the half-angle lies strictly inside (-pi/2, 0): neither
    line is vertical or horizontal, and both cross x = 0.  List index k
    holds rhomb R_{k+2}.
    """
    offsets = []
    for (tlx, tly), (trx, try_), _, (blx, bly) in zone.corners[1:]:
        top = math.atan2(try_ - tly, trx - tlx)
        left = math.atan2(bly - tly, blx - tlx)
        slope = math.tan((top + left) / 2.0)
        offsets.append(max(tly - tlx * slope, try_ + trx / slope))
    return offsets


# ---------------------------------------------------------------------------
# the nearly flat central rhomb (n even)


@dataclass(frozen=True)
class FlatRhombReport:
    corner_angle: float  # pi minus the corner at tl: 2*theta in theory
    axis_diagonal: float  # tr-bl, along the near-flat axis: 2*cos(theta) in theory
    cross_diagonal: float  # tl-br, across it: 2*sin(theta), the "lift" of the far end
    radial_lift: float  # |o b| - |o a| for the axis-diagonal ends a, b
    max_chord: float  # over the profile's limits on intervals meeting the central rhomb
    chord_at_corner_radius: float | None  # at theta = 0 only; None above it


def flat_rhomb_check(zone: PlanarZone, profile: list[Limit]) -> FlatRhombReport:
    """Measurements backing the chord bound |xy| < 2 at the central rhomb.

    Requires n even.  The central rhomb has unit sides and its corner at tl
    is gamma_{n/2} = pi - 2*theta, so its diagonals are exactly tr-bl =
    2*cos(theta) (the near-flat axis, approaching the doubled unit segment as
    theta -> 0) and tl-br = 2*sin(theta) (how far the outer end is pushed
    off that axis).  Each measurement is read by that fixed role, so a rhomb
    whose diagonals swap roles fails the check.  That push strictly raises
    the outer end's radius from o once theta > 0, which is what keeps every
    chord of C(r) within the zone short of length 2.  ``profile`` is
    the zone's ``beta_profile``: the chords are measured at the limits on the
    event intervals that meet the central rhomb's radius range, each 2 r
    sin(beta / 2), as beta <= pi (see ``beta_profile``).  At theta = 0
    the chord also reaches 2 at the rhomb's near corner radius, an event
    radius: it is read off the profile's limit beta(r_corner-) there alone.
    """
    n = zone.n
    if n % 2 != 0:
        raise ValueError("the central rhomb exists only for n even")
    theta = zone.theta
    tl, tr, br, bl = zone.corners[n // 2 - 1]
    ra, rb = sorted((math.hypot(*tr), math.hypot(*bl)))
    corner = math.pi - _corner_angle(tr, tl, bl)

    lo, hi = zone.radius_ranges[n // 2 - 1]
    worst = max(
        (2.0 * lim.r * math.sin(lim.beta / 2.0) for lim in profile if lim.lo < hi and lim.hi > lo),
        default=0.0,
    )
    chord_corner = None
    if theta == 0.0:
        chord_corner = next(
            (
                2.0 * lim.r * math.sin(lim.beta / 2.0)
                for lim in profile
                if lim.r == lim.hi and abs(lim.r - ra) <= EVENT_MERGE
            ),
            0.0,
        )
    return FlatRhombReport(
        corner, math.dist(tr, bl), math.dist(tl, br), rb - ra, worst, chord_corner
    )


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
#: widening, in edge units and in radians, of each rhomb's radius range and
#: arc in the orbit prefilter.  Two rhombs whose shrunk interiors overlap
#: share a point p whose disc of radius OVERLAP_SLACK lies inside both, so
#: their exact radius ranges overlap by 2 OVERLAP_SLACK and their arcs by
#: 2 OVERLAP_SLACK / |p|; the float ranges, arcs and k * alpha are within a
#: few ulps (about 1e-15) of the exact ones of the net's own corners, far
#: inside this widening, so the prefilter drops no such pair
ORBIT_SLACK = 1e-12


def net_overlap_oracle(net: Net) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All pairs of rhombs from different zones whose interiors overlap.

    Every rhomb of ``net.corners`` is first shrunk inward by
    ``OVERLAP_SLACK`` with ``shrink_quad``, which decides exactly, once per
    rhomb, that the result is a strictly convex CCW quad (or drops it), so
    each candidate pair is tested with a bare exact separating-axis
    predicate (a filtered float predicate with an exact rational fallback).
    The shrink absorbs the ~1e-16 placement noise of the floating-point
    net: zones that touch along exactly-shared boundaries in the ideal net
    (the pole-edge fan; the theta = 0 chain abutments) would otherwise
    produce hairline "overlaps" whose presence depends on rounding
    direction.  Real overlaps are many orders of magnitude wider than the
    slack and are always reported.

    The candidates are the cross-zone pairs whose open bounding boxes
    overlap, found by sort-and-prune; overlap of the shrunk interiors forces
    their boxes to overlap, so the prefilter loses nothing.  Pairs and hits
    come in (zone, rhomb)-major order.  This holds for any ``Net``; on an
    orbit net, such as ``assemble_net`` builds, ``orbit_overlap_oracle``
    finds the hits whose first zone is 0 and counts the rest.
    """
    per_zone = net.corners.shape[1]
    labels, quads = [], []
    for label, quad in enumerate(net.corners.reshape(-1, 4, 2).tolist()):
        shrunk = shrink_quad(quad, OVERLAP_SLACK)
        if shrunk is not None:
            labels.append(label)
            quads.append(shrunk)
    pts = np.array(quads).reshape(-1, 4, 2)
    first, second = _candidate_pairs(pts.min(axis=1), pts.max(axis=1), np.array(labels) // per_zone)
    return [
        (divmod(labels[i], per_zone), divmod(labels[j], per_zone))
        for i, j in zip(first.tolist(), second.tolist())
        if polygons_interior_overlap(quads[i], quads[j])
    ]


def orbit_overlap_oracle(net: Net) -> list[tuple[int, int, int]]:
    """Overlaps of an orbit net, as (a, k, b): zone 0's rhomb R_{a+1} and
    zone k's rhomb R_{b+1} have overlapping shrunk interiors; in (a, k, b)
    order.

    An orbit net has zone k equal to zone 0 turned about o by k * alpha, as
    ``assemble_net`` builds it with the same float operations for every
    zone.  Zone pair (i, i + k) is then the pair (0, k) turned by i * alpha,
    up to rounding near 1e-16, seven orders of magnitude below
    ``OVERLAP_SLACK``; so each hit (a, k, b) stands for the n - k zone pairs
    (i, i + k), and the hits are those of ``net_overlap_oracle`` whose first
    zone is 0.

    Candidates come from zone 0's geometry alone.  A rhomb pair (a, b) can
    only meet where their radius ranges from o meet, found by sort-and-prune
    over the n - 1 ranges; for such a pair, rhomb b turned by k * alpha can
    only meet rhomb a where their arcs of directions from o meet, which
    bounds k * alpha to one interval modulo 2 pi, and k to at most two
    integer ranges since (n - 1) * alpha < 2 pi.  Each rhomb a candidate
    names is shrunk once with ``shrink_quad``, on the net's own corners
    ``net.corners[0, a]`` or ``net.corners[k, b]``, and each candidate is
    tested exactly, as ``net_overlap_oracle`` tests it.
    """
    n, alpha = net.n, net.alpha
    zone0 = net.zone(0)
    ranges, arcs = zone0.radius_ranges, zone0.direction_arcs
    order = sorted(range(n - 1), key=lambda a: ranges[a][0])
    los = [ranges[a][0] for a in order]
    candidates = []
    for i, a in enumerate(order):
        # sorted by lower end, the ranges after a's that start before it
        # ends are the ones that meet it
        for b in order[i : bisect_right(los, ranges[a][1] + ORBIT_SLACK)]:
            candidates += [(a, k, b) for k in _shifts(arcs[a], arcs[b], alpha, n)]
            if b != a:
                candidates += [(b, k, a) for k in _shifts(arcs[b], arcs[a], alpha, n)]
    candidates.sort()
    named = {(0, a) for a, _, _ in candidates} | {(k, b) for _, k, b in candidates}
    shrunk = {zr: shrink_quad(net.corners[zr].tolist(), OVERLAP_SLACK) for zr in named}
    hits = []
    for a, k, b in candidates:
        p, q = shrunk[0, a], shrunk[k, b]
        if p is not None and q is not None and polygons_interior_overlap(p, q):
            hits.append((a, k, b))
    return hits


def _shifts(arc_a: tuple[float, float], arc_b: tuple[float, float], alpha: float, n: int):
    """The k in 1..n - 1 for which the arc ``arc_b`` turned by k * alpha
    meets ``arc_a``, each widened by ``ORBIT_SLACK``; both arcs are (start,
    length) with length below pi."""
    (sa, la), (sb, lb) = arc_a, arc_b
    lo = sa - sb - lb - ORBIT_SLACK
    hi = sa - sb + la + ORBIT_SLACK
    # k * alpha lies in [lo, hi] + 2 pi m, and k * alpha in [alpha, (n - 1) alpha]
    m_lo = math.ceil((alpha - hi) / TWO_PI)
    m_hi = math.floor(((n - 1) * alpha - lo) / TWO_PI)
    for m in range(m_lo, m_hi + 1):
        first = max(1, math.ceil((lo + m * TWO_PI) / alpha))
        last = min(n - 1, math.floor((hi + m * TWO_PI) / alpha))
        yield from range(first, last + 1)


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
    worst = rep.max_beta = max(lim.beta for lim in profile)
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
        # exact-alpha claim holds: the intervals ending there are read.
        # Radii reaching the central rhomb or the lower half are the
        # transition cases where the arc is split across the halves
        ranges = zone.radius_ranges
        r_only_upper = min(ranges[i][0] for i in range(len(upper), n - 1))
        udev = max(abs(lim.beta - alpha) for lim in profile if lim.hi <= r_only_upper)
        rep.checks["upper_half"] = CheckResult.of(
            [(BETA_TOL - udev, True)], "C(r) covers exactly alpha of the upper half"
        )
        # strictly inside the lower half: at the transition radius (through
        # the corners where the halves meet) the arc subtends exactly alpha/2,
        # so the limits above r_transition are read: beta is monotone on the
        # interval just above it, where its upper limit bounds it.  Above
        # r_transition every upper rhomb and the central one lie out of
        # range, so C(r) meets the lower half alone
        r_transition = max(ranges[i][1] for i in range(lower[0]))
        lmargin = min(alpha / 2.0 - lim.beta for lim in profile if lim.r > r_transition)
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
        # each orbit hit (a, k, b) stands for the n - k zone pairs (i, i + k)
        pairs = sum(n - k for _, k, _ in orbit_overlap_oracle(assemble_net(n, theta)))
        rep.overlap_pairs = pairs
        rep.checks["net_overlap"] = CheckResult.of(
            [(float(-pairs), False)], f"{pairs} overlapping pairs"
        )
    return rep
