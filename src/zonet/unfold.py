"""Closed-form development of zones into the plane and assembly of the full net.

Standard orientation: the pole image o sits at the origin, the pole-side edge
of the first rhomb runs from o to (1, 0), and the zone extends into the lower
half-plane.  Every edge parallel to the zone's generator then develops to a
horizontal unit segment, so the left and right boundary chains are horizontal
translates of each other by one unit.  The left chain's edges are unit steps
at the rhomb angles, so every vertex is an explicit sum of cosines and sines,
and theta = 0 (the doubly-covered n-gon) needs no separate construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geom import Edge, Point2, covering_arc_of_angles, edge
from .zonohedron import Params, rhomb_angle
from .zonohedron import build  # noqa: F401  perfbench's tracer patches this name


@dataclass(frozen=True)
class PlanarZone:
    """One developed zone: rhombs R_1..R_{n-1} in pole-to-pole order.

    ``corners[k]`` holds rhomb R_{k+1} as (top-left, top-right, bottom-right,
    bottom-left), where the top edge is the horizontal unit edge nearer the
    pole and "left" is the boundary chain through o.
    """

    n: int
    theta: float
    alpha: float
    corners: tuple[tuple[Point2, Point2, Point2, Point2], ...]

    @cached_property
    def array(self) -> np.ndarray:
        """``corners`` as one (n - 1, 4, 2) float array."""
        return np.array(self.corners, dtype=float)

    @cached_property
    def boundary(self) -> tuple[Edge, ...]:
        """The zone's boundary edges: R_1's pole-side edge, then each rhomb's
        left-chain and right-chain edges, then R_{n-1}'s far edge, 2n edges
        for the whole zone.  Each runs as in its rhomb's corners taken CCW,
        the reverse of ``corners``' clockwise order."""
        first, last = self.corners[0], self.corners[-1]
        ends = [(first[1], first[0])]
        for tl, tr, br, bl in self.corners:
            ends += [(tl, bl), (br, tr)]
        ends.append((last[3], last[2]))
        return tuple(edge(p, q) for p, q in ends)

    @cached_property
    def rhomb_radii(self) -> tuple[tuple[float, ...], ...]:
        """Per rhomb: the distances from o of its four corners, in corner
        order (0.0 at o itself), then of the perpendicular foot from o on
        each edge, where the foot falls strictly inside the edge.  C(r)
        passes a corner or grazes an edge of the rhomb only at these
        radii."""
        out = []
        for quad in self.corners:
            radii = [math.hypot(x, y) for x, y in quad]
            for (px, py), (qx, qy) in zip(quad, quad[1:] + quad[:1]):
                dx, dy = qx - px, qy - py
                t = -(px * dx + py * dy) / (dx * dx + dy * dy)
                if 0.0 < t < 1.0:
                    radii.append(math.hypot(px + t * dx, py + t * dy))
            out.append(tuple(radii))
        return tuple(out)

    @cached_property
    def radius_ranges(self) -> tuple[tuple[float, float], ...]:
        """Per-rhomb [min, max] distance from o, read off ``rhomb_radii``;
        C(r) can only meet in-range rhombs."""
        return tuple((min(radii), max(radii[:4])) for radii in self.rhomb_radii)

    @cached_property
    def direction_arcs(self) -> tuple[tuple[float, float], ...]:
        """Per rhomb, (start, length) of the CCW arc of directions from o
        that it covers.

        The rhombs are convex and o lies outside each of them except for
        the corner of R_1 at o itself, so the arc is the covering arc of
        the corner directions; corners at o contribute no direction of
        their own.
        """
        out = []
        for quad in self.corners:
            arc = covering_arc_of_angles(
                [math.atan2(p[1], p[0]) for p in quad if p != (0.0, 0.0)]
            )
            assert arc is not None
            out.append(arc)
        return tuple(out)

    def half_split(self) -> tuple[tuple[int, ...], tuple[int, ...], int | None]:
        """(upper, lower, flat) rhomb indices (0-based); flat exists for n even.

        The upper half Z+ holds the rhombs whose left-chain edges lie on the
        circle through o: R_1..R_{n/2-1} for n even (the central rhomb R_{n/2}
        is its own case) and R_1..R_{floor(n/2)} for n odd; the rest is Z-.
        """
        n = self.n
        if n % 2 == 0:
            upper = tuple(range(0, n // 2 - 1))
            flat: int | None = n // 2 - 1
            lower = tuple(range(n // 2, n - 1))
        else:
            upper = tuple(range(0, n // 2))
            flat = None
            lower = tuple(range(n // 2, n - 1))
        return upper, lower, flat

    def rotated(self, angle: float) -> "PlanarZone":
        """The zone rotated about o by ``angle``."""
        quads = _rotate(self.array, math.cos(angle), math.sin(angle))
        return PlanarZone(self.n, self.theta, self.alpha, _as_tuples(quads))


def _rotate(pts: np.ndarray, c, s) -> np.ndarray:
    """Points ``pts[..., 0:2]`` rotated about the origin by the angle with
    cosine ``c`` and sine ``s``; arrays of ``c`` and ``s`` broadcast against
    ``pts[..., 0]``.  Each coordinate is ``(0.0 + c*x) - s*y`` or
    ``(0.0 + s*x) + c*y``, in that float order, whether c and s are scalars
    or arrays.  The leading 0.0 turns a -0.0 product into +0.0, so no
    coordinate comes out as -0.0.
    """
    x, y = pts[..., 0], pts[..., 1]
    return np.stack(((0.0 + c * x) - s * y, (0.0 + s * x) + c * y), axis=-1)


def _as_tuples(quads: np.ndarray) -> tuple[tuple[Point2, Point2, Point2, Point2], ...]:
    return tuple(tuple(map(tuple, quad)) for quad in quads.tolist())  # type: ignore[misc]


class Net:
    """The full unfolding: n copies of one zone, zone i rotated by i*alpha.

    Built from either view of the same net: ``zones``, a tuple of
    ``PlanarZone``s, or ``corners``, one (n, n - 1, 4, 2) array whose
    ``corners[i, k]`` is zone i's rhomb R_{k+1} in ``PlanarZone.corners``
    order.  The other view is derived on first use.
    """

    def __init__(
        self,
        n: int,
        theta: float,
        alpha: float,
        zones: tuple[PlanarZone, ...] | None = None,
        *,
        corners: np.ndarray | None = None,
    ) -> None:
        if (zones is None) == (corners is None):
            raise ValueError("a Net is built from exactly one of zones and corners")
        self.n, self.theta, self.alpha = n, theta, alpha
        self._zone: dict[int, PlanarZone] = {}  # the zones ``zone`` has read
        if zones is not None:
            self.__dict__["zones"] = tuple(zones)
        else:
            self.__dict__["corners"] = corners

    @cached_property
    def corners(self) -> np.ndarray:
        return np.array([zone.corners for zone in self.zones], dtype=float)

    @cached_property
    def zones(self) -> tuple[PlanarZone, ...]:
        return tuple(map(self.zone, range(self.n)))

    def zone(self, i: int) -> PlanarZone:
        """Zone i read off ``corners``, once, without building ``zones``."""
        if i not in self._zone:
            self._zone[i] = PlanarZone(self.n, self.theta, self.alpha, _as_tuples(self.corners[i]))
        return self._zone[i]


@lru_cache(maxsize=64)
def planar_zone(n: int, theta: float) -> PlanarZone:
    """Zone 0 developed in standard orientation, for every theta in [0, pi/2).

    The left chain starts at o and its k-th edge is the unit vector at angle
    -gamma_k, where gamma_k = rhomb_angle(Params(n, theta), k) is rhomb
    R_k's corner between its pole-side edge and the left chain; the right
    chain is the left chain shifted by (1, 0).  At theta = 0, gamma_k =
    alpha * min(k, n - k), which gives the doubly-covered n-gon's S-strip:
    two half polygons, mirrored, whose upper half has its right boundary on
    a circle of radius 1/(2 sin(alpha/2)) through o, and for n even a central
    rhomb collapsed to a unit segment.
    """
    p = Params(n, theta)
    left = [(0.0, 0.0)]
    for k in range(1, n):
        g = rhomb_angle(p, k)
        x, y = left[-1]
        left.append((x + math.cos(g), y - math.sin(g)))
    corners = tuple(
        (tl, (tl[0] + 1.0, tl[1]), (bl[0] + 1.0, bl[1]), bl)
        for tl, bl in zip(left, left[1:])
    )
    return PlanarZone(n, theta, p.alpha, corners)


def assemble_net(n: int, theta: float) -> Net:
    """Zone 0 rotated about o by i*alpha for each zone i, in one array pass."""
    zone0 = planar_zone(n, theta)
    angles = [i * zone0.alpha for i in range(n)]
    # math.cos/sin, as PlanarZone.rotated uses, so both give the same bits
    c = np.array([math.cos(a) for a in angles])[:, None, None]
    s = np.array([math.sin(a) for a in angles])[:, None, None]
    net = Net(n, theta, zone0.alpha, corners=_rotate(zone0.array, c, s))
    # the turn by 0 keeps every coordinate, so zone 0 reads back as zone0,
    # with the ranges and arcs it has already computed
    net._zone[0] = zone0
    return net
