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

from .geom import NULL_EDGE_SQ, CircleTable, Point2, circle_table
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

    @property
    def o(self) -> Point2:
        return self.corners[0][0]

    @cached_property
    def array(self) -> np.ndarray:
        """``corners`` as one (n - 1, 4, 2) float array."""
        return np.array(self.corners, dtype=float)

    @cached_property
    def circle_tables(self) -> tuple[CircleTable | None, ...]:
        """Each rhomb's ``circle_table``; None only for the central rhomb
        collapsed to a segment at theta = 0, n even."""
        return tuple(map(circle_table, self.corners))

    @cached_property
    def radius_ranges(self) -> tuple[tuple[float, float], ...]:
        """Per-rhomb [min, max] distance from o; C(r) can only meet in-range rhombs."""
        return tuple(
            (
                min(_segment_distance(quad[i - 1], quad[i]) for i in range(4)),
                max(math.hypot(*p) for p in quad),
            )
            for quad in self.corners
        )

    @property
    def left_chain(self) -> tuple[Point2, ...]:
        chain = [c[0] for c in self.corners]
        chain.append(self.corners[-1][3])
        return tuple(chain)

    @property
    def right_chain(self) -> tuple[Point2, ...]:
        chain = [c[1] for c in self.corners]
        chain.append(self.corners[-1][2])
        return tuple(chain)

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

    def rotated(self, angle: float, about: Point2 = (0.0, 0.0)) -> "PlanarZone":
        quads = _rotate(self.array, math.cos(angle), math.sin(angle), about)
        return PlanarZone(self.n, self.theta, self.alpha, _as_tuples(quads))


def _rotate(pts: np.ndarray, c, s, about: Point2 = (0.0, 0.0)) -> np.ndarray:
    """Points ``pts[..., 0:2]`` rotated about ``about`` by the angle with
    cosine ``c`` and sine ``s``; arrays of ``c`` and ``s`` broadcast against
    ``pts[..., 0]``.  Each coordinate is ``(ox + c*x) - s*y`` or
    ``(oy + s*x) + c*y`` on x = px - ox, y = py - oy, in that float order,
    whether c and s are scalars or arrays.
    """
    ox, oy = about
    x = pts[..., 0] - ox
    y = pts[..., 1] - oy
    return np.stack(((ox + c * x) - s * y, (oy + s * x) + c * y), axis=-1)


def _as_tuples(quads: np.ndarray) -> tuple[tuple[Point2, Point2, Point2, Point2], ...]:
    return tuple(tuple(map(tuple, quad)) for quad in quads.tolist())  # type: ignore[misc]


def _segment_distance(p: Point2, q: Point2) -> float:
    """Distance from the origin to segment pq."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    dd = dx * dx + dy * dy
    if dd < NULL_EDGE_SQ:
        return math.hypot(*p)
    t = -(p[0] * dx + p[1] * dy) / dd
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] + t * dx, p[1] + t * dy)


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
        if zones is not None:
            self.__dict__["zones"] = tuple(zones)
        else:
            self.__dict__["corners"] = corners

    @cached_property
    def corners(self) -> np.ndarray:
        return np.array([zone.corners for zone in self.zones], dtype=float)

    @cached_property
    def zones(self) -> tuple[PlanarZone, ...]:
        return tuple(
            PlanarZone(self.n, self.theta, self.alpha, _as_tuples(quads))
            for quads in self.corners
        )


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
    return Net(n, theta, zone0.alpha, corners=_rotate(zone0.array, c, s))
