"""Isometric development of zones into the plane and assembly of the full net.

Standard orientation: the pole image o sits at the origin, the pole-side edge
of the first rhomb runs from o to (1, 0), and the zone extends into the lower
half-plane.  Every edge parallel to the zone's generator then develops to a
horizontal unit segment, so the left and right boundary chains are horizontal
translates of each other by one unit.

The development here is the ground-truth 3D rollout: each rhomb is rotated
about the shared edge into the plane of its predecessor, realized by placing
the two free vertices isometrically on the side opposite the previous face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geom import ConvexQuad, Point2
from .zonohedron import Params, Zonohedron, build

ISOMETRY_TOL = 1e-10


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
    def rhombs(self) -> tuple[ConvexQuad, ...]:
        return tuple(ConvexQuad.from_vertices(c) for c in self.corners)

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
        c, s = math.cos(angle), math.sin(angle)
        ox, oy = about

        def rot(p: Point2) -> Point2:
            x, y = p[0] - ox, p[1] - oy
            return (ox + c * x - s * y, oy + s * x + c * y)

        return PlanarZone(
            self.n,
            self.theta,
            self.alpha,
            tuple(tuple(rot(p) for p in quad) for quad in self.corners),  # type: ignore[arg-type]
        )


def _segment_distance(p: Point2, q: Point2) -> float:
    """Distance from the origin to segment pq."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    dd = dx * dx + dy * dy
    if dd < 1e-30:
        return math.hypot(*p)
    t = -(p[0] * dx + p[1] * dy) / dd
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] + t * dx, p[1] + t * dy)


def _place_face(
    pts3: np.ndarray,
    anchors: tuple[int, int],
    pos2: dict[int, tuple[float, float]],
    ids: tuple[int, ...],
    side: float,
) -> None:
    """Isometrically place a planar 3D face given two already-placed vertices.

    ``side`` is the required sign of cross(q - p, v - p) for the free vertices,
    with (p, q) the planar anchor images; the caller passes the opposite of the
    previous face's side so the surface flattens rather than folds back.
    """
    ia, ib = anchors
    P3, Q3 = pts3[ids.index(ia)], pts3[ids.index(ib)]
    e1 = Q3 - P3
    e1 = e1 / np.linalg.norm(e1)
    # in-plane unit vector orthogonal to the anchor edge
    free = [i for i in ids if i not in anchors]
    R3 = pts3[ids.index(free[0])]
    perp = (R3 - P3) - np.dot(R3 - P3, e1) * e1
    e2 = perp / np.linalg.norm(perp)

    p = np.array(pos2[ia])
    q = np.array(pos2[ib])
    u = q - p
    u = u / np.linalg.norm(u)
    for s in (1.0, -1.0):
        uperp = s * np.array([-u[1], u[0]])
        trial = {}
        ok = True
        for vid in free:
            V3 = pts3[ids.index(vid)]
            x = float(np.dot(V3 - P3, e1))
            y = float(np.dot(V3 - P3, e2))
            img = p + x * u + y * uperp
            cross = u[0] * (img[1] - p[1]) - u[1] * (img[0] - p[0])
            if cross * side < 0:
                ok = False
                break
            trial[vid] = (float(img[0]), float(img[1]))
        if ok:
            pos2.update(trial)
            return
    raise RuntimeError("could not place face on the required side")


def develop_zone(z: Zonohedron, zone_index: int = 0) -> PlanarZone:
    """Develop one zone of a built zonohedron (theta > 0) into the plane."""
    n = z.params.n
    faces = [z.faces[i] for i in z.zones[zone_index]]
    pos: dict[int, tuple[float, float]] = {}

    # R_1 in cycle order (a, b, d, c): d is the north pole, edge (c, d) is the
    # pole-side unit edge.  Pin d -> o and c -> (1, 0); free corners go below.
    a0, b0, d0, c0 = faces[0].vertex_ids
    pos[d0] = (0.0, 0.0)
    pos[c0] = (1.0, 0.0)
    _place_face(z.face_points(faces[0]), (c0, d0), pos, faces[0].vertex_ids, _side_below())

    corners: list[tuple] = []
    corners.append((pos[d0], pos[c0], pos[a0], pos[b0]))

    prev_ids = faces[0].vertex_ids
    for face in faces[1:]:
        a, b, d, c = face.vertex_ids
        # shared edge with the previous face: its (c, d) equals the previous (b, a)
        pa, pb = prev_ids[0], prev_ids[1]
        assert (c, d) == (pa, pb), "zone faces are not chained as expected"
        p = np.array(pos[c])
        q = np.array(pos[d])
        u = q - p
        # previous face's side w.r.t. the shared edge, probed with its far corner
        far = pos[prev_ids[2]]
        prev_side = u[0] * (far[1] - p[1]) - u[1] * (far[0] - p[0])
        _place_face(
            z.face_points(face), (c, d), pos, face.vertex_ids, -math.copysign(1.0, prev_side)
        )
        corners.append((pos[d], pos[c], pos[a], pos[b]))
        prev_ids = face.vertex_ids

    zone = PlanarZone(n, z.params.theta, z.params.alpha, tuple(corners))
    _check_standard_orientation(zone)
    return zone


def _side_below() -> float:
    # anchors are passed as (c, d) = ((1,0) -> o), so u = o - (1,0) = (-1, 0)
    # and cross(u, v - p) < 0 puts v in the lower half-plane... sign worked out
    # once here so the call site stays readable.
    # u = (-1, 0); cross = u_x*dy - u_y*dx = -dy; below (dy < 0) => cross > 0.
    return 1.0


def _check_standard_orientation(zone: PlanarZone, tol: float = ISOMETRY_TOL) -> None:
    for tl, tr, br, bl in zone.corners:
        for p0, p1 in ((tl, tr), (bl, br)):
            if abs(p1[1] - p0[1]) > tol or abs(abs(p1[0] - p0[0]) - 1.0) > tol:
                raise RuntimeError("development lost standard orientation")


def theta_zero_zone(n: int) -> PlanarZone:
    """The doubly-covered n-gon unfolding: a mirrored S of two half polygons.

    Built directly in the plane from the degenerate rhomb angles 2*pi*k/n; the
    left boundary chain steps by unit vectors at angle -2*pi*k/n, so the upper
    half's right boundary lies on a circle of radius 1/(2 sin(alpha/2))
    through o, and for n even the central rhomb collapses to a unit segment.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    alpha = 2.0 * math.pi / n
    left = [(0.0, 0.0)]
    for k in range(1, n):
        # folded rhomb angle: the boundary's turning reverses past the middle,
        # mirroring the lower half-polygon against the upper one
        g = alpha * min(k, n - k)
        x, y = left[-1]
        left.append((x + math.cos(g), y - math.sin(g)))
    corners = []
    for k in range(n - 1):
        tl = left[k]
        bl = left[k + 1]
        corners.append((tl, (tl[0] + 1.0, tl[1]), (bl[0] + 1.0, bl[1]), bl))
    return PlanarZone(n, 0.0, alpha, tuple(corners))


@dataclass(frozen=True)
class Net:
    """The full unfolding: n copies of one zone, zone i rotated by i*alpha."""

    n: int
    theta: float
    alpha: float
    zones: tuple[PlanarZone, ...]

    def labeled_quads(self):
        """Yield (zone_index, rhomb_index, corner tuple) over the whole net."""
        for zi, zone in enumerate(self.zones):
            for ri, quad in enumerate(zone.corners):
                yield zi, ri, quad


@lru_cache(maxsize=64)
def planar_zone(n: int, theta: float) -> PlanarZone:
    """Zone 0 developed in standard orientation; theta = 0 takes the S path."""
    if theta == 0.0:
        return theta_zero_zone(n)
    return develop_zone(build(Params(n, theta)), 0)


def assemble_net(n: int, theta: float) -> Net:
    zone0 = planar_zone(n, theta)
    zones = tuple(zone0.rotated(i * zone0.alpha) for i in range(n))
    return Net(n, theta, zone0.alpha, zones)
