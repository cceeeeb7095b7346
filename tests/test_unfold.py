"""Planar development of zones and assembly of the full net."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonet import geom
from zonet.cli import DEFAULT_THETAS, parse_theta
from zonet.unfold import Net, PlanarZone, assemble_net, planar_zone
from zonet.zonohedron import Params, Zonohedron, build

# The 3D rollout below is the independent reference for the closed-form
# development: it builds the solid and rotates each rhomb about the shared
# edge into the plane of its predecessor, placing the two free vertices
# isometrically on the side opposite the previous face.

ISOMETRY_TOL = 1e-10


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
    faces = [z.faces[i] for i in range(zone_index * (n - 1), (zone_index + 1) * (n - 1))]
    pos: dict[int, tuple[float, float]] = {}

    # R_1 in cycle order (a, b, d, c): d is the north pole, edge (c, d) is the
    # pole-side unit edge.  Pin d -> o and c -> (1, 0); free corners go below.
    a0, b0, d0, c0 = faces[0].vertex_ids
    pos[d0] = (0.0, 0.0)
    pos[c0] = (1.0, 0.0)
    ids0 = faces[0].vertex_ids
    _place_face(z.vertices[list(ids0)], (c0, d0), pos, ids0, _side_below())

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
            z.vertices[list(face.vertex_ids)],
            (c, d),
            pos,
            face.vertex_ids,
            -math.copysign(1.0, prev_side),
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


def max_corner_deviation(a, b):
    return max(
        math.dist(p, q)
        for qa, qb in zip(a.corners, b.corners)
        for p, q in zip(qa, qb)
    )


class TestStandardOrientation:
    @pytest.mark.parametrize(
        "n,theta_deg", [(8, 50.0), (16, 20.0), (16, 1.0), (5, 85.0), (31, 89.5)]
    )
    def test_origin_and_first_edge(self, n, theta_deg):
        zone = planar_zone(n, math.radians(theta_deg))
        assert zone.corners[0][0] == (0.0, 0.0)
        assert zone.corners[0][1] == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_zone_lies_in_lower_half_plane(self):
        zone = planar_zone(16, math.radians(20))
        assert all(p[1] <= 1e-12 for quad in zone.corners for p in quad)

    def test_chains_are_unit_translates(self):
        zone = planar_zone(16, math.radians(20))
        left_chain = [q[0] for q in zone.corners] + [zone.corners[-1][3]]
        right_chain = [q[1] for q in zone.corners] + [zone.corners[-1][2]]
        for left, right in zip(left_chain, right_chain):
            assert right[0] - left[0] == pytest.approx(1.0, abs=1e-10)
            assert right[1] - left[1] == pytest.approx(0.0, abs=1e-10)


class TestIsometry:
    @pytest.mark.parametrize("n,theta_deg", [(8, 50.0), (16, 20.0), (24, 40.0)])
    def test_edges_stay_unit(self, n, theta_deg):
        zone = planar_zone(n, math.radians(theta_deg))
        for quad in zone.corners:
            for i in range(4):
                d = math.dist(quad[i], quad[(i + 1) % 4])
                assert d == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "ns,theta",
        [
            *(pytest.param(range(3, 33), t, id=f"n3..32-{t}") for t in DEFAULT_THETAS.split(",")),
            *(
                pytest.param((64, 512, 2048), t, id=f"large-n-{t}")
                for t in ("0", "0.01", "20", "89.999", "1e-12rad")
            ),
        ],
    )
    def test_every_edge_is_a_unit_step(self, ns, theta):
        """Every developed edge is (1, 0) or (cos g, -sin g), the collapsed
        rhomb's at theta = 0 included: its squared length is 1 within a few
        ulps of the coordinates it is the difference of (2.5 at most over
        these cells), so no edge is null, and a circle crosses each edge's
        line in a quadratic with leading coefficient 1."""
        for n in ns:
            for quad in planar_zone(n, parse_theta(theta)).corners:
                for p, q in zip(quad, quad[1:] + quad[:1]):
                    dx, dy = q[0] - p[0], q[1] - p[1]
                    scale = max(1.0, *map(abs, p + q))
                    assert abs(dx * dx + dy * dy - 1.0) <= 4.0 * math.ulp(scale), (n, p, q)

    def test_rhomb_angles_match_solid(self):
        from zonet.zonohedron import rhomb_angle

        p = Params(16, math.radians(20))
        zone = planar_zone(p.n, p.theta)
        for k, (tl, tr, br, bl) in enumerate(zone.corners, start=1):
            v1 = np.subtract(tr, tl)
            v2 = np.subtract(bl, tl)
            cosang = float(np.dot(v1, v2))
            ang = math.acos(min(1.0, max(-1.0, cosang)))
            assert ang == pytest.approx(rhomb_angle(p, k), abs=1e-10)

    def test_adjacent_rhombs_share_an_edge(self):
        zone = planar_zone(12, math.radians(35))
        for prev, cur in zip(zone.corners, zone.corners[1:]):
            # bottom edge of one is the top edge of the next
            assert math.dist(prev[3], cur[0]) < 1e-12
            assert math.dist(prev[2], cur[1]) < 1e-12


NONZERO_THETAS_DEG = [float(t) for t in DEFAULT_THETAS.split(",") if float(t) != 0.0]


class TestClosedFormAgainstRollout:
    @pytest.mark.parametrize("n", (3, 4, 7, 16, 31, 32))
    @pytest.mark.parametrize("theta_deg", NONZERO_THETAS_DEG)
    def test_matches_3d_rollout(self, n, theta_deg):
        theta = math.radians(theta_deg)
        rolled = develop_zone(build(Params(n, theta)), 0)
        assert max_corner_deviation(planar_zone(n, theta), rolled) < 1e-10

    @pytest.mark.parametrize("n", (8, 32))
    def test_tiny_theta_resolves_the_flat_rhomb(self, n):
        """At theta = 1e-8 rad the central rhomb's sharp corner 2*theta survives."""
        zone = planar_zone(n, 1e-8)
        tl, _, _, bl = zone.corners[n // 2 - 1]
        # its left edge is the unit vector at angle -(pi - 2*theta)
        assert tl[1] - bl[1] == pytest.approx(2e-8, rel=1e-7)


class TestZoneSymmetry:
    def test_every_zone_develops_identically(self):
        """Rotational symmetry: each zone of the solid unrolls to the same shape."""
        z = build(Params(9, math.radians(40)))
        base = develop_zone(z, 0)
        for zi in (1, 4, 8):
            assert max_corner_deviation(base, develop_zone(z, zi)) < 1e-10

    def test_net_zone_i_is_zone0_rotated(self):
        net = assemble_net(8, math.radians(50))
        base = net.zones[0]
        rotated = base.rotated(3 * net.alpha)
        assert max_corner_deviation(rotated, net.zones[3]) < 1e-10


class TestThetaZero:
    def test_upper_chain_on_circle_through_o(self):
        n = 16
        zone = planar_zone(n, 0.0)
        rc = 1.0 / (2.0 * math.sin(math.pi / n))
        # the right chain of the upper half lies on a circle through o
        center = (0.5, -math.sqrt(rc * rc - 0.25))
        right_chain = [q[1] for q in zone.corners] + [zone.corners[-1][2]]
        for p in right_chain[: n // 2 + 1]:
            assert math.dist(p, center) == pytest.approx(rc, abs=1e-10)
        assert math.hypot(*center) == pytest.approx(rc, abs=1e-12)

    def test_central_rhomb_collapses_for_even_n(self):
        zone = planar_zone(16, 0.0)
        tl, tr, br, bl = zone.corners[7]
        assert math.dist(tl, bl) == pytest.approx(1.0, abs=1e-12)
        # zero area: the four corners sit on one segment
        area = abs(
            (tr[0] - tl[0]) * (bl[1] - tl[1]) - (tr[1] - tl[1]) * (bl[0] - tl[0])
        )
        assert area < 1e-12

    @pytest.mark.parametrize("n", range(3, 33))
    def test_only_the_collapsed_rhomb_is_degenerate(self, n):
        """At theta = 0 the collapsed central rhomb (n even) is the one
        rhomb whose doubled area is within ``DEGENERATE_AREA``; at theta =
        1e-12 rad no rhomb is."""

        def degenerate(theta):
            areas = map(geom._signed_area2, planar_zone(n, theta).corners)
            return [k for k, a in enumerate(areas) if abs(a) <= geom.DEGENERATE_AREA]

        assert degenerate(0.0) == ([n // 2 - 1] if n % 2 == 0 else [])
        assert degenerate(1e-12) == []

    @pytest.mark.parametrize("n", [7, 10, 16, 17])
    def test_s_shape_point_symmetry(self, n):
        # the lower half is the upper half rotated by pi about the chain
        # midpoint: chain[k] + chain[n-k] is constant along the chain
        zone = planar_zone(n, 0.0)
        chain = [q[0] for q in zone.corners] + [zone.corners[-1][3]]
        last = len(chain) - 1
        sx, sy = chain[0][0] + chain[last][0], chain[0][1] + chain[last][1]
        for k in range(last + 1):
            assert chain[k][0] + chain[last - k][0] == pytest.approx(sx, abs=1e-9)
            assert chain[k][1] + chain[last - k][1] == pytest.approx(sy, abs=1e-9)

    def test_matches_small_theta_limit(self):
        """The theta = 0 development is the limit of the 3D rollout."""
        n = 12
        z0 = planar_zone(n, 0.0)
        zt = develop_zone(build(Params(n, 1e-5)), 0)
        # the development drifts linearly in theta near the degenerate case
        assert max_corner_deviation(z0, zt) < 1e-4

    def test_rejects_n_below_3(self):
        with pytest.raises(ValueError):
            planar_zone(2, 0.0)


class TestHalfSplit:
    @pytest.mark.parametrize(
        "n,upper,lower,flat",
        [
            (4, (0,), (2,), 1),
            (16, tuple(range(7)), tuple(range(8, 15)), 7),
            (17, tuple(range(8)), tuple(range(8, 16)), None),
            (5, (0, 1), (2, 3), None),
        ],
    )
    def test_split_indices(self, n, upper, lower, flat):
        zone = planar_zone(n, 0.0)
        u, l, f = zone.half_split()
        assert (u, l, f) == (upper, lower, flat)

    @given(st.integers(3, 40))
    @settings(max_examples=40, deadline=None)
    def test_split_partitions_all_rhombs(self, n):
        zone = planar_zone(n, 0.0)
        u, l, f = zone.half_split()
        everything = sorted((*u, *l, *(() if f is None else (f,))))
        assert everything == list(range(n - 1))


def exact_radius_range(quad):
    """[min, max] distance from o, at mpmath's working precision, to the
    rhomb with these float corners: the nearest point of its four edges and
    its farthest corner."""
    pts = [(mp.mpf(x), mp.mpf(y)) for x, y in quad]

    def segment_distance(p, q):
        dx, dy = q[0] - p[0], q[1] - p[1]
        dd = dx * dx + dy * dy
        t = 0 if dd == 0 else min(1, max(0, -(p[0] * dx + p[1] * dy) / dd))
        return mp.hypot(p[0] + t * dx, p[1] + t * dy)

    lo = min(segment_distance(pts[i - 1], pts[i]) for i in range(4))
    return lo, max(mp.hypot(*p) for p in pts)


class TestRadiusRanges:
    @pytest.mark.parametrize(
        "ns,theta",
        [
            *(
                pytest.param(range(3, 17), t, id=f"n3..16-{t}")
                for t in (*DEFAULT_THETAS.split(","), "37.3", "1e-6rad", "1e-12rad")
            ),
            pytest.param((32,), "20", id="n32-20"),
        ],
    )
    def test_within_one_ulp_of_exact_distances(self, ns, theta):
        for n in ns:
            zone = planar_zone(n, parse_theta(theta))
            for quad, (lo, hi) in zip(zone.corners, zone.radius_ranges):
                with mp.workdps(50):
                    exact_lo, exact_hi = exact_radius_range(quad)
                    assert abs(lo - exact_lo) <= math.ulp(hi), (n, quad)
                    assert abs(hi - exact_hi) <= math.ulp(hi), (n, quad)


class TestNet:
    def test_corner_array_and_zones_agree(self):
        """Both views of one net hold the same bits, whichever it was built from."""
        net = assemble_net(8, math.radians(50))
        assert net.corners.shape == (8, 7, 4, 2)
        assert net.zones[0] == planar_zone(8, math.radians(50))
        rebuilt = Net(net.n, net.theta, net.alpha, net.zones)
        assert rebuilt.corners.tobytes() == net.corners.tobytes()
        assert [z.corners for z in rebuilt.zones] == [z.corners for z in net.zones]

    def test_rotated_zone_matches_the_assembled_net_bitwise(self):
        """PlanarZone.rotated and assemble_net share one rotation: zone i of
        the net is zone 0 rotated by i*alpha, to the last bit."""
        net = assemble_net(13, math.radians(35))
        for i in range(13):
            rotated = net.zones[0].rotated(i * net.alpha)
            assert rotated.array.tobytes() == net.corners[i].tobytes()

    @pytest.mark.parametrize("n,theta_deg", [(5, 0.0), (16, 20.0), (24, 37.3), (40, 89.5)])
    def test_zone_0_reads_back_as_the_developed_zone(self, n, theta_deg):
        """assemble_net hands zone 0 back as the zone it turned by 0, which
        is only sound while that turn keeps every bit."""
        net = assemble_net(n, math.radians(theta_deg))
        assert net.zone(0) is planar_zone(n, math.radians(theta_deg))
        assert net.zone(0).array.tobytes() == net.corners[0].tobytes()

    @pytest.mark.parametrize("n,theta_deg", [(5, 0.0), (16, 20.0), (24, 37.3), (40, 89.5)])
    def test_net_matches_scalar_rotation_bitwise(self, n, theta_deg):
        """Each corner is (0 + c*x) - s*y, (0 + s*x) + c*y with c, s from
        math.cos/math.sin of i*alpha, evaluated point by point in Python."""
        net = assemble_net(n, math.radians(theta_deg))
        zone0 = planar_zone(n, math.radians(theta_deg))
        for i in range(n):
            c, s = math.cos(i * net.alpha), math.sin(i * net.alpha)
            expected = [
                [[0.0 + c * x - s * y, 0.0 + s * x + c * y] for x, y in quad]
                for quad in zone0.corners
            ]
            assert np.array(expected).tobytes() == net.corners[i].tobytes()

    def test_needs_exactly_one_view(self):
        with pytest.raises(ValueError):
            Net(8, 0.5, 0.4)

    def test_alpha_consistency(self):
        net = assemble_net(24, math.radians(40))
        assert math.degrees(net.alpha) == pytest.approx(11.477058462, abs=1e-9)
