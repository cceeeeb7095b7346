"""Construction of P(n, theta): counts, angles, and structural validation."""

import dataclasses
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import zonet
from zonet.zonohedron import (
    ConstructionError,
    HULL_BLOCK,
    Params,
    _max_plane_violation,
    build,
    generators,
    rhomb_angle,
    validate,
)


class TestParams:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            Params(2, 0.3)

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(ValueError):
            Params(8, math.pi / 2)
        with pytest.raises(ValueError):
            Params(8, -0.1)

    def test_build_rejects_theta_zero(self):
        with pytest.raises(ConstructionError):
            build(Params(8, 0.0))

    def test_alpha_formula(self):
        # alpha = arccos(cos^2(theta) cos(2 pi / n) + sin^2(theta))
        p = Params(16, math.radians(20))
        c = math.cos(p.theta) ** 2 * math.cos(2 * math.pi / 16) + math.sin(p.theta) ** 2
        assert p.alpha == pytest.approx(math.acos(c), abs=1e-15)

    def test_alpha_degrees_at_16_20(self):
        # frozen from this implementation; independently equals the closed form
        assert math.degrees(Params(16, math.radians(20)).alpha) == pytest.approx(
            21.126976323, abs=1e-9
        )


class TestGenerators:
    @given(st.integers(3, 40), st.floats(0.0, 1.5))
    @settings(max_examples=100, deadline=None)
    def test_unit_norm_and_common_elevation(self, n, theta):
        g = generators(Params(n, theta))
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
        assert np.allclose(g[:, 2], math.sin(theta), atol=1e-12)

    def test_equal_azimuthal_spacing(self):
        g = generators(Params(12, 0.7))
        az = np.unwrap(np.arctan2(g[:, 1], g[:, 0]))
        assert np.allclose(np.diff(az), 2 * math.pi / 12, atol=1e-12)


class TestRhombAngles:
    def test_gamma_1_is_alpha(self):
        p = Params(24, math.radians(40))
        assert rhomb_angle(p, 1) == pytest.approx(p.alpha, abs=1e-15)

    def test_central_angle_for_even_n(self):
        # gamma_{n/2} = pi - 2*theta: the central rhomb's sharp corner is 2*theta
        for theta_deg in (0.5, 1.0, 5.0, 50.0):
            p = Params(16, math.radians(theta_deg))
            assert rhomb_angle(p, 8) == pytest.approx(
                math.pi - 2 * p.theta, abs=1e-12
            )

    def test_symmetric_in_k(self):
        p = Params(11, 0.9)
        for k in range(1, 11):
            assert rhomb_angle(p, k) == pytest.approx(rhomb_angle(p, 11 - k), abs=1e-15)

    def test_theta_zero_limit(self):
        p = Params(16, 1e-12)
        assert math.degrees(rhomb_angle(p, 1)) == pytest.approx(22.5, abs=1e-9)

    @pytest.mark.parametrize("n", (3, 16, 21, 64))
    @pytest.mark.parametrize("theta", (1e-8, math.radians(1), math.radians(20), math.radians(89.5)))
    def test_within_a_few_ulps_of_50_digits(self, n, theta):
        """Near pi (the flat rhomb at small theta) an acos form is off by ~1e7 ulps."""
        with mpmath.workdps(50):
            t = mpmath.mpf(theta)
            for k in range(1, n):
                cos_gamma = mpmath.cos(t) ** 2 * mpmath.cos(2 * mpmath.pi * k / n) + mpmath.sin(t) ** 2
                exact = mpmath.acos(cos_gamma)
                got = rhomb_angle(Params(n, theta), k)
                assert abs(got - exact) <= 4 * math.ulp(float(exact)), (k, got, exact)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            rhomb_angle(Params(8, 0.3), 8)


class TestStructure:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_counts(self, n):
        z = build(Params(n, math.radians(30)))
        assert len(z.faces) == n * (n - 1)
        assert len(z.vertices) == n * (n - 1) + 2
        assert len(z.edge_set()) == 2 * n * (n - 1)

    def test_euler_characteristic(self):
        for n in (3, 7, 12):
            z = build(Params(n, 0.6))
            v, e, f = len(z.vertices), len(z.edge_set()), len(z.faces)
            assert v - e + f == 2

    def test_n3_is_combinatorial_cube(self):
        z = build(Params(3, math.radians(30)))
        assert len(z.vertices) == 8
        assert len(z.faces) == 6
        assert len(z.edge_set()) == 12
        # every vertex has degree 3, as in the cube
        deg = {}
        for a, b in z.edge_set():
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        assert set(deg.values()) == {3}

    def test_all_vertices_on_hull(self):
        for n, theta in ((5, 0.2), (9, 1.0), (12, 1.4)):
            z = build(Params(n, theta))
            hull = ConvexHull(z.vertices)
            assert len(hull.vertices) == len(z.vertices)

    def test_poles_on_axis(self):
        z = build(Params(10, 0.8))
        assert np.allclose(z.south_pole[:2], 0.0, atol=1e-12)
        assert np.allclose(z.north_pole[:2], 0.0, atol=1e-12)
        assert z.north_pole[2] == pytest.approx(10 * math.sin(0.8), abs=1e-12)

    def test_zone_faces_chain_pole_to_pole(self):
        z = build(Params(7, 0.5))
        n = z.params.n
        for k in range(n):
            steps = [z.faces[i].step for i in range(k * (n - 1), (k + 1) * (n - 1))]
            assert steps == list(range(1, 7))

    @given(
        st.integers(3, 20),
        st.floats(0.01, 1.55),
    )
    @settings(max_examples=60, deadline=None)
    def test_validation_passes_across_parameter_space(self, n, theta):
        rep = validate(build(Params(n, theta)))
        assert rep.passed, rep.failures()

    @pytest.mark.parametrize("n", (32, 40, 64))
    def test_builds_at_tiny_theta(self, n):
        """The nearly flat solid is convex: no hull-vertex count rejects it."""
        rep = validate(build(Params(n, 1e-12)))
        assert rep.margins["max_face_plane_violation"] < 1e-12

    def test_validation_margins_are_tiny(self):
        rep = validate(build(Params(16, math.radians(20))))
        assert rep.margins["max_edge_length_deviation"] < 1e-12
        assert rep.margins["max_face_nonplanarity"] < 1e-12
        assert rep.margins["central_symmetry_residual"] < 1e-10
        assert rep.margins["max_face_plane_violation"] < 1e-12


def _loop_reference(p):
    """Vertices and face vertex ids by plain loops over (start, length) runs."""
    n = p.n
    gens = generators(p)
    keys = [(0, 0), *((s, L) for L in range(1, n) for s in range(n)), (0, n)]
    index = {key: i for i, key in enumerate(keys)}
    verts = np.zeros((len(keys), 3))
    for (start, length), i in index.items():
        v = np.zeros(3)
        for j in range(length):
            v += gens[(start + j) % n]
        verts[i] = v
    faces = []
    for zone in range(n):
        for step in range(1, n):
            L = n - step
            a = index[((zone + 1) % n, L - 1) if L - 1 > 0 else (0, 0)]
            b = index[(zone, L)]
            d = index[(zone, L + 1) if L + 1 < n else (0, n)]
            c = index[((zone + 1) % n, L)]
            faces.append((zone, step, (a, b, d, c)))
    return verts, faces


class TestLoopReference:
    @pytest.mark.parametrize("n", (3, 4, 7, 16))
    @pytest.mark.parametrize("theta_deg", (0.3, 37.3, 89.5))
    def test_build_matches_plain_loops(self, n, theta_deg):
        p = Params(n, math.radians(theta_deg))
        z = build(p)
        verts, faces = _loop_reference(p)
        assert np.array_equal(z.vertices, verts)
        assert z.face_ids.dtype == np.intp
        assert z.face_ids.tolist() == [list(ids) for _, _, ids in faces]
        assert [(f.zone, f.step, f.vertex_ids) for f in z.faces] == faces


class TestValidationFaults:
    """Each structural check trips on a Zonohedron corrupted to break it."""

    @pytest.fixture
    def z(self):
        return build(Params(8, math.radians(30)))

    @staticmethod
    def _with_vertex(z, i, point):
        verts = z.vertices.copy()
        verts[i] = point
        return dataclasses.replace(z, vertices=verts)

    def test_moved_vertex_fails_unit_edges_and_planar_faces(self, z):
        i = len(z.vertices) // 2
        rep = validate(self._with_vertex(z, i, z.vertices[i] + [0.01, -0.02, 0.005]))
        assert not rep.checks["unit_edges"]
        assert not rep.checks["planar_faces"]
        assert rep.margins["max_face_nonplanarity"] > 0.01

    def test_duplicated_face_fails_closed_mesh(self, z):
        rep = validate(dataclasses.replace(z, face_ids=np.vstack([z.face_ids, z.face_ids[5:6]])))
        assert rep.failures() == ["closed_mesh"]
        assert rep.margins["edge_multiplicity_max"] == 3.0

    def test_off_centre_pole_fails_central_symmetry(self, z):
        rep = validate(self._with_vertex(z, -1, z.north_pole + [0.0, 0.0, 1e-3]))
        assert not rep.checks["central_symmetry"]
        assert rep.margins["central_symmetry_residual"] == pytest.approx(1e-3, rel=1e-6)

    def test_moved_vertex_leaves_its_mirror(self, z):
        i = len(z.vertices) // 3
        rep = validate(self._with_vertex(z, i, z.vertices[i] + [0.0, 3e-6, -4e-6]))
        assert not rep.checks["central_symmetry"]
        assert rep.margins["central_symmetry_residual"] == pytest.approx(5e-6, rel=1e-6)

    def test_vertex_pushed_inward_fails_convex(self, z):
        i = len(z.vertices) // 2
        centre = 0.5 * (z.north_pole + z.south_pole)
        pushed = z.vertices[i] + 0.5 * (centre - z.vertices[i])
        rep = validate(self._with_vertex(z, i, pushed))
        assert not rep.checks["convex"]

    def test_shallow_dent_fails_convex(self, z):
        """A 10% dent keeps every vertex on the hull; the face planes catch it."""
        centre = 0.5 * (z.north_pole + z.south_pole)
        dented = self._with_vertex(z, 29, z.vertices[29] + 0.1 * (centre - z.vertices[29]))
        assert len(ConvexHull(dented.vertices).vertices) == len(z.vertices)
        rep = validate(dented)
        assert not rep.checks["convex"]
        assert rep.margins["max_face_plane_violation"] > 0.2

    def test_dent_past_the_first_block_fails_convex_at_n40(self):
        """A 10% dent at P(40, 37.3 deg) can only tilt planes of the faces
        around it, which all lie past the first HULL_BLOCK planes."""
        z = build(Params(40, math.radians(37.3)))
        i = 1 + 19 * 40 + 20  # the run (start 20, length 20)
        assert z.vertex_keys[i].tolist() == [20, 20]
        around = np.flatnonzero((z.face_ids == i).any(axis=1))
        assert len(around) == 4 and around.min() >= HULL_BLOCK
        centre = 0.5 * (z.north_pole + z.south_pole)
        rep = validate(self._with_vertex(z, i, z.vertices[i] + 0.1 * (centre - z.vertices[i])))
        assert not rep.checks["convex"]
        assert rep.margins["max_face_plane_violation"] > 0.1

    @pytest.mark.parametrize("worst_facet", (0, -1))
    def test_blocked_hull_violation_equals_full_product(self, worst_facet):
        rng = np.random.default_rng(7)
        eqs = rng.normal(size=(3 * HULL_BLOCK + 5, 4))
        eqs[worst_facet, 3] += 10.0  # the maximum sits in the first or the partial last block
        verts = rng.normal(size=(50, 3))
        full = np.max(eqs[:, :3] @ verts.T + eqs[:, 3:4])
        assert _max_plane_violation(eqs, verts) == pytest.approx(full, abs=1e-14)

    @pytest.mark.parametrize("nan_plane", (0, HULL_BLOCK + 1, -1))
    def test_nan_plane_value_gives_nan(self, nan_plane):
        """A NaN plane value in any block survives the blocks after it."""
        rng = np.random.default_rng(8)
        eqs = rng.normal(size=(3 * HULL_BLOCK + 5, 4))
        eqs[nan_plane] = np.nan
        assert math.isnan(_max_plane_violation(eqs, rng.normal(size=(50, 3))))

    def test_numerically_flat_solid_fails_convex(self):
        """At theta = 1e-300 rad every face normal is 0/0 or x/0: convex must
        fail rather than pass on a -inf margin."""
        with pytest.raises(ConstructionError, match="convex"):
            build(Params(8, 1e-300))


def _loaded(package, code):
    """The modules of ``package`` in ``sys.modules`` after a fresh
    interpreter runs ``code``."""
    code += f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
    path = [os.path.dirname(os.path.dirname(zonet.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_library_runs_without_scipy():
    """build, validate, verification and net assembly never import scipy."""
    code = (
        "import sys, zonet\n"
        "zonet.build(zonet.Params(8, 0.3))\n"
        "zonet.run_verification(8, 0.3)\n"
        "zonet.assemble_net(8, 0.3)\n"
    )
    assert _loaded("scipy", code) == "[]"


def test_cli_and_library_run_without_mpmath():
    """Only the crescent functions load mpmath: importing the CLI, a build,
    a verification and a net leave it unloaded."""
    code = (
        "import sys, zonet.cli, zonet\n"
        "zonet.build(zonet.Params(8, 0.3))\n"
        "zonet.run_verification(8, 0.3)\n"
        "zonet.assemble_net(8, 0.3)\n"
    )
    assert _loaded("mpmath", code) == "[]"
