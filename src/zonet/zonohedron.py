"""Construction of the polar zonohedron P(n, theta) and structural validation.

The solid is determined by n unit generators forming an equally spaced star at
elevation theta around the vertical pole axis:

    u_k = (cos(2*pi*k/n) * cos(theta), sin(2*pi*k/n) * cos(theta), sin(theta))

Vertices are sums of cyclically consecutive generator runs, identified by
(start, length) so deduplication never keys on floats.  Faces are rhombs
labeled (zone, step): zone i is the parallel class of generator u_i, and step k
counts from the north pole (step 1 touches the north pole).

build() refuses to return a solid unless validate() confirms five invariants,
each within VALIDATION_TOL: unit_edges (every rhomb side has length 1),
planar_faces (every face closes as a parallelogram), closed_mesh (every edge
lies on exactly two faces), central_symmetry (the vertex set is symmetric
about the midpoint of the poles) and convex (no vertex lies outside the plane
of any face, within the larger HULL_TOL).  Both functions are array programs
over all vertices and faces at once, with no hull or nearest-neighbour search:
symmetry pairs each run with its complementary run by index arithmetic, and
the convexity check tests every face plane against every vertex in fixed-size
blocks of planes, so its memory stays at HULL_BLOCK rows whatever n is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

VALIDATION_TOL = 1e-10
HULL_TOL = 1e-9  # ``convex`` allows a vertex this far outside a face plane


class ConstructionError(ValueError):
    """A structural invariant failed during build; the message names the check."""


@dataclass(frozen=True)
class Params:
    """n generators at elevation theta (radians), theta in [0, pi/2).

    theta = 0 is representable (the doubly-covered n-gon) but build() rejects
    it; the unfold module develops every theta, 0 included, from the rhomb
    angles alone, without the solid.
    """

    n: int
    theta: float

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 3:
            raise ValueError("n must be an integer >= 3")
        if not (0.0 <= self.theta < math.pi / 2):
            raise ValueError("theta must lie in [0, pi/2)")

    @property
    def alpha(self) -> float:
        """Rhomb angle at the pole corner; also the net's zone-to-zone rotation."""
        return rhomb_angle(self, 1)


def generators(p: Params) -> np.ndarray:
    """The n unit generators, shape (n, 3)."""
    k = np.arange(p.n)
    az = 2.0 * math.pi * k / p.n
    ct, st = math.cos(p.theta), math.sin(p.theta)
    return np.stack([np.cos(az) * ct, np.sin(az) * ct, np.full(p.n, st)], axis=1)


def rhomb_angle(p: Params, k: int) -> float:
    """Angle between generator directions at cyclic distance k, in (0, pi].

    gamma_1 is alpha; for n even, gamma_{n/2} = pi - 2*theta, so the
    complementary corner of the central rhomb is exactly 2*theta.

    With phi = pi*k/n, the half angle has sin(gamma/2) = cos(theta)|sin(phi)|
    and cos(gamma/2) = hypot(cos(phi), sin(theta) sin(phi)).  Their atan2 keeps
    full relative accuracy near 0 and near pi, where acos of the cosine
    cos^2(theta) cos(2 phi) + sin^2(theta) loses half its digits.  gamma_k =
    gamma_{n-k}, so phi is taken in (0, pi/2], where sin(phi) is not the
    difference of a rounded phi from pi.
    """
    if not (1 <= k <= p.n - 1):
        raise ValueError(f"k must be in [1, {p.n - 1}]")
    phi = math.pi * min(k, p.n - k) / p.n
    s = math.sin(phi)
    half_cos = math.hypot(math.cos(phi), math.sin(p.theta) * s)
    return 2.0 * math.atan2(math.cos(p.theta) * s, half_cos)


@dataclass(frozen=True)
class Face:
    """A rhomb face: vertex indices in cycle order, labeled (zone, step)."""

    zone: int
    step: int
    vertex_ids: tuple[int, int, int, int]


@dataclass(frozen=True)
class Zonohedron:
    params: Params
    generators: np.ndarray  # (n, 3)
    vertices: np.ndarray  # (n*(n-1)+2, 3)
    vertex_keys: tuple[tuple[int, int], ...]  # (start, length) runs
    faces: tuple[Face, ...]  # ordered by (zone, step)
    zones: tuple[tuple[int, ...], ...]  # face indices per zone

    @property
    def south_pole(self) -> np.ndarray:
        return self.vertices[0]

    @property
    def north_pole(self) -> np.ndarray:
        return self.vertices[-1]

    def face_points(self, face: Face) -> np.ndarray:
        return self.vertices[list(face.vertex_ids)]

    def edge_set(self) -> set[tuple[int, int]]:
        edges: set[tuple[int, int]] = set()
        for f in self.faces:
            ids = f.vertex_ids
            for i in range(4):
                a, b = ids[i], ids[(i + 1) % 4]
                edges.add((a, b) if a < b else (b, a))
        return edges


def _vertex_index(n: int, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Row of the run (start, length) in the vertex array; the empty run is the
    south pole (row 0) and the full star the north pole (the last row)."""
    inner = 1 + (length - 1) * n + start
    return np.where(length == 0, 0, np.where(length == n, n * (n - 1) + 1, inner))


def build(p: Params) -> Zonohedron:
    """Construct P(n, theta) for theta > 0; structural invariants are checked."""
    if p.theta <= 0.0:
        raise ConstructionError(
            "theta = 0 collapses the solid; develop it with planar_zone(n, 0)"
        )
    n = p.n
    gens = generators(p)

    # runs[L, s] = gens[s] + gens[s+1] + ... + gens[s+L-1] (indices mod n),
    # accumulated from zero one generator at a time, so every vertex is the
    # same left-to-right float sum whatever the run
    starts = np.arange(n)
    runs = np.zeros((n + 1, n, 3))
    for length in range(1, n + 1):
        runs[length] = runs[length - 1] + gens[(starts + length - 1) % n]
    verts = np.concatenate([runs[0, :1], runs[1:n].reshape(-1, 3), runs[n, :1]])
    keys = ((0, 0), *((s, L) for L in range(1, n) for s in range(n)), (0, n))

    # face (zone, step): step k from the north pole is the run length L = n - k;
    # cycle order (a, b, d, c) = ((z+1, L-1), (z, L), (z, L+1), (z+1, L))
    zone, step = np.divmod(np.arange(n * (n - 1)), n - 1)
    step += 1
    length = n - step
    nxt = (zone + 1) % n
    ids = np.stack(
        [
            _vertex_index(n, nxt, length - 1),
            _vertex_index(n, zone, length),
            _vertex_index(n, zone, length + 1),
            _vertex_index(n, nxt, length),
        ],
        axis=1,
    )
    faces = tuple(map(Face, zone.tolist(), step.tolist(), map(tuple, ids.tolist())))
    zones = tuple(tuple(range(i * (n - 1), (i + 1) * (n - 1))) for i in range(n))

    z = Zonohedron(p, gens, verts, keys, faces, zones)
    report = validate(z)
    if not report.passed:
        raise ConstructionError(f"construction invariant failed: {report.failures()}")
    return z


@dataclass
class ValidationReport:
    checks: dict[str, bool] = field(default_factory=dict)
    margins: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failures(self) -> list[str]:
        return [k for k, ok in self.checks.items() if not ok]


def validate(z: Zonohedron) -> ValidationReport:
    """Check edge lengths, planarity, closedness, symmetry, and convexity."""
    rep = ValidationReport()
    verts = z.vertices
    ids = np.array([f.vertex_ids for f in z.faces], dtype=np.intp)
    pts = verts[ids]  # (F, 4, 3) in cycle order (a, b, d, c)

    sides = np.roll(pts, -1, axis=1) - pts
    edge_dev = float(np.max(np.abs(np.linalg.norm(sides, axis=2) - 1.0)))
    rep.margins["max_edge_length_deviation"] = edge_dev
    rep.checks["unit_edges"] = edge_dev <= VALIDATION_TOL
    # a parallelogram closes: a - b + d - c = 0
    closure = pts[:, 0] - pts[:, 1] + pts[:, 2] - pts[:, 3]
    planarity = float(np.max(np.linalg.norm(closure, axis=1)))
    rep.margins["max_face_nonplanarity"] = planarity
    rep.checks["planar_faces"] = planarity <= VALIDATION_TOL

    # closed orientable surface: every undirected edge in exactly two faces
    ends = np.stack([ids, np.roll(ids, -1, axis=1)], axis=2).reshape(-1, 2)
    ends.sort(axis=1)
    _, multiplicity = np.unique(ends[:, 0] * len(verts) + ends[:, 1], return_counts=True)
    rep.checks["closed_mesh"] = bool(np.all(multiplicity == 2))
    rep.margins["edge_multiplicity_max"] = float(multiplicity.max())

    # the mirror of run (s, L) is its complement, the run (s + L mod n, n - L)
    center = 0.5 * (z.north_pole + z.south_pole)
    n = z.params.n
    start, length = np.array(z.vertex_keys).T
    mirror = _vertex_index(n, (start + length) % n, n - length)
    sym = float(np.max(np.linalg.norm(verts + verts[mirror] - 2.0 * center, axis=1)))
    rep.margins["central_symmetry_residual"] = sym
    rep.checks["central_symmetry"] = sym <= VALIDATION_TOL

    # outward plane of each face through its first vertex; a dent tilts the
    # planes of the faces around it, putting their neighbours outside
    normals = np.cross(pts[:, 1] - pts[:, 0], pts[:, 3] - pts[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat face fails convex
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals *= np.sign(np.einsum("ij,ij->i", normals, pts.mean(axis=1) - center))[:, None]
    planes = np.column_stack([normals, -np.einsum("ij,ij->i", normals, pts[:, 0])])
    viol = _max_plane_violation(planes, verts)
    rep.margins["max_face_plane_violation"] = viol
    # with closed_mesh, no vertex outside any face plane puts every face on
    # the hull's boundary, so the surface is that boundary
    rep.checks["convex"] = viol <= HULL_TOL

    return rep


HULL_BLOCK = 64  # planes per block: the largest temporary is HULL_BLOCK x vertices


def _max_plane_violation(planes: np.ndarray, verts: np.ndarray) -> float:
    """max over planes and vertices of normal . v + offset, in blocks of planes.

    NaN when any plane value is NaN (a face too flat to have a normal), so
    that ``convex`` fails rather than passing on the other planes.
    """
    buf = np.empty((min(HULL_BLOCK, len(planes)), len(verts)))
    coords = np.ascontiguousarray(verts.T)
    worst = -np.inf
    for lo in range(0, len(planes), HULL_BLOCK):
        block = planes[lo : lo + HULL_BLOCK]
        out = buf[: len(block)]
        np.matmul(block[:, :3], coords, out=out)
        out += block[:, 3:4]
        worst = np.maximum(worst, out.max())  # keeps a NaN, unlike max()
    return float(worst)
