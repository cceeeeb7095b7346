"""Seeded workload inputs, the operations the benchmark times, and the gate
that checks every operation's output.

Inputs are plain tuples of ints and degree strings, so the same seed gives
byte-identical inputs (``json.dumps`` of them is stable).  Every operation
goes through zonet's public API and returns ``(seconds, digest, problems)``:
the time of the API call alone, a hash of what it produced and a list of the
ways that output is wrong.  The ``Gate`` counts an operation as failed when
it raised, found a problem, or produced a different digest than an earlier
run of the same input.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import deque
from pathlib import Path
from time import perf_counter

from zonet import cli, unfold, verify
from zonet.cli import DEFAULT_THETAS, parse_theta

# The lru_cache object itself.  Tracing replaces the module attribute with a
# wrapper that has no cache API, so cache control goes through this name.
PLANAR_ZONE = unfold.planar_zone

# Bands between consecutive default sweep angles, from 0.5 deg up.  Angles
# below 0.5 deg are a known correctness regime of their own and stay out of
# these timing workloads.
_EDGES = [float(t) for t in DEFAULT_THETAS.split(",")][1:]
BANDS = tuple(zip(_EDGES, _EDGES[1:]))

# verify-grid: 8 cells with n evenly spaced over the CLI's default 3..32.
# One cell has theta = 0; each other cell draws its band from one pair of
# adjacent bands, so every band can appear.  The pairing is fixed: the
# pairs whose oracle cost varies most (10..30 and 50..85 deg) sit on small
# n, and the middle cells, which set the median, get the steadiest pairs,
# so every seed has the same cost mix.
GRID_N = tuple(3 + round(29 * i / 7) for i in range(8))
GRID_PAIRS = (5, 4, 2, 3, 6, 0, 1, None)

# sweep-parallel: the CLI sweep over a small n range; theta = 0 plus two
# angles in every band, mirrored about the band's middle, so that seeds
# differ little in cost where it grows steeply with theta.
SWEEP_N = (3, 7)

# zone-requests: one pass opens with a build, then every pair of a kind and
# one of 19 n once as a new cell, in one fixed order, with theta drawn
# inside a band that rotates with n.  The n step by a constant ratio from 16 to 40:
# a request's cost grows like n**4 at large n, and even steps would spend
# most of a pass on the last few n.  The top n is 40, not 64: on a 2-vCPU
# VM a pass up to 64 takes about 11 s and leaves 4 passes in a run, too few
# for a best-of-passes time that holds still on a shared host; up to 40 a
# pass takes about 5 s.  After every 3 new cells one request revisits
# one of the last 8 cells whose zone the planar_zone cache holds, with the
# next cache-backed kind in turn.  That makes 102 requests, so the 90th
# percentile has more than ten samples beyond it.
ZONE_N_MAX = 40
ZONE_N = tuple(round(16 * (ZONE_N_MAX / 16) ** (j / 18)) for j in range(19))
KINDS = ("build", "net", "subtended", "verify")
ZONE_CACHED_KINDS = ("net", "subtended", "verify")
NEW_PER_REVISIT = 3
RECENT_CELLS = 8

ALPHA_TOL = 1e-12
CSV_DEG_TOL = 2e-9


def band_theta(band: int, u: float) -> str:
    lo, hi = BANDS[band]
    return "%.4f" % (lo + (hi - lo) * u)


def verify_grid_cells(seed: int) -> list[tuple[int, str]]:
    rng = random.Random(f"verify-grid:{seed}")
    cells = []
    for n, pair in zip(GRID_N, GRID_PAIRS):
        if pair is None:
            cells.append((n, "0"))
        else:
            band = 2 * pair + rng.randrange(2)
            cells.append((n, band_theta(band, rng.uniform(0.01, 0.99))))
    return cells


def sweep_thetas(seed: int) -> list[str]:
    rng = random.Random(f"sweep-parallel:{seed}")
    thetas = ["0"]
    for band in range(len(BANDS)):
        u = rng.uniform(0.01, 0.49)
        thetas += [band_theta(band, u), band_theta(band, 1.0 - u)]
    return thetas


def zone_requests(seed: int) -> list[tuple[str, int, str]]:
    """One pass of the request stream."""
    rng = random.Random(f"zone-requests:{seed}")

    def new_request(kind: str, n: int, band: int) -> tuple[str, int, str]:
        return kind, n, band_theta(band % len(BANDS), rng.uniform(0.01, 0.99))

    out = [new_request("build", ZONE_N[0], 0)]
    # bands go round the n values, shifted per kind, so every kind meets
    # every band and no seed draws a costlier mix
    new = [
        new_request(kind, n, j + 5 * k)
        for k, kind in enumerate(KINDS)
        for j, n in enumerate(ZONE_N)
    ]
    # the order is one fixed shuffle for every seed, so seeds differ only in
    # theta and in which recent cell a revisit picks; with a seeded order the
    # heap's peak, which depends on the order of the large allocations,
    # spread by 0.09 of its median over ten seeds
    random.Random("zone-requests:order").shuffle(new)
    cached: deque[tuple[int, str]] = deque(maxlen=RECENT_CELLS)
    for i, req in enumerate(new):
        out.append(req)
        if req[0] in ZONE_CACHED_KINDS:
            cached.append(req[1:])
        if i % NEW_PER_REVISIT == NEW_PER_REVISIT - 1:
            kind = ZONE_CACHED_KINDS[(i // NEW_PER_REVISIT) % len(ZONE_CACHED_KINDS)]
            out.append((kind, *(rng.choice(list(cached)) if cached else req[1:])))
    return out


# ---------------------------------------------------------------------------
# independent expectations


def expected_alpha(n: int, theta: float) -> float:
    """The pole-corner rhomb angle, from the generator dot product."""
    c = math.cos(theta) ** 2 * math.cos(2.0 * math.pi / n) + math.sin(theta) ** 2
    return math.acos(min(1.0, max(-1.0, c)))


def expected_checks(n: int, theta: float, check_overlap: bool) -> set[str]:
    names = {"beta_le_alpha", "subtended"}
    names |= {"upper_half", "lower_half"} if theta == 0.0 else {"diagonals"}
    if n % 2 == 0:
        names.add("flat_rhomb")
    if check_overlap:
        names.add("net_overlap")
    return names


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def report_problems(rep, n: int, theta: float, check_overlap: bool) -> list[str]:
    problems = []
    if not rep.passed:
        problems.append(f"verdict failed: {rep.failures()}")
    if rep.n != n or rep.theta != theta:
        problems.append("report is for another cell")
    if abs(rep.alpha - expected_alpha(n, theta)) > ALPHA_TOL:
        problems.append(f"alpha {rep.alpha!r} is not the closed form")
    if set(rep.checks) != expected_checks(n, theta, check_overlap):
        problems.append(f"ran checks {sorted(rep.checks)}")
    hits = rep.checks.get("net_overlap")
    if hits is not None and hits.margin != 0.0:
        problems.append(f"oracle hit list: {hits.detail}")
    return problems


# ---------------------------------------------------------------------------
# operations


def verify_cell(n: int, theta_text: str, check_overlap: bool = True):
    theta = parse_theta(theta_text)
    t0 = perf_counter()
    rep = verify.run_verification(n, theta, check_overlap=check_overlap)
    took = perf_counter() - t0
    doc = json.dumps(rep.as_dict(), sort_keys=True).encode()
    return took, digest(doc), report_problems(rep, n, theta, check_overlap)


def sweep_problems(data: bytes, n_range: tuple[int, int], thetas: list[str]) -> list[str]:
    lines = data.decode().splitlines()
    header = "n,theta_deg,alpha_deg,max_beta_deg,margin,overlap_pairs,pass"
    if not lines or lines[0] != header:
        return ["CSV header is wrong"]
    cells = [
        (n, t)
        for n in range(n_range[0], n_range[1] + 1)
        for t in sorted(thetas, key=parse_theta)
    ]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(cells):
        return [f"{len(rows)} rows for {len(cells)} cells"]
    problems = []
    for (n, t), row in zip(cells, rows):
        if len(row) != 7 or row[0] != str(n) or row[1] != t:
            problems.append(f"row for ({n}, {t}) is {row}")
            continue
        alpha = math.degrees(expected_alpha(n, parse_theta(t)))
        if abs(float(row[2]) - alpha) > CSV_DEG_TOL:
            problems.append(f"({n}, {t}): alpha {row[2]}")
        if float(row[3]) > alpha + CSV_DEG_TOL:
            problems.append(f"({n}, {t}): max beta {row[3]} exceeds alpha")
        if row[5] != "0" or row[6] != "pass":
            problems.append(f"({n}, {t}): {row[5]} overlaps, {row[6]}")
    return problems


def sweep(n_range: tuple[int, int], thetas: list[str], jobs: int, csv_path: Path):
    t0 = perf_counter()
    code = cli.main([
        "sweep",
        "--n-min", str(n_range[0]),
        "--n-max", str(n_range[1]),
        "--thetas", ",".join(thetas),
        "--jobs", str(jobs),
        "--csv", str(csv_path),
    ])
    took = perf_counter() - t0
    data = csv_path.read_bytes()
    problems = [] if code == 0 else [f"sweep exit code {code}"]
    return took, digest(data), problems + sweep_problems(data, n_range, thetas)


def _file_problems(kind: str, n: int, theta: float, text: str) -> list[str]:
    rhombs = n * (n - 1)
    if kind == "build":
        lines = text.splitlines()
        verts = [line.split() for line in lines if line.startswith("v ")]
        faces = sum(line.startswith("f ") for line in lines)
        if len(verts) != rhombs + 2 or faces != rhombs:
            return [f"OBJ has {len(verts)} vertices and {faces} faces"]
        # the north pole is the sum of all n generators
        if abs(float(verts[-1][3]) - n * math.sin(theta)) > 1e-9:
            return ["OBJ north pole is misplaced"]
        return []
    if kind == "net":
        polygons = text.count("<polygon ")
        if polygons != rhombs or not text.endswith("</svg>\n"):
            return [f"SVG has {polygons} rhombs"]
        return []
    # subtended: rhomb R_1 subtends alpha, every later rhomb strictly less
    rows = [line.split(",") for line in text.splitlines()]
    alpha = math.degrees(expected_alpha(n, theta))
    if rows[0] != ["i", "beta_deg"] or len(rows) != n:
        return ["subtended CSV has the wrong shape"]
    betas = [float(b) for _, b in rows[1:]]
    if abs(betas[0] - alpha) > CSV_DEG_TOL or max(betas[1:]) >= alpha:
        return ["subtended angles break beta_1 = alpha > beta_i"]
    return []


_FLAGS = {"build": "--obj", "net": "--svg", "subtended": "--csv"}


def zone_request(kind: str, n: int, theta_text: str, workdir: Path):
    if kind == "verify":
        return verify_cell(n, theta_text, check_overlap=False)
    path = workdir / f"request.{kind}"
    t0 = perf_counter()
    code = cli.main([kind, "-n", str(n), "--theta", theta_text, _FLAGS[kind], str(path)])
    took = perf_counter() - t0
    if code != 0:
        return took, None, [f"{kind} exit code {code}"]
    data = path.read_bytes()
    return took, digest(data), _file_problems(kind, n, parse_theta(theta_text), data.decode())


def first_op(workload: str, seed: int, workdir: Path, jobs: int):
    """The first result a user of the workload waits for."""
    if workload == "verify-grid":
        return verify_cell(*verify_grid_cells(seed)[0])
    if workload == "sweep-parallel":
        thetas = sweep_thetas(seed)[1:2]
        return sweep((SWEEP_N[0], SWEEP_N[0]), thetas, jobs, workdir / f"first-{seed}.csv")
    return zone_request(*zone_requests(seed)[0], workdir)


# ---------------------------------------------------------------------------
# the gate


class Gate:
    """Counts attempted and failed operations; keeps the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._digests: dict[object, str] = {}

    def run(self, key, fn, *args) -> float | None:
        """Run one operation and return its API time (None if it raised).

        The digest is compared with the first one seen for ``key``."""
        self.attempted += 1
        try:
            took, out, problems = fn(*args)
        except Exception as exc:  # one failed operation must not stop the run
            took, out, problems = None, None, [f"raised {exc!r}"]
        if out is not None:
            problems = problems + self.same_digest(key, out)
        if problems:
            self.fail(f"{key}: {problems[0]}")
        return took

    def same_digest(self, key, out: str) -> list[str]:
        seen = self._digests.setdefault(key, out)
        return [] if seen == out else [f"output digest {out} differs from {seen}"]

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)
