"""Command-line front end: construction, rendering, verification, sweeps.

Subcommands: build (3D mesh export), net (SVG of the unfolding), verify
(single-parameter check suite), sweep (grid of verifications, parallel),
crescent (the continuous-n ratio table), subtended (per-rhomb angles).
Each sweep row is a projection of the same report `verify` prints, so a
row's pass is the `verify` verdict over the same checks.

All outputs are deterministic: fixed float formatting, rows sorted by
parameters, and a sweep that merges worker results in submission order, so
byte-identical files come out regardless of --jobs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import cache
from typing import Iterator, TextIO

import numpy as np

from . import crescent as crescent_mod
from .unfold import assemble_net, planar_zone
from .verify import net_overlap_oracle  # noqa: F401  perfbench's tracer patches this name
from .verify import rhomb_subtended_angles, run_verification
from .zonohedron import Params, build

SCHEMA_VERSION = 1
#: SVG user units per rhomb edge
SVG_SCALE = 100.0
DEFAULT_THETAS = "0,0.5,1,2,5,10,20,30,40,50,60,70,80,85,89,89.5"


def parse_theta(text: str) -> float:
    """Angle in radians from CLI text: bare numbers are degrees, a 'rad'
    suffix switches to radians, an optional 'deg' suffix is accepted."""
    s = text.strip().lower()
    if s.endswith("rad"):
        return float(s[: -len("rad")])
    if s.endswith("deg"):
        s = s[: -len("deg")]
    return math.radians(float(s))


# ---------------------------------------------------------------------------
# exporters


def write_obj(z, stream) -> None:
    stream.write(f"# polar zonohedron n={z.params.n} theta={z.params.theta:.12g} rad\n")
    # one %-template per block: the vertices, then the faces' 1-based ids
    coords = tuple(z.vertices.ravel().tolist())
    stream.write("v %.12f %.12f %.12f\n" * len(z.vertices) % coords)
    ids = tuple((z.face_ids + 1).ravel().tolist())
    stream.write("f %d %d %d %d\n" * len(z.face_ids) % ids)


def mesh_as_dict(z) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": z.params.n,
        "theta_rad": z.params.theta,
        "vertices": [[round(x, 15) for x in v] for v in z.vertices.tolist()],
        "faces": [
            {"zone": f.zone, "step": f.step, "vertex_ids": list(f.vertex_ids)}
            for f in z.faces
        ],
    }


def _zone_color(zone_index: int, n: int) -> str:
    if zone_index == 0:
        return "hsl(0, 85%, 55%)"  # the highlighted zone
    hue = round(360.0 * zone_index / n)
    return f"hsl({hue}, 60%, 70%)"


def write_svg(net, stream, zone_index: int | None = None) -> None:
    if zone_index is None:
        drawn, corners = range(net.n), net.corners
    else:
        drawn, corners = (zone_index,), net.corners[zone_index : zone_index + 1]
    xs, ys = corners[..., 0], corners[..., 1]
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    pad = 0.05 * max(xmax - xmin, ymax - ymin, 1.0)
    x0, y0 = (xmin - pad) * SVG_SCALE, (ymin - pad) * SVG_SCALE
    w = (xmax - xmin + 2 * pad) * SVG_SCALE
    h = (ymax - ymin + 2 * pad) * SVG_SCALE

    def pt(x, y):
        # SVG y grows downward; flip so the net appears as developed
        return x * SVG_SCALE - x0, h - (y * SVG_SCALE - y0)

    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {w:.6f} {h:.6f}">\n'
    )
    for zi, zone in zip(drawn, np.stack(pt(xs, ys), axis=-1)):
        # one %-template per zone: the colour's own '%' signs are escaped
        color = _zone_color(zi, net.n).replace("%", "%%")
        polygon = (
            '<polygon points="%.6f,%.6f %.6f,%.6f %.6f,%.6f %.6f,%.6f" '
            f'fill="{color}" stroke="black" stroke-width="0.5"/>\n'
        )
        stream.write(polygon * len(zone) % tuple(zone.ravel().tolist()))
    ox, oy = pt(0.0, 0.0)
    stream.write(f'<circle cx="{ox:.6f}" cy="{oy:.6f}" r="3" fill="black"/>\n')
    stream.write("</svg>\n")


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The stream for an output path: stdout (left open) for None or '-'."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as stream:
        yield stream


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    with _output(path) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args) -> int:
    z = build(Params(args.n, parse_theta(args.theta)))
    if args.obj:
        with _output(args.obj) as stream:
            write_obj(z, stream)
    if args.json:
        with _output(args.json) as stream:
            json.dump(mesh_as_dict(z), stream, indent=1)
            stream.write("\n")
    if not args.obj and not args.json:
        print(
            f"P({z.params.n}, {math.degrees(z.params.theta):g} deg): "
            f"{len(z.vertices)} vertices, {len(z.face_ids)} faces, "
            f"{len(z.edge_set())} edges"
        )
    return 0


def cmd_net(args) -> int:
    if args.zone is not None and not 0 <= args.zone < args.n:
        raise ValueError(f"--zone must lie in [0, {args.n - 1}]")
    net = assemble_net(args.n, parse_theta(args.theta))
    with _output(args.svg) as stream:
        write_svg(net, stream, zone_index=args.zone)
    return 0


def cmd_verify(args) -> int:
    rep = run_verification(args.n, parse_theta(args.theta))
    doc = {"schema": SCHEMA_VERSION, **rep.as_dict()}
    if args.json:
        with _output(args.json) as stream:
            json.dump(doc, stream, indent=1)
            stream.write("\n")
    if rep.passed:
        print(f"verify n={args.n} theta={args.theta}: pass")
        return 0
    print(f"verify n={args.n} theta={args.theta}: FAIL {rep.failures()}", file=sys.stderr)
    return 1


def _sweep_cell(cell: tuple[int, str]) -> list:
    n, theta_text = cell
    rep = run_verification(n, parse_theta(theta_text))
    return [
        n,
        theta_text,
        "%.9f" % math.degrees(rep.alpha),
        "%.9f" % math.degrees(rep.max_beta),
        "%.3e" % (rep.alpha - rep.max_beta),
        rep.overlap_pairs,
        "pass" if rep.passed else "fail",
    ]


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    thetas = [t.strip() for t in args.thetas.split(",") if t.strip()]
    cells = [
        (n, t)
        for n in range(args.n_min, args.n_max + 1)
        for t in sorted(thetas, key=parse_theta)
    ]
    if not cells:
        raise ValueError("the sweep grid has no cells: check --n-min, --n-max and --thetas")
    # the pool forks all its workers at the first submit: never more than cells
    jobs = min(args.jobs, len(cells))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells, chunksize=4))
    else:
        rows = [_sweep_cell(c) for c in cells]
    header = ["n", "theta_deg", "alpha_deg", "max_beta_deg", "margin", "overlap_pairs", "pass"]
    _write_csv(args.csv, header, rows)
    return 0 if all(r[-1] == "pass" for r in rows) else 1


def cmd_crescent(args) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if not (3 <= args.n_min < math.inf and 3 <= args.n_max < math.inf):
        raise ValueError("--n-min and --n-max must be finite and at least 3")
    ns: list[float] = []
    step = (args.n_max / args.n_min) ** (1.0 / (args.steps - 1))
    for i in range(args.steps):
        ns.append(args.n_min * step**i)
    rows = []
    for n in ns:
        L = crescent_mod.side_from_n(n)
        a = crescent_mod.alpha_from_side(L)
        b = crescent_mod.beta_from_side(L)
        rows.append(["%.6f" % n, "%.12f" % L, "%.12f" % a, "%.12f" % b, "%.12f" % (b / a)])
    _write_csv(args.csv, ["n", "L", "alpha_rad", "beta_rad", "ratio"], rows)
    return 0


def cmd_subtended(args) -> int:
    zone = planar_zone(args.n, parse_theta(args.theta))
    rows = [
        [i + 1, "%.9f" % math.degrees(b)]
        for i, b in enumerate(rhomb_subtended_angles(zone))
    ]
    _write_csv(args.csv, ["i", "beta_deg"], rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", type=int, required=True, help="number of generators (>= 3)")
    p.add_argument(
        "--theta",
        required=True,
        help="elevation angle: degrees by default, 'rad' suffix for radians",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every `main`."""
    ap = argparse.ArgumentParser(
        prog="zonet",
        description="Polar zonohedra, zone unfoldings, and non-overlap verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct the solid and export the mesh")
    _add_params(p)
    p.add_argument("--obj", help="write Wavefront OBJ to this path ('-' = stdout)")
    p.add_argument("--json", help="write JSON mesh to this path")

    p = sub.add_parser("net", help="render the unfolded net as SVG")
    _add_params(p)
    p.add_argument("--svg", required=True, help="output path ('-' = stdout)")
    p.add_argument("--zone", type=int, default=None, help="render only this zone")

    p = sub.add_parser("verify", help="run the verification suite for one (n, theta)")
    _add_params(p)
    p.add_argument("--json", help="write the JSON report to this path")

    p = sub.add_parser("sweep", help="verify a whole parameter grid")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=32)
    p.add_argument("--thetas", default=DEFAULT_THETAS, help="comma-separated theta values")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv", help="output path ('-' = stdout)")

    p = sub.add_parser("crescent", help="beta/alpha ratio table over continuous n")
    p.add_argument("--n-min", type=float, default=3.0)
    p.add_argument("--n-max", type=float, default=1e4)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--csv", help="output path ('-' = stdout)")

    p = sub.add_parser("subtended", help="per-rhomb subtended angles from o")
    _add_params(p)
    p.add_argument("--csv", help="output path ('-' = stdout)")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, so a patched cmd_* takes effect after the first call
        return globals()["cmd_" + args.command](args)
    except (ValueError, OSError) as exc:
        print(f"zonet: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
