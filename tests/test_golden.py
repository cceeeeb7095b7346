"""The command-line output bytes over the default grid, pinned cell by cell.

``golden_grid.txt`` holds one line per cell of the default sweep grid (n
3..32 times ``DEFAULT_THETAS``): each check's verdict and margin as
``float.hex``, the overlap pairs, the cell's sweep row, and the leading 16
hex digits of the sha256 of its ``verify --json`` report and its
``subtended --csv`` table.  Its last line is the sha256 of the whole default
``sweep --csv``.  A change that moves a byte of any of these fails here and
names every cell it moved.  A change that moves an output on purpose
re-pins the file with

    PYTHONPATH=src python tests/test_golden.py

and lists the moved cells in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import pathlib
import tempfile

from zonet.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_grid.txt")


def _run(argv: list[str], out: pathlib.Path) -> bytes:
    """The bytes ``zonet`` writes to ``out`` for ``argv``; its stdout is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        main([*argv, str(out)])
    return out.read_bytes()


def golden_lines() -> list[str]:
    """The golden file's lines, computed from the installed library."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        sweep = _run(["sweep", "--csv"], out)
        rows = list(csv.reader(sweep.decode().splitlines()))[1:]
        lines = []
        for row in rows:
            params = ["-n", row[0], "--theta", row[1]]
            report = _run(["verify", *params, "--json"], out)
            table = _run(["subtended", *params, "--csv"], out)
            lines.append(_cell_line(row, report, table))
    return [*lines, f"sweep_csv={hashlib.sha256(sweep).hexdigest()}"]


def _cell_line(row: list[str], report: bytes, table: bytes) -> str:
    checks = " ".join(
        f"{name}={'pass' if c['pass'] else 'fail'}:{float(c['margin']).hex()}"
        for name, c in json.loads(report)["checks"].items()
    )
    return (
        f"n={row[0]} theta={row[1]} {checks} overlap_pairs={row[5]}"
        f" verify_json={hashlib.sha256(report).hexdigest()[:16]}"
        f" subtended_csv={hashlib.sha256(table).hexdigest()[:16]}"
        f" sweep_row={','.join(row)}"
    )


def _key(line: str) -> str:
    return " ".join(line.split()[:2])


def test_outputs_match_the_golden_file():
    """Every grid cell's outputs keep their bytes; a failure lists each moved
    cell with its pinned and its new line."""
    pinned = GOLDEN.read_text().splitlines()
    now = golden_lines()
    assert len(now) == len(pinned) == 30 * 16 + 1
    moved = [
        f"{_key(old)}\n  pinned: {old}\n  now:    {new}"
        for old, new in zip(pinned, now)
        if old != new
    ]
    assert not moved, f"{len(moved)} of {len(now)} lines moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
