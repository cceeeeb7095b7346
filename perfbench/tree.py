"""Where the benchmark runs: the zonet source tree it sits in."""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# outputs, CSVs and span files; ignored by git
WORK = ROOT / ".perfbench"


def import_zonet():
    """Import zonet from this tree's src, never from an installed copy.

    BLAS is held to one thread before numpy loads, so that each process of
    the benchmark uses one CPU: on a 2-vCPU host a second OpenBLAS thread
    spins on the CPU that the sweep's other worker needs.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "zonet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no zonet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zonet

    if Path(zonet.__file__).resolve().parent != SRC / "zonet":
        raise SystemExit(f"perfbench: imported zonet from {zonet.__file__}, not {SRC}")
    WORK.mkdir(exist_ok=True)
    return zonet


def nproc() -> int:
    return len(os.sched_getaffinity(0))
