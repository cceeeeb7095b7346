"""zonet benchmark: one seeded workload, timed through the public API.

    python3 perfbench/run.py --workload zone-requests --seed 1 --seconds 50 --trace 0

Run from the root of a zonet source tree; zonet is imported from its
``src``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

from tree import HERE, ROOT, WORK, import_zonet, nproc

WORKLOADS = ("verify-grid", "sweep-parallel", "zone-requests")

SETUP_RUNS = 7
PROBE_TIMEOUT_S = 20
MIN_PASSES = 2


class Op(NamedTuple):
    """One timed operation: gate key, function, arguments, cells it verifies."""

    key: object
    fn: object
    args: tuple
    cells: int


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git": git_revision(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": os.getloadavg(),
    }


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set in MiB; with children, the largest child's peak is added."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def setup_times(workload: str, seed: int, gate, expected: str | None) -> list[float]:
    """Fresh interpreter to first result, SETUP_RUNS times."""
    times = []
    for _ in range(SETUP_RUNS):
        gate.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "first_result.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            took = time.perf_counter() - t0
            if not ready:
                proc.kill()
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(took)
        if code != 0 or line.split() != ["first-result", str(expected)]:
            gate.fail(f"setup probe exited {code} after printing {line.strip()!r}")
    return times


def repeat(seconds: float, body, minimum: int) -> int:
    """Call ``body`` at least ``minimum`` times, and again while the next
    call, as long as the last one, still ends within ``seconds``."""
    start = time.perf_counter()
    count, last = 0, 0.0
    while count < minimum or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        body()
        last = time.perf_counter() - t0
        count += 1
    return count


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s", "_s_per_pair")):
        return "s"
    if name.endswith(("_share", "_efficiency")):
        return "ratio"
    return "count"


class Run:
    """One benchmark invocation: its inputs, its gate and its metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import workloads

        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.gate = workloads.Gate()
        self.jobs = nproc()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []

    def cold(self) -> None:
        """Before a timed repeat: no cached zones, no pending garbage."""
        self.wl.PLANAR_ZONE.cache_clear()
        gc.collect()

    def warm_up(self) -> str | None:
        """The first result in-process, so timing starts after lazy imports."""
        self.gate.attempted += 1
        _, out, problems = self.wl.first_op(self.workload, self.seed, WORK, self.jobs)
        if problems:
            self.gate.fail(f"first result: {problems[0]}")
        return out

    def one_pass(self, ops: list[Op], best: dict[int, float], spans=None) -> None:
        """Every operation once, from a cold cache; keeps each one's best time."""
        self.cold()
        for i, op in enumerate(ops):
            if spans is not None:
                spans.op_id = i
            took = self.gate.run(op.key, op.fn, *op.args)
            if took is not None:
                best[i] = min(took, best.get(i, math.inf))

    def measure(self, ops: list[Op], first: str | None, children: bool) -> None:
        """The end-to-end metrics: passes over ``ops`` for the run's seconds.

        Each operation's time is its best over the passes.  On a shared host
        contention only ever adds time, and it comes in phases of seconds to
        minutes; the best of k is the least disturbed estimate."""
        best: dict[int, float] = {}
        passes = repeat(self.seconds, lambda: self.one_pass(ops, best), MIN_PASSES)
        if not best:
            raise SystemExit("perfbench: no operation succeeded: " + "; ".join(self.gate.reasons))
        latencies = list(best.values())
        total = sum(latencies)
        cells = sum(ops[i].cells for i in best)
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1] if len(latencies) > 1 else total
        self.metrics = {
            "cells_per_s": (cells / total, "1/s"),
            "requests_per_s": (len(latencies) / total, "1/s"),
            "request_s_p50": (statistics.median(latencies), "s"),
            "request_s_p90": (p90, "s"),
            "peak_rss_mb": (peak_rss_mb(children), "MiB"),
        }
        self.notes.append(f"{passes} passes of {len(ops)} requests, {cells} cells")
        cache = self.wl.PLANAR_ZONE.cache_info()
        self.notes.append(f"planar_zone cache hit share {ratio(cache.hits, cache.hits + cache.misses):.3f}")
        setup = setup_times(self.workload, self.seed, self.gate, first)
        self.metrics["setup_s"] = (statistics.median(setup), "s")

    def measure_layers(self, ops: list[Op], **extra: float) -> None:
        """The per-layer metrics: untraced and traced passes in turn.

        The spans of the first traced pass give the layers; the best times
        of all passes give the tracing overhead."""
        from layers import Spans, layer_metrics

        plain: dict[int, float] = {}
        traced: dict[int, float] = {}
        kept: list = []

        def both() -> None:
            self.one_pass(ops, plain)
            spans = Spans()
            with spans.patched():
                self.one_pass(ops, traced, spans)
            if not kept:
                # clearing the cache at the start of the pass reset its statistics
                kept.append((spans, self.wl.PLANAR_ZONE.cache_info()))

        repeat(self.seconds, both, 1)
        spans, cache = kept[0]
        spans.write(WORK / f"spans-{self.workload}-seed{self.seed}.json")
        layers = layer_metrics(spans, cache.hits, cache.misses)
        layers.update({"cli.sweep.wall_s": 0.0, "cli.sweep.parallel_efficiency": 0.0,
                       "cli.sweep.tail_idle_s": 0.0})
        if "cli.sweep.wall_s" in extra:
            busy = layers["cli.sweep.busy_s"]
            extra["cli.sweep.parallel_efficiency"] = ratio(busy, self.jobs * extra["cli.sweep.wall_s"])
        layers.update(extra)
        layers["trace.overhead_share"] = ratio(sum(traced.values()), sum(plain.values())) - 1.0
        self.metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}

    # -- the workloads ------------------------------------------------------

    def verify_grid(self) -> None:
        """In-process verdicts, all checks, over the stratified cell round."""
        ops = [Op(("verify", n, t), self.wl.verify_cell, (n, t), 1)
               for n, t in self.wl.verify_grid_cells(self.seed)]
        first = self.warm_up()
        if self.trace:
            self.measure_layers(ops)
        else:
            self.measure(ops, first, children=False)

    def sweep_parallel(self) -> None:
        """The CLI sweep at --jobs nproc over a fixed n range."""
        wl = self.wl
        thetas = wl.sweep_thetas(self.seed)
        cells = (wl.SWEEP_N[1] - wl.SWEEP_N[0] + 1) * len(thetas)
        csv_path = WORK / f"sweep-{self.seed}.csv"

        def op(jobs: int) -> Op:
            return Op(("sweep", self.seed), wl.sweep, (wl.SWEEP_N, thetas, jobs, csv_path), cells)

        first = self.warm_up()
        # every parallel CSV's digest must match this --jobs 1 run's
        self.one_pass([op(1)], {})
        if not self.trace:
            self.measure([op(self.jobs)], first, children=True)
            return
        from layers import tail_idle_s, timed_pool

        # forked workers would lose their spans, so the layers are traced at
        # --jobs 1; a wrapped pool times the items of a parallel sweep
        record: list = []
        saved = wl.cli.ProcessPoolExecutor
        wl.cli.ProcessPoolExecutor = timed_pool(record)
        try:
            self.cold()
            parallel = op(self.jobs)
            start = time.perf_counter()
            wall = self.gate.run(parallel.key, parallel.fn, *parallel.args) or 0.0
        finally:
            wl.cli.ProcessPoolExecutor = saved
        self.measure_layers(
            [op(1)],
            **{"cli.sweep.wall_s": wall, "cli.sweep.tail_idle_s": tail_idle_s(record, self.jobs, start)},
        )

    def zone_requests(self) -> None:
        """Single-zone CLI requests and cheap verdicts, replayed as one stream."""
        ops = [Op(req, self.wl.zone_request, (*req, WORK), 1)
               for req in self.wl.zone_requests(self.seed)]
        first = self.warm_up()
        if self.trace:
            self.measure_layers(ops)
        else:
            self.measure(ops, first, children=False)

    def execute(self) -> dict:
        getattr(self, self.workload.replace("-", "_"))()
        for name, (value, unit) in self.metrics.items():
            print(f"{name} {value:.6g} {unit}")
        for note in self.notes:
            print(note)
        g = self.gate
        print(f"failed_share {g.failed / g.attempted:.6g} ({g.failed}/{g.attempted})")
        for reason in g.reasons:
            print(f"failure: {reason}")
        return {
            "correct": g.failed == 0,
            "attempted": g.attempted,
            "failed": g.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: the sweep's pool and the set-up probe are stopped
    # and waited for on the way out, instead of being left running
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    import_zonet()
    print("env " + json.dumps(environment()), flush=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}", flush=True)
    try:
        result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    finally:
        for leftover in WORK.glob("request.*"):
            leftover.unlink()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
