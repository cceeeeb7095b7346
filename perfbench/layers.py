"""Span tracing of zonet's layers, patched onto module attributes.

``Spans.patched()`` replaces the public functions of ``zonohedron``,
``unfold``, ``verify``, ``geom`` (as ``verify`` calls them) and ``cli`` with
wrappers that record one span per call: name, operation id, parent span,
start and end.  Spans stay in memory until the run ends; ``layer_metrics``
turns them into per-layer work counts, times and self times (a span's
duration minus the time its child spans cover).  The library is unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


def _oracle_counts(counts: Counter, args, hits) -> None:
    sizes = [len(zone.corners) for zone in args[0].zones]
    total = sum(sizes)
    counts["verify.oracle.cross_pairs"] += (total * total - sum(s * s for s in sizes)) // 2
    counts["verify.oracle.hits"] += len(hits)


def _count_len(key: str):
    def count(counts: Counter, args, result) -> None:
        counts[key] += len(result)

    return count


# (module, attribute, span name, counter hook).  A function imported into
# several modules is patched under every name its callers look it up by.
TARGETS = (
    ("zonet.verify", "polygons_interior_overlap", "geom.polygons_interior_overlap", None),
    ("zonet.verify", "circle_quad_arcs", "geom.circle_quad_arcs", None),
    ("zonet.verify", "net_overlap_oracle", "verify.net_overlap_oracle", _oracle_counts),
    ("zonet.cli", "net_overlap_oracle", "verify.net_overlap_oracle", _oracle_counts),
    ("zonet.verify", "critical_radii", "verify.critical_radii", _count_len("verify.events")),
    ("zonet.verify", "sample_radii", "verify.sample_radii", _count_len("verify.radii")),
    ("zonet.verify", "beta_profile", "verify.beta_profile", None),
    ("zonet.verify", "flat_rhomb_check", "verify.flat_rhomb_check", None),
    ("zonet.verify", "run_verification", "verify.run_verification", None),
    ("zonet.verify", "assemble_net", "unfold.assemble_net", None),
    ("zonet.cli", "assemble_net", "unfold.assemble_net", None),
    ("zonet.unfold", "planar_zone", "unfold.planar_zone", None),
    ("zonet.verify", "planar_zone", "unfold.planar_zone", None),
    ("zonet.cli", "planar_zone", "unfold.planar_zone", None),
    ("zonet.unfold", "build", "zonohedron.build", None),
    ("zonet.cli", "build", "zonohedron.build", None),
    ("zonet.zonohedron", "validate", "zonohedron.validate", None),
    ("zonet.cli", "write_obj", "cli.export", None),
    ("zonet.cli", "write_svg", "cli.export", None),
    ("zonet.cli", "_write_csv", "cli.export", None),
    ("zonet.cli", "_sweep_cell", "cli.sweep_cell", None),
    ("zonet.cli", "cmd_sweep", "cli.sweep", None),
)


class Spans:
    """In-memory spans of one process; single-threaded callers only."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.op.append(self.op_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, attr, name, count in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, count))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        spans = zip(self.name, self.op, self.parent, self.start, self.end)
        doc = {
            "names": self.names,
            "fields": ["name", "op", "parent", "start", "end"],
            "spans": [list(s) for s in spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, cache_hits: int, cache_misses: int) -> dict[str, float]:
    """The per-layer metrics; a layer that did no work reads 0."""
    t = spans.table()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name: str, key: str) -> float:
        return t.get(name, empty)[key]

    c = spans.counts
    exact_calls = get("geom.polygons_interior_overlap", "calls")
    exact_s = get("geom.polygons_interior_overlap", "s")
    return {
        "geom.polygons_interior_overlap.calls": exact_calls,
        "geom.polygons_interior_overlap.s": exact_s,
        "geom.exact_s_per_pair": _ratio(exact_s, exact_calls),
        "verify.oracle.cross_pairs": c["verify.oracle.cross_pairs"],
        "verify.oracle.candidate_pairs": exact_calls,
        "verify.oracle.hits": c["verify.oracle.hits"],
        "verify.oracle.prefilter_pass_share": _ratio(exact_calls, c["verify.oracle.cross_pairs"]),
        "verify.net_overlap_oracle.self_s": get("verify.net_overlap_oracle", "self_s"),
        "zonohedron.build.calls": get("zonohedron.build", "calls"),
        "zonohedron.build.self_s": get("zonohedron.build", "self_s"),
        "zonohedron.validate.s": get("zonohedron.validate", "s"),
        "unfold.develop.self_s": get("unfold.planar_zone", "self_s"),
        "unfold.planar_zone.calls": get("unfold.planar_zone", "calls"),
        "unfold.planar_zone.hit_share": _ratio(cache_hits, cache_hits + cache_misses),
        "unfold.assemble_net.s": get("unfold.assemble_net", "s"),
        "verify.beta_profile.calls": get("verify.beta_profile", "calls"),
        "verify.beta_profile.s": get("verify.beta_profile", "s"),
        "verify.events": c["verify.events"],
        "verify.radii": c["verify.radii"],
        "geom.circle_quad_arcs.calls": get("geom.circle_quad_arcs", "calls"),
        "geom.circle_quad_arcs.s": get("geom.circle_quad_arcs", "s"),
        "verify.flat_rhomb_check.s": get("verify.flat_rhomb_check", "s"),
        "cli.sweep.busy_s": get("cli.sweep_cell", "s"),
        "cli.export.s": get("cli.export", "s"),
    }


# ---------------------------------------------------------------------------
# worker timings of a parallel sweep


def _timed_call(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return result, os.getpid(), t0, perf_counter()


def timed_pool(record: list):
    """A ProcessPoolExecutor whose ``map`` appends (pid, start, end) per item.

    Workers are forked, so ``perf_counter`` (a system-wide monotonic clock
    on Linux) gives times comparable with the parent's.
    """

    class TimedPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            results = super().map(functools.partial(_timed_call, fn), *iterables, **kwargs)
            for result, pid, t0, t1 in results:
                record.append((pid, t0, t1))
                yield result

    return TimedPool


def tail_idle_s(record: list, jobs: int, call_start: float) -> float:
    """Worker-seconds spent idle between each worker's last item and the last
    item of the whole sweep; a worker that got no item idles from the start."""
    if not record:
        return 0.0
    finish = max(t1 for _, _, t1 in record)
    last: dict[int, float] = {}
    for pid, _, t1 in record:
        last[pid] = max(last.get(pid, call_start), t1)
    idle = sum(finish - t for t in last.values())
    return idle + max(0, jobs - len(last)) * (finish - call_start)
