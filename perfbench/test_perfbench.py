"""Tests of the benchmark itself: seeded inputs, the gate, and the tracer.

    python3 -m pytest -q perfbench
"""

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tree import import_zonet  # noqa: E402

import_zonet()

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from zonet import verify  # noqa: E402
from zonet.unfold import Net  # noqa: E402

GENERATORS = {
    "verify-grid": wl.verify_grid_cells,
    "sweep-parallel": wl.sweep_thetas,
    "zone-requests": wl.zone_requests,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_byte_identical_inputs(name):
    gen = GENERATORS[name]
    assert json.dumps(gen(7)) == json.dumps(gen(7))
    assert json.dumps(gen(7)) != json.dumps(gen(8))


def band_of(theta: str) -> int:
    return next(i for i, (lo, hi) in enumerate(wl.BANDS) if lo < float(theta) < hi)


def test_verify_grid_round_is_stratified():
    assert wl.GRID_N[0] == 3 and wl.GRID_N[-1] == 32
    assert wl.BANDS[0][0] == 0.5 and wl.BANDS[-1][1] == 89.5
    seen = set()
    for seed in range(40):
        cells = wl.verify_grid_cells(seed)
        assert [n for n, _ in cells] == list(wl.GRID_N)
        assert [t for _, t in cells].count("0") == 1
        for (_, t), pair in zip(cells, wl.GRID_PAIRS):
            if pair is not None:
                assert band_of(t) // 2 == pair
                seen.add(band_of(t))
    assert seen == set(range(len(wl.BANDS)))


def test_sweep_thetas_mirror_each_band():
    thetas = wl.sweep_thetas(5)
    assert thetas[0] == "0" and len(thetas) == 1 + 2 * len(wl.BANDS)
    for band, (lo, hi) in enumerate(wl.BANDS):
        a, b = thetas[1 + 2 * band : 3 + 2 * band]
        assert band_of(a) == band_of(b) == band and a != b
        assert float(a) + float(b) == pytest.approx(lo + hi, abs=2e-4)


def test_zone_stream_covers_every_kind_and_n():
    reqs = wl.zone_requests(3)
    assert reqs[0][0] == "build"
    assert wl.ZONE_N[0] == 16 and wl.ZONE_N[-1] == wl.ZONE_N_MAX == 40
    assert all(0.5 < float(t) < 89.5 for _, _, t in reqs)
    seen = {reqs[0][1:]}
    new, revisits = [], []
    for req in reqs[1:]:
        (revisits if req[1:] in seen else new).append(req)
        seen.add(req[1:])
    assert sorted((k, n) for k, n, _ in new) == sorted((k, n) for k in wl.KINDS for n in wl.ZONE_N)
    assert len(revisits) == len(new) // wl.NEW_PER_REVISIT
    assert all(kind in wl.ZONE_CACHED_KINDS for kind, _, _ in revisits)


def candidate_pairs(seed: int, monkeypatch) -> int:
    """Oracle candidate pairs of one verify-grid round, with the exact
    predicate stubbed out so only the prefilter runs."""
    monkeypatch.setattr(verify, "polygons_interior_overlap", lambda a, b: False)
    spans = layers.Spans()
    with spans.patched():
        for n, t in wl.verify_grid_cells(seed):
            verify.net_overlap_oracle(verify.assemble_net(n, math.radians(float(t))))
    return layers.layer_metrics(spans, 0, 0)["verify.oracle.candidate_pairs"]


def test_seeds_give_comparable_candidate_pair_totals(monkeypatch):
    totals = [candidate_pairs(seed, monkeypatch) for seed in range(5)]
    mean = statistics.mean(totals)
    assert all(abs(t - mean) <= 0.05 * mean for t in totals), totals


# ---------------------------------------------------------------------------
# the gate trips on each kind of failure


def test_gate_passes_a_good_cell():
    gate = wl.Gate()
    assert gate.run("cell", wl.verify_cell, 8, "20") is not None
    assert (gate.attempted, gate.failed) == (1, 0)


def test_gate_trips_on_a_misrotated_net(monkeypatch):
    real = verify.assemble_net

    def misrotated(n, theta):
        net = real(n, theta)
        zones = list(net.zones)
        zones[1] = zones[0].rotated(0.9 * net.alpha)
        return Net(net.n, net.theta, net.alpha, tuple(zones))

    monkeypatch.setattr(verify, "assemble_net", misrotated)
    gate = wl.Gate()
    gate.run("cell", wl.verify_cell, 16, "0")
    assert gate.failed == 1
    assert "net_overlap" in gate.reasons[0]


def test_gate_trips_on_a_corrupted_sweep_row(tmp_path):
    thetas = ["0", "20.0000"]
    _, _, problems = wl.sweep((3, 4), thetas, 1, tmp_path / "s.csv")
    assert problems == []
    good = (tmp_path / "s.csv").read_bytes()
    lines = good.decode().splitlines(keepends=True)
    for bad_row in (
        lines[2].replace(",0,pass", ",1,fail"),
        lines[2].replace(lines[2].split(",")[2], "%.9f" % 61.0),
    ):
        corrupted = "".join(lines[:2] + [bad_row] + lines[3:]).encode()
        assert wl.sweep_problems(corrupted, (3, 4), thetas)
    assert wl.sweep_problems(good.replace(lines[-1].encode(), b""), (3, 4), thetas)


def test_gate_trips_on_a_changed_digest():
    outputs = iter([(0.1, "aaaa", []), (0.1, "bbbb", [])])
    gate = wl.Gate()
    gate.run("key", lambda: next(outputs))
    gate.run("key", lambda: next(outputs))
    assert (gate.attempted, gate.failed) == (2, 1)


def test_gate_trips_on_exit_code_and_exception(tmp_path):
    gate = wl.Gate()
    gate.run("bad theta", wl.zone_request, "net", 16, "95", tmp_path)
    assert gate.failed == 1 and "exit code 2" in gate.reasons[0]

    def boom():
        raise RuntimeError("boom")

    gate.run("raises", boom)
    assert gate.failed == 2 and "boom" in gate.reasons[1]


@pytest.mark.parametrize("kind", wl.KINDS)
def test_zone_requests_pass_and_corrupted_files_fail(kind, tmp_path):
    took, out, problems = wl.zone_request(kind, 16, "30.0000", tmp_path)
    assert problems == [] and out and took > 0
    if kind != "verify":
        text = (tmp_path / f"request.{kind}").read_text()
        truncated = "\n".join(text.splitlines()[:-3]) + "\n"
        assert wl._file_problems(kind, 16, math.radians(30), truncated)


# ---------------------------------------------------------------------------
# the tracer


def test_spans_give_self_times_and_restore_the_library():
    import zonet.verify

    original = zonet.verify.beta_profile
    spans = layers.Spans()
    with spans.patched():
        assert zonet.verify.beta_profile is not original
        verify.run_verification(8, math.radians(20), check_overlap=False)
    assert zonet.verify.beta_profile is original
    table = spans.table()
    top = table["verify.run_verification"]
    assert top["calls"] == 1
    children = sum(
        row["s"] for name, row in table.items()
        if name in ("verify.beta_profile", "unfold.planar_zone", "verify.flat_rhomb_check")
    )
    assert top["self_s"] == pytest.approx(top["s"] - children, abs=1e-6)
    assert spans.counts["verify.radii"] > spans.counts["verify.events"] > 0


def test_tail_idle_counts_each_worker_and_idle_workers():
    record = [(1, 0.0, 1.0), (2, 0.0, 2.0), (1, 1.0, 1.5)]
    assert layers.tail_idle_s(record, 2, 0.0) == pytest.approx(0.5)
    assert layers.tail_idle_s(record, 3, 0.0) == pytest.approx(2.5)
