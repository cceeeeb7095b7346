"""End-to-end command-line behavior: formats, exit codes, determinism."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

from zonet import cli, verify
from zonet.cli import main, parse_theta
from zonet.verify import CheckResult, VerificationReport, run_verification
from zonet.zonohedron import Zonohedron


def run(argv):
    return main(argv)


def assert_no_children():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParseTheta:
    def test_bare_number_is_degrees(self):
        assert parse_theta("50") == pytest.approx(math.radians(50.0), abs=1e-15)

    def test_rad_suffix(self):
        assert parse_theta("0.5rad") == 0.5

    def test_deg_suffix(self):
        assert parse_theta("20deg") == pytest.approx(math.radians(20.0), abs=1e-15)

    def test_whitespace_tolerated(self):
        assert parse_theta(" 0.5 rad ".replace(" rad ", "rad")) == 0.5

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_theta("fifty")


class TestBuild:
    def test_obj_counts_n8(self, tmp_path):
        out = tmp_path / "p.obj"
        assert run(["build", "-n", "8", "--theta", "50", "--obj", str(out)]) == 0
        text = out.read_text()
        assert len(re.findall(r"^v ", text, re.M)) == 58
        assert len(re.findall(r"^f ", text, re.M)) == 56

    def test_obj_counts_n3(self, tmp_path):
        out = tmp_path / "p.obj"
        assert run(["build", "-n", "3", "--theta", "30", "--obj", str(out)]) == 0
        text = out.read_text()
        assert len(re.findall(r"^v ", text, re.M)) == 8
        assert len(re.findall(r"^f ", text, re.M)) == 6

    def test_faces_reference_valid_vertices(self, tmp_path):
        out = tmp_path / "p.obj"
        run(["build", "-n", "6", "--theta", "40", "--obj", str(out)])
        nv = 0
        for line in out.read_text().splitlines():
            if line.startswith("v "):
                nv += 1
            elif line.startswith("f "):
                ids = [int(t) for t in line.split()[1:]]
                assert len(ids) == 4
                assert all(1 <= i <= nv for i in ids)

    def test_json_mesh(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["build", "-n", "5", "--theta", "0.5rad", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert len(doc["vertices"]) == 22
        assert len(doc["faces"]) == 20
        assert doc["theta_rad"] == 0.5

    def test_n_below_3_exits_2(self, capsys):
        assert run(["build", "-n", "2", "--theta", "20"]) == 2
        assert "n must be" in capsys.readouterr().err

    def test_theta_zero_exits_2(self, capsys):
        assert run(["build", "-n", "8", "--theta", "0"]) == 2
        assert "planar_zone(n, 0)" in capsys.readouterr().err

    def test_numerically_flat_solid_exits_2(self, capsys):
        """At theta = 1e-300 rad the face normals are 0/0: convex must fail."""
        assert run(["build", "-n", "8", "--theta", "1e-300rad"]) == 2
        err = capsys.readouterr().err
        assert "construction invariant failed" in err and "convex" in err

    @pytest.mark.parametrize(
        "argv, digest",
        (
            (["-n", "16", "--theta", "20", "--obj"],
             "a6ae1b48f62d6a646e18afe60a5c3bf045fda569017bb9ee013e036cdb8fc62f"),
            (["-n", "16", "--theta", "20", "--json"],
             "6cc1ded13d1a246a01e1cbb86f0b5fe97c6bf65d24d2b694fd37548915a47713"),
            (["-n", "24", "--theta", "37.3", "--obj"],
             "d00e91543b5223236219da6120b65aa6096b10add21d9d24b71f48afae8cb9d2"),
            (["-n", "24", "--theta", "37.3", "--json"],
             "0bc91f974642b3c91c3d387fa706c4e780f326dc563d35bb1ba4c45ca7f22e93"),
        ),
        ids=["16-20-obj", "16-20-json", "24-37.3-obj", "24-37.3-json"],
    )
    def test_golden_bytes(self, tmp_path, argv, digest):
        """Pinned sha256 of the mesh files, so a writer rewrite cannot change a byte."""
        out = tmp_path / "mesh"
        assert run(["build", *argv, str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @staticmethod
    def _no_face_labels(monkeypatch):
        def refuse(self):
            raise AssertionError("the build path read the face labels")

        monkeypatch.setattr(Zonohedron, "faces", property(refuse))

    def test_obj_reads_face_ids_only(self, tmp_path, monkeypatch):
        """The OBJ writer and validate never build the labeled Face tuple."""
        self._no_face_labels(monkeypatch)
        out = tmp_path / "mesh"
        assert run(["build", "-n", "16", "--theta", "20", "--obj", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a6ae1b48f62d6a646e18afe60a5c3bf045fda569017bb9ee013e036cdb8fc62f"
        )

    @pytest.mark.parametrize("n", (3, 8, 40))
    def test_summary_line(self, capsys, monkeypatch, n):
        """With no output flag: V = n(n-1) + 2, F = n(n-1), E = 2n(n-1)."""
        self._no_face_labels(monkeypatch)
        assert run(["build", "-n", str(n), "--theta", "20"]) == 0
        f = n * (n - 1)
        assert capsys.readouterr().out == (
            f"P({n}, 20 deg): {f + 2} vertices, {f} faces, {2 * f} edges\n"
        )


class TestNet:
    def test_polygon_count_full_net(self, tmp_path):
        out = tmp_path / "n.svg"
        assert run(["net", "-n", "8", "--theta", "50", "--svg", str(out)]) == 0
        text = out.read_text()
        assert text.count("<polygon") == 56
        assert text.count("<circle") == 1  # o is marked

    def test_zone_subset(self, tmp_path):
        out = tmp_path / "z.svg"
        assert run(
            ["net", "-n", "16", "--theta", "20", "--svg", str(out), "--zone", "0"]
        ) == 0
        assert out.read_text().count("<polygon") == 15

    def test_theta_zero_net_renders(self, tmp_path):
        out = tmp_path / "s.svg"
        assert run(["net", "-n", "16", "--theta", "0", "--svg", str(out)]) == 0
        assert out.read_text().count("<polygon") == 16 * 15

    def test_zone_zero_is_red_hue(self, tmp_path):
        out = tmp_path / "n.svg"
        run(["net", "-n", "6", "--theta", "30", "--svg", str(out)])
        assert "hsl(0, 85%, 55%)" in out.read_text()

    def test_viewbox_present(self, tmp_path):
        out = tmp_path / "n.svg"
        run(["net", "-n", "6", "--theta", "30", "--svg", str(out)])
        assert re.search(r'viewBox="0 0 [\d.]+ [\d.]+"', out.read_text())

    @pytest.mark.parametrize("zone", ("99", "-1", "16"))
    def test_zone_out_of_range_exits_2(self, tmp_path, capsys, zone):
        out = tmp_path / "z.svg"
        argv = ["net", "-n", "16", "--theta", "20", "--svg", str(out), "--zone", zone]
        assert run(argv) == 2
        assert "zonet: error: --zone" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, digest",
        (
            (["-n", "24", "--theta", "37.3"],
             "34de7d8eca1fe1ba3a11b2f3dd846a63ccc03ea1456c562a6c968637dbd5d54a"),
            (["-n", "16", "--theta", "0"],
             "d2b725a9094e9314b3b396450830284ec761645cc220fc42f44be1b86032d678"),
            (["-n", "16", "--theta", "20", "--zone", "0"],
             "0963dbbe688363a5f27fc8b2b1445c30a6146e584582d1f5cb7065bc297e90be"),
        ),
        ids=["24-37.3", "16-0", "16-20-zone0"],
    )
    def test_golden_bytes(self, tmp_path, argv, digest):
        """Pinned sha256 of the SVG, so a writer rewrite cannot change a byte."""
        out = tmp_path / "g.svg"
        assert run(["net", *argv, "--svg", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(["net", "-n", "12", "--theta", "35", "--svg", str(a)])
        run(["net", "-n", "12", "--theta", "35", "--svg", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_pass_exit_zero_and_schema(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "-n", "16", "--theta", "20", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["pass"] is True
        assert json.loads(json.dumps(doc)) == doc

    def test_theta_zero_suite(self):
        assert run(["verify", "-n", "16", "--theta", "0"]) == 0

    def test_tiny_theta_keeps_the_exit_code_contract(self):
        """The verdict at 3e-7 rad is not pinned; the command must not raise."""
        assert run(["verify", "-n", "16", "--theta", "3e-7rad"]) in (0, 1)

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        failing = VerificationReport(8, 0.5, 0.7, {"subtended": CheckResult(False, -1.0)})
        monkeypatch.setattr(cli, "run_verification", lambda *args: failing)
        assert run(["verify", "-n", "8", "--theta", "0.5rad"]) == 1
        assert "FAIL ['subtended']" in capsys.readouterr().err

    def test_margins_reported_per_check(self, tmp_path):
        out = tmp_path / "v.json"
        run(["verify", "-n", "8", "--theta", "50", "--json", str(out)])
        doc = json.loads(out.read_text())
        for body in doc["checks"].values():
            assert set(body) == {"pass", "margin", "detail"}

    @pytest.mark.parametrize(
        "argv, digest",
        (
            (["-n", "3", "--theta", "0"],
             "5fa3280f1d6dc21ea5bfe01065560d27a477f3db8c09ec15268417dd8d910dd0"),
            (["-n", "9", "--theta", "0"],
             "2a8de29e738daabc4eb00f590eb2f950f7c5c5b527d86141c68f909cf49cf35f"),
            (["-n", "16", "--theta", "0"],
             "0ea34385b98897a44795ab7651ae91b9fed2017de14c954afb4497f32b3baba6"),
            (["-n", "16", "--theta", "20"],
             "d5dc88d4771543042821dad6e4f85e71af299e5a07229850befb8e11daeccbb9"),
        ),
        ids=["3-0", "9-0", "16-0", "16-20"],
    )
    def test_golden_bytes(self, tmp_path, argv, digest):
        """Pinned sha256 of the JSON report, so every margin keeps its bits."""
        out = tmp_path / "v.json"
        assert run(["verify", *argv, "--json", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSweep:
    def test_single_row_matches_verify(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(
            ["sweep", "--n-min", "16", "--n-max", "16", "--thetas", "20", "--csv", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        row = rows[0]
        assert row["n"] == "16"
        assert float(row["alpha_deg"]) == pytest.approx(21.126976323, abs=1e-9)
        assert float(row["max_beta_deg"]) == pytest.approx(21.126976323, abs=1e-9)
        assert row["overlap_pairs"] == "0"
        assert row["pass"] == "pass"

    def test_rows_sorted_by_n_then_theta(self, tmp_path):
        out = tmp_path / "s.csv"
        run(
            [
                "sweep", "--n-min", "3", "--n-max", "5",
                "--thetas", "20,0.5rad,5", "--csv", str(out),
            ]
        )
        rows = list(csv.DictReader(out.read_text().splitlines()))
        keys = [(int(r["n"]), parse_theta(r["theta_deg"])) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("jobs", ("0", "-1"))
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        out = tmp_path / "s.csv"
        grid = ["--n-min", "3", "--n-max", "3", "--thetas", "20"]
        assert run(["sweep", *grid, "--jobs", jobs, "--csv", str(out)]) == 2
        assert "zonet: error: --jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid", (["--n-min", "10", "--n-max", "5"], ["--thetas", ","]), ids=["n", "thetas"]
    )
    def test_empty_grid_exits_2(self, tmp_path, capsys, grid):
        """Zero cells is no verdict, so it must not read as a pass."""
        out = tmp_path / "s.csv"
        assert run(["sweep", *grid, "--csv", str(out)]) == 2
        assert "zonet: error: the sweep grid has no cells" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        """15 cells: at --jobs 2 and 4 the strided shares differ in size."""
        grid = ["--n-min", "3", "--n-max", "7", "--thetas", "0,1,50"]
        a = tmp_path / "1.csv"
        assert run(["sweep", *grid, "--jobs", "1", "--csv", str(a)]) == 0
        for jobs in ("2", "3", "4", "5"):
            b = tmp_path / f"{jobs}.csv"
            assert run(["sweep", *grid, "--jobs", jobs, "--csv", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), jobs
        assert_no_children()

    def test_forks_never_outnumber_cells(self, monkeypatch, tmp_path):
        """The caller computes share 0, so --jobs 1 forks nothing, and --jobs
        above the cell count forks one child for each other cell."""
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        grid = ["--n-min", "5", "--n-max", "5", "--thetas", "0,20"]
        assert run(["sweep", *grid, "--jobs", "1", "--csv", str(a)]) == 0
        assert forks == []
        assert run(["sweep", *grid, "--jobs", "64", "--csv", str(b)]) == 0
        assert len(forks) == 1
        assert a.read_bytes() == b.read_bytes()
        assert_no_children()

    def test_error_in_a_child_share_exits_2(self, tmp_path, capsys):
        """95 deg sorts after 20 deg, so a forked child computes that cell."""
        out = tmp_path / "s.csv"
        grid = ["--n-min", "3", "--n-max", "3", "--thetas", "20,95", "--jobs", "2"]
        assert run(["sweep", *grid, "--csv", str(out)]) == 2
        assert "zonet: error: theta" in capsys.readouterr().err
        assert not out.exists()
        assert_no_children()

    def test_error_in_share_zero_propagates_and_kills_the_children(self, monkeypatch, tmp_path):
        """Children still at work when the caller's share raises are killed
        and reaped, not waited for."""
        caller = os.getpid()

        def cell(c):
            if os.getpid() == caller:
                raise RuntimeError("share 0 failed")
            time.sleep(60)

        monkeypatch.setattr(cli, "_sweep_cell", cell)
        grid = ["--n-min", "3", "--n-max", "4", "--thetas", "0,20", "--jobs", "3"]
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="share 0 failed"):
            run(["sweep", *grid, "--csv", str(tmp_path / "s.csv")])
        assert time.monotonic() - t0 < 30
        assert_no_children()

    def test_child_that_dies_without_rows_fails_the_sweep(self, monkeypatch, tmp_path):
        caller = os.getpid()
        real = cli._sweep_cell

        def cell(c):
            if os.getpid() != caller:
                os._exit(3)
            return real(c)

        monkeypatch.setattr(cli, "_sweep_cell", cell)
        out = tmp_path / "s.csv"
        grid = ["--n-min", "3", "--n-max", "3", "--thetas", "0,20", "--jobs", "2"]
        with pytest.raises(RuntimeError, match="sweep share 1 ended without its rows"):
            run(["sweep", *grid, "--csv", str(out)])
        assert not out.exists()
        assert_no_children()

    def test_jobs_above_one_without_fork_exits_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "s.csv"
        grid = ["--n-min", "3", "--n-max", "3", "--thetas", "0,20"]
        assert run(["sweep", *grid, "--jobs", "2", "--csv", str(out)]) == 2
        assert "zonet: error: --jobs above 1 needs os.fork" in capsys.readouterr().err
        assert not out.exists()
        assert run(["sweep", *grid, "--jobs", "1", "--csv", str(out)]) == 0

    def test_children_add_nothing_to_stdout(self):
        """A child leaves by os._exit, so it neither writes the CSV itself nor
        flushes the stdout buffer it inherited."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)

        def stdout(jobs):
            argv = ["sweep", "--n-min", "3", "--n-max", "5", "--thetas", "0,20,50", "--jobs", jobs]
            out = subprocess.run(
                [sys.executable, "-m", "zonet.cli", *argv, "--csv", "-"],
                env=env, capture_output=True, timeout=120,
            )
            assert out.returncode == 0, out.stderr
            return out.stdout

        assert stdout("2") == stdout("1")

    def test_failing_verify_check_fails_the_row(self, monkeypatch, tmp_path):
        """A check outside the beta bound and the oracle still fails the sweep."""
        real = verify.diagonal_perpendicular_test
        monkeypatch.setattr(
            verify, "diagonal_perpendicular_test", lambda zone: [*real(zone)[:-1], 1e-3]
        )
        assert cli._sweep_cell((16, "20"))[-1] == "fail"
        grid = ["--n-min", "16", "--n-max", "16", "--thetas", "20", "--jobs", "1"]
        assert run(["sweep", *grid, "--csv", str(tmp_path / "s.csv")]) == 1

    def test_rows_are_the_verify_verdict(self):
        for n in range(3, 9):
            for t in ("0", "0.5", "20", "89.5"):
                row = cli._sweep_cell((n, t))
                rep = run_verification(n, parse_theta(t))
                assert row[-1] == ("pass" if rep.passed else "fail"), (n, t)
                assert row[5] == rep.overlap_pairs, (n, t)
                assert row[3] == "%.9f" % math.degrees(rep.max_beta), (n, t)

    def test_samples_reach_max_beta(self, tmp_path):
        out = tmp_path / "s.csv"
        grid = ["--n-min", "8", "--n-max", "8", "--thetas", "20"]
        assert run(["sweep", *grid, "--csv", str(out)]) == 0
        row = next(csv.DictReader(out.read_text().splitlines()))
        rep = run_verification(8, math.radians(20))
        assert row["max_beta_deg"] == "%.9f" % math.degrees(rep.max_beta)


class TestCrescentCommand:
    def test_table_shape_and_bounds(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["crescent", "--steps", "40", "--csv", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 40
        assert float(rows[0]["n"]) == pytest.approx(3.0)
        assert float(rows[-1]["n"]) == pytest.approx(1e4)
        for row in rows:
            assert 1.0 / 3.0 - 1e-6 < float(row["ratio"]) <= 0.5
        assert float(rows[-1]["ratio"]) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_single_step_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(["crescent", "--steps", "1", "--csv", str(out)]) == 2
        assert "zonet: error: --steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bound", (("--n-min", "0"), ("--n-min", "2"), ("--n-min", "-3"),
                  ("--n-max", "inf"), ("--n-min", "nan")),
        ids=["n-min-0", "n-min-2", "n-min-neg", "n-max-inf", "n-min-nan"],
    )
    def test_bound_below_3_or_not_finite_exits_2(self, tmp_path, capsys, bound):
        """The ratio table starts at n = 3; no bound may leave [3, inf)."""
        out = tmp_path / "c.csv"
        assert run(["crescent", *bound, "--steps", "5", "--csv", str(out)]) == 2
        assert "zonet: error: --n-min and --n-max" in capsys.readouterr().err
        assert not out.exists()

    def test_n3_row_uses_obtuse_branch(self, tmp_path):
        out = tmp_path / "c.csv"
        run(["crescent", "--steps", "10", "--csv", str(out)])
        row = list(csv.DictReader(out.read_text().splitlines()))[0]
        assert float(row["alpha_rad"]) == pytest.approx(math.radians(120.0), abs=1e-9)


class TestSubtendedCommand:
    def test_16_20_table(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["subtended", "-n", "16", "--theta", "20", "--csv", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 15
        betas = [float(r["beta_deg"]) for r in rows]
        assert betas[0] == pytest.approx(21.126976323, abs=1e-8)
        assert all(b <= betas[0] for b in betas[1:])

    def test_24_40_first_value(self, tmp_path):
        out = tmp_path / "b.csv"
        run(["subtended", "-n", "24", "--theta", "40", "--csv", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert float(rows[0]["beta_deg"]) == pytest.approx(11.48, abs=0.01)


class TestRepeatedMain:
    """`main` reuses one parser per process; no call may see another's state."""

    def test_zone_does_not_leak_into_the_next_net(self, tmp_path):
        full = tmp_path / "full.svg"
        assert run(["net", "-n", "16", "--theta", "20", "--svg", str(full)]) == 0
        zone, again = tmp_path / "zone.svg", tmp_path / "again.svg"
        assert run(["net", "-n", "16", "--theta", "20", "--zone", "0", "--svg", str(zone)]) == 0
        assert run(["net", "-n", "16", "--theta", "20", "--svg", str(again)]) == 0
        assert zone.read_text().count("<polygon") == 15
        assert again.read_bytes() == full.read_bytes()

    def test_usage_error_does_not_change_the_next_verify(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "-n", "8", "--theta", "20", "--json", str(a)]) == 0
        with pytest.raises(SystemExit) as exc:
            run(["verify", "-n", "eight", "--theta", "20", "--json", str(b)])
        assert exc.value.code == 2
        assert not b.exists()
        assert run(["verify", "-n", "8", "--theta", "20", "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_patched_command_runs_after_the_first_call(self, monkeypatch, tmp_path):
        """Tracers patch `cli.cmd_*` after a warm-up call; the patch must run."""
        argv = ["subtended", "-n", "8", "--theta", "20", "--csv", str(tmp_path / "b.csv")]
        assert run(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_subtended", lambda args: seen.append(args.n) or 7)
        assert run(argv) == 7
        assert seen == [8]


@pytest.mark.parametrize(
    "argv",
    (
        ["build", "-n", "4", "--theta", "30", "--obj"],
        ["build", "-n", "4", "--theta", "30", "--json"],
        ["net", "-n", "4", "--theta", "30", "--svg"],
        ["verify", "-n", "4", "--theta", "30", "--json"],
        ["sweep", "--n-min", "3", "--n-max", "3", "--thetas", "20", "--csv"],
        ["crescent", "--steps", "2", "--csv"],
        ["subtended", "-n", "4", "--theta", "30", "--csv"],
    ),
    ids=["build-obj", "build-json", "net", "verify", "sweep", "crescent", "subtended"],
)
def test_output_in_missing_directory_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out"
    assert run([*argv, str(out)]) == 2
    assert "zonet: error:" in capsys.readouterr().err
    assert not out.parent.exists()
