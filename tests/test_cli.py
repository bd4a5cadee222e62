"""Command-line behavior: artifacts, exit codes, reproducibility."""

import json
import subprocess
import sys

import pytest

from shiftplan.cli import main
from shiftplan.scenario_io import PeakPresetSpec, gen_peak_scenario, save_scenario

TINY = PeakPresetSpec(
    name="tiny",
    agents=3,
    weekday_peak=4,
    weekend_peak=2,
    intervals_per_day=6,
    profile_percent=(50, 100, 100, 100, 50, 25),
    shift_length=3,
    shift_starts=(0, 1, 2, 3),
)


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.json"
    save_scenario(gen_peak_scenario(TINY), str(path))
    return str(path)


class TestGenScenario:
    def test_writes_preset(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["gen-scenario", "--preset", "peak-week", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["agents"] == 70
        assert len(data["days"]) == 7

    def test_default_out_lands_in_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-scenario"]) == 0
        assert (tmp_path / "peak-week.json").exists()

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["gen-scenario", "--preset", "nope"]) == 1
        assert "invalid choice" in capsys.readouterr().err


class TestSolve:
    def test_multi_writes_schedule_and_report(self, tiny_scenario, tmp_path):
        out = tmp_path / "sched.csv"
        report = tmp_path / "rep.json"
        code = main(
            [
                "solve",
                "--scenario",
                tiny_scenario,
                "--mode",
                "multi",
                "--seed",
                "3",
                "--move-cap",
                "4000",
                "--penalty",
                "1",
                "--out",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "agent,day_index,shift_start,shift_length"
        assert len(lines) == 1 + 3 * 5  # three agents, five workdays each
        data = json.loads(report.read_text())
        assert data["mode"] == "multi"
        assert data["seed"] == 3
        assert data["runtime_seconds"] is None  # move-cap mode is deterministic

    def test_single_mode(self, tiny_scenario, tmp_path):
        out = tmp_path / "s.csv"
        report = tmp_path / "r.json"
        code = main(
            [
                "solve",
                "--scenario",
                tiny_scenario,
                "--mode",
                "single",
                "--move-cap",
                "4000",
                "--out",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert json.loads(report.read_text())["mode"] == "single"

    def test_move_cap_runs_are_byte_identical(self, tiny_scenario, tmp_path):
        args = [
            "solve",
            "--scenario",
            tiny_scenario,
            "--mode",
            "multi",
            "--seed",
            "9",
            "--move-cap",
            "3000",
        ]
        a_out, a_rep = tmp_path / "a.csv", tmp_path / "a.json"
        b_out, b_rep = tmp_path / "b.csv", tmp_path / "b.json"
        assert main(args + ["--out", str(a_out), "--report", str(a_rep)]) == 0
        assert main(args + ["--out", str(b_out), "--report", str(b_rep)]) == 0
        assert a_out.read_bytes() == b_out.read_bytes()
        assert a_rep.read_bytes() == b_rep.read_bytes()

    def test_tune_flag_requires_multi(self, tiny_scenario, capsys):
        code = main(
            ["solve", "--scenario", tiny_scenario, "--mode", "single", "--tune"]
        )
        assert code == 1
        assert "--tune" in capsys.readouterr().err

    def test_tune_flag_solves_with_selected_k(self, tiny_scenario, tmp_path):
        out = tmp_path / "s.csv"
        report = tmp_path / "r.json"
        code = main(
            [
                "solve",
                "--scenario",
                tiny_scenario,
                "--mode",
                "multi",
                "--tune",
                "--move-cap",
                "4000",
                "--out",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = main(
            ["solve", "--scenario", str(tmp_path / "none.json"), "--mode", "multi"]
        )
        assert code == 1

    def test_malformed_scenario_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        code = main(["solve", "--scenario", str(bad), "--mode", "multi"])
        assert code == 2

    def test_budget_flags_are_exclusive(self, tiny_scenario, capsys):
        code = main(
            [
                "solve",
                "--scenario",
                tiny_scenario,
                "--mode",
                "multi",
                "--time-budget",
                "5",
                "--move-cap",
                "100",
            ]
        )
        assert code == 1
        assert "not allowed with" in capsys.readouterr().err


class TestRequirements:
    def test_writes_table(self, tiny_scenario, tmp_path):
        out = tmp_path / "req.csv"
        assert main(["requirements", "--scenario", tiny_scenario, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "day_index,i0,i1,i2,i3,i4,i5,peak"
        assert lines[1] == "0,2,4,4,4,2,1,4"


class TestNonFiniteNumbers:
    """Python's json reads NaN and Infinity; the loader must refuse them."""

    @staticmethod
    def run_cli(tmp_path, field, value):
        scenario = {
            "name": "nan",
            "days": [f"2024-01-0{i + 1}" for i in range(7)],
            "intervals_per_day": 2,
            "agents": 2,
            "shift_catalog": [{"start": 0, "length": 2}],
            "volumes": [[10, 20]] * 7,
            "interval_seconds": 900,
            "sla": {"target": 0.8, "threshold_seconds": 20.0},
            "aht_seconds": 300.0,
        }
        if field == "threshold_seconds":
            scenario["sla"][field] = value
        else:
            scenario[field] = value
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(scenario))
        return subprocess.run(
            [sys.executable, "-m", "shiftplan.cli", "requirements", "--scenario", str(path),
             "--out", str(tmp_path / "req.csv")],
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_nan_sla_threshold_is_schema_error(self, tmp_path):
        proc = self.run_cli(tmp_path, "threshold_seconds", float("nan"))
        assert proc.returncode == 2
        assert "$.sla.threshold_seconds: expected a finite number" in proc.stderr

    def test_nan_aht_is_schema_error(self, tmp_path):
        proc = self.run_cli(tmp_path, "aht_seconds", float("nan"))
        assert proc.returncode == 2
        assert "$.aht_seconds: expected a finite number" in proc.stderr


class TestTunePenalty:
    def test_writes_trace_and_schedule(self, tiny_scenario, tmp_path):
        trace = tmp_path / "trace.csv"
        out = tmp_path / "sched.csv"
        report = tmp_path / "rep.json"
        code = main(
            [
                "tune-penalty",
                "--scenario",
                tiny_scenario,
                "--move-cap",
                "3000",
                "--k-max",
                "4",
                "--trace",
                str(trace),
                "--out",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("k,kl,")
        assert len(lines) >= 2
        assert out.read_text().startswith("agent,day_index,")
        assert json.loads(report.read_text())["mode"] == "multi"


class TestMetrics:
    def test_round_trip(self, tiny_scenario, tmp_path):
        sched = tmp_path / "s.csv"
        main(
            [
                "solve",
                "--scenario",
                tiny_scenario,
                "--mode",
                "multi",
                "--move-cap",
                "3000",
                "--out",
                str(sched),
                "--report",
                str(tmp_path / "unused.json"),
            ]
        )
        out = tmp_path / "m.json"
        code = main(
            [
                "metrics",
                "--scenario",
                tiny_scenario,
                "--schedule",
                str(sched),
                "--mode",
                "multi",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["ivdi"] >= 0 and data["dvdi"] >= 0

    def test_infeasible_schedule_is_validation_error(self, tiny_scenario, tmp_path, capsys):
        sched = tmp_path / "bad.csv"
        sched.write_text("agent,day_index,shift_start,shift_length\n0,0,0,3\n")
        code = main(
            [
                "metrics",
                "--scenario",
                tiny_scenario,
                "--schedule",
                str(sched),
                "--mode",
                "multi",
            ]
        )
        assert code == 2
        assert "infeasible schedule" in capsys.readouterr().err


class TestCompare:
    def test_writes_summary(self, tiny_scenario, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(
            [
                "compare",
                "--scenario",
                tiny_scenario,
                "--runs",
                "2",
                "--move-cap",
                "2000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["runs"]) == 2
        assert set(data["means"]) == {"single", "multi"}
        assert data["means"]["multi"]["runtime_seconds"] is None


class TestEntryPoints:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, tiny_scenario, capsys):
        code = main(["solve", "--scenario", tiny_scenario, "--mode", "multi", "--wat"])
        assert code == 1

    def test_console_script_runs(self, tmp_path):
        out = tmp_path / "s.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "shiftplan.cli",
                "gen-scenario",
                "--preset",
                "benchmark-2wk",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
