"""Command-line behavior: artifacts, exit codes, reproducibility."""

import json
import re
import resource
import subprocess
import sys

import pytest

from shiftplan.cli import main
from shiftplan.domain import SlaSpec
from shiftplan.erlang import required_agents
from shiftplan.scenario_io import PeakPresetSpec, gen_peak_scenario, load_scenario, save_scenario
from test_phases import CAPPED_GRID, CAPPED_SHIFTS

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

    @pytest.mark.parametrize("mode", ["multi", "single"])
    def test_report_objective_is_an_integer_and_cost_is_zero(self, tiny_scenario, tmp_path, mode):
        # the report format: the exact objective written as a JSON integer,
        # and a constant zero cost
        out, report = tmp_path / "s.csv", tmp_path / "r.json"
        code = main(
            ["solve", "--scenario", tiny_scenario, "--mode", mode, "--move-cap", "4000",
             "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        text = report.read_text()
        objective = re.search(r'\n  "objective_value": (\d+),\n', text)
        assert objective is not None
        assert int(objective[1]) == json.loads(text)["objective_value"]
        assert '\n  "cost_value": 0.0,\n' in text

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

    def test_penalty_and_tune_are_exclusive(self, tiny_scenario, tmp_path, capsys):
        code = main(
            ["solve", "--scenario", tiny_scenario, "--mode", "multi", "--tune", "--penalty", "7"]
            + ["--out", str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "argument --penalty: not allowed with argument --tune" in capsys.readouterr().err

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


class TestFlagRanges:
    """A flag value outside its range is a usage error (exit 1), refused
    before any file is read or any solve starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--mode", "multi", "--move-cap", "0"],
            ["solve", "--mode", "multi", "--time-budget", "-1"],
            ["solve", "--mode", "multi", "--time-budget", "nan"],
            ["solve", "--mode", "multi", "--seed", "-1"],
            ["solve", "--mode", "multi", "--penalty", "-1"],
            ["solve", "--mode", "multi", "--penalty", "3037000500"],  # K² beyond int64
            ["compare", "--penalty", "1000001"],
            ["compare", "--runs", "0"],
            ["tune-penalty", "--patience", "0"],
            ["tune-penalty", "--k-max", "-1"],
            ["tune-penalty", "--k-max", "1000001"],
        ],
        ids=lambda argv: " ".join(argv[-2:]),
    )
    def test_out_of_range_flag_is_usage_error(self, tiny_scenario, tmp_path, capsys, argv):
        outputs = ["--out", str(tmp_path / "out"), "--report", str(tmp_path / "rep.json")]
        if argv[0] == "tune-penalty":
            outputs += ["--trace", str(tmp_path / "trace.csv")]
        code = main([argv[0], "--scenario", tiny_scenario] + argv[1:] + outputs)
        assert code == 1
        assert f"argument {argv[-2]}: must be" in capsys.readouterr().err


class TestRequirements:
    def test_writes_table(self, tiny_scenario, tmp_path):
        out = tmp_path / "req.csv"
        assert main(["requirements", "--scenario", tiny_scenario, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "day_index,i0,i1,i2,i3,i4,i5,peak"
        assert lines[1] == "0,2,4,4,4,2,1,4"


def cap_address_space() -> None:
    """Child-process hook: at most 2 GiB of address space, so an oversized
    allocation fails at once rather than as the host's overcommit decides."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2 * 1024**3 if hard == resource.RLIM_INFINITY else min(2 * 1024**3, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def week_scenario(**fields) -> dict:
    """A one-week, two-interval scenario dict; ``fields`` replace its keys."""
    scenario = {
        "name": "week",
        "days": [f"2024-01-0{i + 1}" for i in range(7)],
        "intervals_per_day": 2,
        "agents": 2,
        "shift_catalog": [{"start": 0, "length": 2}],
        "volumes": [[10, 20]] * 7,
        "interval_seconds": 900,
        "sla": {"target": 0.8, "threshold_seconds": 20.0},
        "aht_seconds": 300.0,
    }
    scenario.update(fields)
    return scenario


def run_requirements(tmp_path, scenario: dict):
    """``shiftplan requirements`` on ``scenario`` in a child process."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return subprocess.run(
        [sys.executable, "-m", "shiftplan.cli", "requirements", "--scenario", str(path),
         "--out", str(tmp_path / "req.csv")],
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestNonFiniteNumbers:
    """Python's json reads NaN and Infinity; the loader must refuse them."""

    def test_nan_sla_threshold_is_schema_error(self, tmp_path):
        scenario = week_scenario(sla={"target": 0.8, "threshold_seconds": float("nan")})
        proc = run_requirements(tmp_path, scenario)
        assert proc.returncode == 2
        assert "$.sla.threshold_seconds: expected a finite number" in proc.stderr

    def test_nan_aht_is_schema_error(self, tmp_path):
        proc = run_requirements(tmp_path, week_scenario(aht_seconds=float("nan")))
        assert proc.returncode == 2
        assert "$.aht_seconds: expected a finite number" in proc.stderr


# A bad SLA, AHT or interval length, and the message that names its key.
BAD_FIELDS = {
    "sla-target": ({"sla": {"target": 1.5, "threshold_seconds": 20.0}},
                   "$.sla: target must lie in (0, 1]"),
    "sla-threshold": ({"sla": {"target": 0.8, "threshold_seconds": -1.0}},
                      "$.sla: threshold_seconds must be non-negative"),
    "aht": ({"aht_seconds": 0.0}, "$.aht_seconds: must be positive"),
    "interval": ({"interval_seconds": -900}, "$.interval_seconds: must be positive"),
}


def scenario_of_kind(kind: str, **fields) -> dict:
    """``week_scenario(**fields)`` as a volumes file, or as a requirements
    file of [1, 2] per day."""
    scenario = week_scenario(**fields)
    if kind == "requirements":
        scenario["requirements"] = [[1, 2]] * 7
        del scenario["volumes"]
    return scenario


class TestSlaAndRates:
    """The SLA is checked by ``SlaSpec`` for both file kinds, and the loader
    names the key at fault."""

    @pytest.mark.parametrize("kind", ["volumes", "requirements"])
    def test_zero_threshold_solves(self, tmp_path, kind):
        sla = SlaSpec(0.8, 0.0)
        scenario = scenario_of_kind(kind, sla={"target": 0.8, "threshold_seconds": 0})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        argv = ["solve", "--scenario", str(path), "--mode", "multi", "--move-cap", "100",
                "--out", str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json")]
        assert main(argv) == 0
        loaded = load_scenario(str(path))
        assert loaded.sla == sla
        if kind == "volumes":
            expected = [[required_agents(v * 300.0 / 900, 300.0, sla) for v in row]
                        for row in scenario["volumes"]]
            assert loaded.requirements.per_interval.tolist() == expected

    @pytest.mark.parametrize(
        "kind, case",
        [(kind, case) for kind in ("volumes", "requirements") for case in BAD_FIELDS
         if not (kind == "requirements" and case == "interval")],  # no interval length there
    )
    def test_bad_field_names_its_key(self, tmp_path, capsys, kind, case):
        fields, message = BAD_FIELDS[case]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_of_kind(kind, **fields)))
        assert main(["requirements", "--scenario", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert message in capsys.readouterr().err


class TestGridCells:
    """Requirement cells must be whole int64 numbers; volumes stay fractional."""

    @staticmethod
    def requirements_with(cell):
        grid = [[2, 2] for _ in range(7)]
        grid[3][1] = cell
        scenario = week_scenario(requirements=grid)
        del scenario["volumes"]
        return scenario

    def test_fractional_requirement_is_schema_error(self, tmp_path):
        proc = run_requirements(tmp_path, self.requirements_with(2.7))
        assert proc.returncode == 2
        assert "$.requirements[3][1]: expected a whole number" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_huge_requirement_is_schema_error(self, tmp_path):
        proc = run_requirements(tmp_path, self.requirements_with(1e300))
        assert proc.returncode == 2
        assert "$.requirements[3][1]: beyond 1000000000000 agents" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_requirement_beyond_limit_is_schema_error(self, tmp_path):
        # 5e18 fits int64, but the day marginals 2p + 1 - 2r do not
        proc = run_requirements(tmp_path, self.requirements_with(5e18))
        assert proc.returncode == 2
        assert "$.requirements[3][1]: beyond 1000000000000 agents" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_requirement_is_schema_error(self, tmp_path):
        proc = run_requirements(tmp_path, self.requirements_with(-1))
        assert proc.returncode == 2
        assert "$.requirements: negative interval requirement" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_fractional_volume_is_sized_as_given(self, tmp_path):
        # 6.6 calls / 15 min at 300 s AHT needs 5 agents; truncated to 6 it would be 4
        proc = run_requirements(tmp_path, week_scenario(volumes=[[6.6, 6]] * 7))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "req.csv").read_text().splitlines()
        assert lines[1] == "0,5,4,5"


class TestHugeVolumes:
    """Erlang-C sizing takes one step per erlang, so offered loads are capped."""

    @pytest.mark.parametrize("calls", [1e9, 1e300])
    def test_huge_volume_is_schema_error(self, tmp_path, calls):
        proc = run_requirements(tmp_path, week_scenario(volumes=[[calls, 20]] + [[10, 20]] * 6))
        assert proc.returncode == 2
        assert "$.volumes: load above 100000 erlangs" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestHugeLiterals:
    """JSON integers have no size limit; one beyond float range is a schema
    error naming its path, not an ``OverflowError``."""

    HUGE = 10**400

    @pytest.mark.parametrize(
        "fields, where",
        [
            ({"sla": {"target": HUGE, "threshold_seconds": 20.0}}, "$.sla.target"),
            ({"aht_seconds": HUGE}, "$.aht_seconds"),
            ({"interval_seconds": HUGE}, "$.interval_seconds"),
            ({"volumes": [[10, HUGE]] + [[10, 20]] * 6}, "$.volumes[0][1]"),
        ],
        ids=["sla-target", "aht", "interval", "volume-cell"],
    )
    def test_huge_number_is_schema_error(self, tmp_path, fields, where):
        proc = run_requirements(tmp_path, week_scenario(**fields))
        assert proc.returncode == 2
        assert f"{where}: beyond the float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_huge_requirement_cell_is_schema_error(self, tmp_path):
        proc = run_requirements(tmp_path, TestGridCells.requirements_with(self.HUGE))
        assert proc.returncode == 2
        assert "$.requirements[3][1]: beyond the float range" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestGridShape:
    """The rows are checked against ``intervals_per_day`` before any grid of
    that width is allocated."""

    @pytest.mark.parametrize("intervals", [10**12, 10**400], ids=["1e12", "1e400"])
    @pytest.mark.parametrize("grid", ["volumes", "requirements"])
    def test_huge_interval_count_is_schema_error(self, tmp_path, intervals, grid):
        scenario = week_scenario(intervals_per_day=intervals)
        if grid == "requirements":
            scenario["requirements"] = scenario.pop("volumes")
        proc = run_requirements(tmp_path, scenario)
        assert proc.returncode == 2
        assert f"$.{grid}[0]: expected {intervals} entries" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "intervals, command",
        [(10**12, ["requirements"]), (10**400, ["solve", "--mode", "multi", "--move-cap", "100"])],
        ids=["1e12", "1e400"],
    )
    def test_empty_horizon_is_schema_error(self, tmp_path, intervals, command):
        # with no days no row bounds the width, so the horizon is checked first
        path = tmp_path / "scenario.json"
        scenario = week_scenario(days=[], intervals_per_day=intervals, requirements=[])
        del scenario["volumes"]
        path.write_text(json.dumps(scenario))
        proc = subprocess.run(
            [sys.executable, "-m", "shiftplan.cli", *command, "--scenario", str(path),
             "--out", str(tmp_path / "out.csv")],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_address_space,  # a 931 GiB request fails whatever the overcommit
        )
        assert proc.returncode == 2
        assert "$.days: invalid scenario: horizon not a multiple of 7: got 0 days" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestIntervalCount:
    """A day needs at least one interval; the count is checked before any grid."""

    @pytest.mark.parametrize(
        "grid, intervals", [("volumes", 0), ("requirements", 0), ("requirements", -1)]
    )
    def test_non_positive_interval_count_is_schema_error(self, tmp_path, grid, intervals):
        scenario = week_scenario(intervals_per_day=intervals, volumes=[[]] * 7)
        if grid == "requirements":
            scenario["requirements"] = scenario.pop("volumes")
        proc = run_requirements(tmp_path, scenario)
        assert proc.returncode == 2
        assert "$.intervals_per_day: must be at least 1" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestAgentBound:
    """Every command builds agents x days grids, so the head-count is capped."""

    def test_huge_agent_count_is_schema_error(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(week_scenario(agents=10**9)))
        proc = subprocess.run(
            [sys.executable, "-m", "shiftplan.cli", "solve", "--scenario", str(path),
             "--mode", "multi", "--move-cap", "100", "--out", str(tmp_path / "s.csv"),
             "--report", str(tmp_path / "r.json")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "$.agents: beyond 100000 agents" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestObjectiveBeyondInt64:
    @pytest.mark.parametrize("mode", ["multi", "single"])
    def test_objective_is_exact(self, tmp_path, mode):
        # squared deviations of 4e9 per interval sum past 2**63
        scenario = week_scenario(
            intervals_per_day=4,
            shift_catalog=[{"start": 0, "length": 2}, {"start": 2, "length": 2}],
            requirements=[[4_000_000_000] * 4] * 7,
        )
        del scenario["volumes"]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(scenario))
        out, report = tmp_path / "s.csv", tmp_path / "r.json"
        code = main(
            ["solve", "--scenario", str(path), "--mode", mode, "--move-cap", "1000",
             "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        coverage = [[0] * 4 for _ in range(7)]
        for line in out.read_text().splitlines()[1:]:
            _, day, start, length = (int(x) for x in line.split(","))
            for t in range(start, start + length):
                coverage[day][t] += 1
        exact = sum((4_000_000_000 - c) ** 2 for row in coverage for c in row)
        assert exact > 2**63
        assert json.loads(report.read_text())["objective_value"] == exact


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

    def test_writes_what_solve_tune_writes(self, tmp_path):
        # the shift descent on this week prices 979 swaps, so a cap of 800 binds
        scenario = week_scenario(
            intervals_per_day=12,
            agents=16,
            requirements=CAPPED_GRID,
            shift_catalog=[{"start": start, "length": n} for start, n in CAPPED_SHIFTS],
        )
        del scenario["volumes"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        flags = ["--scenario", str(path), "--seed", "3", "--move-cap", "800"]
        solved = [tmp_path / "solve.csv", tmp_path / "solve.json"]
        tuned = [tmp_path / "tune.csv", tmp_path / "tune.json"]
        code = main(["solve", "--mode", "multi", "--tune", *flags, "--out", str(solved[0]),
                     "--report", str(solved[1])])
        assert code == 0
        code = main(["tune-penalty", *flags, "--trace", str(tmp_path / "sweep.csv"),
                     "--out", str(tuned[0]), "--report", str(tuned[1])])
        assert code == 0
        assert [p.read_bytes() for p in solved] == [p.read_bytes() for p in tuned]


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

    def metrics_of_empty_schedule(self, scenario, tmp_path) -> int:
        sched = tmp_path / "empty.csv"
        sched.write_text("agent,day_index,shift_start,shift_length\n")
        return main(["metrics", "--scenario", scenario, "--schedule", str(sched),
                     "--mode", "multi", "--out", str(tmp_path / "m.json")])

    def test_few_problems_are_all_named(self, tiny_scenario, tmp_path, capsys):
        assert self.metrics_of_empty_schedule(tiny_scenario, tmp_path) == 2
        assert capsys.readouterr().err == "error: infeasible schedule: " + "; ".join(
            f"agent {a} works 0 days in week 0, expected 5" for a in range(3)
        ) + "\n"

    def test_many_problems_are_counted_not_listed(self, tmp_path, capsys):
        scenario = tmp_path / "crowd.json"
        save_scenario(gen_peak_scenario(PeakPresetSpec(agents=400, weeks=2)), str(scenario))
        assert self.metrics_of_empty_schedule(str(scenario), tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: infeasible schedule: agent 0 works 0 days in week 0,")
        assert err.count("works 0 days") == 5
        assert err.endswith("; ... 800 problems in all\n")
        assert len(err.encode()) < 1024
        assert not (tmp_path / "m.json").exists()


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


class TestTinyTimeBudget:
    """The smallest positive budget is accepted and solved with: the day
    phase takes it as given, where 5e-324 x 0.2 rounded to 0.0 and exited 2."""

    @pytest.mark.parametrize("command", [
        ["solve", "--mode", "multi", "--out", "s.csv", "--report", "r.json"],
        ["tune-penalty", "--trace", "t.csv", "--out", "s.csv"],
        ["compare", "--runs", "1", "--out", "c.json"],
    ])
    def test_exits_zero(self, tiny_scenario, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        argv = command[:1] + ["--scenario", tiny_scenario, "--time-budget", "5e-324"]
        assert main(argv + command[1:]) == 0
        assert capsys.readouterr().err == ""


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
