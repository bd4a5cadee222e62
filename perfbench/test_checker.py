"""Tests for the independent output checker.

    python3 -m pytest perfbench/test_checker.py

A hand-built one-week scenario with two agents and two 2-interval shifts:

    requirements     coverage of the schedule below
    d0  1 1 0 0      1 1 0 0
    d1  1 1 0 0      1 1 0 0
    d2  1 1 3 1      1 1 1 1
    d3  0 0 1 1      1 1 1 1
    d4  0 0 1 1      1 1 1 1
    d5  1 0 0 0      0 0 1 1
    d6  0 0 0 0      0 0 1 1

Agent 0 works days 0-4 on shift (0, 2), agent 1 days 2-6 on shift (2, 2).
Deviations are 0 on d0 and d1, (0 0 2 0) on d2, (-1 -1 0 0) on d3 and d4,
(1 0 -1 -1) on d5 and (0 0 -1 -1) on d6, so the squared objective is
4 + 2 + 2 + 3 + 2 = 13 and IVDI is 2 + 2 + 2 + 3 + 2 = 11.  Day peaks are
(1 1 3 1 1 1 0) against (1 1 2 2 2 1 1) agents, so DVDI is 4.
"""

import json
import math

import numpy as np
import pytest

import checker

REQUIREMENTS = [
    [1, 1, 0, 0],
    [1, 1, 0, 0],
    [1, 1, 3, 1],
    [0, 0, 1, 1],
    [0, 0, 1, 1],
    [1, 0, 0, 0],
    [0, 0, 0, 0],
]
ROWS = [(0, d, 0, 2) for d in range(5)] + [(1, d, 2, 2) for d in range(2, 7)]


def _kl() -> float:
    workload = [x / 10 for x in (1, 1, 2, 2, 2, 1, 1)]
    target = [x / 8 for x in (1, 1, 3, 1, 1, 1, 0)]
    return sum(w * math.log(w / (t + 1e-9)) for w, t in zip(workload, target))


REPORT = {
    "scenario": "micro",
    "mode": "multi",
    "status": "feasible",
    "seed": 0,
    "agents": 2,
    "days": 7,
    "intervals_per_day": 4,
    "shifts": 2,
    "assigned_pairs": 10,
    "variable_count": 2 * 7 + 7 + 10 * 2 + 2 * 7 * 4,
    "objective_value": 13.0,
    "cost_value": 0.0,
    "dvdi": 4,
    "ivdi": 11,
    "kl_day_distribution": _kl(),
    "per_day_required": [1, 1, 3, 1, 1, 1, 0],
    "per_day_coverage": [1, 1, 2, 2, 2, 1, 1],
    "evaluations": 0,
    "runtime_seconds": None,
}


@pytest.fixture
def scenario():
    return checker.Scenario(
        {
            "name": "micro",
            "days": [f"2024-01-0{d + 1}" for d in range(7)],
            "intervals_per_day": 4,
            "agents": 2,
            "shift_catalog": [{"start": 0, "length": 2}, {"start": 2, "length": 2}],
            "requirements": REQUIREMENTS,
            "sla": {"target": 0.8, "threshold_seconds": 20.0},
            "aht_seconds": 300.0,
        }
    )


def _write(tmp_path, rows, report=REPORT):
    schedule = tmp_path / "schedule.csv"
    lines = ["agent,day_index,shift_start,shift_length"]
    lines += [",".join(str(x) for x in row) for row in sorted(rows)]
    schedule.write_text("\n".join(lines) + "\n")
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return str(schedule), str(path)


def test_hand_computed_values(scenario):
    expected = checker.recompute(scenario, ROWS, "multi")
    assert expected["objective_value"] == 13
    assert expected["ivdi"] == 11
    assert expected["dvdi"] == 4
    assert expected["kl_day_distribution"] == pytest.approx(1.8374, abs=1e-4)


def test_micro_scenario_passes(scenario, tmp_path):
    assert checker.check_solve(scenario, *_write(tmp_path, ROWS), "multi") == []


def test_single_mode_variable_count(scenario, tmp_path):
    report = dict(REPORT, mode="single", variable_count=2 * 7 * 2 + 2 * 7 * 4)
    assert checker.check_solve(scenario, *_write(tmp_path, ROWS, report), "single") == []


@pytest.mark.parametrize(
    "rows, message",
    [
        (ROWS + [(0, 5, 0, 2)], "works 6 days in week 0"),
        (ROWS + [(1, 6, 0, 2)], "second shift on day 6"),
        (ROWS[:-1] + [(1, 6, 1, 2)], "not in the catalog"),
        (ROWS[:-1] + [(2, 6, 2, 2)], "agent 2 out of range"),
        (ROWS[:-1] + [(1, 7, 2, 2)], "day 7 out of range"),
    ],
    ids=["six-day-week", "duplicate-agent-day", "shift-outside-catalog",
         "agent-out-of-range", "day-out-of-range"],
)
def test_hard_constraint_violations_fail(scenario, tmp_path, rows, message):
    problems = checker.check_solve(scenario, *_write(tmp_path, rows), "multi")
    assert any(message in p for p in problems), problems


def test_unsorted_rows_fail(scenario, tmp_path):
    schedule, report = _write(tmp_path, ROWS)
    with open(schedule) as handle:
        lines = handle.read().splitlines()
    with open(schedule, "w") as handle:
        handle.write("\n".join([lines[0]] + lines[:0:-1]) + "\n")
    problems = checker.check_solve(scenario, schedule, report, "multi")
    assert any("not sorted" in p for p in problems), problems


@pytest.mark.parametrize(
    "field, value",
    [
        ("objective_value", 14.0),
        ("ivdi", 12),
        ("dvdi", 3),
        ("kl_day_distribution", _kl() + 1e-9),
        ("per_day_coverage", [1, 1, 2, 2, 2, 1, 2]),
        ("variable_count", 96),
    ],
)
def test_edited_report_fails(scenario, tmp_path, field, value):
    report = dict(REPORT, **{field: value})
    problems = checker.check_solve(scenario, *_write(tmp_path, ROWS, report), "multi")
    assert any(field in p for p in problems), problems


def test_requirements_table(scenario, tmp_path):
    table = tmp_path / "requirements.csv"
    lines = ["day_index,i0,i1,i2,i3,peak"]
    lines += [",".join(str(x) for x in [d] + row + [max(row)]) for d, row in enumerate(REQUIREMENTS)]
    table.write_text("\n".join(lines) + "\n")
    assert checker.check_requirements_csv(scenario, str(table)) == []
    table.write_text("\n".join(lines[:-1] + ["6,0,0,0,1,1"]) + "\n")
    assert checker.check_requirements_csv(scenario, str(table)) != []


def test_erlang_matches_the_package():
    erlang = pytest.importorskip("shiftplan.erlang")
    volumes = np.array([[0, 1, 7, 40], [90, 300, 1500, 1499]], dtype=np.int64)
    sla = erlang.SlaSpec(0.8, 20.0)
    expected = erlang.requirements_from_volumes(volumes, 300.0, sla, 900.0).per_interval
    mine = checker.erlang_requirements(volumes.astype(np.float64), 300.0, 0.8, 20.0, 900.0)
    assert mine.tolist() == expected.tolist()
