"""Independent checker for shiftplan outputs.

Recomputes everything a solve reports from the scenario JSON and the
schedule CSV alone, using only the standard library and numpy; it never
imports ``shiftplan``, so a defect in the package cannot hide itself here.

Hard constraints checked on a schedule:

* the header is ``agent,day_index,shift_start,shift_length`` and rows are
  sorted by agent, then day;
* agent and day indices are in range;
* every ``(shift_start, shift_length)`` is in the scenario's shift catalog;
* an agent has at most one shift per day;
* every agent works exactly five days in every 7-day week.

Recomputed and compared with the report JSON: coverage, the squared interval
objective, IVDI, DVDI, the per-day required and covered head-counts, the
variable count and the KL divergence of the day distribution.  Integers must
match exactly and KL within ``KL_TOLERANCE``.
"""

import csv
import json
import math

import numpy as np

DAYS_PER_WEEK = 7
WORKDAYS_PER_WEEK = 5
KL_EPSILON = 1e-9
KL_TOLERANCE = 1e-12
SCHEDULE_HEADER = ["agent", "day_index", "shift_start", "shift_length"]


class Scenario:
    """The parts of a scenario file the checks need."""

    def __init__(self, data: dict):
        self.name = data["name"]
        self.days = len(data["days"])
        self.intervals = int(data["intervals_per_day"])
        self.agents = int(data["agents"])
        self.catalog = [(int(s["start"]), int(s["length"])) for s in data["shift_catalog"]]
        if "requirements" in data:
            self.requirements = np.array(data["requirements"], dtype=np.int64)
            self.erlang_cells = 0
        else:
            sla = data["sla"]
            self.requirements = erlang_requirements(
                np.array(data["volumes"], dtype=np.float64),
                float(data["aht_seconds"]),
                float(sla["target"]),
                float(sla["threshold_seconds"]),
                float(data["interval_seconds"]),
            )
            self.erlang_cells = self.requirements.size
        if self.requirements.shape != (self.days, self.intervals):
            raise ValueError("requirement grid does not match days x intervals")

    @property
    def day_requirements(self) -> np.ndarray:
        return self.requirements.max(axis=1)

    def sizes(self) -> dict:
        return {
            "agents": self.agents,
            "days": self.days,
            "intervals": self.intervals,
            "shifts": len(self.catalog),
            "erlang_cells": self.erlang_cells,
        }


def load_scenario(path: str) -> Scenario:
    with open(path) as handle:
        return Scenario(json.load(handle))


# ---------------------------------------------------------------------------
# Erlang-C sizing, written out independently of the package
# ---------------------------------------------------------------------------


def _agents_for_load(load: float, aht: float, target: float, threshold: float) -> int:
    """Smallest head-count whose Erlang-C service level meets ``target``.

    Extends the Erlang-B recurrence one step per candidate head-count instead
    of restarting it, which gives the same floating-point sequence.
    """
    if load == 0:
        return 0
    n = int(math.floor(load)) + 1
    b = 1.0
    for k in range(1, n + 1):
        b = load * b / (k + load * b)
    while True:
        wait = n * b / (n - load * (1.0 - b))
        level = 1.0 - wait * math.exp(-(n - load) * threshold / aht)
        if min(1.0, max(0.0, level)) >= target:
            return n
        n += 1
        b = load * b / (n + load * b)


def erlang_requirements(volumes, aht, target, threshold, interval_seconds) -> np.ndarray:
    loads = volumes * aht / interval_seconds
    out = np.zeros(loads.shape, dtype=np.int64)
    for (d, t), load in np.ndenumerate(loads):
        out[d, t] = _agents_for_load(float(load), aht, target, threshold)
    return out


# ---------------------------------------------------------------------------
# schedule checks and recomputation
# ---------------------------------------------------------------------------


def read_schedule(path: str) -> tuple[list[tuple[int, int, int, int]], list[str]]:
    """Parse the schedule CSV into (agent, day, start, length) rows."""
    rows, problems = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != SCHEDULE_HEADER:
            return rows, [f"schedule header {header!r} is not {SCHEDULE_HEADER!r}"]
        for i, fields in enumerate(reader):
            try:
                agent, day, start, length = (int(x) for x in fields)
            except ValueError:
                problems.append(f"row {i}: expected four integers, got {fields!r}")
                continue
            rows.append((agent, day, start, length))
    return rows, problems


def check_schedule(scn: Scenario, rows) -> list[str]:
    """Hard-constraint violations of a schedule (empty list: feasible)."""
    problems = []
    catalog = set(scn.catalog)
    seen = set()
    week_days = np.zeros((scn.agents, scn.days // DAYS_PER_WEEK), dtype=np.int64)
    for i, (agent, day, start, length) in enumerate(rows):
        if not 0 <= agent < scn.agents:
            problems.append(f"row {i}: agent {agent} out of range")
            continue
        if not 0 <= day < scn.days:
            problems.append(f"row {i}: day {day} out of range")
            continue
        if (start, length) not in catalog:
            problems.append(f"row {i}: shift ({start}, {length}) not in the catalog")
        if (agent, day) in seen:
            problems.append(f"row {i}: agent {agent} has a second shift on day {day}")
            continue
        seen.add((agent, day))
        week_days[agent, day // DAYS_PER_WEEK] += 1
    if [(a, d) for a, d, _, _ in rows] != sorted((a, d) for a, d, _, _ in rows):
        problems.append("rows are not sorted by agent, then day")
    for agent, week in zip(*np.nonzero(week_days != WORKDAYS_PER_WEEK)):
        problems.append(
            f"agent {agent} works {week_days[agent, week]} days in week {week},"
            f" expected {WORKDAYS_PER_WEEK}"
        )
    return problems


def kl_day_distribution(day_coverage, day_requirements) -> float | None:
    """D(scheduled day shares || required day shares), natural log."""
    counts = np.asarray(day_coverage, dtype=np.float64)
    required = np.asarray(day_requirements, dtype=np.float64)
    if counts.sum() <= 0 or required.sum() <= 0:
        return None
    workload = counts / counts.sum()
    target = required / required.sum()
    total = 0.0
    for lam, alpha in zip(workload.tolist(), target.tolist()):
        if lam == 0.0:
            continue
        total += lam * math.log(lam / (alpha + KL_EPSILON))
    return total


def recompute(scn: Scenario, rows, mode: str) -> dict:
    """Every report field derivable from the scenario and a feasible schedule."""
    coverage = np.zeros((scn.days, scn.intervals), dtype=np.int64)
    day_coverage = np.zeros(scn.days, dtype=np.int64)
    for _, day, start, length in rows:
        coverage[day, start : start + length] += 1
        day_coverage[day] += 1
    diff = scn.requirements - coverage
    day_required = scn.day_requirements
    shifts = len(scn.catalog)
    slots = 2 * scn.days * scn.intervals
    if mode == "single":
        variables = scn.agents * scn.days * shifts + slots
    else:
        variables = scn.agents * scn.days + scn.days + len(rows) * shifts + slots
    return {
        "scenario": scn.name,
        "mode": mode,
        "agents": scn.agents,
        "days": scn.days,
        "intervals_per_day": scn.intervals,
        "shifts": shifts,
        "assigned_pairs": len(rows),
        "variable_count": variables,
        "objective_value": int((diff * diff).sum()),
        "cost_value": 0,
        "dvdi": int(np.abs(day_required - day_coverage).sum()),
        "ivdi": int(np.abs(diff).sum()),
        "kl_day_distribution": kl_day_distribution(day_coverage, day_required),
        "per_day_required": [int(x) for x in day_required],
        "per_day_coverage": [int(x) for x in day_coverage],
    }


def compare_report(expected: dict, report: dict) -> list[str]:
    problems = []
    for key, want in expected.items():
        if key not in report:
            problems.append(f"report lacks {key!r}")
            continue
        got = report[key]
        if key == "kl_day_distribution" and want is not None and got is not None:
            if not abs(got - want) <= KL_TOLERANCE:
                problems.append(f"kl_day_distribution {got!r} != recomputed {want!r}")
        elif got != want:
            problems.append(f"{key} {got!r} != recomputed {want!r}")
    if report.get("status") not in ("optimal", "feasible"):
        problems.append(f"status {report.get('status')!r} is not a solved status")
    return problems


def check_solve(scn: Scenario, schedule_path: str, report_path: str, mode: str) -> list[str]:
    """All problems with one solve's schedule and report (empty list: correct)."""
    try:
        rows, problems = read_schedule(schedule_path)
        with open(report_path) as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems += check_schedule(scn, rows)
    if problems:
        return problems
    return compare_report(recompute(scn, rows, mode), report)


def check_requirements_csv(scn: Scenario, path: str) -> list[str]:
    """The ``requirements`` command's table against the recomputed grid."""
    expected = [["day_index"] + [f"i{t}" for t in range(scn.intervals)] + ["peak"]]
    for d in range(scn.days):
        row = [int(x) for x in scn.requirements[d]]
        expected.append([str(x) for x in [d] + row + [max(row)]])
    try:
        with open(path, newline="") as handle:
            got = list(csv.reader(handle))
    except OSError as exc:
        return [f"unreadable output: {exc}"]
    if got == expected:
        return []
    bad = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    return [f"requirements table differs from the recomputed grid (lines {bad[:5]},"
            f" {len(got)} lines vs {len(expected)})"]
