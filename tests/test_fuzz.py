"""Fuzzed inputs: every malformed scenario or schedule file exits 0, 1 or 2.

Each example changes one field of a valid scenario file (a requirements
scenario, or the call-volume fields of a volumes scenario), or one cell of a
valid schedule CSV, to a value drawn from a small pool of bad kinds (wrong
type, NaN/infinity, negative, out of the grid, huge integers) and runs the CLI in process.
An exception escaping ``main`` fails the test.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftplan.cli import main
from shiftplan.scenario_io import PeakPresetSpec, gen_peak_scenario, scenario_to_dict

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
SCENARIO = scenario_to_dict(gen_peak_scenario(TINY))
# At most 3 calls per interval: even an AHT of 10**6 s offers about 3300
# erlangs, so Erlang-C sizing takes a few thousand steps at worst.
VOLUMES_SCENARIO = {
    "name": "tiny-volumes",
    "days": [f"2024-01-0{i + 1}" for i in range(7)],
    "intervals_per_day": 4,
    "agents": 3,
    "shift_catalog": [{"start": 0, "length": 2}, {"start": 2, "length": 2}],
    "volumes": [[1, 3, 2, 0]] * 5 + [[0, 1, 1, 0]] * 2,
    "interval_seconds": 900,
    "sla": {"target": 0.8, "threshold_seconds": 20.0},
    "aht_seconds": 300.0,
}

# 10**6 agents is beyond the loader's bound, so no value allocates a large grid.
# 10**13 intervals a day would be a 70 TB grid unless the rows are checked
# first; 10**400 is beyond float range and beyond any numpy dimension.
BAD_JSON_VALUES = (
    "x", None, [], {}, True, math.nan, math.inf, -math.inf, -1, -7, 2.5, 100, 10**6,
    10**13, 10**400,
)
BAD_CSV_CELLS = ("x", "", "nan", "inf", "-1", "2.5", "7", "100", "99999999999999999999999")


def leaf_paths(value, path=()):
    """Every key/index path inside ``value``, containers included."""
    paths = [path] if path else []
    if isinstance(value, dict):
        for key, item in value.items():
            paths += leaf_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            paths += leaf_paths(item, path + (index,))
    return paths


SCENARIO_PATHS = leaf_paths(SCENARIO)
VOLUME_PATHS = [
    path
    for path in leaf_paths(VOLUMES_SCENARIO)
    if path[0] in ("volumes", "interval_seconds", "aht_seconds", "sla")
]


def replaced(value, path, new):
    """A deep copy of ``value`` with the item at ``path`` set to ``new``."""
    value = json.loads(json.dumps(value))
    target = value
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return value


def solve(workdir: Path, scenario_path: Path, mode: str) -> int:
    return main(
        ["solve", "--scenario", str(scenario_path), "--mode", mode, "--move-cap", "300",
         "--out", str(workdir / "s.csv"), "--report", str(workdir / "r.json")]
    )


@given(
    path=st.sampled_from(SCENARIO_PATHS),
    value=st.sampled_from(BAD_JSON_VALUES),
    mode=st.sampled_from(["multi", "single"]),
)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_scenario_exits_cleanly(path, value, mode):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        scenario_path = workdir / "scenario.json"
        scenario_path.write_text(json.dumps(replaced(SCENARIO, path, value)))
        assert solve(workdir, scenario_path, mode) in (0, 1, 2)


@given(
    path=st.sampled_from(VOLUME_PATHS),
    value=st.sampled_from(BAD_JSON_VALUES),
    mode=st.sampled_from(["multi", "single"]),
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_volume_scenario_exits_cleanly(path, value, mode):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        scenario_path = workdir / "scenario.json"
        scenario_path.write_text(json.dumps(replaced(VOLUMES_SCENARIO, path, value)))
        assert solve(workdir, scenario_path, mode) in (0, 1, 2)


@given(
    row=st.integers(min_value=0, max_value=3 * 5),
    column=st.integers(min_value=0, max_value=3),
    cell=st.sampled_from(BAD_CSV_CELLS),
)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_schedule_exits_cleanly(row, column, cell):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        scenario_path = workdir / "scenario.json"
        scenario_path.write_text(json.dumps(SCENARIO))
        assert solve(workdir, scenario_path, "multi") == 0
        lines = [line.split(",") for line in (workdir / "s.csv").read_text().splitlines()]
        lines[row][column] = cell  # row 0 is the header
        schedule_path = workdir / "bad.csv"
        schedule_path.write_text("\n".join(",".join(line) for line in lines) + "\n")
        code = main(
            ["metrics", "--scenario", str(scenario_path), "--schedule", str(schedule_path),
             "--mode", "multi", "--out", str(workdir / "m.json")]
        )
        assert code in (0, 1, 2)
