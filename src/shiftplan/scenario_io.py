"""Scenario presets and every on-disk format.

Formats are part of the public contract and bit-stable: fixed JSON field
order, fixed CSV headers, ``\\n`` line endings, and atomic writes
(temp file + rename) so readers never observe a half-written file.

A scenario file carries either an explicit ``requirements`` grid or raw call
``volumes`` (plus AHT, interval length, and SLA) from which the requirements
are derived on load via the Erlang-C sizing rule.
"""

import contextlib
import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, fields, is_dataclass
from datetime import date, timedelta

import numpy as np

from .domain import (
    MAX_AGENTS,
    MAX_REQUIREMENT,
    OFF,
    RequirementMatrix,
    Scenario,
    Schedule,
    ShiftCatalog,
    SlaSpec,
    TripleError,
    build_week_partition,
)
from .erlang import requirements_from_volumes
from .metrics import ComparisonResult, SolveReport
from .tuner import SweepEntry, SweepTrace


class SchemaError(ValueError):
    """A file's content does not match its documented format."""


# ---------------------------------------------------------------------------
# synthetic scenarios
# ---------------------------------------------------------------------------

# Intraday demand shape in percent of the daily peak, one value per hour:
# overnight trickle, a morning ramp, full load through office hours, and an
# evening tail.
DEFAULT_INTRADAY_PROFILE = (
    (10,) * 7 + (50, 80) + (100,) * 8 + (70, 50) + (30,) * 3 + (10,) * 2
)


@dataclass(frozen=True)
class PeakPresetSpec:
    """A peak-season style week: heavy weekdays, light weekends.

    Interval requirements are ``ceil(day_peak * profile_percent / 100)``; the
    default catalog offers 10-hour shifts starting on each hour that still
    fits in the day.
    """

    name: str = "peak-week"
    agents: int = 70
    weekday_peak: int = 225
    weekend_peak: int = 110
    weeks: int = 1
    intervals_per_day: int = 24
    profile_percent: tuple[int, ...] = DEFAULT_INTRADAY_PROFILE
    shift_length: int = 10
    shift_starts: tuple[int, ...] = tuple(range(15))
    start_date: date = date(2024, 1, 1)  # a Monday, so days 5 and 6 are the weekend

    def __post_init__(self):
        if len(self.profile_percent) != self.intervals_per_day:
            raise ValueError("profile length must equal intervals_per_day")
        if self.weeks < 1:
            raise ValueError("weeks must be at least 1")


def gen_peak_scenario(spec: PeakPresetSpec = PeakPresetSpec()) -> Scenario:
    """Build the synthetic peak-demand scenario described by ``spec``."""
    day_count = 7 * spec.weeks
    days = tuple(spec.start_date + timedelta(days=i) for i in range(day_count))
    grid = np.zeros((day_count, spec.intervals_per_day), dtype=np.int64)
    for d in range(day_count):
        peak = spec.weekday_peak if d % 7 < 5 else spec.weekend_peak
        for t, pct in enumerate(spec.profile_percent):
            grid[d, t] = -(-peak * pct // 100)  # ceil in integer arithmetic
    catalog = ShiftCatalog(
        tuple((s, spec.shift_length) for s in spec.shift_starts),
        spec.intervals_per_day,
    )
    return Scenario(
        name=spec.name,
        days=days,
        agent_count=spec.agents,
        shift_catalog=catalog,
        requirements=RequirementMatrix(grid),
    )


PRESETS: dict[str, PeakPresetSpec] = {
    "peak-week": PeakPresetSpec(),
    # mid-sized two-week instance used for mode benchmarking
    "benchmark-2wk": PeakPresetSpec(
        name="benchmark-2wk",
        agents=50,
        weekday_peak=60,
        weekend_peak=30,
        weeks=2,
        shift_starts=(1, 4, 7, 10, 13),
    ),
}


def gen_preset_scenario(preset: str) -> Scenario:
    if preset not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise SchemaError(f"unknown preset {preset!r} (known: {known})")
    return gen_peak_scenario(PRESETS[preset])


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text handle on a temp file beside ``path``; the file replaces ``path``
    when the block exits cleanly and is removed on any exception."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(data: dict, path: str) -> None:
    with _atomic_open(path) as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# scenario JSON
# ---------------------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "days": [d.isoformat() for d in scenario.days],
        "intervals_per_day": scenario.intervals_per_day,
        "agents": scenario.agent_count,
        "shift_catalog": [
            {"start": s, "length": l} for s, l in scenario.shift_catalog.shifts
        ],
        "requirements": [
            [int(x) for x in row] for row in scenario.requirements.per_interval
        ],
        "sla": {
            "target": scenario.sla.target,
            "threshold_seconds": scenario.sla.threshold_seconds,
        },
        "aht_seconds": scenario.aht_seconds,
    }


def save_scenario(scenario: Scenario, path: str) -> None:
    _write_json(scenario_to_dict(scenario), path)


def _finite_number(value, where: str) -> float:
    """A JSON number as a finite float; an integer literal beyond float range
    is refused, not crashed on."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{where}: expected a number")
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(f"{where}: beyond the float range") from None
    if not math.isfinite(number):
        raise SchemaError(f"{where}: expected a finite number")
    return number


def _need(data: dict, key: str, kind, path: str):
    if key not in data:
        raise SchemaError(f"{path}.{key}: missing")
    value = data[key]
    if kind is float:
        return _finite_number(value, f"{path}.{key}")
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(f"{path}.{key}: expected {kind.__name__}")
    return value


def _positive(data: dict, key: str, path: str) -> float:
    value = _need(data, key, float, path)
    if not value > 0:
        raise SchemaError(f"{path}.{key}: must be positive")
    return value


def _grid(rows, count: int, width: int, path: str, integral: bool) -> np.ndarray:
    """A (count x width) grid of finite numbers; an ``integral`` grid holds
    whole numbers of magnitude at most ``MAX_REQUIREMENT``; rows are checked
    for shape before the grid is allocated."""
    if not isinstance(rows, list) or len(rows) != count:
        raise SchemaError(f"{path}: expected {count} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise SchemaError(f"{path}[{i}]: expected {width} entries")
    grid = np.zeros((count, width), dtype=np.int64 if integral else np.float64)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            _finite_number(cell, f"{path}[{i}][{j}]")
            if integral and cell != int(cell):
                raise SchemaError(f"{path}[{i}][{j}]: expected a whole number")
            if integral and abs(cell) > MAX_REQUIREMENT:
                raise SchemaError(f"{path}[{i}][{j}]: beyond {MAX_REQUIREMENT} agents")
            grid[i, j] = cell
    return grid


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; derive requirements from volumes
    when no explicit grid is present."""
    with open(path, "r") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"$: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise SchemaError("$: expected a JSON object")
    name = _need(data, "name", str, "$")
    raw_days = _need(data, "days", list, "$")
    try:
        days = tuple(date.fromisoformat(d) for d in raw_days)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"$.days: expected ISO dates ({exc})") from exc
    try:  # no row bounds intervals_per_day until the horizon has days
        build_week_partition(len(days))
    except ValueError as exc:
        raise SchemaError(f"$.days: invalid scenario: {exc}") from exc
    intervals = _need(data, "intervals_per_day", int, "$")
    if intervals < 1:
        raise SchemaError("$.intervals_per_day: must be at least 1")
    agents = _need(data, "agents", int, "$")
    if agents > MAX_AGENTS:
        raise SchemaError(f"$.agents: beyond {MAX_AGENTS} agents")
    raw_catalog = _need(data, "shift_catalog", list, "$")
    shifts = []
    for i, entry in enumerate(raw_catalog):
        if not isinstance(entry, dict):
            raise SchemaError(f"$.shift_catalog[{i}]: expected an object")
        shifts.append(
            (
                _need(entry, "start", int, f"$.shift_catalog[{i}]"),
                _need(entry, "length", int, f"$.shift_catalog[{i}]"),
            )
        )
    raw_sla = _need(data, "sla", dict, "$")
    target = _need(raw_sla, "target", float, "$.sla")
    threshold = _need(raw_sla, "threshold_seconds", float, "$.sla")
    try:
        sla = SlaSpec(target, threshold)
    except ValueError as exc:
        raise SchemaError(f"$.sla: {exc}") from exc
    aht = _positive(data, "aht_seconds", "$")
    if "requirements" in data:
        grid = _grid(data["requirements"], len(days), intervals, "$.requirements", True)
        try:
            requirements = RequirementMatrix(grid)
        except ValueError as exc:
            raise SchemaError(f"$.requirements: {exc}") from exc
    elif "volumes" in data:
        volumes = _grid(data["volumes"], len(days), intervals, "$.volumes", False)
        interval_seconds = _positive(data, "interval_seconds", "$")
        try:
            requirements = requirements_from_volumes(volumes, aht, sla, interval_seconds)
        except ValueError as exc:
            raise SchemaError(f"$.volumes: {exc}") from exc
    else:
        raise SchemaError("$: needs either 'requirements' or 'volumes'")
    try:
        return Scenario(
            name=name,
            days=days,
            agent_count=agents,
            shift_catalog=ShiftCatalog(tuple(shifts), intervals),
            requirements=requirements,
            sla=sla,
            aht_seconds=aht,
        )
    except ValueError as exc:
        raise SchemaError(f"$: {exc}") from exc


# ---------------------------------------------------------------------------
# schedule CSV
# ---------------------------------------------------------------------------

SCHEDULE_HEADER = ["agent", "day_index", "shift_start", "shift_length"]
# Agents formatted per write: the writer's memory is bounded by a block's
# rows, not by the roster.
SCHEDULE_BLOCK_AGENTS = 256


def write_schedule(schedule: Schedule, catalog: ShiftCatalog, path: str) -> None:
    """Rows sorted by (agent, day); shifts written as start/length pairs."""
    grid = schedule.shifts
    if grid.size and (grid.min() < OFF or grid.max() >= len(catalog)):
        raise ValueError("schedule holds a shift index outside the catalog")
    spans = np.array(catalog.shifts, dtype=np.int64).reshape(-1, 2)
    with _atomic_open(path) as handle:
        handle.write(",".join(SCHEDULE_HEADER) + "\n")
        for first in range(0, grid.shape[0], SCHEDULE_BLOCK_AGENTS):
            block = grid[first : first + SCHEDULE_BLOCK_AGENTS]
            agents, days = np.nonzero(block != OFF)
            rows = np.column_stack((agents + first, days, spans[block[agents, days]]))
            handle.write(("%d,%d,%d,%d\n" * len(rows)) % tuple(rows.ravel().tolist()))


def read_schedule(path: str, scenario: Scenario) -> Schedule:
    """Parse a schedule CSV onto ``scenario``'s agents x days grid.

    Rows stream into the grid one at a time, so memory is bounded by the
    grid, and the first bad row in file order is the one reported."""
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != SCHEDULE_HEADER:
            raise SchemaError(f"$: expected header {','.join(SCHEDULE_HEADER)}")
        triples = _schedule_triples(reader, scenario.shift_catalog)
        try:
            return Schedule.from_triples(triples, scenario.agent_count, scenario.num_days)
        except TripleError as exc:
            raise SchemaError(f"$[{exc.position}]: {exc}") from exc


def _schedule_triples(rows, catalog: ShiftCatalog):
    """Each CSV row's (agent, day, shift index), checked as it is read."""
    by_block = {block: idx for idx, block in enumerate(catalog.shifts)}
    for i, row in enumerate(rows):
        if len(row) != 4:
            raise SchemaError(f"$[{i}]: expected 4 fields")
        try:
            agent, day, start, length = map(int, row)
        except ValueError as exc:
            raise SchemaError(f"$[{i}]: expected integers ({exc})") from exc
        if (start, length) not in by_block:
            raise SchemaError(f"$[{i}]: shift ({start}, {length}) not in catalog")
        yield agent, day, by_block[(start, length)]


# ---------------------------------------------------------------------------
# sweep trace CSV
# ---------------------------------------------------------------------------


def write_sweep_trace(trace: SweepTrace, path: str) -> None:
    if not trace.entries:
        raise ValueError("cannot write an empty sweep trace")
    day_count = len(trace.entries[0].day_counts)
    with _atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["k", "kl"] + [f"p_d{d}" for d in range(day_count)])
        for entry in trace.entries:
            writer.writerow(
                [entry.penalty_factor, repr(entry.kl)] + [int(x) for x in entry.day_counts]
            )


def read_sweep_trace(path: str) -> SweepTrace:
    entries = []
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[:2] != ["k", "kl"]:
            raise SchemaError("$: expected header k,kl,p_d0,...")
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise SchemaError(f"$[{i}]: expected {len(header)} fields")
            try:
                entry = SweepEntry(int(row[0]), float(row[1]), tuple(map(int, row[2:])))
            except ValueError as exc:
                raise SchemaError(f"$[{i}]: expected numbers ({exc})") from exc
            entries.append(entry)
    if not entries:
        raise SchemaError("$: trace has no rows")
    return SweepTrace(tuple(entries))


# ---------------------------------------------------------------------------
# report / comparison JSON
# ---------------------------------------------------------------------------


def record_to_dict(record, deterministic: bool = False):
    """A report or comparison as JSON data: each dataclass becomes its fields,
    in field order, under their own names, and dicts and tuples are walked.
    ``deterministic`` nulls every wall-clock ``runtime_seconds`` so move-cap
    runs serialize byte-identically."""
    if is_dataclass(record):
        record = {f.name: getattr(record, f.name) for f in fields(record)}
    if isinstance(record, dict):
        return {
            key: None
            if deterministic and key == "runtime_seconds"
            else record_to_dict(value, deterministic)
            for key, value in record.items()
        }
    if isinstance(record, tuple):
        return [record_to_dict(item, deterministic) for item in record]
    return record


def write_report(
    record: SolveReport | ComparisonResult, path: str, deterministic: bool = False
) -> None:
    _write_json(record_to_dict(record, deterministic), path)


# ---------------------------------------------------------------------------
# requirements CSV (derived staffing table)
# ---------------------------------------------------------------------------


def write_requirements(requirements: RequirementMatrix, path: str) -> None:
    with _atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["day_index"] + [f"i{t}" for t in range(requirements.intervals)] + ["peak"]
        )
        for d in range(requirements.days):
            writer.writerow(
                [d]
                + [int(x) for x in requirements.per_interval[d]]
                + [int(requirements.per_day[d])]
            )
