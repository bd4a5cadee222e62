"""Every on-disk format, and scenarios built from their JSON data.

Formats are part of the public contract and bit-stable: fixed JSON field
order, fixed CSV headers, ``\\n`` line endings, and atomic writes
(temp file + rename, ``presets.atomic_open``) so readers never observe a
half-written file.

A scenario file carries either an explicit ``requirements`` grid or raw call
``volumes`` (plus AHT, interval length, and SLA) from which the requirements
are derived on load via the Erlang-C sizing rule.  The bundled presets are
scenario-file data (``presets``), so ``gen_peak_scenario`` builds its
``Scenario`` through the loader.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from datetime import date
from typing import TYPE_CHECKING

import numpy as np

from .domain import (
    OFF,
    RequirementMatrix,
    Scenario,
    Schedule,
    ShiftCatalog,
    SlaSpec,
    TripleError,
    build_week_partition,
    check_agent_count,
    check_aht_seconds,
    check_shift_range,
)
from .erlang import check_interval_seconds, requirements_from_volumes
from .presets import PRESETS, PeakPresetSpec, atomic_open, peak_scenario_data, write_json

if TYPE_CHECKING:  # loading a scenario loads no solver module
    from .metrics import ComparisonResult, SolveReport
    from .tuner import SweepTrace


class SchemaError(ValueError):
    """A file's content does not match its documented format."""


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
    write_json(scenario_to_dict(scenario), path)


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


@contextmanager
def _at(path: str):
    """Report a value's own refusal as a schema error at ``path``, the key the
    value was read from; a ``SchemaError`` passes through unchanged."""
    try:
        yield
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _grid(data: dict, key: str, count: int, width: int) -> np.ndarray:
    """``data[key]``, a (count x width) grid of finite numbers, as floats;
    rows are checked for shape before the grid is allocated.

    The cells are checked in one pass over the whole grid; only a grid that
    fails it is walked cell by cell, to name its first bad cell."""
    rows, path = data[key], f"$.{key}"
    if not isinstance(rows, list) or len(rows) != count:
        raise SchemaError(f"{path}: expected {count} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise SchemaError(f"{path}[{i}]: expected {width} entries")
    if {type(cell) for row in rows for cell in row} <= {int, float}:  # no bool
        try:
            grid = np.array(rows, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.isfinite(grid).all():
                return grid
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            _finite_number(cell, f"{path}[{i}][{j}]")
    return np.array(rows, dtype=np.float64)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file (see ``scenario_from_data``)."""
    with open(path, "r") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"$: not valid JSON ({exc})") from exc
    return scenario_from_data(data)


def scenario_from_data(data) -> Scenario:
    """The scenario that a file's JSON data describes; requirements are
    derived from volumes when no explicit grid is present.

    The loader checks JSON types and shapes only.  Each value rule is its
    owner's, and its refusal is reported at the key the value came from."""
    if not isinstance(data, dict):
        raise SchemaError("$: expected a JSON object")
    name = _need(data, "name", str, "$")
    raw_days = _need(data, "days", list, "$")
    try:
        days = tuple(date.fromisoformat(d) for d in raw_days)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"$.days: expected ISO dates ({exc})") from exc
    with _at("$.days"):  # no row bounds intervals_per_day until the horizon has days
        build_week_partition(len(days))
    intervals = _need(data, "intervals_per_day", int, "$")
    agents = _need(data, "agents", int, "$")
    with _at("$.agents"):
        check_agent_count(agents)
    raw_catalog = _need(data, "shift_catalog", list, "$")
    shifts = []
    for i, entry in enumerate(raw_catalog):
        where = f"$.shift_catalog[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: expected an object")
        shifts.append((_need(entry, "start", int, where), _need(entry, "length", int, where)))
    with _at("$"):  # checked before any grid; its coverage is built on first use
        catalog = ShiftCatalog(tuple(shifts), intervals)
    raw_sla = _need(data, "sla", dict, "$")
    with _at("$.sla"):
        sla = SlaSpec(*(_need(raw_sla, k, float, "$.sla") for k in ("target", "threshold_seconds")))
    aht = _need(data, "aht_seconds", float, "$")
    with _at("$.aht_seconds"):
        check_aht_seconds(aht)
    if "requirements" in data:
        with _at("$.requirements"):
            requirements = RequirementMatrix(_grid(data, "requirements", len(days), intervals))
    elif "volumes" in data:
        volumes = _grid(data, "volumes", len(days), intervals)
        interval_seconds = _need(data, "interval_seconds", float, "$")
        with _at("$.interval_seconds"):
            check_interval_seconds(interval_seconds)
        with _at("$.volumes"):
            requirements = requirements_from_volumes(volumes, aht, sla, interval_seconds)
    else:
        raise SchemaError("$: needs either 'requirements' or 'volumes'")
    with _at("$"):
        return Scenario(name, days, agents, catalog, requirements, sla, aht)


def gen_peak_scenario(spec: PeakPresetSpec = PeakPresetSpec()) -> Scenario:
    """Build the synthetic peak-demand scenario described by ``spec``."""
    return scenario_from_data(peak_scenario_data(spec))


def gen_preset_scenario(preset: str) -> Scenario:
    if preset not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise SchemaError(f"unknown preset {preset!r} (known: {known})")
    return gen_peak_scenario(PRESETS[preset])


# ---------------------------------------------------------------------------
# schedule CSV
# ---------------------------------------------------------------------------

SCHEDULE_HEADER = ["agent", "day_index", "shift_start", "shift_length"]
# Agents formatted per write: the writer's memory is bounded by a block's
# rows, not by the roster.
SCHEDULE_BLOCK_AGENTS = 256


def write_schedule(schedule: Schedule, catalog: ShiftCatalog, path: str) -> None:
    """Rows sorted by (agent, day); shifts written as start/length pairs."""
    check_shift_range(schedule, catalog)
    grid = schedule.shifts
    spans = np.array(catalog.shifts, dtype=np.int64).reshape(-1, 2)
    with atomic_open(path) as handle:
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
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["k", "kl"] + [f"p_d{d}" for d in range(day_count)])
        for entry in trace.entries:
            writer.writerow(
                [entry.penalty_factor, repr(entry.kl)] + [int(x) for x in entry.day_counts]
            )


def read_sweep_trace(path: str) -> SweepTrace:
    """A sweep trace CSV; each row must be one a sweep writes, so that
    ``selected`` does not depend on the row order."""
    from .phases import check_penalty_factor
    from .tuner import SweepEntry, SweepTrace

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
            with _at(f"$[{i}]"):
                check_penalty_factor(entry.penalty_factor)
            if math.isnan(entry.kl):  # NaN compares false both ways: no least KL
                raise SchemaError(f"$[{i}]: kl is NaN")
            if min(entry.day_counts, default=0) < 0:
                raise SchemaError(f"$[{i}]: negative head-count")
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
    write_json(record_to_dict(record, deterministic), path)


# ---------------------------------------------------------------------------
# requirements CSV (derived staffing table)
# ---------------------------------------------------------------------------


def write_requirements(requirements: RequirementMatrix, path: str) -> None:
    with atomic_open(path) as handle:
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
