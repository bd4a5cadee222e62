"""File formats: scenario JSON, schedule CSV, sweep CSV, report JSON."""

import csv
import io
import json
import math
import re
import tracemalloc
from dataclasses import fields
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from shiftplan.domain import (
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
)
from shiftplan.erlang import check_interval_seconds
from shiftplan.metrics import _MEAN_FIELDS, SolveReport, build_report, compare_modes
from shiftplan.phases import SolveLimits, solve_multi_phase
from shiftplan.presets import DEFAULT_INTRADAY_PROFILE
from shiftplan.scenario_io import (
    PRESETS,
    SCHEDULE_BLOCK_AGENTS,
    SCHEDULE_HEADER,
    PeakPresetSpec,
    SchemaError,
    _finite_number,
    gen_peak_scenario,
    gen_preset_scenario,
    load_scenario,
    read_schedule,
    read_sweep_trace,
    record_to_dict,
    save_scenario,
    scenario_from_data,
    write_report,
    write_requirements,
    write_schedule,
    write_sweep_trace,
)
from shiftplan.tuner import SweepEntry, SweepTrace


def one_shift_scenario():
    """One agent, one week of four intervals, and the single shift (0, 2)."""
    return Scenario(
        name="s",
        days=tuple(date(2024, 1, 1 + d) for d in range(7)),
        agent_count=1,
        shift_catalog=ShiftCatalog(((0, 2),), 4),
        requirements=RequirementMatrix(np.ones((7, 4), dtype=np.int64)),
    )


class TestPeakPreset:
    def test_shape(self):
        scn = gen_peak_scenario()
        assert scn.name == "peak-week"
        assert scn.num_days == 7
        assert scn.agent_count == 70
        assert scn.intervals_per_day == 24
        assert len(scn.shift_catalog) == 15
        assert all(length == 10 for _, length in scn.shift_catalog.shifts)
        assert scn.days[0] == date(2024, 1, 1)
        assert scn.days[0].weekday() == 0  # Monday start puts days 5, 6 on the weekend

    def test_peaks(self):
        scn = gen_peak_scenario()
        assert scn.requirements.per_day.tolist() == [225] * 5 + [110] * 2
        # ceil(225 * 80 / 100) must be exactly 180, not a float artifact
        assert int(scn.requirements.per_interval[0, 8]) == 180
        assert int(scn.requirements.per_interval[5, 8]) == 88
        # overnight trickle: ceil(225 * 0.10) = 23
        assert int(scn.requirements.per_interval[0, 0]) == 23

    def test_profile_covers_the_day(self):
        assert len(DEFAULT_INTRADAY_PROFILE) == 24
        assert max(DEFAULT_INTRADAY_PROFILE) == 100

    def test_presets_are_valid_scenarios(self):
        for name in PRESETS:  # building a scenario is its check
            assert gen_preset_scenario(name).name == name

    def test_unknown_preset(self):
        with pytest.raises(SchemaError, match="unknown preset"):
            gen_preset_scenario("nope")

    def test_spec_validation(self):
        # a preset is scenario-file data, so the loader's owners refuse it
        for spec, refusal in (
            (PeakPresetSpec(profile_percent=(100,)), "$.requirements[0]: expected 24 entries"),
            (PeakPresetSpec(weeks=0), "$.days: horizon not a multiple of 7: got 0 days"),
        ):
            with pytest.raises(SchemaError, match=f"^{re.escape(refusal)}$"):
                gen_peak_scenario(spec)


class TestScenarioJson:
    def test_round_trip(self, tmp_path):
        scn = gen_preset_scenario("benchmark-2wk")
        path = tmp_path / "s.json"
        save_scenario(scn, str(path))
        loaded = load_scenario(str(path))
        assert loaded == scn

    def test_missing_field_path_in_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(SchemaError, match=r"\$\.days: missing"):
            load_scenario(str(path))

    def test_bad_grid_cell(self, tmp_path):
        scn = gen_peak_scenario(PeakPresetSpec(agents=2, weeks=1))
        path = tmp_path / "s.json"
        save_scenario(scn, str(path))
        data = json.loads(path.read_text())
        data["requirements"][2][3] = "many"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=r"\$\.requirements\[2\]\[3\]"):
            load_scenario(str(path))

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_grid_cell(self, tmp_path, value):
        scn = gen_peak_scenario(PeakPresetSpec(agents=2, weeks=1))
        path = tmp_path / "s.json"
        save_scenario(scn, str(path))
        data = json.loads(path.read_text())
        data["requirements"][2][3] = value  # json writes Infinity / NaN
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=r"\$\.requirements\[2\]\[3\]: expected a finite"):
            load_scenario(str(path))

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError, match=r"^\$: expected a JSON object$"):
            load_scenario(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_scenario(str(path))

    def test_volumes_derive_requirements(self, tmp_path):
        # 12 calls / 30 min at 300s AHT = 2 erlangs -> 4 agents at 80/20
        volumes = [[12] * 2] * 7
        data = {
            "name": "from-volumes",
            "days": [date(2024, 1, i + 1).isoformat() for i in range(7)],
            "intervals_per_day": 2,
            "agents": 5,
            "shift_catalog": [{"start": 0, "length": 2}],
            "volumes": volumes,
            "interval_seconds": 1800,
            "sla": {"target": 0.8, "threshold_seconds": 20},
            "aht_seconds": 300,
        }
        path = tmp_path / "v.json"
        path.write_text(json.dumps(data))
        scn = load_scenario(str(path))
        assert scn.requirements.per_interval.tolist() == [[4, 4]] * 7
        assert scn.sla == SlaSpec(0.8, 20.0)

    def test_needs_requirements_or_volumes(self, tmp_path):
        data = {
            "name": "x",
            "days": [date(2024, 1, i + 1).isoformat() for i in range(7)],
            "intervals_per_day": 1,
            "agents": 1,
            "shift_catalog": [{"start": 0, "length": 1}],
            "sla": {"target": 0.8, "threshold_seconds": 20},
            "aht_seconds": 300,
        }
        path = tmp_path / "x.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="'requirements' or 'volumes'"):
            load_scenario(str(path))

    def test_invalid_scenario_content(self, tmp_path):
        # six days: schema-valid JSON, invalid scheduling horizon
        data = {
            "name": "x",
            "days": [date(2024, 1, i + 1).isoformat() for i in range(6)],
            "intervals_per_day": 1,
            "agents": 1,
            "shift_catalog": [{"start": 0, "length": 1}],
            "requirements": [[1]] * 6,
            "sla": {"target": 0.8, "threshold_seconds": 20},
            "aht_seconds": 300,
        }
        path = tmp_path / "x.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=r"^\$\.days: horizon not a multiple of 7: got 6 days$"):
            load_scenario(str(path))


def week_data(**fields) -> dict:
    """A one-week, two-interval scenario file's data with requirements of
    [1, 2] per day, or with call volumes if ``fields`` give them; ``fields``
    replace its keys."""
    data = {
        "name": "week",
        "days": [f"2024-01-0{i + 1}" for i in range(7)],
        "intervals_per_day": 2,
        "agents": 2,
        "shift_catalog": [{"start": 0, "length": 2}],
        "requirements": [[1, 2]] * 7,
        "sla": {"target": 0.8, "threshold_seconds": 20.0},
        "aht_seconds": 300.0,
    }
    if "volumes" in fields:
        del data["requirements"]
    data.update(fields)
    return data


def grid_with(cell) -> list:
    """Seven rows of [2, 2] with ``cell`` at [3][1]."""
    grid = [[2, 2] for _ in range(7)]
    grid[3][1] = cell
    return grid


# Each value rule the loader reports: the file's change, the key the refusal
# is reported at, and a call of the rule's owner that makes the same refusal.
OWNED_RULES = {
    "aht": ({"aht_seconds": 0.0}, "$.aht_seconds", lambda: check_aht_seconds(0.0)),
    "interval-seconds": (
        {"volumes": [[10, 20]] * 7, "interval_seconds": 0.0},
        "$.interval_seconds",
        lambda: check_interval_seconds(0.0),
    ),
    "intervals-per-day": (
        {"intervals_per_day": 0, "requirements": [[]] * 7},
        "$",
        lambda: ShiftCatalog(((0, 2),), 0),
    ),
    "catalog": (
        {"shift_catalog": [{"start": 1, "length": 2}]},
        "$",
        lambda: ShiftCatalog(((1, 2),), 2),
    ),
    "fractional-cell": (
        {"requirements": grid_with(2.5)},
        "$.requirements",
        lambda: RequirementMatrix(np.array(grid_with(2.5), dtype=np.float64)),
    ),
    "negative-cell": (
        {"requirements": grid_with(-1)},
        "$.requirements",
        lambda: RequirementMatrix(np.array(grid_with(-1), dtype=np.float64)),
    ),
    "too-large-cell": (
        {"requirements": grid_with(10**13)},
        "$.requirements",
        lambda: RequirementMatrix(np.array(grid_with(10**13), dtype=np.float64)),
    ),
    "sla": (
        {"sla": {"target": 1.5, "threshold_seconds": 20.0}},
        "$.sla",
        lambda: SlaSpec(1.5, 20.0),
    ),
    "agents": ({"agents": 10**6}, "$.agents", lambda: check_agent_count(10**6)),
    "horizon": (
        {"days": [f"2024-01-0{i + 1}" for i in range(6)], "requirements": [[1, 2]] * 6},
        "$.days",
        lambda: build_week_partition(6),
    ),
}


@pytest.mark.parametrize("case", OWNED_RULES)
def test_loader_reports_the_owners_refusal(case):
    """The loader states no value rule of its own: each refusal is the
    owner's text, prefixed only by the key, so a loader copy of a rule that
    words it differently fails here."""
    fields, key, owner = OWNED_RULES[case]
    with pytest.raises(ValueError) as refused:
        owner()
    with pytest.raises(SchemaError) as caught:
        scenario_from_data(week_data(**fields))
    assert str(caught.value) == f"{key}: {refused.value}"


@pytest.mark.parametrize("grid", ["volumes", "requirements"])
@pytest.mark.parametrize("cell", [True, "5", math.nan], ids=["true", "string", "nan"])
def test_grid_names_its_first_bad_cell(tmp_path, grid, cell):
    """A cell that is no finite number is refused at its own index, with
    ``_finite_number``'s text, though the whole grid is checked at once; a
    later bad cell is not the one named."""
    cells = grid_with(cell)
    cells[5][0] = math.inf
    changes = {grid: cells, "interval_seconds": 900.0} if grid == "volumes" else {grid: cells}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(week_data(**changes)))  # NaN is written as JSON's NaN
    where = f"$.{grid}[3][1]"
    with pytest.raises(SchemaError) as refused:
        _finite_number(cell, where)
    with pytest.raises(SchemaError) as caught:
        load_scenario(str(path))
    assert str(caught.value) == str(refused.value)
    assert str(caught.value).startswith(f"{where}: expected a ")


class TestScheduleCsv:
    def test_round_trip(self, tmp_path):
        scn = gen_preset_scenario("peak-week")
        result = solve_multi_phase(scn, SolveLimits(seed=0, move_cap=2000))
        path = tmp_path / "sched.csv"
        write_schedule(result.schedule, scn.shift_catalog, str(path))
        loaded = read_schedule(str(path), scn)
        assert loaded == result.schedule

    def test_header_and_ordering(self, tmp_path):
        cat = ShiftCatalog(((0, 2), (2, 2)), 4)
        sched = Schedule.from_triples([(1, 0, 1), (0, 1, 0), (0, 0, 1)], 2, 2)
        path = tmp_path / "s.csv"
        write_schedule(sched, cat, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "agent,day_index,shift_start,shift_length"
        assert lines[1:] == ["0,0,2,2", "0,1,0,2", "1,0,2,2"]

    @pytest.mark.parametrize("shift", [-2, 2])
    def test_shift_outside_catalog_rejected_on_write(self, tmp_path, shift):
        # numpy would read -2 as the second-to-last catalog shift
        sched = Schedule([[0, shift]])
        with pytest.raises(ValueError, match=f"^shift index {shift} out of range$"):
            write_schedule(sched, ShiftCatalog(((0, 2), (2, 2)), 4), str(tmp_path / "s.csv"))
        assert list(tmp_path.iterdir()) == []  # refused before any temp file exists

    def test_unknown_shift_rejected_on_read(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("agent,day_index,shift_start,shift_length\n0,0,5,5\n")
        with pytest.raises(SchemaError, match="not in catalog"):
            read_schedule(str(path), one_shift_scenario())

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["3,0,0,2"], r"\$\[0\]: agent 3, day 0: outside the 1 x 7 grid"),
            (["0,0,0,2", "0,7,0,2"], r"\$\[1\]: agent 0, day 7: outside the 1 x 7 grid"),
            (["0,0,0,2", "0,1,0,2", "0,0,0,2"], r"\$\[2\]: agent 0 has more than one shift on day 0"),
        ],
    )
    def test_grid_errors_name_the_row(self, tmp_path, rows, message):
        path = tmp_path / "s.csv"
        path.write_text("agent,day_index,shift_start,shift_length\n" + "\n".join(rows) + "\n")
        with pytest.raises(SchemaError, match=message):
            read_schedule(str(path), one_shift_scenario())

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n")
        with pytest.raises(SchemaError, match="expected header"):
            read_schedule(str(path), one_shift_scenario())


def csv_module_schedule(schedule: Schedule, catalog: ShiftCatalog) -> bytes:
    """The schedule CSV as the csv module wrote it from one whole-file
    buffer, before the writer streamed agent blocks (reference)."""
    agents, days = np.nonzero(schedule.shifts != OFF)
    blocks = np.array(catalog.shifts, dtype=np.int64).reshape(-1, 2)[
        schedule.shifts[agents, days]
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SCHEDULE_HEADER)
    writer.writerows(zip(agents.tolist(), days.tolist(), *blocks.T.tolist()))
    return buffer.getvalue().encode()


def random_schedule(rng, agents: int, days: int, shifts: int) -> Schedule:
    """Random shifts with random days off; some agents never work."""
    grid = rng.integers(0, shifts, size=(agents, days))
    grid[rng.random((agents, days)) < 0.3] = OFF
    grid[rng.random(agents) < 0.2] = OFF
    return Schedule(grid)


WIDE_CATALOG = ShiftCatalog(((0, 34), (8, 34), (30, 60), (62, 34)), 96)


class TestScheduleBlocks:
    """The block-streamed schedule CSV against the whole-file csv writer."""

    B = SCHEDULE_BLOCK_AGENTS

    @pytest.mark.parametrize("agents", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_bytes_match_the_csv_module(self, tmp_path, agents):
        rng = np.random.default_rng(agents)
        path = tmp_path / "s.csv"
        for days in (7, 28):
            schedule = random_schedule(rng, agents, days, len(WIDE_CATALOG))
            write_schedule(schedule, WIDE_CATALOG, str(path))
            assert path.read_bytes() == csv_module_schedule(schedule, WIDE_CATALOG)

    def test_all_off_blocks_are_skipped(self, tmp_path):
        rng = np.random.default_rng(9)
        grid = random_schedule(rng, 3 * self.B + 7, 14, len(WIDE_CATALOG)).shifts.copy()
        grid[self.B : 2 * self.B] = OFF  # the whole second block
        grid[-7:] = OFF  # the whole short last block
        schedule = Schedule(grid)
        path = tmp_path / "s.csv"
        write_schedule(schedule, WIDE_CATALOG, str(path))
        assert path.read_bytes() == csv_module_schedule(schedule, WIDE_CATALOG)
        write_schedule(Schedule(np.full((2 * self.B, 7), OFF)), WIDE_CATALOG, str(path))
        assert path.read_text() == "agent,day_index,shift_start,shift_length\n"

    def test_heap_peak_is_bounded_by_the_block(self, tmp_path):
        # a whole-file buffer of this roster peaks near 50 MB
        schedule = random_schedule(np.random.default_rng(1), 20_000, 28, len(WIDE_CATALOG))
        tracemalloc.start()
        try:
            write_schedule(schedule, WIDE_CATALOG, str(tmp_path / "s.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_failure_after_a_block_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_text("old\n")
        real_column_stack = np.column_stack
        calls = []

        def fail_on_second_block(arrays):
            calls.append(len(arrays))
            if len(calls) == 2:
                raise RuntimeError("disk full")
            return real_column_stack(arrays)

        monkeypatch.setattr(np, "column_stack", fail_on_second_block)
        schedule = random_schedule(np.random.default_rng(2), 2 * self.B, 7, len(WIDE_CATALOG))
        with pytest.raises(RuntimeError, match="disk full"):
            write_schedule(schedule, WIDE_CATALOG, str(path))
        assert len(calls) == 2
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]


def list_read_schedule(path: str, scenario: Scenario) -> Schedule:
    """The schedule reader that builds every row's triple before the grid
    (reference for the streaming reader's messages)."""
    by_block = {block: idx for idx, block in enumerate(scenario.shift_catalog.shifts)}
    triples = []
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != SCHEDULE_HEADER:
            raise SchemaError(f"$: expected header {','.join(SCHEDULE_HEADER)}")
        for i, row in enumerate(reader):
            if len(row) != 4:
                raise SchemaError(f"$[{i}]: expected 4 fields")
            try:
                agent, day, start, length = (int(x) for x in row)
            except ValueError as exc:
                raise SchemaError(f"$[{i}]: expected integers ({exc})") from exc
            if (start, length) not in by_block:
                raise SchemaError(f"$[{i}]: shift ({start}, {length}) not in catalog")
            triples.append((agent, day, by_block[(start, length)]))
    try:
        return Schedule.from_triples(triples, scenario.agent_count, scenario.num_days)
    except TripleError as exc:
        raise SchemaError(f"$[{exc.position}]: {exc}") from exc


def wide_scenario(agents: int, days: int) -> Scenario:
    return Scenario(
        name="wide",
        days=tuple(date(2024, 1, 1) + timedelta(days=d) for d in range(days)),
        agent_count=agents,
        shift_catalog=WIDE_CATALOG,
        requirements=RequirementMatrix(np.zeros((days, 96), dtype=np.int64)),
    )


def read_outcome(reader, path: str, scenario: Scenario):
    try:
        return reader(path, scenario).shifts.tolist()
    except SchemaError as exc:
        return str(exc)


class TestScheduleRead:
    """The row-streaming reader against the reader that lists every row."""

    MUTANTS = ("x", "", "-1", "0", "1", "3", "7", "8", "34", "2.5", "99999999999999999999")

    def test_single_mutations_keep_their_messages(self, tmp_path):
        rng = np.random.default_rng(5)
        scenario = wide_scenario(6, 14)
        path = str(tmp_path / "s.csv")
        for _ in range(300):
            write_schedule(random_schedule(rng, 6, 14, len(WIDE_CATALOG)), WIDE_CATALOG, path)
            lines = [line.split(",") for line in Path(path).read_text().splitlines()]
            row = int(rng.integers(1, len(lines)))
            column = int(rng.integers(0, 5))  # column 4 adds a fifth field
            cell = str(rng.choice(self.MUTANTS))
            if column == 4:
                lines[row].append(cell)
            else:
                lines[row][column] = cell
            with open(path, "w") as handle:
                handle.write("\n".join(",".join(line) for line in lines) + "\n")
            expected = read_outcome(list_read_schedule, path, scenario)
            assert read_outcome(read_schedule, path, scenario) == expected

    def test_first_bad_row_in_file_order_is_reported(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("agent,day_index,shift_start,shift_length\n3,0,0,2\n0,0,5,5\n")
        with pytest.raises(SchemaError, match=r"^\$\[0\]: agent 3, day 0: outside the 1 x 7 grid"):
            read_schedule(str(path), one_shift_scenario())

    def test_heap_peak_is_bounded_by_the_grid(self, tmp_path):
        # the int64 grid is 4.5 MB; one triple per row peaked near 47 MiB
        schedule = random_schedule(np.random.default_rng(1), 20_000, 28, len(WIDE_CATALOG))
        path = str(tmp_path / "s.csv")
        write_schedule(schedule, WIDE_CATALOG, path)
        scenario = wide_scenario(20_000, 28)
        tracemalloc.start()
        try:
            loaded = read_schedule(path, scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == schedule
        assert peak < 8 * 2**20


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        trace = SweepTrace(
            entries=(
                SweepEntry(0, 0.17861, (70, 70, 70, 70, 70, 0, 0)),
                SweepEntry(1, 0.05986, (67, 67, 66, 66, 66, 9, 9)),
                SweepEntry(2, float("inf"), (57, 57, 57, 57, 56, 33, 33)),
            ),
        )
        path = tmp_path / "t.csv"
        write_sweep_trace(trace, str(path))
        loaded = read_sweep_trace(str(path))
        assert loaded.selected == 1
        assert loaded.entries == trace.entries
        header = path.read_text().splitlines()[0]
        assert header == "k,kl,p_d0,p_d1,p_d2,p_d3,p_d4,p_d5,p_d6"

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty sweep trace"):
            write_sweep_trace(SweepTrace(()), str(tmp_path / "t.csv"))

    @pytest.mark.parametrize("text, message", [
        ("", r"^\$: expected header k,kl,p_d0,\.\.\.$"),
        ("k,cost,p_d0\n0,0.5,3\n", r"^\$: expected header"),
        ("k,kl,p_d0\n", r"^\$: trace has no rows$"),
        ("k,kl,p_d0\n0,0.5,3\n1,0.25\n", r"^\$\[1\]: expected 3 fields$"),
        ("k,kl,p_d0\n0,0.5,3\nx,0.25,4\n", r"^\$\[1\]: expected numbers \(invalid literal"),
        ("k,kl,p_d0\n0,low,3\n", r"^\$\[0\]: expected numbers \(could not convert"),
        ("k,kl,p_d0\n0,0.5,3.5\n", r"^\$\[0\]: expected numbers \(invalid literal"),
    ])
    def test_bad_file_names_the_row(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match=message):
            read_sweep_trace(str(path))

    @pytest.mark.parametrize("rows, message", [
        # with a NaN KL, the least KL would depend on the row order
        ("0,nan,3\n1,0.5,4\n", r"^\$\[0\]: kl is NaN$"),
        ("1,0.5,4\n0,nan,3\n", r"^\$\[1\]: kl is NaN$"),
        ("0,0.5,3\n-1,0.25,4\n", r"^\$\[1\]: penalty factor must lie in \[0, 1000000\], got -1$"),
        ("1000001,0.5,3\n", r"^\$\[0\]: penalty factor must lie in \[0, 1000000\], got 1000001$"),
        ("0,0.5,3\n1,0.25,-4\n", r"^\$\[1\]: negative head-count$"),
    ], ids=["nan-kl-first", "nan-kl-last", "negative-k", "k-beyond-max", "negative-head-count"])
    def test_row_no_sweep_writes_is_refused(self, tmp_path, rows, message):
        path = tmp_path / "t.csv"
        path.write_text("k,kl,p_d0\n" + rows)
        with pytest.raises(SchemaError, match=message):
            read_sweep_trace(str(path))


# A report's JSON keys, in order: SolveReport's field names.
REPORT_KEYS = [
    "scenario",
    "mode",
    "status",
    "seed",
    "agents",
    "days",
    "intervals_per_day",
    "shifts",
    "assigned_pairs",
    "variable_count",
    "objective_value",
    "cost_value",
    "dvdi",
    "ivdi",
    "kl_day_distribution",
    "per_day_required",
    "per_day_coverage",
    "evaluations",
    "runtime_seconds",
]


class TestReportJson:
    def make_report(self):
        scn = gen_preset_scenario("peak-week")
        result = solve_multi_phase(scn, SolveLimits(seed=4, move_cap=2000))
        return build_report(
            scn,
            result.schedule,
            "multi",
            seed=4,
            runtime_seconds=result.runtime_seconds,
            status=result.status,
            evaluations=result.evaluations,
        )

    def test_deterministic_serialization_nulls_runtime(self, tmp_path):
        report = self.make_report()
        d = record_to_dict(report, deterministic=True)
        assert d["runtime_seconds"] is None
        assert record_to_dict(report)["runtime_seconds"] == report.runtime_seconds

    def test_write_and_parse(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "r.json"
        write_report(report, str(path), deterministic=True)
        data = json.loads(path.read_text())
        assert data["scenario"] == "peak-week"
        assert data["mode"] == "multi"
        assert data["objective_value"] == report.objective_value
        assert data["per_day_required"] == [225] * 5 + [110] * 2
        assert list(data) == REPORT_KEYS

    def test_report_fields_are_its_keys(self):
        assert [f.name for f in fields(SolveReport)] == REPORT_KEYS


class TestComparisonJson:
    def test_shape(self, tmp_path):
        scn = gen_preset_scenario("peak-week")
        result = compare_modes(scn, 2, SolveLimits(seed=4, move_cap=2000))
        path = tmp_path / "c.json"
        write_report(result, str(path), deterministic=True)
        data = json.loads(path.read_text())
        assert list(data) == ["scenario", "runs", "means"]
        assert data["scenario"] == "peak-week"
        assert [run["seed"] for run in data["runs"]] == [4, 5]
        for run in data["runs"]:
            assert list(run) == ["seed", "single", "multi"]
            for mode in ("single", "multi"):
                assert list(run[mode]) == REPORT_KEYS
                assert run[mode]["mode"] == mode
                assert run[mode]["runtime_seconds"] is None
        assert list(data["means"]) == ["single", "multi"]
        for means in data["means"].values():
            assert list(means) == list(_MEAN_FIELDS)
            assert means["runtime_seconds"] is None


class TestRequirementsCsv:
    def test_rows(self, tmp_path):
        scn = gen_peak_scenario(PeakPresetSpec(agents=2, intervals_per_day=24))
        path = tmp_path / "req.csv"
        write_requirements(scn.requirements, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("day_index,i0,")
        assert lines[0].endswith(",peak")
        assert len(lines) == 8
        assert lines[1].split(",")[-1] == "225"
