"""Core types: catalogs, partitions, requirements, schedules, coverage."""

import re
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from shiftplan.domain import (
    MAX_REQUIREMENT,
    OFF,
    DayAllocation,
    RequirementMatrix,
    Scenario,
    Schedule,
    ShiftCatalog,
    SlaSpec,
    TripleError,
    build_week_partition,
    coverage_from_schedule,
    validate_schedule,
)
from shiftplan.phases import DayPhaseSpec
from shiftplan.scenario_io import gen_preset_scenario

from oracles import covers, validate_day_allocation


def make_scenario(days=7, intervals=4, agents=3, shifts=((0, 2), (2, 2))):
    grid = np.ones((days, intervals), dtype=np.int64)
    return Scenario(
        name="t",
        days=tuple(date(2024, 1, 1) + timedelta(days=i) for i in range(days)),
        agent_count=agents,
        shift_catalog=ShiftCatalog(shifts, intervals),
        requirements=RequirementMatrix(grid),
    )


class TestShiftCatalog:
    def test_coverage_rows(self):
        cat = ShiftCatalog(((0, 3), (2, 2)), intervals_per_day=5)
        assert cat.coverage.tolist() == [[1, 1, 1, 0, 0], [0, 0, 1, 1, 0]]
        assert list(covers(cat, 1)) == [2, 3]
        assert len(cat) == 2

    def test_valid_catalog_passes(self):
        assert ShiftCatalog(((0, 8), (8, 8)), 24).shifts == ((0, 8), (8, 8))

    def test_shift_past_day_boundary(self):
        with pytest.raises(ValueError) as caught:
            ShiftCatalog(((20, 8),), 24)
        assert str(caught.value) == "invalid shift catalog: shift 0 exceeds day boundary"

    def test_duplicate_and_bad_length(self):
        with pytest.raises(ValueError) as caught:
            ShiftCatalog(((0, 2), (0, 2), (3, 0), (-1, 2)), 8)
        assert "shift 1 duplicates (0, 2)" in str(caught.value)
        assert "shift 2 has non-positive length 0" in str(caught.value)
        assert "shift 3 has negative start -1" in str(caught.value)

    def test_empty_catalog(self):
        with pytest.raises(ValueError, match="shift catalog is empty"):
            ShiftCatalog((), 8)

    def test_negative_intervals_per_day_refused(self):
        with pytest.raises(ValueError, match="intervals_per_day must be >= 1"):
            ShiftCatalog(((0, 1),), -1)

    def test_coverage_is_readonly(self):
        cat = ShiftCatalog(((0, 2),), 4)
        with pytest.raises(ValueError):
            cat.coverage[0, 0] = 0


class TestWeekPartition:
    def test_two_weeks(self):
        assert build_week_partition(14) == make_scenario(days=14).week_partition() == 2

    @pytest.mark.parametrize("n", [0, 1, 6, 8, 13])
    def test_partial_weeks_rejected(self, n):
        with pytest.raises(ValueError, match="not a multiple of 7"):
            build_week_partition(n)


class TestRequirementMatrix:
    def test_per_day_is_row_max(self):
        req = RequirementMatrix([[1, 5, 2], [0, 0, 3]])
        assert req.per_day.tolist() == [5, 3]
        assert req.days == 2 and req.intervals == 3

    def test_fractional_cells_refused(self):
        with pytest.raises(ValueError, match="do not convert"):
            RequirementMatrix(np.full((7, 3), 1.5))

    def test_negative_entries_flagged(self):
        with pytest.raises(ValueError, match="negative interval requirement"):
            RequirementMatrix([[1, -1]])

    def test_cell_above_max_requirement_refused(self):
        # the peak week x 10^16 fits int64, but the solves' sums would wrap
        grid = gen_preset_scenario("peak-week").requirements.per_interval * 10**16
        with pytest.raises(ValueError, match=f"interval requirement above {MAX_REQUIREMENT}"):
            RequirementMatrix(grid)
        assert RequirementMatrix([[MAX_REQUIREMENT]]).per_day.tolist() == [MAX_REQUIREMENT]

    def test_zero_interval_grid_refused(self):
        with pytest.raises(ValueError, match="at least one interval per day"):
            RequirementMatrix(np.zeros((7, 0), dtype=np.int64))

    def test_equality_by_value(self):
        a = RequirementMatrix([[1, 2]])
        b = RequirementMatrix([[1, 2]])
        c = RequirementMatrix([[2, 1]])
        assert a == b and a != c


class TestScenarioValidation:
    def test_valid(self):
        make_scenario()  # building a scenario is its check

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="multiple of 7"):
            make_scenario(days=6)

    def test_catalog_grid_mismatch(self):
        scn = make_scenario()
        with pytest.raises(ValueError, match="shift catalog interval grid differs from requirements"):
            Scenario(
                name=scn.name,
                days=scn.days,
                agent_count=scn.agent_count,
                shift_catalog=ShiftCatalog(((0, 2),), intervals_per_day=8),
                requirements=scn.requirements,
            )

    def test_interval_count_is_the_requirements(self):
        scn = make_scenario(intervals=5, shifts=((0, 5),))
        assert scn.intervals_per_day == scn.requirements.intervals == 5
        with pytest.raises(TypeError):
            replace(scn, intervals_per_day=5)

    def test_bad_sla(self):
        # a scenario holds an SlaSpec, which refuses a bad goal when built
        with pytest.raises(ValueError, match=re.escape("target must lie in (0, 1]")):
            SlaSpec(0.0, 20.0)
        with pytest.raises(ValueError, match="threshold_seconds must be non-negative"):
            SlaSpec(0.8, -1.0)

    @pytest.mark.parametrize("aht", [float("nan"), 0.0, -1.0])
    def test_bad_aht_refused(self, aht):
        with pytest.raises(ValueError, match="^invalid scenario: aht_seconds must be positive$"):
            replace(make_scenario(), aht_seconds=aht)

    def test_sla_must_be_a_spec(self):
        with pytest.raises(ValueError, match="sla must be an SlaSpec"):
            replace(make_scenario(), sla=(0.8, 20.0))

    def test_days_must_increase(self):
        scn = make_scenario()
        with pytest.raises(ValueError, match="days are not strictly increasing"):
            replace(scn, days=scn.days[1:2] + scn.days[1:])

    def test_zero_threshold_builds(self):
        scn = replace(make_scenario(), sla=SlaSpec(0.8, 0.0))
        assert scn.sla == SlaSpec(0.8, 0.0)

    def test_every_problem_named_when_built(self):
        scn = make_scenario()
        with pytest.raises(ValueError) as caught:
            Scenario(
                name=scn.name,
                days=scn.days[:6],
                agent_count=-1,
                shift_catalog=scn.shift_catalog,
                requirements=scn.requirements,
            )
        assert str(caught.value) == (
            "invalid scenario: horizon not a multiple of 7: got 6 days; agent_count must be >= 0;"
            " requirements day count differs from scenario days"
        )
        with pytest.raises(ValueError, match="^invalid shift catalog: shift 0 exceeds day boundary$"):
            ShiftCatalog(((3, 2),), 4)

    def test_each_rule_named_once(self):
        scn = make_scenario()
        with pytest.raises(ValueError) as caught:
            Scenario(
                name=scn.name,
                days=scn.days,
                agent_count=scn.agent_count,
                shift_catalog=ShiftCatalog((), 0),
                requirements=RequirementMatrix(np.zeros((7, 1), dtype=np.int64)),
            )
        assert str(caught.value).count("intervals_per_day must be >= 1") == 1

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="invalid scenario: agent_count must be >= 0"):
            replace(make_scenario(), agent_count=-1)

    def test_derived_fields_are_not_arguments(self):
        with pytest.raises(TypeError):
            RequirementMatrix([[1, 2]], per_day=[2])
        with pytest.raises(TypeError):
            DayAllocation([[1, 0]], day_counts=[1, 0])


class TestDayAllocation:
    def test_counts_and_pairs(self):
        alloc = DayAllocation([[1, 0, 1], [0, 1, 1]])
        assert alloc.day_counts.tolist() == [1, 1, 2]

    def test_equality_by_value(self):
        works = np.array([[1, 0], [0, 1]])
        a, b = DayAllocation(works), DayAllocation(works.copy())
        assert a == b and a != DayAllocation(works[::-1])
        assert a != Schedule(works)  # another grid type is never equal

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            DayAllocation([[2, 0]])

    def test_weekly_quota_checked(self):
        works = np.zeros((1, 7), dtype=np.int8)
        works[0, :5] = 1
        alloc = DayAllocation(works)
        assert validate_day_allocation(alloc, 1, build_week_partition(7)) == []
        works4 = works.copy()
        works4[0, 4] = 0
        problems = validate_day_allocation(
            DayAllocation(works4), 1, build_week_partition(7)
        )
        assert problems == ["agent 0 works 4 days in week 0, expected 5"]


def five_day_schedule(agents=2, shift=0):
    """Every agent on days 0..4 with one shift: satisfies the weekly quota."""
    return Schedule.from_triples(
        [(a, d, shift) for a in range(agents) for d in range(5)], agents, 7
    )


class TestSchedule:
    def test_coverage_counts_agents_once_per_day(self):
        cat = ShiftCatalog(((0, 2), (1, 2)), 4)
        sched = Schedule.from_triples([(0, 0, 0), (1, 0, 1)], 2, 2)
        cov = coverage_from_schedule(sched, cat)
        assert cov.per_interval.tolist() == [[1, 2, 1, 0], [0, 0, 0, 0]]
        assert cov.per_day.tolist() == [2, 0]

    def test_out_of_range_raises(self):
        with pytest.raises(TripleError, match="agent 5, day 0: outside the 2 x 1 grid"):
            Schedule.from_triples([(0, 0, 0), (5, 0, 0)], 2, 1)
        with pytest.raises(TripleError, match="agent 0, day 1: outside") as caught:
            Schedule.from_triples([(0, 0, 0), (1, 0, 0), (0, 1, 0)], 2, 1)
        assert caught.value.position == 2
        with pytest.raises(TripleError, match="shift index -1 out of range"):
            Schedule.from_triples([(0, 0, -1)], 1, 1)
        cat = ShiftCatalog(((0, 1),), 2)
        with pytest.raises(ValueError, match="shift index 1 out of range"):
            coverage_from_schedule(Schedule.from_triples([(0, 0, 1)], 1, 1), cat)

    def test_validate_schedule_accepts_quota(self):
        cat = ShiftCatalog(((0, 2),), 4)
        sched = five_day_schedule()
        assert (
            validate_schedule(
                sched,
                agent_count=2,
                day_count=7,
                catalog=cat,
                weeks=build_week_partition(7),
            )
            == []
        )

    def test_from_triples_rejects_double_booking(self):
        triples = [(0, d, 0) for d in range(5)] + [(0, 0, 1)]
        with pytest.raises(TripleError, match="agent 0 has more than one shift on day 0") as caught:
            Schedule.from_triples(triples, 1, 7)
        assert caught.value.position == 5

    def test_validate_schedule_rejects_short_week(self):
        cat = ShiftCatalog(((0, 2),), 4)
        sched = Schedule.from_triples([(0, d, 0) for d in range(4)], 1, 7)
        problems = validate_schedule(
            sched,
            agent_count=1,
            day_count=7,
            catalog=cat,
            weeks=build_week_partition(7),
        )
        assert problems == ["agent 0 works 4 days in week 0, expected 5"]

    def test_grid_and_length(self):
        sched = Schedule.from_triples([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, 3)
        assert sched.shifts.tolist() == [[1, 0, OFF], [0, OFF, OFF]]
        assert len(sched) == 3
        assert sched == Schedule([[1, 0, OFF], [0, OFF, OFF]])
        with pytest.raises(ValueError):
            sched.shifts[0, 0] = 2

    def test_validate_schedule_rejects_wrong_shape(self):
        problems = validate_schedule(
            five_day_schedule(agents=1),
            agent_count=2,
            day_count=7,
            catalog=ShiftCatalog(((0, 2),), 4),
            weeks=build_week_partition(7),
        )
        assert problems == ["schedule covers 1 agents x 7 days, expected 2 x 7"]


# ---------------------------------------------------------------------------
# the grid against the set of (agent, day, shift) triples it replaced
# ---------------------------------------------------------------------------


def reference_coverage(triples, catalog, day_count, agent_count):
    """Coverage of a set of triples, one assignment at a time (reference)."""
    per_interval = np.zeros((day_count, catalog.intervals_per_day), dtype=np.int64)
    day_agents = [set() for _ in range(day_count)]
    for agent, day, shift in triples:
        if not 0 <= agent < agent_count:
            raise ValueError(f"agent index {agent} out of range")
        if not 0 <= day < day_count:
            raise ValueError(f"day index {day} out of range")
        if not 0 <= shift < len(catalog):
            raise ValueError(f"shift index {shift} out of range")
        start, length = catalog.shifts[shift]
        per_interval[day, start : start + length] += 1
        day_agents[day].add(agent)
    return per_interval, np.array([len(s) for s in day_agents], dtype=np.int64)


def reference_validate(triples, agent_count, day_count, catalog, weeks):
    """Problems of a set of triples, in sorted-triple order (reference)."""
    problems = []
    seen_pairs = set()
    week_days = np.zeros((agent_count, weeks), dtype=np.int64)
    for agent, day, shift in sorted(triples):
        if not 0 <= agent < agent_count:
            problems.append(f"agent index {agent} out of range")
            continue
        if not 0 <= day < day_count:
            problems.append(f"day index {day} out of range")
            continue
        if not 0 <= shift < len(catalog):
            problems.append(f"shift index {shift} out of range")
            continue
        if (agent, day) in seen_pairs:
            problems.append(f"agent {agent} has more than one shift on day {day}")
            continue
        seen_pairs.add((agent, day))
        week_days[agent, day // 7] += 1
    if not problems:
        for agent in range(agent_count):
            for w in range(weeks):
                if week_days[agent, w] != 5:
                    problems.append(
                        f"agent {agent} works {int(week_days[agent, w])} days in"
                        f" week {w}, expected 5"
                    )
    return problems


def reference_csv(triples, catalog):
    """The schedule CSV written from sorted triples (reference)."""
    lines = ["agent,day_index,shift_start,shift_length"]
    for agent, day, shift in sorted(triples):
        start, length = catalog.shifts[shift]
        lines.append(f"{agent},{day},{start},{length}")
    return ("\n".join(lines) + "\n").encode()


def random_grid(rng, kind, weeks=(1, 3)):
    """A seeded random schedule grid and its catalog, over ``weeks[0]`` to
    ``weeks[1]`` weeks.

    ``valid``: every agent works five days a week; ``short``: any days off,
    so weeks may be short or long; ``bad``: a few shift indices outside the
    catalog, above it or below ``OFF``.
    """
    agents = rng.integers(0, 7)
    weeks, intervals = rng.integers(weeks[0], weeks[1] + 1), rng.integers(1, 7)
    starts = rng.choice(intervals, size=rng.integers(1, intervals + 1), replace=False)
    catalog = ShiftCatalog(
        tuple((int(s), int(rng.integers(1, intervals - s + 1))) for s in sorted(starts)),
        int(intervals),
    )
    shifts = rng.integers(0, len(catalog), size=(agents, 7 * weeks))
    if kind == "valid":
        works = np.zeros((agents, weeks, 7), dtype=bool)
        for a in range(agents):
            for w in range(weeks):
                works[a, w, rng.choice(7, size=5, replace=False)] = True
        works = works.reshape(agents, 7 * weeks)
    else:
        works = rng.random((agents, 7 * weeks)) < rng.random()
    grid = np.where(works, shifts, OFF)
    if kind == "bad" and grid.size:
        cells = rng.integers(0, grid.size, size=rng.integers(1, 4))
        grid.flat[cells] = rng.choice([len(catalog), len(catalog) + 3, -2, -5], size=len(cells))
    return grid, catalog, build_week_partition(7 * weeks)


class TestGridMatchesTriples:
    """The grid functions against the parent's per-triple versions, kept above."""

    @pytest.mark.parametrize("kind", ["valid", "short", "bad"])
    def test_same_coverage_problems_and_csv(self, tmp_path, kind):
        from shiftplan.scenario_io import write_schedule

        rng = np.random.default_rng({"valid": 1, "short": 2, "bad": 3}[kind])
        path = tmp_path / "s.csv"
        for _ in range(400):
            grid, catalog, weeks = random_grid(rng, kind)
            agents, days = grid.shape
            schedule = Schedule(grid)
            triples = frozenset(
                (int(a), int(d), int(grid[a, d])) for a, d in zip(*np.nonzero(grid != OFF))
            )
            assert validate_schedule(
                schedule, agent_count=agents, day_count=days, catalog=catalog, weeks=weeks
            ) == reference_validate(triples, agents, days, catalog, weeks)
            if kind == "bad" and len(triples) and any(
                not 0 <= s < len(catalog) for _, _, s in triples
            ):
                with pytest.raises(ValueError, match="shift index"):
                    coverage_from_schedule(schedule, catalog)
                continue
            per_interval, per_day = reference_coverage(triples, catalog, days, agents)
            cov = coverage_from_schedule(schedule, catalog)
            assert np.array_equal(cov.per_interval, per_interval)
            assert np.array_equal(cov.per_day, per_day)
            assert Schedule.from_triples(sorted(triples, reverse=True), agents, days) == schedule
            write_schedule(schedule, catalog, str(path))
            assert path.read_bytes() == reference_csv(triples, catalog)

    @pytest.mark.parametrize("kind", ["valid", "short"])
    def test_same_coverage_over_four_weeks_and_more(self, kind):
        rng = np.random.default_rng({"valid": 5, "short": 6}[kind])
        for _ in range(100):
            grid, catalog, _ = random_grid(rng, kind, weeks=(4, 6))
            agents, days = grid.shape
            triples = frozenset(
                (int(a), int(d), int(grid[a, d])) for a, d in zip(*np.nonzero(grid != OFF))
            )
            per_interval, per_day = reference_coverage(triples, catalog, days, agents)
            cov = coverage_from_schedule(Schedule(grid), catalog)
            assert days >= 28
            assert np.array_equal(cov.per_interval, per_interval)
            assert np.array_equal(cov.per_day, per_day)

    def test_day_allocation_quota_matches_week_loop(self):
        def reference(works, agent_count, weeks):
            problems = []
            if works.shape[0] != agent_count:
                problems.append(f"allocation has {works.shape[0]} agents, expected {agent_count}")
            for w in range(weeks):
                days = range(7 * w, 7 * w + 7)
                week_days = works[:, days.start : days.stop].sum(axis=1)
                for agent in np.nonzero(week_days != 5)[0]:
                    problems.append(
                        f"agent {int(agent)} works {int(week_days[agent])} days in week {w},"
                        " expected 5"
                    )
            return problems

        rng = np.random.default_rng(4)
        for _ in range(300):
            agents, weeks = int(rng.integers(0, 6)), int(rng.integers(1, 4))
            works = (rng.random((agents, 7 * weeks)) < rng.random()).astype(np.int8)
            partition = build_week_partition(7 * weeks)
            expected_agents = agents + int(rng.integers(0, 2))
            assert validate_day_allocation(
                DayAllocation(works), expected_agents, partition
            ) == reference(works, expected_agents, partition)


class TestExactConversion:
    """A grid converted to its dtype keeps every cell or is refused."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Schedule(np.array([[1.9, -1.0]])),
            lambda: RequirementMatrix([[2.7, 1.2]]),
            lambda: DayPhaseSpec([2.5] * 7, 2, build_week_partition(7)),
            lambda: DayAllocation(np.array([[257, 256]])),
            lambda: Schedule(np.array([[2**64 - 1]], dtype=np.uint64)),
            lambda: RequirementMatrix([[2**70, 1]]),
            lambda: RequirementMatrix([[1, -(2**70)]]),
            lambda: RequirementMatrix([[None, 1]]),
        ],
        ids=[
            "fraction",
            "fraction-list",
            "day-requirements",
            "int8-wrap",
            "uint64-wrap",
            "above-64-bits",
            "below-64-bits",
            "none",
        ],
    )
    def test_changed_cell_is_refused(self, build):
        with pytest.raises(ValueError, match="unchanged"):
            build()

    def test_whole_numbers_of_another_dtype_convert(self):
        assert Schedule(np.array([[1.0, -1.0]])).shifts.tolist() == [[1, OFF]]
        assert DayAllocation(np.array([[1, 0]])).works.dtype == np.int8

