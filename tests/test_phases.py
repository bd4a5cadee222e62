"""Phase orchestration, with every exact optimum audited per agent by the oracle."""

import re

import numpy as np
import pytest

from shiftplan import phases
from shiftplan.domain import (
    MAX_AGENTS,
    MAX_REQUIREMENT,
    OFF,
    Scenario,
    ShiftCatalog,
    build_week_partition,
    coverage_from_schedule,
    validate_schedule,
)
from shiftplan.phases import (
    DayPhaseSpec,
    ShiftPhaseSpec,
    SolveLimits,
    interval_objective_value,
    materialize_day,
    materialize_shift,
    solve_day_allocation,
    solve_multi_phase,
    solve_shift_allocation,
    solve_single_phase,
)

import oracles
from oracles import scenario_from_grid

ONE_WEEK = build_week_partition(7)
PENALTY_RULE = f"penalty factor must lie in [0, {phases.MAX_PENALTY}]"


def deviation(scenario, schedule):
    """The interval objective recomputed from the schedule."""
    coverage = coverage_from_schedule(schedule, scenario.shift_catalog)
    return interval_objective_value(scenario.requirements.per_interval, coverage.per_interval)


def solve_exact(problem):
    """The exact oracle's optimum of a day spec, shift spec or scenario,
    expanded as the phase solves expand theirs: (allocation or schedule,
    objective)."""
    if isinstance(problem, DayPhaseSpec):
        result = oracles.exact_day(
            problem.day_requirements, problem.agent_count, problem.weeks, problem.penalty_factor
        )
        return materialize_day(result.head_counts, problem.agent_count, problem.weeks), result.objective
    if isinstance(problem, ShiftPhaseSpec):
        result = oracles.exact_shift(
            problem.requirements.per_interval, problem.allocation.day_counts, problem.catalog
        )
        return materialize_shift(result.splits, problem.allocation), result.objective
    weeks = problem.week_partition()
    result = oracles.exact_single(
        problem.requirements.per_interval, problem.agent_count, weeks, problem.shift_catalog
    )
    allocation = materialize_day(result.head_counts, problem.agent_count, weeks)
    return materialize_shift(result.splits, allocation), result.objective


def weekday_micro():
    """1 agent, Mon-Fri needs one head all day: a perfectly solvable week."""
    grid = [[1, 1]] * 5 + [[0, 0]] * 2
    return scenario_from_grid(grid, agents=1, shifts=((0, 2),))


class TestDayPhase:
    def test_exact_backend_and_audit_model_agree(self):
        spec = DayPhaseSpec(
            day_requirements=np.array([3, 1, 2, 2, 1, 0, 1]),
            agent_count=2,
            weeks=ONE_WEEK,
            penalty_factor=1,
        )
        allocation, objective = solve_exact(spec)
        assert oracles.validate_day_allocation(allocation, 2, ONE_WEEK) == []
        assert oracles.audit_days(allocation.works, spec.day_requirements, 2, ONE_WEEK, 1) == (
            [],
            objective,
        )

    def test_local_backend_matches_exact_here(self):
        spec = DayPhaseSpec(
            day_requirements=np.array([4, 4, 1, 1, 4, 4, 2]),
            agent_count=3,
            weeks=ONE_WEEK,
            penalty_factor=0,
        )
        _, exact_objective = solve_exact(spec)
        local = solve_day_allocation(spec, SolveLimits(move_cap=10_000))
        assert local.objective == exact_objective

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="^horizon not a multiple of 7: got 3 days$"):
            DayPhaseSpec(np.array([1, 2, 3]), 1, ONE_WEEK)
        with pytest.raises(ValueError, match="week partition"):
            DayPhaseSpec(np.zeros(14), 1, ONE_WEEK)
        with pytest.raises(ValueError, match=re.escape(PENALTY_RULE + ", got -1")):
            DayPhaseSpec(np.zeros(7), 1, ONE_WEEK, penalty_factor=-1)

    def test_zero_week_horizon_refused(self):
        # it built, and solve_day_allocation then failed inside numpy
        with pytest.raises(ValueError, match="^horizon not a multiple of 7: got 0 days$"):
            DayPhaseSpec(np.zeros(0, dtype=np.int64), 1, 0)

    def test_bounds_that_keep_int64_exact(self):
        # 5e18 fits int64, but its marginals would wrap: the greedy then put
        # agents on the weekend, where (2, 2, 2, 2, 2, 0, 0) is right
        for r_week, refusal in (
            ([5 * 10**18] * 5 + [0, 0], f"interval requirement above {MAX_REQUIREMENT} at [0]"),
            ([-5 * 10**18] + [0] * 6, "negative interval requirement at [0]"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
                DayPhaseSpec(r_week, 2, ONE_WEEK)
        with pytest.raises(ValueError, match=f"agent_count must be at most {MAX_AGENTS}"):
            DayPhaseSpec(np.zeros(7), MAX_AGENTS + 1, ONE_WEEK)
        with pytest.raises(ValueError, match="agent_count must be non-negative"):
            DayPhaseSpec(np.zeros(7), -1, ONE_WEEK)
        spec = DayPhaseSpec([MAX_REQUIREMENT] * 5 + [0, 0], 2, ONE_WEEK)
        assert solve_day_allocation(spec, SolveLimits()).head_counts == (2, 2, 2, 2, 2, 0, 0)

    def test_penalty_beyond_max_refused(self):
        DayPhaseSpec(np.zeros(7), 1, ONE_WEEK, penalty_factor=phases.MAX_PENALTY)
        with pytest.raises(ValueError, match=re.escape(PENALTY_RULE + ", got 1000001")):
            DayPhaseSpec(np.zeros(7), 1, ONE_WEEK, penalty_factor=phases.MAX_PENALTY + 1)


class TestShiftPhase:
    def test_audit_model_agrees(self):
        grid = np.array(
            [[2, 1, 0, 1], [1, 1, 1, 1], [0, 2, 2, 0], [1, 0, 0, 1], [2, 2, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1]]
        )
        scn = scenario_from_grid(grid, agents=2, shifts=((0, 2), (2, 2), (1, 2)))
        allocation, _ = solve_exact(DayPhaseSpec(scn.requirements.per_day, 2, ONE_WEEK))
        spec = ShiftPhaseSpec(
            requirements=scn.requirements,
            allocation=allocation,
            catalog=scn.shift_catalog,
        )
        schedule, objective = solve_exact(spec)
        audit = oracles.audit_schedule(
            schedule.shifts, grid, scn.shift_catalog, ONE_WEEK, works=allocation.works
        )
        assert audit == ([], objective)

    def test_schedule_outside_allocation_rejected(self):
        scn = weekday_micro()
        allocation, _ = solve_exact(DayPhaseSpec(scn.requirements.per_day, 1, ONE_WEEK))
        spec = ShiftPhaseSpec(scn.requirements, allocation, scn.shift_catalog)
        schedule, _ = solve_exact(spec)
        off_day = int(np.nonzero(allocation.works[0] == 0)[0][0])
        shifts = schedule.shifts.copy()
        shifts[0, off_day] = 0
        problems, _ = oracles.audit_schedule(
            shifts, scn.requirements.per_interval, scn.shift_catalog, ONE_WEEK, allocation.works
        )
        assert problems == [
            "agent 0 works 6 days in week 0",
            f"agent 0 holds 1 shifts on day off {off_day}",
        ]

    def test_spec_validation(self):
        scn = weekday_micro()
        allocation, _ = solve_exact(DayPhaseSpec(scn.requirements.per_day, 1, ONE_WEEK))
        with pytest.raises(ValueError, match="interval grid"):
            ShiftPhaseSpec(scn.requirements, allocation, ShiftCatalog(((0, 3),), 3))
        two_weeks = materialize_day((1,) * 5 + (0, 0) + (1,) * 5 + (0, 0), 1, 2)
        with pytest.raises(ValueError, match="one head-count per day is required"):
            ShiftPhaseSpec(scn.requirements, two_weeks, scn.shift_catalog)

    def test_materialize_day_refuses_a_partial_horizon_by_the_week_rule(self):
        # an empty horizon failed inside numpy's minimum
        with pytest.raises(ValueError, match="^horizon not a multiple of 7: got 0 days$"):
            materialize_day((), 5, 0)
        with pytest.raises(ValueError, match="^horizon not a multiple of 7: got 3 days$"):
            materialize_day((1, 1, 1), 1, ONE_WEEK)

    def test_negative_shift_count_refused(self):
        allocation = materialize_day((1,) * 5 + (0, 0), 1, ONE_WEEK)
        with pytest.raises(ValueError, match="negative shift count"):
            materialize_shift([(2, -1)] + [(1, 0)] * 4 + [(0, 0)] * 2, allocation)


class TestSinglePhase:
    def test_perfect_week_solves_to_zero(self):
        scn = weekday_micro()
        result = solve_single_phase(scn, SolveLimits(move_cap=5000))
        assert result.objective == 0
        assert deviation(scn, result.schedule) == 0
        assert str(result.status) == "SolveStatus.OPTIMAL"

    def test_audit_model_agrees(self):
        grid = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1], [0, 0, 0], [2, 1, 0], [0, 1, 2]])
        scn = scenario_from_grid(grid, agents=2, shifts=((0, 2), (1, 2)))
        schedule, objective = solve_exact(scn)
        assert oracles.audit_schedule(schedule.shifts, grid, scn.shift_catalog, ONE_WEEK) == (
            [],
            objective,
        )

    def test_invalid_scenario_refused(self):
        scn = weekday_micro()
        with pytest.raises(ValueError, match="invalid scenario"):
            Scenario(
                name=scn.name,
                days=scn.days[:6],
                agent_count=scn.agent_count,
                shift_catalog=scn.shift_catalog,
                requirements=scn.requirements,
            )


class TestAudits:
    """The per-agent audit flags each broken constraint and prices by hand."""

    WORKS = [[1, 1, 1, 1, 1, 0, 0], [0, 0, 1, 1, 1, 1, 1]]
    CATALOG = ShiftCatalog(((0, 1), (1, 1)), 2)

    def test_four_workdays_flagged(self):
        works = [[1, 1, 1, 1, 1, 0, 0], [0, 0, 1, 1, 1, 1, 0]]
        assert oracles.audit_days(works, [0] * 7, 2, ONE_WEEK, 0)[0] == [
            "agent 1 works 4 days in week 0"
        ]
        shifts = [[0, 0, 0, 0, OFF, OFF, OFF]]
        assert oracles.audit_schedule(shifts, [[0, 0]] * 7, self.CATALOG, ONE_WEEK)[0] == [
            "agent 0 works 4 days in week 0"
        ]

    def test_working_day_without_shift_flagged(self):
        shifts = [[0, 0, 0, 0, 0, OFF, OFF], [OFF, OFF, 0, OFF, 0, 0, 0]]
        problems, _ = oracles.audit_schedule(
            shifts, [[0, 0]] * 7, self.CATALOG, ONE_WEEK, works=self.WORKS
        )
        assert problems == [
            "agent 1 works 4 days in week 0",
            "agent 1 holds 0 shifts on working day 3",
        ]

    def test_day_objective_by_hand(self):
        # head-counts P = (1, 1, 2, 2, 2, 1, 1) against R = (2, 0, 2, 3, 2, 1, 0);
        # with K = 2, each day of one idle agent adds (2 * 1)^2
        audit = oracles.audit_days(self.WORKS, [2, 0, 2, 3, 2, 1, 0], 2, ONE_WEEK, 2)
        assert audit == ([], (1 + 1 + 0 + 1 + 0 + 0 + 1) + 4 * 2**2)

    def test_schedule_objective_by_hand(self):
        shifts = [[0, 1, 0, 1, 0, OFF, OFF]]
        r_dt = [[1, 0], [1, 1], [0, 0], [0, 1], [3, 0], [0, 0], [1, 0]]
        audit = oracles.audit_schedule(shifts, r_dt, self.CATALOG, ONE_WEEK, works=[self.WORKS[0]])
        assert audit == ([], 0 + 1 + 1 + 0 + (3 - 1) ** 2 + 0 + 1)


# 16 agents, 12 shifts: uncapped, the shift descent prices 979 swaps, so a
# cap of 800 stops it early, and caps of 500, 900 and 1000 end elsewhere
CAPPED_GRID = [
    [4, 0, 6, 1, 9, 2, 4, 5, 4, 5, 8, 4],
    [3, 4, 7, 5, 4, 9, 2, 4, 9, 8, 5, 0],
    [5, 3, 9, 5, 5, 6, 4, 2, 5, 3, 8, 9],
    [4, 6, 1, 5, 1, 0, 2, 0, 8, 2, 9, 1],
    [6, 9, 1, 0, 2, 3, 4, 0, 0, 6, 0, 0],
    [3, 0, 1, 0, 4, 2, 8, 5, 3, 8, 1, 2],
    [1, 2, 4, 8, 3, 7, 8, 1, 7, 8, 3, 8],
]
CAPPED_SHIFTS = tuple((s, 4) for s in range(9)) + ((0, 6), (6, 6), (3, 6))


def capped_scenario():
    return scenario_from_grid(CAPPED_GRID, agents=16, shifts=CAPPED_SHIFTS)


class TestMultiPhase:
    def test_budget_split(self):
        # one multi solve at 1000 moves is the exact day phase, then the shift
        # phase at the 800 moves left; a different split ends elsewhere
        scn = capped_scenario()
        day = solve_day_allocation(
            DayPhaseSpec(scn.requirements.per_day, 16, ONE_WEEK), SolveLimits(move_cap=200)
        )
        spec = ShiftPhaseSpec(scn.requirements, day.allocation, scn.shift_catalog)
        shift = solve_shift_allocation(spec, SolveLimits(move_cap=800))
        assert shift.splits != solve_shift_allocation(spec, SolveLimits(move_cap=1000)).splits
        result = solve_multi_phase(scn, SolveLimits(move_cap=1000))
        assert result.head_counts == day.head_counts
        assert result.splits == shift.splits
        assert result.trace == shift.trace
        assert np.array_equal(result.schedule.shifts, shift.schedule.shifts)
        assert result.evaluations == day.evaluations + shift.evaluations == 737

    def test_schedule_respects_day_allocation(self):
        grid = np.array(
            [[2, 1, 0, 1], [1, 1, 1, 1], [0, 2, 2, 0], [1, 0, 0, 1], [2, 2, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1]]
        )
        scn = scenario_from_grid(grid, agents=3, shifts=((0, 2), (2, 2)))
        result = solve_multi_phase(scn, SolveLimits(move_cap=5000), penalty_factor=1)
        alloc = result.allocation
        assert np.array_equal(result.schedule.shifts != OFF, alloc.works == 1)
        # head-count conservation: coverage equals the day allocation per day
        cov = coverage_from_schedule(result.schedule, scn.shift_catalog)
        assert cov.per_day.tolist() == alloc.day_counts.tolist()
        assert (
            validate_schedule(
                result.schedule,
                agent_count=3,
                day_count=7,
                catalog=scn.shift_catalog,
                weeks=ONE_WEEK,
            )
            == []
        )

    def test_objective_is_shift_phase_objective(self):
        scn = weekday_micro()
        result = solve_multi_phase(scn, SolveLimits(move_cap=1000))
        assert result.objective == deviation(scn, result.schedule) == 0

    def test_runtime_and_evaluations_are_sums(self, monkeypatch):
        calls = []
        for name in ("solve_day_allocation", "solve_shift_allocation"):

            def spy(spec, limits, solve=getattr(phases, name)):
                calls.append((limits, solve(spec, limits)))
                return calls[-1][1]

            monkeypatch.setattr(phases, name, spy)
        result = solve_multi_phase(capped_scenario(), SolveLimits(move_cap=1000))
        (day_limits, day), (shift_limits, shift) = calls
        # the day phase spends nothing, so it takes the budget as given
        assert (day_limits.move_cap, shift_limits.move_cap) == (1000, 800)
        assert result.evaluations == day.evaluations + shift.evaluations
        assert result.runtime_seconds == day.runtime_seconds + shift.runtime_seconds
