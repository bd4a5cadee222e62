"""The unit-cost grid: priced solves against the exact enumerators, the
per-agent audit model and the report.

Costs are multiples of 0.5, so every sum of them is exact in floating point
and objectives can be compared with ``==``.
"""

import random
from datetime import date, timedelta

import numpy as np
import pytest

from shiftplan.domain import (
    OFF,
    RequirementMatrix,
    Scenario,
    ShiftCatalog,
    build_week_partition,
    coverage_from_schedule,
    unit_cost_grid,
)
from shiftplan.metrics import build_report
from shiftplan.model import SolveLimits, check_feasible, evaluate_objective
from shiftplan.phases import (
    build_single_model,
    interval_objective_value,
    schedule_values_single,
    solve_single_phase,
)
from shiftplan.solvers import (
    materialize_day,
    materialize_shift,
    solve_exact_shift,
    solve_exact_single,
    solve_local_shift,
    solve_local_single,
)

ONE_WEEK = build_week_partition(7)
EXACT = SolveLimits()
LOCAL = SolveLimits(move_cap=10_000)


def micro_instance(rng: random.Random):
    """A one-week scenario of 1-2 agents and 1-3 shifts, with a unit-cost grid
    in multiples of 0.5 (some cells free)."""
    width = rng.randint(2, 4)
    starts = rng.sample(range(width), rng.randint(1, min(3, width)))
    shifts = tuple((s, rng.randint(1, width - s)) for s in sorted(starts))
    grid = np.array([[rng.randint(0, 3) for _ in range(width)] for _ in range(7)])
    scenario = Scenario(
        name="micro",
        days=tuple(date(2024, 1, 1) + timedelta(days=i) for i in range(7)),
        intervals_per_day=width,
        agent_count=rng.randint(1, 2),
        shift_catalog=ShiftCatalog(shifts, width),
        requirements=RequirementMatrix.from_interval_grid(grid),
    )
    unit_cost = np.array([[rng.randint(0, 6) / 2 for _ in shifts] for _ in range(7)])
    return scenario, unit_cost


def schedule_cost(schedule, unit_cost):
    """``unit_cost[d, s]`` summed over the working cells, one cell at a time."""
    agents, days = schedule.shifts.shape
    return sum(
        float(unit_cost[d, schedule.shifts[a, d]])
        for a in range(agents)
        for d in range(days)
        if schedule.shifts[a, d] != OFF
    )


def deviation(scenario, schedule):
    coverage = coverage_from_schedule(schedule, scenario.shift_catalog)
    return interval_objective_value(scenario.requirements.per_interval, coverage.per_interval)


class TestPricedCrossCheck:
    @pytest.mark.parametrize("seed", range(48))
    def test_local_against_exact_model_and_report(self, seed):
        scn, unit_cost = micro_instance(random.Random(seed))
        r, A, cat = scn.requirements.per_interval, scn.agent_count, scn.shift_catalog
        model = build_single_model(scn, unit_cost)
        exact_single = solve_exact_single(r, A, ONE_WEEK, cat, EXACT, unit_cost)
        local_single = solve_local_single(r, A, ONE_WEEK, cat, LOCAL, unit_cost)
        assert local_single.objective >= exact_single.objective
        # the shift phase on the optimal joint head-counts
        head_counts = exact_single.head_counts
        exact_shift = solve_exact_shift(r, head_counts, cat, EXACT, unit_cost)
        local_shift = solve_local_shift(r, head_counts, cat, LOCAL, unit_cost)
        assert local_shift.objective >= exact_shift.objective
        assert exact_shift.objective == exact_single.objective
        for result in (exact_single, local_single, exact_shift, local_shift):
            allocation = materialize_day(result.head_counts, A, ONE_WEEK)
            schedule = materialize_shift(result.splits, allocation)
            values = schedule_values_single(schedule, scn)
            assert check_feasible(model, values) == []
            assert evaluate_objective(model, values) == result.objective
            report = build_report(
                scn, schedule, "single", seed=0, runtime_seconds=0.0, unit_cost=unit_cost
            )
            assert report.cost_value == schedule_cost(schedule, unit_cost)
            assert report.objective_value == deviation(scn, schedule) + report.cost_value
            assert report.objective_value == result.objective

    def test_phase_solve_uses_the_grid(self):
        scn, unit_cost = micro_instance(random.Random(7))
        result = solve_single_phase(scn, LOCAL, unit_cost=unit_cost)
        assert result.objective == deviation(scn, result.schedule) + schedule_cost(
            result.schedule, unit_cost
        )


class TestGrid:
    def test_missing_cost_is_zero(self):
        scn, unit_cost = micro_instance(random.Random(3))
        schedule = solve_single_phase(scn, LOCAL).schedule
        report = build_report(scn, schedule, "single", seed=0, runtime_seconds=0.0)
        assert report.cost_value == 0.0
        assert report.objective_value == deviation(scn, schedule)
        # priced only where nobody works: still free
        idle = np.zeros_like(unit_cost)
        works = np.zeros(unit_cost.shape, dtype=bool)
        for a, d in zip(*np.nonzero(schedule.shifts != OFF)):
            works[d, schedule.shifts[a, d]] = True
        idle[~works] = 4.5
        priced = build_report(
            scn, schedule, "single", seed=0, runtime_seconds=0.0, unit_cost=idle
        )
        assert priced.cost_value == 0.0

    def test_copy_is_read_only(self):
        source = np.ones((7, 2))
        grid = unit_cost_grid(source, 7, 2)
        source[0, 0] = 5.0
        assert grid[0, 0] == 1.0 and not grid.flags.writeable
        assert unit_cost_grid(None, 7, 2) is None

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.full((7, 2), -0.5), "negative unit cost"),
            (np.ones((7, 3)), "days x shifts"),
            (np.ones((2, 7, 2)), "days x shifts"),
            (np.where(np.eye(7, 2) > 0, np.nan, 1.0), "finite"),
            (np.where(np.eye(7, 2) > 0, np.inf, 1.0), "finite"),
        ],
    )
    def test_rejected_everywhere(self, bad, message):
        scn = Scenario(
            name="week",
            days=tuple(date(2024, 1, 1) + timedelta(days=i) for i in range(7)),
            intervals_per_day=2,
            agent_count=1,
            shift_catalog=ShiftCatalog(((0, 2), (0, 1)), 2),
            requirements=RequirementMatrix.from_interval_grid(np.ones((7, 2), dtype=np.int64)),
        )
        r, cat = scn.requirements.per_interval, scn.shift_catalog
        schedule = solve_single_phase(scn, LOCAL).schedule
        calls = (
            lambda: solve_single_phase(scn, LOCAL, unit_cost=bad),
            lambda: solve_local_shift(r, [1] * 7, cat, LOCAL, bad),
            lambda: solve_exact_shift(r, [1] * 7, cat, EXACT, bad),
            lambda: solve_exact_single(r, 1, ONE_WEEK, cat, EXACT, bad),
            lambda: build_single_model(scn, bad),
            lambda: build_report(scn, schedule, "single", seed=0, runtime_seconds=0.0, unit_cost=bad),
        )
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
