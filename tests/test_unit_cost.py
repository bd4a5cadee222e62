"""The single and shift phases cross-checked against the exhaustive oracle,
the per-agent audit and the report, on seeded one-week micro instances.

No shift carries a price: every objective is an exact integer, so all of them
are compared with ``==``.
"""

import random

import numpy as np
import pytest

from shiftplan.domain import Scenario, build_week_partition, coverage_from_schedule
from shiftplan.metrics import build_report
from shiftplan.phases import (
    ShiftPhaseSpec,
    SolveLimits,
    interval_objective_value,
    materialize_day,
    materialize_shift,
    solve_shift_allocation,
    solve_single_phase,
)
from shiftplan.scenario_io import record_to_dict

import oracles
from oracles import scenario_from_grid

ONE_WEEK = build_week_partition(7)
LOCAL = SolveLimits(move_cap=10_000)


def micro_instance(rng: random.Random) -> Scenario:
    """A one-week scenario of 1-2 agents and 1-3 shifts."""
    width = rng.randint(2, 4)
    starts = rng.sample(range(width), rng.randint(1, min(3, width)))
    shifts = tuple((s, rng.randint(1, width - s)) for s in sorted(starts))
    grid = np.array([[rng.randint(0, 3) for _ in range(width)] for _ in range(7)])
    return scenario_from_grid(grid, rng.randint(1, 2), shifts, name="micro")


def deviation(scenario, schedule):
    coverage = coverage_from_schedule(schedule, scenario.shift_catalog)
    return interval_objective_value(scenario.requirements.per_interval, coverage.per_interval)


class TestPricedCrossCheck:
    @pytest.mark.parametrize("seed", range(48))
    def test_local_against_exact_model_and_report(self, seed):
        scn = micro_instance(random.Random(seed))
        r, A, cat = scn.requirements.per_interval, scn.agent_count, scn.shift_catalog
        exact_single = oracles.exact_single(r, A, ONE_WEEK, cat)
        local_single = solve_single_phase(scn, LOCAL)
        assert local_single.objective >= exact_single.objective
        # the shift phase on the optimal joint head-counts
        head_counts = exact_single.head_counts
        exact_shift = oracles.exact_shift(r, head_counts, cat)
        allocation = materialize_day(head_counts, A, ONE_WEEK)
        spec = ShiftPhaseSpec(scn.requirements, allocation, cat)
        local_shift = solve_shift_allocation(spec, LOCAL)
        assert local_shift.objective >= exact_shift.objective
        assert exact_shift.objective == exact_single.objective
        for result in (exact_single, local_single, exact_shift, local_shift):
            allocation = materialize_day(result.head_counts, A, ONE_WEEK)
            schedule = materialize_shift(result.splits, allocation)
            audit = oracles.audit_schedule(schedule.shifts, r, cat, ONE_WEEK)
            assert audit == ([], result.objective)
            report = build_report(scn, schedule, "single", seed=0, runtime_seconds=0.0)
            assert report.objective_value == deviation(scn, schedule) == result.objective


class TestReport:
    def test_cost_value_is_zero(self):
        scn = micro_instance(random.Random(3))
        schedule = solve_single_phase(scn, LOCAL).schedule
        report = build_report(scn, schedule, "single", seed=0, runtime_seconds=0.0)
        assert record_to_dict(report)["cost_value"] == 0.0
        assert report.objective_value == deviation(scn, schedule)
