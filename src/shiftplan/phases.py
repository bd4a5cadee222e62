"""The three scheduling formulations and their orchestration.

``solve_single_phase`` assigns days and shifts jointly against the
interval-level objective.  ``solve_multi_phase`` splits the work: a day
allocation matched against per-day peak requirements (with an optional
idle-day penalty), then a shift allocation for the fixed working days.
The budget is split between the phases, ``DAY_SHARE`` to the day phase,
which is exact and spends none of it, and the rest to the shift phase.

Every solve returns the solver's ``SearchResult`` with its expansion filled
in: the day phase's ``allocation`` feeds the shift phase, which carries the
``schedule``, and a multi solve returns the shift phase's record with both
phases' evaluations and runtime.

``interval_objective_value`` recomputes the interval objective from a
coverage grid; reports use it so no reported number rests on the search.
"""

from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    DayAllocation,
    RequirementMatrix,
    Scenario,
    ShiftCatalog,
    WeekPartition,
    frozen_grid,
    require_valid,
)
from .model import SolveLimits
from .solvers import (
    SearchResult,
    _check_day_inputs,
    _check_shift_inputs,
    materialize_day,
    materialize_shift,
    solve_local_day,
    solve_local_shift,
    solve_local_single,
    squared_norm,
)

# The day phase's share of a multi solve's budget.  perfbench/traced.py copies
# the value to replay the CLI byte for byte, so the two change together
# (ROADMAP item 2).
DAY_SHARE = 0.2


# ---------------------------------------------------------------------------
# phase specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DayPhaseSpec:
    """Inputs of the day-allocation phase."""

    day_requirements: np.ndarray  # per-day peak head-counts R_D
    agent_count: int
    weeks: WeekPartition
    penalty_factor: int = 0

    def __post_init__(self):
        object.__setattr__(self, "day_requirements", frozen_grid(self.day_requirements))
        _check_day_inputs(self.day_requirements, self.agent_count, self.weeks, self.penalty_factor)


@dataclass(frozen=True)
class ShiftPhaseSpec:
    """Inputs of the shift-allocation phase: interval needs plus fixed days."""

    requirements: RequirementMatrix
    allocation: DayAllocation
    catalog: ShiftCatalog

    def __post_init__(self):
        _check_shift_inputs(
            self.requirements.per_interval, self.allocation.day_counts, self.catalog
        )


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def solve_day_allocation(spec: DayPhaseSpec, limits: SolveLimits) -> SearchResult:
    """The day solve of ``spec``, with its per-agent working days."""
    result = solve_local_day(
        spec.day_requirements, spec.agent_count, spec.weeks, spec.penalty_factor, limits
    )
    return replace(
        result, allocation=materialize_day(result.head_counts, spec.agent_count, spec.weeks)
    )


def solve_shift_allocation(spec: ShiftPhaseSpec, limits: SolveLimits) -> SearchResult:
    """The shift solve on ``spec``'s working days, with its schedule."""
    result = solve_local_shift(
        spec.requirements.per_interval,
        [int(n) for n in spec.allocation.day_counts],
        spec.catalog,
        limits,
    )
    schedule = materialize_shift(result.splits, spec.allocation)
    return replace(result, allocation=spec.allocation, schedule=schedule)


def solve_single_phase(scenario: Scenario, limits: SolveLimits) -> SearchResult:
    """Joint day-and-shift assignment against interval-level deviations."""
    require_valid(scenario)
    weeks = scenario.week_partition()
    result = solve_local_single(
        scenario.requirements.per_interval,
        scenario.agent_count,
        weeks,
        scenario.shift_catalog,
        limits,
    )
    allocation = materialize_day(result.head_counts, scenario.agent_count, weeks)
    return replace(
        result, allocation=allocation, schedule=materialize_shift(result.splits, allocation)
    )


def solve_multi_phase(
    scenario: Scenario, limits: SolveLimits, penalty_factor: int = 0
) -> SearchResult:
    """Day allocation against daily peaks, then shift allocation within days.

    The day phase gets ``limits.scaled(DAY_SHARE)`` and the shift phase the
    rest.  The record is the shift phase's, whose ``head_counts`` are the day
    phase's, with ``evaluations`` and ``runtime_seconds`` summed over both.
    """
    require_valid(scenario)
    day = solve_day_allocation(
        DayPhaseSpec(
            day_requirements=scenario.requirements.per_day,
            agent_count=scenario.agent_count,
            weeks=scenario.week_partition(),
            penalty_factor=penalty_factor,
        ),
        limits.scaled(DAY_SHARE),
    )
    shift = solve_shift_allocation(
        ShiftPhaseSpec(scenario.requirements, day.allocation, scenario.shift_catalog),
        limits.scaled(1.0 - DAY_SHARE),
    )
    return replace(
        shift,
        evaluations=day.evaluations + shift.evaluations,
        runtime_seconds=day.runtime_seconds + shift.runtime_seconds,
    )


# ---------------------------------------------------------------------------
# objective recomputation
# ---------------------------------------------------------------------------


def interval_objective_value(r_dt, p_dt) -> int:
    """Interval-phase objective recomputed from scratch."""
    r = np.asarray(r_dt, dtype=np.int64)
    p = np.asarray(p_dt, dtype=np.int64)
    if r.shape != p.shape:
        raise ValueError("requirement and coverage shapes differ")
    return squared_norm(r - p)
