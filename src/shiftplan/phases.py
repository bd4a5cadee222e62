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

Each solve also has an explicit integer-model builder so results can be
audited independently of the search path: rebuild the model, plug in the
returned assignment, and re-check feasibility and objective.
"""

from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    DAYS_PER_WEEK,
    OFF,
    WORKDAYS_PER_WEEK,
    DayAllocation,
    RequirementMatrix,
    Scenario,
    Schedule,
    ShiftCatalog,
    WeekPartition,
    frozen_grid,
    require_valid,
)
from .model import (
    IntegerModel,
    LinearConstraint,
    LinExpr,
    QuadraticObjective,
    SolveLimits,
)
from .solvers import (
    SearchResult,
    _check_day_inputs,
    _check_shift_inputs,
    day_term,
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
# objective recomputation helpers
# ---------------------------------------------------------------------------


def day_objective_value(r_day, day_counts, agent_count: int, penalty_factor: int) -> int:
    """Day-phase objective recomputed from scratch."""
    r = [int(x) for x in r_day]
    p = [int(x) for x in day_counts]
    if len(r) != len(p):
        raise ValueError("requirement and head-count lengths differ")
    return sum(day_term(r[d], p[d], agent_count, penalty_factor) for d in range(len(r)))


def interval_objective_value(r_dt, p_dt) -> int:
    """Interval-phase objective recomputed from scratch."""
    r = np.asarray(r_dt, dtype=np.int64)
    p = np.asarray(p_dt, dtype=np.int64)
    if r.shape != p.shape:
        raise ValueError("requirement and coverage shapes differ")
    return squared_norm(r - p)


# ---------------------------------------------------------------------------
# auditable integer models
# ---------------------------------------------------------------------------


def build_day_model(spec: DayPhaseSpec) -> IntegerModel:
    """Per-agent binary model of the day phase."""
    A, weeks = spec.agent_count, spec.weeks
    D = weeks.count * DAYS_PER_WEEK
    variables = tuple(
        (f"x[{a},{d}]", 0, 1) for a in range(A) for d in range(D)
    )
    constraints = []
    for a in range(A):
        for w in range(weeks.count):
            terms = {f"x[{a},{d}]": 1 for d in weeks.days_of(w)}
            constraints.append(
                LinearConstraint(
                    terms, "=", WORKDAYS_PER_WEEK, label=f"workdays a{a} w{w}"
                )
            )
    squared = []
    for d in range(D):
        squared.append(
            LinExpr({f"x[{a},{d}]": -1 for a in range(A)}, int(spec.day_requirements[d]))
        )
        if spec.penalty_factor:
            squared.append(
                LinExpr(
                    {f"x[{a},{d}]": -spec.penalty_factor for a in range(A)},
                    spec.penalty_factor * A,
                )
            )
    return IntegerModel(variables, tuple(constraints), QuadraticObjective(tuple(squared)))


def build_shift_model(spec: ShiftPhaseSpec) -> IntegerModel:
    """Per-agent binary model of the shift phase (working pairs only)."""
    pairs = spec.allocation.pairs()
    S = len(spec.catalog)
    variables = tuple(
        (f"x[{a},{d},{s}]", 0, 1) for a, d in pairs for s in range(S)
    )
    constraints = []
    for a, d in pairs:
        terms = {f"x[{a},{d},{s}]": 1 for s in range(S)}
        constraints.append(
            LinearConstraint(terms, "=", 1, label=f"one shift a{a} d{d}")
        )
    works = spec.allocation.works
    by_day = [np.nonzero(works[:, d])[0].tolist() for d in range(works.shape[1])]
    for d in range(spec.requirements.days):
        agents = by_day[d]
        terms = {f"x[{a},{d},{s}]": 1 for a in agents for s in range(S)}
        constraints.append(
            LinearConstraint(
                terms, "=", int(spec.allocation.day_counts[d]), label=f"head-count d{d}"
            )
        )
    squared = []
    cov = spec.catalog.coverage
    for d in range(spec.requirements.days):
        agents = by_day[d]
        for t in range(spec.requirements.intervals):
            terms = {
                f"x[{a},{d},{s}]": -1
                for a in agents
                for s in range(S)
                if cov[s, t]
            }
            squared.append(LinExpr(terms, int(spec.requirements.per_interval[d, t])))
    return IntegerModel(variables, tuple(constraints), QuadraticObjective(tuple(squared)))


def build_single_model(scenario: Scenario) -> IntegerModel:
    """Per-agent binary model of the joint formulation."""
    A, D = scenario.agent_count, scenario.num_days
    S = len(scenario.shift_catalog)
    weeks = scenario.week_partition()
    variables = tuple(
        (f"x[{a},{d},{s}]", 0, 1)
        for a in range(A)
        for d in range(D)
        for s in range(S)
    )
    constraints = []
    for a in range(A):
        for w in range(weeks.count):
            terms = {
                f"x[{a},{d},{s}]": 1 for d in weeks.days_of(w) for s in range(S)
            }
            constraints.append(
                LinearConstraint(
                    terms, "=", WORKDAYS_PER_WEEK, label=f"workdays a{a} w{w}"
                )
            )
    for a in range(A):
        for d in range(D):
            terms = {f"x[{a},{d},{s}]": 1 for s in range(S)}
            constraints.append(
                LinearConstraint(terms, "<=", 1, label=f"one shift a{a} d{d}")
            )
    squared = []
    cov = scenario.shift_catalog.coverage
    for d in range(D):
        for t in range(scenario.intervals_per_day):
            terms = {
                f"x[{a},{d},{s}]": -1
                for a in range(A)
                for s in range(S)
                if cov[s, t]
            }
            squared.append(
                LinExpr(terms, int(scenario.requirements.per_interval[d, t]))
            )
    return IntegerModel(variables, tuple(constraints), QuadraticObjective(tuple(squared)))


def allocation_values(allocation: DayAllocation) -> dict:
    """Variable assignment of a day allocation for ``build_day_model``."""
    return {
        f"x[{a},{d}]": int(allocation.works[a, d])
        for a in range(allocation.agent_count)
        for d in range(allocation.num_days)
    }


def _cell_values(grid: np.ndarray, cells, shift_count: int) -> dict:
    """``x[a,d,s]`` for each (a, d) of ``cells``: 1 where agent a has shift s on day d."""
    return {f"x[{a},{d},{s}]": int(grid[a, d] == s) for a, d in cells for s in range(shift_count)}


def schedule_values_shift(schedule: Schedule, spec: ShiftPhaseSpec) -> dict:
    """Variable assignment of a schedule for ``build_shift_model``."""
    grid = schedule.shifts
    outside = np.argwhere((grid != OFF) & (spec.allocation.works == 0))
    if len(outside):
        a, d = outside[0]
        raise ValueError(f"schedule assigns agent {a} on day {d} outside the day allocation")
    return _cell_values(grid, spec.allocation.pairs(), len(spec.catalog))


def schedule_values_single(schedule: Schedule, scenario: Scenario) -> dict:
    """Variable assignment of a schedule for ``build_single_model``."""
    grid = schedule.shifts
    A, D, S = scenario.agent_count, scenario.num_days, len(scenario.shift_catalog)
    if grid.shape != (A, D):
        raise ValueError(f"schedule grid is {grid.shape}, the scenario has {A} agents x {D} days")
    return _cell_values(grid, np.ndindex(A, D), S)
