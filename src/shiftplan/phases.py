"""The three scheduling formulations, one solve each, and their orchestration.

``solve_day_allocation`` matches per-day head-counts against per-day peak
requirements (with an optional idle-day penalty), exactly.
``solve_shift_allocation`` splits each day's working agents over the shifts
against the interval-level objective, and ``solve_single_phase`` chooses days
and shifts jointly against it.  ``solve_multi_phase`` runs the day phase and
then the shift phase on its working days.  The budget is split between the
phases, ``DAY_SHARE`` to the day phase, which spends none of it, and the
rest to the shift phase.

Every solve returns a ``solvers.SearchResult`` with its expansion filled in:
the day phase's ``allocation`` feeds the shift phase, which carries the
``schedule``, and a multi solve returns the shift phase's record with both
phases' evaluations and runtime.  Each input is checked once, when it is
built: a spec checks its own fields, and a ``Scenario`` cannot be built
invalid, so the single and multi solves take it as it is.

``interval_objective_value`` recomputes the interval objective from a
coverage grid; reports use it so no reported number rests on the search.
"""

from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    DAYS_PER_WEEK,
    DayAllocation,
    RequirementMatrix,
    Scenario,
    ShiftCatalog,
    WeekPartition,
    frozen_grid,
)
from .model import Deadline, SolveLimits, SolveStatus
from .solvers import (
    SearchResult,
    _day_kernels,
    _descend_days,
    _week_head_counts,
    day_head_counts,
    day_term,
    materialize_day,
    materialize_shift,
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
        if self.agent_count < 0:
            raise ValueError("agent_count must be non-negative")
        if self.penalty_factor < 0:
            raise ValueError("penalty_factor must be non-negative")
        r = self.day_requirements
        if r.ndim != 1 or r.shape[0] != self.weeks.count * DAYS_PER_WEEK:
            raise ValueError("day requirements do not match the week partition")


@dataclass(frozen=True)
class ShiftPhaseSpec:
    """Inputs of the shift-allocation phase: interval needs plus fixed days."""

    requirements: RequirementMatrix
    allocation: DayAllocation
    catalog: ShiftCatalog

    def __post_init__(self):
        r = self.requirements.per_interval
        if len(self.allocation.day_counts) != r.shape[0]:
            raise ValueError("one head-count per day is required")
        problems = self.catalog.validate() + self.requirements.validate()
        if problems:
            raise ValueError("; ".join(problems))
        if self.catalog.intervals_per_day != r.shape[1]:
            raise ValueError("catalog interval grid differs from requirements")


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def solve_day_allocation(spec: DayPhaseSpec, limits: SolveLimits) -> SearchResult:
    """The exact day allocation of ``spec`` (``day_head_counts``), with its
    per-agent working days; it spends none of ``limits``."""
    deadline = Deadline(limits)
    r, agents, k = spec.day_requirements, spec.agent_count, spec.penalty_factor
    head_counts = day_head_counts(r, agents, spec.weeks, k)
    objective = sum(day_term(req, n, agents, k) for req, n in zip(r.tolist(), head_counts))
    runtime = deadline.elapsed()
    allocation = materialize_day(head_counts, agents, spec.weeks)
    return SearchResult(
        SolveStatus.OPTIMAL, objective, head_counts, None, (objective,), 0, runtime, allocation
    )


def solve_shift_allocation(spec: ShiftPhaseSpec, limits: SolveLimits) -> SearchResult:
    """Each day's greedy split at its head-count, improved by swap descent,
    with the schedule on ``spec``'s working days."""
    deadline = Deadline(limits)
    n_d = [int(n) for n in spec.allocation.day_counts]
    kernels = _day_kernels(spec.requirements.per_interval, spec.catalog, n_d)
    result = _descend_days(kernels, n_d, deadline)
    schedule = materialize_shift(result.splits, spec.allocation)
    return replace(result, allocation=spec.allocation, schedule=schedule)


def solve_single_phase(scenario: Scenario, limits: SolveLimits) -> SearchResult:
    """Joint day-and-shift choice over the per-day greedy tables.

    The greedy values ``f_d(n)`` are convex in ``n``, so taking each week's
    5A cheapest increments (at most A per day) is optimal over those tables.
    The chosen splits are then descended.
    """
    weeks, agents = scenario.week_partition(), scenario.agent_count
    deadline = Deadline(limits)
    r, catalog = scenario.requirements.per_interval, scenario.shift_catalog
    kernels = _day_kernels(r, catalog, [agents] * scenario.num_days)
    head_counts = _week_head_counts([k.marginals for k in kernels], agents, weeks)
    result = _descend_days(kernels, head_counts, deadline)
    allocation = materialize_day(head_counts, agents, weeks)
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
