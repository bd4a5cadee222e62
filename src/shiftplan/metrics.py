"""Evaluation indices, the KL divergence of day profiles, and report assembly.

The two deviation indices are reporting-only measures (absolute deviations,
not the squared objectives the solvers minimize): the day-level index sums
|required - scheduled| over days, the interval-level one over every
(day, interval) cell.  ``kl_divergence`` scores a scheduled day profile
against the required one; the report carries it and the penalty sweep
(``tuner``) ranks each K by it.  ``build_report`` recomputes everything from
the raw schedule so no number in a report depends on solver bookkeeping.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import Scenario, Schedule, coverage_from_schedule, validate_schedule
from .phases import (
    SearchResult,
    SolveLimits,
    SolveStatus,
    deviation,
    interval_objective_value,
    solve_multi_phase,
    solve_single_phase,
)
from .presets import DEFAULT_PENALTY_FACTOR

DEFAULT_EPSILON = 1e-9


def _absolute_deviation(required, scheduled) -> int:
    return int(np.abs(deviation(required, scheduled)).sum())


def dvdi(day_requirements, day_coverage) -> int:
    """Day-level absolute deviation: sum over days of |required - scheduled|."""
    return _absolute_deviation(day_requirements, day_coverage)


def ivdi(interval_requirements, interval_coverage) -> int:
    """Interval-level absolute deviation across every (day, interval) cell."""
    return _absolute_deviation(interval_requirements, interval_coverage)


def kl_divergence(scheduled, required, epsilon: float = DEFAULT_EPSILON) -> float:
    """D(scheduled shares || required shares), natural log, 0*log(0) = 0.

    Each count vector is normalized to sum 1 here.  Vectors of unequal
    length, a negative or non-finite count, a zero total, and an ``epsilon``
    that is not finite and non-negative are refused with a ``ValueError``.
    The epsilon only smooths the denominator: scheduled mass sitting where
    ``required share + epsilon`` is zero yields ``inf``.
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    shares = []
    for kind, counts in (("scheduled", scheduled), ("required", required)):
        values = np.asarray(counts, dtype=np.float64)
        if not (np.isfinite(values).all() and (values >= 0).all()):
            raise ValueError(f"{kind} head-counts must be finite and non-negative")
        mass = values.sum()
        if mass <= 0:
            raise ValueError(f"cannot normalize: total {kind} head-count is zero")
        shares.append((values / mass).tolist())
    if len(shares[0]) != len(shares[1]):
        raise ValueError("scheduled and required head-counts differ in length")
    total = 0.0
    for lam, alpha in zip(*shares):
        if lam == 0.0:
            continue
        denom = alpha + epsilon
        if denom == 0.0:
            return math.inf
        total += lam * math.log(lam / denom)
    return total


@dataclass(frozen=True)
class SolveReport:
    """Everything recomputable about one solved schedule."""

    scenario: str
    mode: str  # "single" or "multi"
    status: str
    seed: int
    agents: int
    days: int
    intervals_per_day: int
    shifts: int
    assigned_pairs: int
    variable_count: int
    objective_value: int
    # no shift carries a price; the key stays for readers of the format
    cost_value: float = field(default=0.0, init=False)
    dvdi: int
    ivdi: int
    kl_day_distribution: float | None
    per_day_required: tuple[int, ...]
    per_day_coverage: tuple[int, ...]
    evaluations: int
    runtime_seconds: float


# Problems an infeasible-schedule error names before it gives only their count.
NAMED_PROBLEMS = 5


def count_variables(
    agents: int,
    days: int,
    shifts: int,
    intervals: int,
    mode: str,
    assigned_pairs: int | None = None,
) -> int:
    """Decision-variable count of the underlying integer formulation.

    ``single``: one binary per (agent, day, shift) plus under/over deviation
    slots per (day, interval).  ``multi``: day-phase binaries per (agent, day)
    and one per-day deviation slot, then shift binaries only for the
    ``assigned_pairs`` agent-days that actually work, plus the same interval
    deviation slots.
    """
    for label, value in (
        ("agents", agents),
        ("days", days),
        ("shifts", shifts),
        ("intervals", intervals),
    ):
        if value < 0:
            raise ValueError(f"{label} must be non-negative")
    if mode == "single":
        return agents * days * shifts + 2 * days * intervals
    if mode == "multi":
        if assigned_pairs is None:
            raise ValueError("multi mode requires assigned_pairs")
        if assigned_pairs < 0:
            raise ValueError("assigned_pairs must be non-negative")
        return agents * days + days + assigned_pairs * shifts + 2 * days * intervals
    raise ValueError(f"unknown mode {mode!r}")


def build_report(
    scenario: Scenario,
    schedule: Schedule,
    mode: str,
    *,
    seed: int,
    runtime_seconds: float,
    status: SolveStatus | str = SolveStatus.FEASIBLE,
    evaluations: int = 0,
) -> SolveReport:
    """Recompute coverage, objective, and indices for a finished schedule.

    Refuses schedules that break the hard constraints; every reported number
    is derived here from the scenario and schedule alone.
    """
    assigned_pairs = len(schedule)
    variable_count = count_variables(  # refuses an unknown mode
        scenario.agent_count,
        scenario.num_days,
        len(scenario.shift_catalog),
        scenario.intervals_per_day,
        mode,
        assigned_pairs,
    )
    problems = validate_schedule(
        schedule,
        agent_count=scenario.agent_count,
        day_count=scenario.num_days,
        catalog=scenario.shift_catalog,
        weeks=scenario.week_partition(),
    )
    if len(problems) > NAMED_PROBLEMS:
        problems = problems[:NAMED_PROBLEMS] + [f"... {len(problems)} problems in all"]
    if problems:
        raise ValueError("infeasible schedule: " + "; ".join(problems))
    coverage = coverage_from_schedule(schedule, scenario.shift_catalog)
    objective = interval_objective_value(
        scenario.requirements.per_interval, coverage.per_interval
    )
    kl: float | None
    try:
        kl = kl_divergence(coverage.per_day, scenario.requirements.per_day)
    except ValueError:
        kl = None  # nothing scheduled or nothing required
    return SolveReport(
        scenario=scenario.name,
        mode=mode,
        status=status.value if isinstance(status, SolveStatus) else str(status),
        seed=seed,
        agents=scenario.agent_count,
        days=scenario.num_days,
        intervals_per_day=scenario.intervals_per_day,
        shifts=len(scenario.shift_catalog),
        assigned_pairs=assigned_pairs,
        variable_count=variable_count,
        objective_value=objective,
        dvdi=dvdi(scenario.requirements.per_day, coverage.per_day),
        ivdi=ivdi(scenario.requirements.per_interval, coverage.per_interval),
        kl_day_distribution=kl,
        per_day_required=tuple(int(x) for x in scenario.requirements.per_day),
        per_day_coverage=tuple(int(x) for x in coverage.per_day),
        evaluations=evaluations,
        runtime_seconds=runtime_seconds,
    )


def result_report(scenario: Scenario, result: SearchResult, mode: str, seed: int) -> SolveReport:
    """``build_report`` of a solve's record, with its status, evaluations and runtime."""
    return build_report(
        scenario,
        result.schedule,
        mode,
        seed=seed,
        runtime_seconds=result.runtime_seconds,
        status=result.status,
        evaluations=result.evaluations,
    )


@dataclass(frozen=True)
class ComparisonRun:
    seed: int
    single: SolveReport
    multi: SolveReport


@dataclass(frozen=True)
class ComparisonResult:
    scenario: str
    runs: tuple[ComparisonRun, ...]
    means: dict  # mode -> {metric: mean}

    def wins(self, metric: str) -> int:
        """Runs where multi-phase is no worse than single-phase on ``metric``."""
        return sum(
            1
            for run in self.runs
            if getattr(run.multi, metric) <= getattr(run.single, metric)
        )


_MEAN_FIELDS = ("objective_value", "dvdi", "ivdi", "variable_count", "runtime_seconds")


def compare_modes(
    scenario: Scenario,
    runs: int,
    limits: SolveLimits,
    *,
    penalty_factor: int = DEFAULT_PENALTY_FACTOR,
) -> ComparisonResult:
    """Benchmark both modes over seeded repeat runs with equal budgets.

    Run ``i`` records seed ``limits.seed + i`` for both modes.  The solvers
    draw nothing from the seed, so under a move cap every run scores
    identically.  The single-phase mode gets the whole budget; the
    multi-phase mode splits the same budget across its two phases.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    pairs: list[ComparisonRun] = []
    for i in range(runs):
        run_limits = replace(limits, seed=limits.seed + i)
        results = {
            "single": solve_single_phase(scenario, run_limits),
            "multi": solve_multi_phase(scenario, run_limits, penalty_factor),
        }
        reports = {
            mode: result_report(scenario, result, mode, run_limits.seed)
            for mode, result in results.items()
        }
        pairs.append(ComparisonRun(run_limits.seed, **reports))
    means = {
        mode: {
            metric: sum(getattr(getattr(run, mode), metric) for run in pairs) / len(pairs)
            for metric in _MEAN_FIELDS
        }
        for mode in ("single", "multi")
    }
    return ComparisonResult(scenario.name, tuple(pairs), means)
