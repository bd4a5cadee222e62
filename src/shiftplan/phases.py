"""The scheduling formulations, one solve each, and what the solves share.

Agents are interchangeable, so no solve decides per agent.  Every solve
returns a ``SearchResult``: how many agents work each day (the head-counts),
how many of them take each shift (the splits), and their expansion.
``materialize_day`` turns head-counts into per-agent working days (the
``allocation``) by one wrap-around of each week's off days over the agents,
and ``materialize_shift`` hands each day's working agents their shifts (the
``schedule``); the joint solve is expanded by the two in turn.

``solve_day_allocation`` meets per-day peak requirements, with an optional
idle-day penalty, exactly, by the greedy ``day_head_counts``.
``solve_shift_allocation`` splits each day's working agents over the shifts
against the interval-level objective, and ``solve_single_phase`` chooses days
and shifts jointly against it, both by one per-day kernel: greedy splits
improved by steepest swap descent within the budget that ``SolveLimits`` sets
(wall clock or move cap) and ``Deadline`` tracks.  ``solve_multi_phase``
feeds the day phase's allocation to the shift phase; the day phase spends
no budget, and the record is the shift phase's with both phases'
evaluations and runtime.  Each input is checked once, when it is built: a
spec checks its own fields, and a ``Scenario`` cannot be built invalid, so
the solves take it as it is.

Every objective is an exact integer, and reports recompute the interval
objective with ``interval_objective_value``, so no reported number rests on
the search.  The paper's integer programs are never built:
``metrics.count_variables`` sizes them for the report, and the exhaustive
oracle in ``tests/oracles.py`` audits the solves on micro instances and
evaluates the programs on finished schedules.
"""

import itertools
import time
from dataclasses import dataclass, replace
from enum import Enum

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
    build_week_partition,
    check_agent_count,
    check_interval_grid,
    check_requirement_cells,
    frozen_grid,
)
from .presets import DEFAULT_PENALTY_FACTOR, DEFAULT_SEED, DEFAULT_TIME_BUDGET_SECONDS


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"


@dataclass(frozen=True)
class SolveLimits:
    """Resource budget for a solve.

    ``move_cap`` switches the local solvers from wall-clock mode to an exact
    move-evaluation budget, which makes runs bit-reproducible; when it is set
    the wall clock is never consulted.  ``seed`` is recorded in reports; the
    bundled solvers are deterministic and draw nothing from it.
    """

    time_budget_seconds: float = DEFAULT_TIME_BUDGET_SECONDS
    seed: int = DEFAULT_SEED
    move_cap: int | None = None

    def __post_init__(self):
        if not self.time_budget_seconds > 0:  # NaN included
            raise ValueError("time budget must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.move_cap is not None and self.move_cap <= 0:
            raise ValueError("move_cap must be positive when given")

    def scaled(self, fraction: float) -> "SolveLimits":
        """A proportional slice of this budget (used for phase splits)."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        cap = self.move_cap
        if cap is not None:
            cap = max(1, int(cap * fraction))
        return SolveLimits(
            time_budget_seconds=self.time_budget_seconds * fraction,
            seed=self.seed,
            move_cap=cap,
        )


class Deadline:
    """Tracks whichever budget a ``SolveLimits`` expresses.

    ``spend`` counts evaluations.  ``affords`` checks them against a move cap
    when one is set, and otherwise reads the monotonic clock once per call:
    each call already prices a whole batch of candidates.
    """

    def __init__(self, limits: SolveLimits):
        self.limits = limits
        self.evaluations = 0
        self._t0 = time.monotonic()
        self._stop = self._t0 + limits.time_budget_seconds

    def spend(self, units: int = 1) -> None:
        self.evaluations += units

    def affords(self, units: int) -> bool:
        """Whether ``units`` more evaluations stay within the budget."""
        if self.limits.move_cap is not None:
            return self.evaluations + units <= self.limits.move_cap
        return time.monotonic() < self._stop

    def elapsed(self) -> float:
        return time.monotonic() - self._t0


@dataclass(frozen=True)
class SearchResult:
    """One solve's outcome: the record every solve entry point returns.

    ``head_counts[d]`` is the number of agents working day ``d`` of the
    horizon.  ``splits[d][s]`` is the number of them on shift ``s``, so each
    split sums to its day's head-count; a day-phase result has no splits
    (``None``).  ``objective`` is the exact integer the solve minimized.
    ``allocation`` and ``schedule`` expand the counts to per-agent working
    days and shifts; a day-phase result has no schedule.
    """

    status: SolveStatus
    objective: int
    head_counts: tuple[int, ...]
    splits: tuple[tuple[int, ...], ...] | None
    trace: tuple
    evaluations: int
    runtime_seconds: float
    allocation: DayAllocation | None = None
    schedule: Schedule | None = None


# ---------------------------------------------------------------------------
# objective helpers
# ---------------------------------------------------------------------------


def day_term(required: int, scheduled: int, agent_count: int, penalty_factor: int) -> int:
    """One day's objective: squared deviation plus squared idle penalty."""
    u = required - scheduled
    v = penalty_factor * (agent_count - scheduled)
    return u * u + v * v


def squared_norm(diff) -> int:
    """Sum of squares of an integer array, exact: int64 would wrap past 2**63."""
    return sum(x * x for x in np.asarray(diff).ravel().tolist())


def deviation(required, scheduled) -> np.ndarray:
    """``required - scheduled`` as int64; raises if the shapes differ."""
    r = np.asarray(required, dtype=np.int64)
    p = np.asarray(scheduled, dtype=np.int64)
    if r.shape != p.shape:
        raise ValueError("requirement and coverage shapes differ")
    return r - p


def interval_objective_value(r_dt, p_dt) -> int:
    """Interval-phase objective recomputed from scratch."""
    return squared_norm(deviation(r_dt, p_dt))


# ---------------------------------------------------------------------------
# the day allocation and the per-day shift kernel
# ---------------------------------------------------------------------------


def _take_smallest(marginals, total: int) -> np.ndarray:
    """Per row, how many of the ``total`` smallest entries of a table fall in it.

    On a table whose rows are non-decreasing the taken entries form a prefix
    of each row, and ties go to the earlier row: the same counts as adding
    ``total`` cheapest increments one at a time, earliest row first.
    """
    table = np.asarray(marginals)
    taken = np.argsort(table, axis=None, kind="stable")[:total]
    return np.bincount(taken // table.shape[1], minlength=table.shape[0])


def _week_head_counts(marginals, agent_count: int, weeks: int) -> tuple[int, ...]:
    """Each week's per-day head-counts: its 5A cheapest increments over the
    non-decreasing rows ``marginals[d]`` of A entries each, so at most A per
    day and ties to the earliest day."""
    table = np.asarray(marginals).reshape(weeks, DAYS_PER_WEEK, agent_count)
    return tuple(
        int(n) for week in table for n in _take_smallest(week, WORKDAYS_PER_WEEK * agent_count)
    )


def day_head_counts(r_day, agent_count: int, weeks: int, penalty_factor: int) -> tuple[int, ...]:
    """The exact day allocation's head-counts: each week's 5A cheapest unit
    increments of ``day_term``.

    The objective is separable and convex in the day counts, and any
    head-count vector with week sum 5A and per-day cap A is realizable by
    5-day patterns, so the greedy choice is exact.
    """
    r = np.asarray(r_day, dtype=np.int64)
    p = np.arange(agent_count, dtype=np.int64)[None, :]
    # day_term(r, p + 1, ...) - day_term(r, p, ...)
    marginals = 2 * p + 1 - 2 * r[:, None] + penalty_factor**2 * (2 * p + 1 - 2 * agent_count)
    return _week_head_counts(marginals, agent_count, weeks)


class _DayKernel:
    """Splits of n agents over the shifts of one day, for n = 0..n_max.

    Built for one requirement row ``r``.  With coverage ``C`` (shifts x
    intervals), overlap ``O = C Cᵀ`` and the residual ``u = r - Cᵀy`` of a
    split ``y``, adding one agent to shift ``s`` changes the objective
    ``|u|²`` by ``len_s - 2(C·u)_s``.  The greedy pass adds agents one at a
    time to the cheapest shift (``picks``, ``marginals``); ``values[n]`` is
    the objective of the greedy split of ``n``.  Every add lowers ``C·u`` by
    a column of ``O >= 0``, so ``marginals`` never decrease.  ``overlap`` and
    ``swap_base`` depend on the catalog alone, so every kernel of one catalog
    shares them.
    """

    def __init__(self, overlap, swap_base, cr, picks, marginals, empty_value):
        self.overlap = overlap
        self.swap_base = swap_base
        self.cr = cr  # C·u of the empty split
        self.picks = picks
        self.marginals = marginals
        self.values = list(itertools.accumulate(marginals.tolist(), initial=empty_value))
        self._splits: dict[int, tuple] = {}

    def swap_deltas(self, cu: np.ndarray, held: np.ndarray) -> np.ndarray:
        """Objective change ``Δ[k, i]`` of moving one agent from shift
        ``held[k]`` to shift ``i``, given ``C·u``."""
        return self.swap_base[held] + 2 * (cu[held, None] - cu[None, :])

    def split(self, n: int, deadline: Deadline) -> tuple[tuple[int, ...], int]:
        """The greedy split of ``n`` improved by steepest swap descent.

        Each scan prices every move of one agent from a held shift to another
        shift and charges ``held x (S - 1)`` evaluations to ``deadline``; a
        scan that would overrun a move cap is not started.  The result is
        kept, so days that share this kernel and head-count share it.
        """
        if n in self._splits:
            return self._splits[n]
        S = len(self.overlap)
        y = np.bincount(self.picks[:n], minlength=S)
        value = self.values[n]
        cu = self.cr - self.overlap @ y
        while S > 1:
            held = np.flatnonzero(y)
            if held.size == 0 or not deadline.affords(held.size * (S - 1)):
                break
            deadline.spend(held.size * (S - 1))
            delta = self.swap_deltas(cu, held)
            best = int(np.argmin(delta))
            if delta.flat[best] >= 0:
                break
            o, i = int(held[best // S]), best % S
            y[o] -= 1
            y[i] += 1
            cu += self.overlap[o] - self.overlap[i]
            value += delta.flat[best].item()
        self._splits[n] = (tuple(int(x) for x in y), value)
        return self._splits[n]


def _day_kernels(r: np.ndarray, catalog: ShiftCatalog, head_caps) -> list:
    """One kernel per day; days with equal requirement rows share one, built
    up to the largest head-count among them.

    Every distinct row's greedy pass runs at once, one argmin per row and
    step: row ``k`` starts from ``C·u = cr[k]``, and its kernel keeps the
    first ``caps[k]`` steps' shifts and objective changes.  The catalog's
    shift lengths and swap table are computed once, for all the kernels.
    """
    cover = catalog.coverage.astype(np.int64)
    overlap = cover @ cover.T
    lengths = np.diag(overlap)
    # Δ[o, i] of moving one agent from o to i, less its (C·u) terms
    swap_base = lengths[:, None] + lengths[None, :] - 2 * overlap
    rows, inverse = np.unique(r, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    caps = np.zeros(len(rows), dtype=np.int64)
    np.maximum.at(caps, inverse, head_caps)
    cr = rows @ cover.T
    base = lengths - 2 * cr
    steps = int(caps.max(initial=0))
    picks = np.zeros((steps, len(rows)), dtype=np.int64)
    adds = np.zeros((steps, len(rows)), dtype=np.int64)
    every_row, twice_overlap = np.arange(len(rows)), 2 * overlap
    for t in range(steps):
        picks[t] = s = base.argmin(axis=1)
        adds[t] = base[every_row, s]
        base += twice_overlap[s]
    picks, adds = picks.T, adds.T
    built = [
        _DayKernel(overlap, swap_base, cr[k], picks[k, :n], adds[k, :n], squared_norm(rows[k]))
        for k, n in enumerate(caps.tolist())
    ]
    return [built[k] for k in inverse.tolist()]


def _descend_days(kernels: list, head_counts, allocation, deadline: Deadline) -> SearchResult:
    """Descend every day's greedy split at its head-count, in day order, and
    hand the splits to ``allocation``'s working agents.

    The record's trace starts at the greedy total and records the total after
    each day that improved; its runtime is read when the descent ends.
    """
    objective = sum(k.values[n] for k, n in zip(kernels, head_counts))
    trace = [objective]
    splits = []
    for kernel, n in zip(kernels, head_counts):
        split, value = kernel.split(n, deadline)
        if value < kernel.values[n]:
            objective += value - kernel.values[n]
            trace.append(objective)
        splits.append(split)
    return SearchResult(
        SolveStatus.OPTIMAL if objective == 0 or sum(head_counts) == 0 else SolveStatus.FEASIBLE,
        objective,
        tuple(head_counts),
        tuple(splits),
        tuple(trace),
        deadline.evaluations,
        deadline.elapsed(),
        allocation,
        materialize_shift(splits, allocation),
    )


# ---------------------------------------------------------------------------
# canonical materialization
# ---------------------------------------------------------------------------


def materialize_day(head_counts, agent_count: int, weeks: int) -> DayAllocation:
    """Expand per-day head-counts to per-agent working days by wrap-around.

    Each week has ``2A`` off-day slots, ``A - n_d`` copies of day ``d``,
    listed latest day first; agent ``i`` is off on slots ``i`` and ``i + A``
    (McNaughton's rule).  No day fills more than ``A`` slots, so the two
    differ: every agent works five days and every day keeps its head-count.
    Both of an agent's off days fall no earlier than the next agent's, so
    within a week a lower agent index has the lexicographically smaller
    pattern.
    """
    if build_week_partition(len(head_counts)) != weeks:
        raise ValueError(
            f"expected {weeks * DAYS_PER_WEEK} day head-counts, got {len(head_counts)}"
        )
    counts = np.asarray(head_counts, dtype=np.int64).reshape(weeks, DAYS_PER_WEEK)
    if counts.min() < 0 or counts.max() > agent_count:
        raise ValueError("day head-counts outside [0, agent_count]")
    if (counts.sum(axis=1) != WORKDAYS_PER_WEEK * agent_count).any():
        raise ValueError("day head-counts do not sum to 5 * agent_count")
    off = (agent_count - counts)[:, ::-1].ravel()  # each week's days, latest first
    latest_first = np.tile(np.arange(DAYS_PER_WEEK - 1, -1, -1), weeks)
    slots = np.repeat(latest_first, off).reshape(weeks, 2, agent_count)
    works = np.ones((agent_count, weeks, DAYS_PER_WEEK), dtype=np.int8)
    week = np.arange(weeks)[:, None, None]
    works[np.arange(agent_count), week, slots] = 0
    return DayAllocation(works.reshape(agent_count, len(head_counts)))


def materialize_shift(splits, allocation: DayAllocation) -> Schedule:
    """Hand each day's working agents, ascending, the shifts in index order.

    Applied to ``materialize_day``'s allocation, this numbers each week's
    agents in the order of their week plans (their (day, shift) pairs): two
    agents on one pattern get shifts in agent order on every day, and of two
    agents on different patterns the lower one has the smaller pattern, so
    the smaller plan.
    """
    if len(splits) != allocation.num_days:
        raise ValueError(f"expected {allocation.num_days} shift splits, got {len(splits)}")
    shifts = np.full(allocation.works.shape, OFF, dtype=np.int64)
    for d, split in enumerate(splits):
        if min(split, default=0) < 0:
            raise ValueError("negative shift count")
        agents = np.nonzero(allocation.works[:, d])[0]
        units = np.repeat(np.arange(len(split)), split)
        if len(units) != len(agents):
            raise ValueError(
                f"day {d} has {len(units)} shift units for {len(agents)} working agents"
            )
        shifts[agents, d] = units
    return Schedule(shifts)


# ---------------------------------------------------------------------------
# phase specs and solves
# ---------------------------------------------------------------------------

# The share of a multi solve's budget withheld from its shift phase.
# perfbench/traced.py copies it to replay the CLI byte for byte (ROADMAP item 6).
DAY_SHARE = 0.2
# The largest idle-day penalty factor K.  With the MAX_AGENTS and
# MAX_REQUIREMENT that ``DayPhaseSpec`` enforces, no int64 marginal of
# ``day_head_counts`` exceeds 2.1e17.
MAX_PENALTY = 10**6


def check_penalty_factor(k: int) -> None:
    """The penalty rule: K in ``[0, MAX_PENALTY]``."""
    if not 0 <= k <= MAX_PENALTY:
        raise ValueError(f"penalty factor must lie in [0, {MAX_PENALTY}], got {k}")


@dataclass(frozen=True)
class DayPhaseSpec:
    """Inputs of the day-allocation phase, bounded so that int64 stays exact."""

    day_requirements: np.ndarray  # per-day peak head-counts R_D
    agent_count: int
    weeks: int
    penalty_factor: int = DEFAULT_PENALTY_FACTOR

    def __post_init__(self):
        r = frozen_grid(self.day_requirements)
        object.__setattr__(self, "day_requirements", r)
        check_agent_count(self.agent_count)
        check_requirement_cells(r)
        check_penalty_factor(self.penalty_factor)
        if r.ndim != 1 or build_week_partition(len(r)) != self.weeks:
            raise ValueError("day requirements do not match the week partition")


@dataclass(frozen=True)
class ShiftPhaseSpec:
    """Inputs of the shift-allocation phase: interval needs plus fixed days."""

    requirements: RequirementMatrix
    allocation: DayAllocation
    catalog: ShiftCatalog

    def __post_init__(self):
        if len(self.allocation.day_counts) != self.requirements.days:
            raise ValueError("one head-count per day is required")
        check_interval_grid(self.catalog, self.requirements)


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
    return _descend_days(kernels, n_d, spec.allocation, deadline)


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
    allocation = materialize_day(head_counts, agents, weeks)
    return _descend_days(kernels, head_counts, allocation, deadline)


def solve_multi_phase(
    scenario: Scenario, limits: SolveLimits, penalty_factor: int = DEFAULT_PENALTY_FACTOR
) -> SearchResult:
    """Day allocation against daily peaks, then shift allocation within days.

    The day phase spends no budget, so it takes ``limits`` as they are; the
    shift phase gets ``limits.scaled(1 - DAY_SHARE)``.  The record is the
    shift phase's, whose ``head_counts`` are the day phase's, with
    ``evaluations`` and ``runtime_seconds`` summed over both.
    """
    spec = DayPhaseSpec(
        scenario.requirements.per_day, scenario.agent_count, scenario.week_partition(), penalty_factor
    )
    day = solve_day_allocation(spec, limits)
    shift = solve_shift_allocation(
        ShiftPhaseSpec(scenario.requirements, day.allocation, scenario.shift_catalog),
        limits.scaled(1.0 - DAY_SHARE),
    )
    return replace(
        shift,
        evaluations=day.evaluations + shift.evaluations,
        runtime_seconds=day.runtime_seconds + shift.runtime_seconds,
    )

