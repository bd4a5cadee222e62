"""Head-counts, shift splits and their expansion to per-agent schedules.

Agents are interchangeable, so no solve decides per agent.  Every solve
returns the two arrays the paper's phases hand to each other: how many
agents work each day of the horizon (the head-counts), and how many of them
take each shift on each day (the splits).  ``materialize_day`` turns the
head-counts into per-agent working days by one wrap-around of each week's
off days over the agents, and ``materialize_shift`` hands each day's working
agents their shifts; the joint solve is expanded by the two in turn.

The solves themselves are the phase entry points in ``phases``.  This module
holds what they share: ``day_head_counts``, the exact greedy allocation of
the day problem, and one per-day kernel, greedy splits of n agents over the
shifts improved by steepest swap descent within a wall-clock or move-cap
budget, which the shift and joint solves both use.  Every objective is an
exact integer.  The exhaustive oracle that audits the solves on micro
instances lives with the tests, not in the package.
"""
import itertools
from dataclasses import dataclass

import numpy as np

from .domain import (
    DAYS_PER_WEEK,
    OFF,
    WORKDAYS_PER_WEEK,
    DayAllocation,
    Schedule,
    ShiftCatalog,
    WeekPartition,
)
from .model import Deadline, SolveStatus


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
# day-level objective helpers
# ---------------------------------------------------------------------------


def day_term(required: int, scheduled: int, agent_count: int, penalty_factor: int) -> int:
    """One day's objective: squared deviation plus squared idle penalty."""
    u = required - scheduled
    v = penalty_factor * (agent_count - scheduled)
    return u * u + v * v


def squared_norm(diff) -> int:
    """Sum of squares of an integer array, exact: int64 would wrap past 2**63."""
    return sum(x * x for x in np.asarray(diff).ravel().tolist())


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


def _week_head_counts(marginals, agent_count: int, weeks: WeekPartition) -> tuple[int, ...]:
    """Each week's per-day head-counts: its 5A cheapest increments over the
    non-decreasing rows ``marginals[d]`` of A entries each, so at most A per
    day and ties to the earliest day."""
    table = np.asarray(marginals).reshape(weeks.count, DAYS_PER_WEEK, agent_count)
    return tuple(
        int(n) for week in table for n in _take_smallest(week, WORKDAYS_PER_WEEK * agent_count)
    )


def day_head_counts(
    r_day, agent_count: int, weeks: WeekPartition, penalty_factor: int
) -> tuple[int, ...]:
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
    a column of ``O >= 0``, so ``marginals`` never decrease.
    """

    def __init__(self, overlap, cr, picks, marginals, empty_value):
        self.overlap = overlap
        self.lengths = np.diag(overlap)
        # Δ[o, i] of moving one agent from o to i, less its (C·u) terms
        self.swap_base = self.lengths[:, None] + self.lengths[None, :] - 2 * overlap
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
        S = len(self.lengths)
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


def _greedy_passes(cr, overlap, caps) -> tuple[np.ndarray, np.ndarray]:
    """Every row's greedy pass at once, one argmin per step over the rows
    still below their cap: row ``k`` starts from ``C·u = cr[k]`` and adds
    ``caps[k]`` agents; ``picks[k, t]`` and ``adds[k, t]`` are step ``t``'s
    shift and objective change (zero past the row's cap)."""
    order = np.argsort([-cap for cap in caps], kind="stable")  # under-cap rows: a prefix
    caps_desc, rows = [caps[k] for k in order], np.arange(len(caps))
    base = np.diag(overlap) - 2 * cr[order]
    steps = caps_desc[0] if caps_desc else 0
    picks = np.zeros((steps, len(caps)), dtype=np.int64)
    adds = np.zeros((steps, len(caps)), dtype=np.int64)
    active = len(caps)
    for t in range(steps):
        while caps_desc[active - 1] <= t:
            active -= 1
        picks[t, :active] = s = base[:active].argmin(axis=1)
        adds[t, :active] = base[rows[:active], s]
        base[:active] += 2 * overlap[s]
    unsort = np.argsort(order)
    return picks.T[unsort], adds.T[unsort]


def _day_kernels(r: np.ndarray, catalog: ShiftCatalog, head_caps) -> list:
    """One kernel per day; days with equal requirement rows share one, built
    up to the largest head-count among them."""
    cover = catalog.coverage.astype(np.int64)
    overlap = cover @ cover.T
    keys = [r[d].tobytes() for d in range(r.shape[0])]
    caps: dict = {}
    first: dict = {}  # each distinct row's first day
    for d, (key, cap) in enumerate(zip(keys, head_caps)):
        caps[key] = max(caps.get(key, 0), cap)
        first.setdefault(key, d)
    days = list(first.values())
    cr = r[days] @ cover.T
    picks, adds = _greedy_passes(cr, overlap, list(caps.values()))
    built = {
        key: _DayKernel(overlap, cr[k], picks[k, :n], adds[k, :n], squared_norm(r[d]))
        for k, (key, d, n) in enumerate(zip(caps, days, caps.values()))
    }
    return [built[key] for key in keys]


def _descend_days(kernels: list, head_counts, deadline: Deadline) -> SearchResult:
    """Descend every day's greedy split at its head-count, in day order.

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
    )


# ---------------------------------------------------------------------------
# canonical materialization
# ---------------------------------------------------------------------------


def materialize_day(head_counts, agent_count: int, weeks: WeekPartition) -> DayAllocation:
    """Expand per-day head-counts to per-agent working days by wrap-around.

    Each week has ``2A`` off-day slots, ``A - n_d`` copies of day ``d``,
    listed latest day first; agent ``i`` is off on slots ``i`` and ``i + A``
    (McNaughton's rule).  No day fills more than ``A`` slots, so the two
    differ: every agent works five days and every day keeps its head-count.
    Both of an agent's off days fall no earlier than the next agent's, so
    within a week a lower agent index has the lexicographically smaller
    pattern.
    """
    if len(head_counts) != weeks.count * DAYS_PER_WEEK:
        raise ValueError(
            f"expected {weeks.count * DAYS_PER_WEEK} day head-counts, got {len(head_counts)}"
        )
    counts = np.asarray(head_counts, dtype=np.int64).reshape(weeks.count, DAYS_PER_WEEK)
    if counts.min() < 0 or counts.max() > agent_count:
        raise ValueError("day head-counts outside [0, agent_count]")
    if (counts.sum(axis=1) != WORKDAYS_PER_WEEK * agent_count).any():
        raise ValueError("day head-counts do not sum to 5 * agent_count")
    off = (agent_count - counts)[:, ::-1].ravel()  # each week's days, latest first
    latest_first = np.tile(np.arange(DAYS_PER_WEEK - 1, -1, -1), weeks.count)
    slots = np.repeat(latest_first, off).reshape(weeks.count, 2, agent_count)
    works = np.ones((agent_count, weeks.count, DAYS_PER_WEEK), dtype=np.int8)
    week = np.arange(weeks.count)[:, None, None]
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

