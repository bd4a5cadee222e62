"""Solvers over head-counts and shift splits.

Agents are interchangeable, so no solver decides per agent.  Every solver
returns the two arrays the paper's phases hand to each other: how many
agents work each day of the horizon (the head-counts), and how many of them
take each shift on each day (the splits).  ``materialize_day`` turns the
head-counts into per-agent working days, one week at a time, and
``materialize_shift`` hands each day's working agents their shifts; the
joint solve is expanded by the two in turn.

Each formulation has one solve, ``solve_local_day``, ``solve_local_shift``
and ``solve_local_single``: the day problem is solved exactly by greedy
allocation, and the shift and joint problems by one per-day kernel, greedy
splits of n agents over the shifts improved by steepest swap descent within a
wall-clock or move-cap budget.  The ``solve_exact_*`` enumerators return the
same record and are the audit oracles: the day and joint ones share one
exhaustive week choice over per-day tables, and each refuses a space of more
than ``MAX_EXACT_NODES`` states.

Unit costs are one (days x shifts) grid, ``unit_cost[d, s]`` per agent on
shift ``s`` of day ``d``, checked by ``domain.unit_cost_grid``; ``None`` means
unpriced, and the objective stays an exact integer.
"""
import itertools
import math
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
    unit_cost_grid,
)
from .model import Deadline, SearchSpaceError, SolveLimits, SolveStatus

# All 5-day patterns of a week, in lexicographic order.
DAY_PATTERNS: tuple[tuple[int, ...], ...] = tuple(
    itertools.combinations(range(DAYS_PER_WEEK), WORKDAYS_PER_WEEK)
)


@dataclass(frozen=True)
class SearchResult:
    """One solve's outcome: the record every solve entry point returns.

    ``head_counts[d]`` is the number of agents working day ``d`` of the
    horizon.  ``splits[d][s]`` is the number of them on shift ``s``, so each
    split sums to its day's head-count; a day-phase result has no splits
    (``None``).  ``allocation`` and ``schedule`` expand the counts:
    ``solve_day_allocation`` and ``tune_penalty`` fill the allocation,
    ``solve_shift_allocation`` and ``solve_single_phase`` both, and the
    ``solve_local_*`` and ``solve_exact_*`` solvers neither.
    """

    status: SolveStatus
    objective: float
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


def week_optimal_day_counts(
    r_week, agent_count: int, penalty_factor: int
) -> tuple[tuple[int, ...], int]:
    """Best per-day head-counts for one week, by greedy marginal allocation.

    The objective is separable and convex in the day counts, and any
    head-count vector with row sum 5*agents and per-day cap agents is
    realizable by 5-day patterns, so taking the 5*agents cheapest unit
    increments (ties to the earliest day) is exact.
    """
    r = np.asarray(r_week, dtype=np.int64)[:, None]
    p = np.arange(agent_count, dtype=np.int64)[None, :]
    # day_term(r, p + 1, ...) - day_term(r, p, ...)
    marginals = 2 * p + 1 - 2 * r + penalty_factor**2 * (2 * p + 1 - 2 * agent_count)
    counts = tuple(
        int(n) for n in _take_smallest(marginals, WORKDAYS_PER_WEEK * agent_count)
    )
    objective = sum(
        day_term(int(r[d, 0]), counts[d], agent_count, penalty_factor)
        for d in range(DAYS_PER_WEEK)
    )
    return counts, objective


def patterns_from_day_counts(day_counts, agent_count: int) -> dict[tuple, int]:
    """Realize per-day head-counts as counts over 5-day patterns.

    Constructive and canonical: each agent in turn takes the five days with
    the largest remaining demand (ties to the earliest day).  Raises if the
    head-counts are not realizable, so callers get a feasibility certificate
    rather than a silent approximation.
    """
    remaining = [int(x) for x in day_counts]
    if len(remaining) != DAYS_PER_WEEK:
        raise ValueError("expected one head-count per day of the week")
    if min(remaining) < 0 or max(remaining, default=0) > agent_count:
        raise ValueError("day head-counts outside [0, agent_count]")
    if sum(remaining) != WORKDAYS_PER_WEEK * agent_count:
        raise ValueError("day head-counts do not sum to 5 * agent_count")
    counts: dict[tuple, int] = {}
    for _ in range(agent_count):
        order = sorted(range(DAYS_PER_WEEK), key=lambda d: (-remaining[d], d))
        pattern = tuple(sorted(order[:WORKDAYS_PER_WEEK]))
        for d in pattern:
            remaining[d] -= 1
        counts[pattern] = counts.get(pattern, 0) + 1
    if any(remaining):
        raise ValueError("day head-counts are not realizable as 5-day patterns")
    return counts


def squared_norm(diff) -> int:
    """Sum of squares of an integer array, exact: int64 would wrap past 2**63."""
    return sum(x * x for x in np.asarray(diff).ravel().tolist())


def _count_bounded_vectors(bound: int, total: int, length: int) -> int:
    """Number of integer vectors in [0, bound]^length summing to total."""
    ways = [1] + [0] * total
    for _ in range(length):
        nxt = [0] * (total + 1)
        running = 0
        for s in range(total + 1):
            running += ways[s]
            if s - bound - 1 >= 0:
                running -= ways[s - bound - 1]
            nxt[s] = running
        ways = nxt
    return ways[total]


def _bounded_vectors(bound: int, total: int, length: int):
    """Yield all vectors in [0, bound]^length with the given sum, lexicographic."""
    vec = [0] * length

    def rec(pos: int, left: int):
        if pos == length - 1:
            vec[pos] = left
            yield tuple(vec)
            return
        tail = length - pos - 1
        lo = max(0, left - bound * tail)
        hi = min(bound, left)
        for v in range(lo, hi + 1):
            vec[pos] = v
            yield from rec(pos + 1, left - v)

    if 0 <= total <= bound * length:
        yield from rec(0, total)


# ---------------------------------------------------------------------------
# exact enumerators (audit oracles)
# ---------------------------------------------------------------------------


MAX_EXACT_NODES = 2_000_000  # states an exact enumerator may visit before it refuses


def _refuse_oversized(space: str, nodes: int) -> None:
    if nodes > MAX_EXACT_NODES:
        raise SearchSpaceError(
            f"{space} search space has {nodes} states, cap is {MAX_EXACT_NODES}"
        )


def _week_vector_count(agent_count: int) -> int:
    """Per-day head-count vectors of one week."""
    return _count_bounded_vectors(agent_count, WORKDAYS_PER_WEEK * agent_count, DAYS_PER_WEEK)


def _exact_week_choice(values, agent_count: int, weeks: WeekPartition, deadline: Deadline):
    """Each week's best per-day head-counts over the tables ``values[d][n]``.

    Every vector costs one evaluation; the first minimum found is kept, so
    ties go to the lexicographically smallest vector.
    """
    head_counts: list[int] = []
    objective = 0
    for w in range(weeks.count):
        days = weeks.days_of(w)
        table = values[days.start : days.stop]
        best_vec = None
        best_obj = None
        for vec in _bounded_vectors(
            agent_count, WORKDAYS_PER_WEEK * agent_count, DAYS_PER_WEEK
        ):
            deadline.spend()
            obj = sum(table[d][n] for d, n in enumerate(vec))
            if best_obj is None or obj < best_obj:
                best_obj = obj
                best_vec = vec
        head_counts.extend(best_vec)
        objective = objective + best_obj
    return tuple(head_counts), objective


def solve_exact_day(
    r_day, agent_count: int, weeks: WeekPartition, penalty_factor: int, limits: SolveLimits
) -> SearchResult:
    """Exhaustive day-allocation optimum, week by week.

    Enumerates every per-day head-count vector (the objective depends on
    nothing else) over the tables ``day_term(r[d], n)``.
    """
    r = np.asarray(r_day, dtype=np.int64)
    _check_day_inputs(r, agent_count, weeks, penalty_factor)
    _refuse_oversized("day", weeks.count * _week_vector_count(agent_count))
    deadline = Deadline(limits)
    values = [
        [day_term(required, n, agent_count, penalty_factor) for n in range(agent_count + 1)]
        for required in r.tolist()
    ]
    head_counts, objective = _exact_week_choice(values, agent_count, weeks, deadline)
    return SearchResult(
        SolveStatus.OPTIMAL,
        objective,
        head_counts,
        None,
        (objective,),
        deadline.evaluations,
        deadline.elapsed(),
    )


def _best_day_composition(
    r: np.ndarray, d: int, n: int, catalog: ShiftCatalog, unit_cost, deadline: Deadline
):
    """Exhaustive best shift-count split of ``n`` agents on day ``d``."""
    S = len(catalog)
    best_vec = None
    best_obj = None
    scheduled = np.zeros(r.shape[1], dtype=np.int64)
    cost = None if unit_cost is None else unit_cost[d].tolist()
    for vec in _bounded_vectors(n, n, S):
        deadline.spend()
        scheduled[:] = 0
        for s, y in enumerate(vec):
            if y:
                span = catalog.covers(s)
                scheduled[span.start : span.stop] += y
        obj = squared_norm(r[d] - scheduled)
        if cost is not None:
            obj = obj + sum(vec[s] * cost[s] for s in range(S))
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best_vec = vec
    return best_vec, best_obj


def solve_exact_shift(
    r_dt,
    day_counts,
    catalog: ShiftCatalog,
    limits: SolveLimits,
    unit_cost=None,
) -> SearchResult:
    """Exhaustive shift-allocation optimum, day by day."""
    r = np.asarray(r_dt, dtype=np.int64)
    n_d = [int(x) for x in day_counts]
    _check_shift_inputs(r, n_d, catalog)
    S = len(catalog)
    unit_cost = unit_cost_grid(unit_cost, r.shape[0], S)
    _refuse_oversized("shift", sum(math.comb(n + S - 1, S - 1) for n in n_d))
    deadline = Deadline(limits)
    splits = []
    objective = 0
    for d in range(r.shape[0]):
        vec, obj = _best_day_composition(r, d, n_d[d], catalog, unit_cost, deadline)
        splits.append(vec)
        objective = objective + obj
    return SearchResult(
        SolveStatus.OPTIMAL,
        objective,
        tuple(n_d),
        tuple(splits),
        (objective,),
        deadline.evaluations,
        deadline.elapsed(),
    )


def solve_exact_single(
    r_dt,
    agent_count: int,
    weeks: WeekPartition,
    catalog: ShiftCatalog,
    limits: SolveLimits,
    unit_cost=None,
) -> SearchResult:
    """Exhaustive joint optimum.

    Decomposes exactly: given per-day head-counts, the best shift split of a
    day is independent of every other day, so the search tabulates per-day
    optima for every possible head-count and then enumerates per-week
    head-count vectors.
    """
    r = np.asarray(r_dt, dtype=np.int64)
    _check_joint_inputs(r, agent_count, weeks, catalog)
    S = len(catalog)
    unit_cost = unit_cost_grid(unit_cost, r.shape[0], S)
    _refuse_oversized(
        "joint",
        r.shape[0] * math.comb(agent_count + S, S)
        + weeks.count * _week_vector_count(agent_count),
    )
    deadline = Deadline(limits)
    # per-day tables: best composition and value for each possible head-count
    best_comp: list[list[tuple]] = []
    best_val: list[list[float]] = []
    for d in range(r.shape[0]):
        comps, vals = [], []
        for n in range(agent_count + 1):
            vec, obj = _best_day_composition(r, d, n, catalog, unit_cost, deadline)
            comps.append(vec)
            vals.append(obj)
        best_comp.append(comps)
        best_val.append(vals)
    head_counts, objective = _exact_week_choice(best_val, agent_count, weeks, deadline)
    return SearchResult(
        SolveStatus.OPTIMAL,
        objective,
        head_counts,
        tuple(best_comp[d][n] for d, n in enumerate(head_counts)),
        (objective,),
        deadline.evaluations,
        deadline.elapsed(),
    )


# ---------------------------------------------------------------------------
# per-day shift kernel and the local solves
# ---------------------------------------------------------------------------


def _check_day_inputs(r, agent_count, weeks, penalty_factor):
    if agent_count < 0:
        raise ValueError("agent_count must be non-negative")
    if penalty_factor < 0:
        raise ValueError("penalty_factor must be non-negative")
    if r.ndim != 1 or r.shape[0] != weeks.count * DAYS_PER_WEEK:
        raise ValueError("day requirements do not match the week partition")


def _check_joint_inputs(r, agent_count, weeks, catalog):
    if r.ndim != 2 or r.shape[0] != weeks.count * DAYS_PER_WEEK:
        raise ValueError("requirement rows do not match the week partition")
    if agent_count < 0:
        raise ValueError("agent_count must be non-negative")
    _check_shift_inputs(r, [agent_count] * r.shape[0], catalog)


def _check_shift_inputs(r, n_d, catalog):
    if r.ndim != 2:
        raise ValueError("interval requirements must be a (days, intervals) grid")
    if len(n_d) != r.shape[0]:
        raise ValueError("one head-count per day is required")
    if min(n_d, default=0) < 0:
        raise ValueError("day head-counts must be non-negative")
    if len(catalog) == 0:
        raise ValueError("shift catalog is empty")
    if catalog.intervals_per_day != r.shape[1]:
        raise ValueError("catalog interval grid differs from requirements")


def _take_smallest(marginals, total: int) -> np.ndarray:
    """Per row, how many of the ``total`` smallest entries of a table fall in it.

    On a table whose rows are non-decreasing the taken entries form a prefix
    of each row, and ties go to the earlier row: the same counts as adding
    ``total`` cheapest increments one at a time, earliest row first.
    """
    table = np.asarray(marginals)
    taken = np.argsort(table, axis=None, kind="stable")[:total]
    return np.bincount(taken // table.shape[1], minlength=table.shape[0])


class _DayKernel:
    """Splits of n agents over the shifts of one day, for n = 0..n_max.

    Built for one requirement row ``r`` and one per-shift unit-cost row.  With
    coverage ``C`` (shifts x intervals), overlap ``O = C Cᵀ`` and the residual
    ``u = r - Cᵀy`` of a split ``y``, adding one agent to shift ``s`` changes
    the objective ``|u|² + cost·y`` by ``len_s - 2(C·u)_s + cost_s``.  The
    greedy pass adds agents one at a time to the cheapest shift (``picks``,
    ``marginals``); ``values[n]`` is the objective of the greedy split of
    ``n``.  Every add lowers ``C·u`` by a column of ``O >= 0``, so
    ``marginals`` never decrease.
    """

    def __init__(self, overlap, cost, cr, picks, marginals, empty_value):
        self.overlap = overlap
        self.cost = cost
        self.lengths = np.diag(overlap)
        # Δ[o, i] of moving one agent from o to i, less its (C·u) and cost terms
        self.swap_base = self.lengths[:, None] + self.lengths[None, :] - 2 * overlap
        self.cr = cr  # C·u of the empty split
        self.picks = picks
        self.marginals = marginals
        self.values = list(itertools.accumulate(marginals.tolist(), initial=empty_value))
        self._splits: dict[int, tuple] = {}

    def add_deltas(self, cu: np.ndarray) -> np.ndarray:
        """Objective change of adding one agent to each shift, given ``C·u``."""
        return self.lengths - 2 * cu + self.cost

    def swap_deltas(self, cu: np.ndarray, held: np.ndarray) -> np.ndarray:
        """Objective change ``Δ[k, i]`` of moving one agent from shift
        ``held[k]`` to shift ``i``, given ``C·u``."""
        gain = 2 * cu - self.cost
        return self.swap_base[held] + gain[held, None] - gain[None, :]

    def split(self, n: int, deadline: Deadline) -> tuple[tuple[int, ...], object]:
        """The greedy split of ``n`` improved by steepest swap descent.

        Each scan prices every move of one agent from a held shift to another
        shift and charges ``held x (S - 1)`` evaluations to ``deadline``; a
        scan that would overrun a move cap is not started.  The result is
        kept, so days that share this kernel and head-count share it.
        """
        if n in self._splits:
            return self._splits[n]
        S = len(self.cost)
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


def _greedy_passes(cr, overlap, costs, caps) -> tuple[np.ndarray, np.ndarray]:
    """Every row's greedy pass at once, one argmin per step over the rows
    still below their cap: row ``k`` starts from ``C·u = cr[k]`` and adds
    ``caps[k]`` agents; ``picks[k, t]`` and ``adds[k, t]`` are step ``t``'s
    shift and objective change (zero past the row's cap)."""
    order = np.argsort([-cap for cap in caps], kind="stable")  # under-cap rows: a prefix
    caps_desc, cost, rows = [caps[k] for k in order], costs[order], np.arange(len(caps))
    base = np.diag(overlap) - 2 * cr[order]  # exact int64, so + cost rounds as per row
    steps = caps_desc[0] if caps_desc else 0
    picks = np.zeros((steps, len(caps)), dtype=np.int64)
    adds = np.zeros((steps, len(caps)), dtype=np.result_type(base, costs))
    active = len(caps)
    for t in range(steps):
        while caps_desc[active - 1] <= t:
            active -= 1
        add = base[:active] + cost[:active]
        picks[t, :active] = s = add.argmin(axis=1)
        adds[t, :active] = add[rows[:active], s]
        base[:active] += 2 * overlap[s]
    unsort = np.argsort(order)
    return picks.T[unsort], adds.T[unsort]


def _day_kernels(r: np.ndarray, catalog: ShiftCatalog, unit_cost, head_caps) -> list:
    """One kernel per day, its cost row ``unit_cost[d]`` (int64 zeros when
    unpriced); days with equal requirement and cost rows share one, built up
    to the largest head-count among them."""
    cover = catalog.coverage.astype(np.int64)
    overlap = cover @ cover.T
    costs = np.zeros((r.shape[0], len(catalog)), dtype=np.int64) if unit_cost is None else unit_cost
    keys = [(r[d].tobytes(), costs[d].tobytes()) for d in range(r.shape[0])]
    caps: dict = {}
    first: dict = {}  # each distinct row's first day
    for d, (key, cap) in enumerate(zip(keys, head_caps)):
        caps[key] = max(caps.get(key, 0), cap)
        first.setdefault(key, d)
    days = list(first.values())
    cr = r[days] @ cover.T
    picks, adds = _greedy_passes(cr, overlap, costs[days], list(caps.values()))
    built = {
        key: _DayKernel(overlap, costs[d], cr[k], picks[k, :n], adds[k, :n], squared_norm(r[d]))
        for k, (key, d, n) in enumerate(zip(caps, days, caps.values()))
    }
    return [built[key] for key in keys]


def _descend_days(kernels: list, head_counts, deadline: Deadline):
    """Descend every day's greedy split at its head-count, in day order.

    Returns the splits, the total objective and a trace that starts at the
    greedy total and records the total after each day that improved.
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
    return tuple(splits), objective, tuple(trace)


def _status(objective, placed: int) -> SolveStatus:
    return SolveStatus.OPTIMAL if objective == 0 or placed == 0 else SolveStatus.FEASIBLE


def solve_local_day(
    r_day, agent_count: int, weeks: WeekPartition, penalty_factor: int, limits: SolveLimits
) -> SearchResult:
    """Exact day allocation: each week's greedy head-counts.

    ``week_optimal_day_counts`` is exact, so this spends none of ``limits``.
    """
    r = np.asarray(r_day, dtype=np.int64)
    _check_day_inputs(r, agent_count, weeks, penalty_factor)
    deadline = Deadline(limits)
    head_counts: list[int] = []
    objective = 0
    for w in range(weeks.count):
        days = weeks.days_of(w)
        vec, obj = week_optimal_day_counts(r[days.start : days.stop], agent_count, penalty_factor)
        head_counts.extend(vec)
        objective += obj
    return SearchResult(
        SolveStatus.OPTIMAL,
        objective,
        tuple(head_counts),
        None,
        (objective,),
        deadline.evaluations,
        deadline.elapsed(),
    )


def solve_local_shift(
    r_dt,
    day_counts,
    catalog: ShiftCatalog,
    limits: SolveLimits,
    unit_cost=None,
) -> SearchResult:
    """Each day's greedy split at its head-count, improved by swap descent."""
    r = np.asarray(r_dt, dtype=np.int64)
    n_d = [int(x) for x in day_counts]
    _check_shift_inputs(r, n_d, catalog)
    deadline = Deadline(limits)
    unit_cost = unit_cost_grid(unit_cost, r.shape[0], len(catalog))
    kernels = _day_kernels(r, catalog, unit_cost, n_d)
    splits, objective, trace = _descend_days(kernels, n_d, deadline)
    return SearchResult(
        _status(objective, sum(n_d)),
        objective,
        tuple(n_d),
        splits,
        trace,
        deadline.evaluations,
        deadline.elapsed(),
    )


def solve_local_single(
    r_dt,
    agent_count: int,
    weeks: WeekPartition,
    catalog: ShiftCatalog,
    limits: SolveLimits,
    unit_cost=None,
) -> SearchResult:
    """Joint day-and-shift choice over the per-day greedy tables.

    The greedy values ``f_d(n)`` are convex in ``n``, so taking each week's
    5A cheapest increments (at most A per day) is optimal over those tables.
    The chosen splits are then descended.
    """
    r = np.asarray(r_dt, dtype=np.int64)
    _check_joint_inputs(r, agent_count, weeks, catalog)
    deadline = Deadline(limits)
    unit_cost = unit_cost_grid(unit_cost, r.shape[0], len(catalog))
    kernels = _day_kernels(r, catalog, unit_cost, [agent_count] * r.shape[0])
    head_counts: list[int] = []
    for w in range(weeks.count):
        days = weeks.days_of(w)
        marginals = [kernels[d].marginals for d in days]
        taken = _take_smallest(marginals, WORKDAYS_PER_WEEK * agent_count)
        head_counts.extend(int(n) for n in taken)
    splits, objective, trace = _descend_days(kernels, head_counts, deadline)
    return SearchResult(
        _status(objective, agent_count),
        objective,
        tuple(head_counts),
        splits,
        trace,
        deadline.evaluations,
        deadline.elapsed(),
    )


# ---------------------------------------------------------------------------
# canonical materialization
# ---------------------------------------------------------------------------


def materialize_day(head_counts, agent_count: int, weeks: WeekPartition) -> DayAllocation:
    """Expand per-day head-counts to per-agent working days.

    Each week's head-counts are realized by ``patterns_from_day_counts``
    (which raises if they cannot be); within the week the lowest agent index
    takes the lexicographically smallest pattern.
    """
    if len(head_counts) != weeks.count * DAYS_PER_WEEK:
        raise ValueError(
            f"expected {weeks.count * DAYS_PER_WEEK} day head-counts, got {len(head_counts)}"
        )
    works = np.zeros((agent_count, len(head_counts)), dtype=np.int8)
    for w in range(weeks.count):
        days = weeks.days_of(w)
        patterns = patterns_from_day_counts(head_counts[days.start : days.stop], agent_count)
        agent = 0
        for pattern in sorted(patterns):
            n = patterns[pattern]
            works[agent : agent + n, [days.start + d for d in pattern]] = 1
            agent += n
    return DayAllocation.from_works(works)


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

