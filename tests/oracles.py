"""The test references: exact optima of the day, shift and joint problems on
micro instances, by enumeration over head-counts and splits, and a per-agent
audit of finished allocations and schedules.

Each function returns the ``SearchResult`` the solvers return, with status
``OPTIMAL``.  Every enumerated vector costs one evaluation, and the first
minimum is kept, so ties go to the lexicographically smallest vector.  The
oracle keeps no clock (``runtime_seconds`` is 0.0) and no node cap: it is
meant for instances of a few agents and shifts.

``audit_days`` and ``audit_schedule`` evaluate the paper's integer programs
at the binaries of a finished allocation or schedule: every per-agent
constraint, and the objective in exact Python integers.  They use neither
``validate_schedule`` nor ``coverage_from_schedule``, so they check the
package along a route of their own.

``validate_day_allocation`` checks an allocation's agent count and weekly
quota with the package's messages.  ``covers`` lists a shift's intervals for
the per-agent brute forces, and ``scenario_from_grid`` builds the micro
scenarios the tests solve.
"""

import itertools
from datetime import date, timedelta

import numpy as np

from shiftplan.domain import (
    DAYS_PER_WEEK,
    WORKDAYS_PER_WEEK,
    RequirementMatrix,
    Scenario,
    ShiftCatalog,
)
from shiftplan.phases import SearchResult, SolveStatus, day_term, squared_norm

# All 5-day patterns of a week, in lexicographic order.
DAY_PATTERNS: tuple[tuple[int, ...], ...] = tuple(
    itertools.combinations(range(DAYS_PER_WEEK), WORKDAYS_PER_WEEK)
)


def bounded_vectors(bound: int, total: int, length: int):
    """Yield all vectors in [0, bound]^length with the given sum, lexicographic."""
    vec = [0] * length

    def rec(pos: int, left: int):
        if pos == length - 1:
            vec[pos] = left
            yield tuple(vec)
            return
        tail = length - pos - 1
        for v in range(max(0, left - bound * tail), min(bound, left) + 1):
            vec[pos] = v
            yield from rec(pos + 1, left - v)

    if 0 <= total <= bound * length:
        yield from rec(0, total)


def _first_min(vectors, value):
    """The first vector of least ``value``, that value, and how many were tried."""
    best_vec, best_obj, tried = None, None, 0
    for vec in vectors:
        tried += 1
        obj = value(vec)
        if best_obj is None or obj < best_obj:
            best_vec, best_obj = vec, obj
    return best_vec, best_obj, tried


def _week_choice(values, agent_count: int, weeks):
    """Each week's best per-day head-counts over the tables ``values[d][n]``:
    (head-counts, objective, evaluations)."""
    head_counts, objective, tried = [], 0, 0
    for w in range(weeks):
        days = range(7 * w, 7 * w + 7)
        table = values[days.start : days.stop]
        vec, obj, n = _first_min(
            bounded_vectors(agent_count, WORKDAYS_PER_WEEK * agent_count, DAYS_PER_WEEK),
            lambda v: sum(table[d][k] for d, k in enumerate(v)),
        )
        head_counts.extend(vec)
        objective += obj
        tried += n
    return tuple(head_counts), objective, tried


def _best_split(r_row, n: int, cover):
    """The best split of ``n`` agents over the shifts of one day."""
    return _first_min(
        bounded_vectors(n, n, cover.shape[0]),
        lambda vec: squared_norm(r_row - np.asarray(vec, dtype=np.int64) @ cover),
    )


def _result(objective, head_counts, splits, evaluations) -> SearchResult:
    return SearchResult(
        SolveStatus.OPTIMAL, objective, head_counts, splits, (objective,), evaluations, 0.0
    )


def exact_day(r_day, agent_count: int, weeks, penalty_factor: int) -> SearchResult:
    """Day-allocation optimum over every per-day head-count vector of each week."""
    values = [
        [day_term(required, n, agent_count, penalty_factor) for n in range(agent_count + 1)]
        for required in np.asarray(r_day, dtype=np.int64).tolist()
    ]
    head_counts, objective, tried = _week_choice(values, agent_count, weeks)
    return _result(objective, head_counts, None, tried)


def exact_shift(r_dt, day_counts, catalog) -> SearchResult:
    """Shift-allocation optimum: each day's best split at its head-count."""
    r = np.asarray(r_dt, dtype=np.int64)
    cover = catalog.coverage.astype(np.int64)
    n_d = tuple(int(x) for x in day_counts)
    best = [_best_split(r[d], n, cover) for d, n in enumerate(n_d)]
    return _result(
        sum(obj for _, obj, _ in best),
        n_d,
        tuple(vec for vec, _, _ in best),
        sum(tried for _, _, tried in best),
    )


def exact_single(r_dt, agent_count: int, weeks, catalog) -> SearchResult:
    """Joint optimum.

    Given per-day head-counts, the best split of a day is independent of every
    other day, so the oracle tabulates each day's best split for every
    head-count and then enumerates per-week head-count vectors.
    """
    r = np.asarray(r_dt, dtype=np.int64)
    cover = catalog.coverage.astype(np.int64)
    tables = [[_best_split(row, n, cover) for n in range(agent_count + 1)] for row in r]
    values = [[obj for _, obj, _ in table] for table in tables]
    head_counts, objective, tried = _week_choice(values, agent_count, weeks)
    return _result(
        objective,
        head_counts,
        tuple(tables[d][n][0] for d, n in enumerate(head_counts)),
        tried + sum(t for table in tables for _, _, t in table),
    )


def _workday_violations(days_worked, weeks) -> list[str]:
    """Agents whose row of 0/1 working days misses the weekly quota."""
    return [
        f"agent {a} works {n} days in week {w}"
        for a, row in enumerate(days_worked)
        for w in range(weeks)
        if (n := sum(row[d] for d in range(7 * w, 7 * w + 7))) != WORKDAYS_PER_WEEK
    ]


def audit_days(works, r_day, agent_count: int, weeks, penalty_factor: int):
    """The day program at ``x[a,d] = works[a][d]``: (violations, objective).

    Each agent works ``WORKDAYS_PER_WEEK`` days of every week; the objective
    is ``sum_d (R_d - P_d)^2 + (K (A - P_d))^2`` with ``P_d = sum_a x[a,d]``.
    """
    x = np.asarray(works).tolist()
    objective = 0
    for d, required in enumerate(np.asarray(r_day).tolist()):
        p = sum(row[d] for row in x)
        objective += (required - p) ** 2 + (penalty_factor * (agent_count - p)) ** 2
    return _workday_violations(x, weeks), objective


def audit_schedule(shifts, r_dt, catalog, weeks, works=None):
    """The joint program, or given ``works`` the shift program on those
    working days, at ``x[a,d,s] = [shifts[a][d] == s]``: (violations,
    objective).

    Each agent works ``WORKDAYS_PER_WEEK`` days of every week and, given
    ``works``, holds exactly one shift on each working day and none on a day
    off; the objective is ``sum_{d,t} (r_dt - sum_{a,s} C[s,t] x[a,d,s])^2``.
    """
    cover = catalog.coverage.astype(int).tolist()
    grid = np.asarray(shifts).tolist()
    x = [[[int(v == s) for s in range(len(cover))] for v in row] for row in grid]
    on = [[sum(cell) for cell in row] for row in x]
    problems = _workday_violations(on, weeks)
    if works is not None:
        problems += [
            f"agent {a} holds {n} shifts on {'working day' if w else 'day off'} {d}"
            for a, (row, work_row) in enumerate(zip(on, np.asarray(works).tolist()))
            for d, (n, w) in enumerate(zip(row, work_row))
            if n != w
        ]
    objective = 0
    for d, row in enumerate(np.asarray(r_dt).tolist()):
        for t, required in enumerate(row):
            p = sum(agent[d][s] * cover[s][t] for agent in x for s in range(len(cover)))
            objective += (required - p) ** 2
    return problems, objective


def validate_day_allocation(allocation, agent_count: int, weeks) -> list[str]:
    """The allocation's agent count, then one problem per (agent, week) not
    worked exactly five days, ordered by week then agent."""
    problems: list[str] = []
    if allocation.agent_count != agent_count:
        problems.append(
            f"allocation has {allocation.agent_count} agents, expected {agent_count}"
        )
    works = allocation.works
    week_days = works.reshape(len(works), weeks, DAYS_PER_WEEK).sum(axis=2)
    return problems + [
        f"agent {a} works {week_days[a, w]} days in week {w}, expected {WORKDAYS_PER_WEEK}"
        for w, a in np.argwhere(week_days.T != WORKDAYS_PER_WEEK)
    ]


def covers(catalog, shift: int) -> range:
    """Interval indices covered by ``shift`` of ``catalog``."""
    start, length = catalog.shifts[shift]
    return range(start, start + length)


def scenario_from_grid(grid, agents, shifts, name="t"):
    """A scenario of ``agents`` over a (days, intervals) requirement grid,
    its days consecutive from 2024-01-01."""
    grid = np.asarray(grid, dtype=np.int64)
    days, intervals = grid.shape
    return Scenario(
        name=name,
        days=tuple(date(2024, 1, 1) + timedelta(days=i) for i in range(days)),
        agent_count=agents,
        shift_catalog=ShiftCatalog(shifts, intervals),
        requirements=RequirementMatrix(grid),
    )
