"""
Two-phase scheduling, step by step
==================================

First decide which days each agent works (against daily peaks), then hand
out shifts on those days (against interval-level needs).  A small week-long
problem keeps every intermediate object printable.
"""

from datetime import date, timedelta

import numpy as np

from shiftplan import (
    DayPhaseSpec,
    RequirementMatrix,
    Scenario,
    ShiftCatalog,
    ShiftPhaseSpec,
    SolveLimits,
    coverage_from_schedule,
    solve_day_allocation,
    solve_multi_phase,
    solve_shift_allocation,
)

# 6 agents, one week, 8 intervals per day, three 4-interval shifts
catalog = ShiftCatalog(shifts=((0, 4), (2, 4), (4, 4)), intervals_per_day=8)
r_dt = np.array(
    [
        [2, 3, 4, 4, 4, 3, 2, 1],
        [2, 3, 4, 5, 4, 3, 2, 1],
        [2, 3, 4, 4, 4, 3, 2, 1],
        [2, 3, 5, 5, 4, 3, 2, 1],
        [2, 4, 5, 5, 5, 4, 2, 1],
        [1, 2, 2, 3, 2, 2, 1, 0],
        [1, 1, 2, 2, 2, 1, 1, 0],
    ]
)
requirements = RequirementMatrix(r_dt)
scenario = Scenario(
    name="walkthrough",
    days=tuple(date(2024, 1, 1) + timedelta(days=d) for d in range(7)),
    agent_count=6,
    shift_catalog=catalog,
    requirements=requirements,
)
limits = SolveLimits(seed=7, move_cap=20_000)

# phase 1: pick working days against the daily peak requirement R_D
day_spec = DayPhaseSpec(
    day_requirements=requirements.per_day,
    agent_count=scenario.agent_count,
    weeks=scenario.week_partition(),
)
day = solve_day_allocation(day_spec, limits)
print(f"daily peaks R_D:        {requirements.per_day.tolist()}")
print(f"phase-1 head-counts:    {day.allocation.day_counts.tolist()}")
print(f"phase-1 objective:      {day.objective} ({day.status.value})")
print("who works when (rows = agents, Mon..Sun):")
print(day.allocation.works)

# phase 2: one shift per working day, interval deviations squared
shift = solve_shift_allocation(
    ShiftPhaseSpec(requirements=requirements, allocation=day.allocation, catalog=catalog),
    limits,
)
cov = coverage_from_schedule(shift.schedule, catalog)
print()
print(f"phase-2 objective:      {shift.objective} ({shift.status.value})")
print("interval coverage vs need, Monday:")
print(f"  need  {r_dt[0].tolist()}")
print(f"  have  {cov.per_interval[0].tolist()}")

# the per-day head-counts survive phase 2 untouched
assert cov.per_day.tolist() == day.allocation.day_counts.tolist()

# the one-call wrapper runs both phases on a 20/80 budget split
both = solve_multi_phase(scenario, limits)
print()
print(f"solve_multi_phase objective: {both.objective}")
print(f"  evaluations (both phases): {both.evaluations}")
