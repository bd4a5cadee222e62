"""Core problem-instance and solution types plus coverage accounting.

Time is discretized into equal intervals per day (hourly by default).  The
planning horizon is an exact number of 7-day weeks, every agent works exactly
five days in each week, and a working agent takes exactly one shift that day.
Agents are opaque indices 0..N-1 and are interchangeable: nothing in the
problem data distinguishes one agent from another.

Everything in this module is an immutable value, checked once when it is
built; the functions are pure.  No type stores a fact it can derive: daily
peaks and day counts are computed from their grids on construction, and a
scenario's interval count is its requirement grid's.
"""

from dataclasses import dataclass, field, fields
from datetime import date
from functools import cached_property

import numpy as np

from .presets import DEFAULT_AHT_SECONDS, DEFAULT_SLA_TARGET, DEFAULT_THRESHOLD_SECONDS

DAYS_PER_WEEK = 7
WORKDAYS_PER_WEEK = 5
# Largest requirement: far enough below int64 that the solves' sums cannot wrap.
MAX_REQUIREMENT = 10**12
# Largest head-count the day phase takes: every command builds agents x days grids.
MAX_AGENTS = 100_000


def frozen_grid(values, dtype=np.int64) -> np.ndarray:
    """Copy ``values`` into a read-only numpy array; one that already is
    read-only, of ``dtype``, and owns its memory is returned as it is.

    Raises ``ValueError`` if the conversion to ``dtype`` would change a cell:
    a fraction, a value out of range, NaN or infinity; the first such cell is
    named unless the input holds Python objects that numpy cannot convert.
    """
    owned = isinstance(values, np.ndarray) and values.base is None
    if owned and values.dtype == dtype and not values.flags.writeable:
        return values
    source = np.asarray(values)
    try:
        with np.errstate(invalid="ignore"):  # a cell that does not fit is refused below
            arr = source.astype(dtype)
            bad = source.dtype != arr.dtype and (
                (arr != source) | (arr.astype(source.dtype) != source)
            )
    except (OverflowError, TypeError):  # an object cell: an int beyond 64 bits, None
        bad = True
    if np.any(bad):
        raise ValueError(f"grid values do not convert to {np.dtype(dtype)} unchanged{_cell(bad)}")
    arr.setflags(write=False)
    return arr


def _cell(mask) -> str:
    """`` at [i][j]``, the index of ``mask``'s first true cell; empty for a scalar."""
    if np.ndim(mask) == 0:
        return ""
    return " at " + "".join(f"[{i}]" for i in np.argwhere(mask)[0])


class _Grid:
    """A value compared by its first field, the grid the others derive from."""

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        grid = fields(self)[0].name
        return np.array_equal(getattr(self, grid), getattr(other, grid))


def check_aht_seconds(aht_seconds: float) -> None:
    """The handling-time rule: positive, so NaN is refused too."""
    if not aht_seconds > 0:
        raise ValueError("aht_seconds must be positive")


def check_threshold_seconds(threshold_seconds: float) -> None:
    """The service-level threshold rule: non-negative, so NaN is refused too."""
    if not threshold_seconds >= 0:
        raise ValueError("threshold_seconds must be non-negative")


def check_agent_count(agent_count: int) -> None:
    """The head-count rule: non-negative and at most ``MAX_AGENTS``."""
    if agent_count < 0:
        raise ValueError("agent_count must be non-negative")
    if agent_count > MAX_AGENTS:
        raise ValueError(f"agent_count must be at most {MAX_AGENTS}")


def check_requirement_cells(grid: np.ndarray) -> None:
    """The requirement rule: each cell in ``[0, MAX_REQUIREMENT]``, the first bad one named."""
    negative, above = grid < 0, grid > MAX_REQUIREMENT
    if negative.any():
        raise ValueError(f"negative interval requirement{_cell(negative)}")
    if above.any():
        raise ValueError(f"interval requirement above {MAX_REQUIREMENT}{_cell(above)}")


# ---------------------------------------------------------------------------
# problem-side types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftCatalog:
    """The set of daily shifts an agent can take.

    Each shift is a ``(start_interval, length_intervals)`` block that must fit
    inside a single day, and no shift is listed twice; building a catalog
    that breaks a rule raises one ``ValueError`` naming every problem.
    ``coverage[s, t]`` is 1 when shift ``s`` covers interval ``t``; it is
    built on first use, so checking a catalog allocates nothing.
    """

    shifts: tuple[tuple[int, int], ...]
    intervals_per_day: int = 24

    def __post_init__(self):
        shifts = tuple((int(s), int(l)) for s, l in self.shifts)
        problems: list[str] = []
        if self.intervals_per_day < 1:
            problems.append("intervals_per_day must be >= 1")
        if not shifts:
            problems.append("shift catalog is empty")
        seen: set[tuple[int, int]] = set()
        for idx, (start, length) in enumerate(shifts):
            if length < 1:
                problems.append(f"shift {idx} has non-positive length {length}")
            if start < 0:
                problems.append(f"shift {idx} has negative start {start}")
            elif start + length > self.intervals_per_day:
                problems.append(f"shift {idx} exceeds day boundary")
            if (start, length) in seen:
                problems.append(f"shift {idx} duplicates ({start}, {length})")
            seen.add((start, length))
        if problems:
            raise ValueError("invalid shift catalog: " + "; ".join(problems))
        object.__setattr__(self, "shifts", shifts)

    @cached_property
    def coverage(self) -> np.ndarray:
        cov = np.zeros((len(self.shifts), self.intervals_per_day), dtype=np.int8)
        for idx, (start, length) in enumerate(self.shifts):
            cov[idx, start : start + length] = 1
        cov.setflags(write=False)
        return cov

    def __len__(self) -> int:
        return len(self.shifts)


def build_week_partition(day_count: int) -> int:
    """The number of consecutive 7-day weeks in ``day_count`` days from day
    0, week ``w`` being days ``7w`` to ``7w + 6``; a partial week is refused."""
    if day_count <= 0 or day_count % DAYS_PER_WEEK != 0:
        raise ValueError(f"horizon not a multiple of 7: got {day_count} days")
    return day_count // DAYS_PER_WEEK


@dataclass(frozen=True, eq=False)
class RequirementMatrix(_Grid):
    """Required head-counts per (day, interval), each in
    ``[0, MAX_REQUIREMENT]``, and each day's peak."""

    per_interval: np.ndarray  # shape (days, intervals), int
    per_day: np.ndarray = field(init=False, repr=False)  # shape (days,): the row maxima

    def __post_init__(self):
        # the solves sum exact integer squares: a fractional cell is refused, not truncated
        grid = frozen_grid(self.per_interval)
        if grid.ndim != 2:
            raise ValueError("per_interval must be 2-dimensional")
        if grid.shape[1] == 0:  # a day without intervals has no peak
            raise ValueError("per_interval must have at least one interval per day")
        check_requirement_cells(grid)
        object.__setattr__(self, "per_interval", grid)
        object.__setattr__(self, "per_day", frozen_grid(grid.max(axis=1)))

    @property
    def days(self) -> int:
        return self.per_interval.shape[0]

    @property
    def intervals(self) -> int:
        return self.per_interval.shape[1]


@dataclass(frozen=True)
class SlaSpec:
    """Service-level goal: fraction of calls answered within the threshold."""

    target: float
    threshold_seconds: float

    def __post_init__(self):
        if not 0.0 < self.target <= 1.0:
            raise ValueError("target must lie in (0, 1]")
        check_threshold_seconds(self.threshold_seconds)


@dataclass(frozen=True)
class Scenario:
    """A complete scheduling problem instance; building an invalid one raises.

    The interval count is the requirement grid's, and the SLA checks itself.
    """

    name: str
    days: tuple[date, ...]
    agent_count: int
    shift_catalog: ShiftCatalog
    requirements: RequirementMatrix
    sla: SlaSpec = SlaSpec(DEFAULT_SLA_TARGET, DEFAULT_THRESHOLD_SECONDS)
    aht_seconds: float = DEFAULT_AHT_SECONDS

    def __post_init__(self):
        problems = _scenario_problems(self)
        if problems:
            raise ValueError("invalid scenario: " + "; ".join(problems))

    @property
    def num_days(self) -> int:
        return len(self.days)

    @property
    def intervals_per_day(self) -> int:
        return self.requirements.intervals

    def week_partition(self) -> int:
        return build_week_partition(self.num_days)


def check_interval_grid(catalog: ShiftCatalog, requirements: RequirementMatrix) -> None:
    """The grid rule: the catalog's day has the requirements' intervals."""
    if catalog.intervals_per_day != requirements.intervals:
        raise ValueError("shift catalog interval grid differs from requirements")


def _refusal(check, *values) -> list[str]:
    """The message ``check(*values)`` raises, as a one-item list; empty if none."""
    try:
        check(*values)
    except ValueError as exc:
        return [str(exc)]
    return []


def _scenario_problems(scenario: Scenario) -> list[str]:
    """Every contract violation in ``scenario`` (empty list = valid)."""
    n_days = scenario.num_days
    problems = _refusal(build_week_partition, n_days)
    if any(scenario.days[i] >= scenario.days[i + 1] for i in range(n_days - 1)):
        problems.append("days are not strictly increasing")
    problems += _refusal(check_agent_count, scenario.agent_count)
    problems += _refusal(check_interval_grid, scenario.shift_catalog, scenario.requirements)
    if scenario.requirements.days != n_days:
        problems.append("requirements day count differs from scenario days")
    problems += _refusal(check_aht_seconds, scenario.aht_seconds)
    if not isinstance(scenario.sla, SlaSpec):
        problems.append("sla must be an SlaSpec")
    return problems


# ---------------------------------------------------------------------------
# solution-side types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DayAllocation(_Grid):
    """Which days each agent works: ``works[a, d]`` is 0/1."""

    works: np.ndarray  # shape (agents, days), int8
    day_counts: np.ndarray = field(init=False, repr=False)  # shape (days,): column sums

    def __post_init__(self):
        grid = frozen_grid(self.works, dtype=np.int8)
        if grid.ndim != 2:
            raise ValueError("works grid must be 2-dimensional")
        if not np.isin(grid, (0, 1)).all():
            raise ValueError("works grid must be 0/1")
        object.__setattr__(self, "works", grid)
        object.__setattr__(self, "day_counts", frozen_grid(grid.sum(axis=0, dtype=np.int64)))

    @property
    def agent_count(self) -> int:
        return self.works.shape[0]

    @property
    def num_days(self) -> int:
        return self.works.shape[1]


OFF = -1  # the shift index of a day off


class TripleError(ValueError):
    """A triple no schedule grid can hold, at index ``position`` of the input."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True, eq=False)
class Schedule(_Grid):
    """Each agent's shift on each day: ``shifts[a, d]`` is a catalog index,
    or ``OFF`` on a day off.  One cell per agent-day, so a double booking
    cannot be represented."""

    shifts: np.ndarray  # shape (agents, days), int64

    def __post_init__(self):
        grid = frozen_grid(self.shifts)
        if grid.ndim != 2:
            raise ValueError("schedule grid must be 2-dimensional")
        object.__setattr__(self, "shifts", grid)

    @classmethod
    def from_triples(cls, triples, agent_count: int, day_count: int) -> "Schedule":
        """The grid of sparse (agent, day, shift) triples; raises a
        ``TripleError`` on the first triple outside the grid, with a negative
        shift, or on an agent-day that already has a shift."""
        grid = np.full((agent_count, day_count), OFF, dtype=np.int64)
        for i, (a, d, s) in enumerate(triples):
            a, d, s = int(a), int(d), int(s)
            if not (0 <= a < agent_count and 0 <= d < day_count):
                raise TripleError(
                    i, f"agent {a}, day {d}: outside the {agent_count} x {day_count} grid"
                )
            if not 0 <= s < 2**63:
                raise TripleError(i, f"agent {a}, day {d}: shift index {s} out of range")
            if grid[a, d] != OFF:
                raise TripleError(i, f"agent {a} has more than one shift on day {d}")
            grid[a, d] = s
        grid.setflags(write=False)  # frozen already, so not copied
        return cls(grid)

    def __len__(self) -> int:
        """Working agent-days."""
        return int(np.count_nonzero(self.shifts != OFF))


@dataclass(frozen=True, eq=False)
class CoverageProfile:
    """Scheduled head-counts: per (day, interval) and distinct agents per day."""

    per_interval: np.ndarray
    per_day: np.ndarray


def _shift_range_problems(schedule: Schedule, catalog: ShiftCatalog) -> list[str]:
    grid = schedule.shifts
    if not grid.size or (grid.min() >= OFF and grid.max() < len(catalog)):
        return []  # no grid-sized mask: the schedule writer's memory stays one block's
    bad = grid[(grid < OFF) | (grid >= len(catalog))]
    return [f"shift index {int(s)} out of range" for s in bad]


def check_shift_range(schedule: Schedule, catalog: ShiftCatalog) -> None:
    """The shift-index rule: every cell is ``OFF`` or an index into ``catalog``;
    the first cell that breaks it is named."""
    problems = _shift_range_problems(schedule, catalog)
    if problems:
        raise ValueError(problems[0])


def coverage_from_schedule(schedule: Schedule, catalog: ShiftCatalog) -> CoverageProfile:
    """Aggregate a schedule into interval-level and day-level head-counts."""
    check_shift_range(schedule, catalog)
    shifts, days = len(catalog), schedule.shifts.shape[1]
    # agents per (day, shift), one day's column at a time; OFF tallies at index 0
    per_shift = np.zeros((days, shifts), dtype=np.int64)
    for d in range(days):
        per_shift[d] = np.bincount(schedule.shifts[:, d] + 1, minlength=shifts + 1)[1:]
    per_interval = per_shift @ catalog.coverage.astype(np.int64)
    per_day = per_shift.sum(axis=1)
    per_interval.setflags(write=False)
    per_day.setflags(write=False)
    return CoverageProfile(per_interval, per_day)


def _quota_problems(works: np.ndarray, weeks: int) -> list[str]:
    """One problem per (agent, week) not worked exactly five days, ordered by
    agent then week."""
    week_days = works.reshape(len(works), weeks, DAYS_PER_WEEK).sum(axis=2)
    return [
        f"agent {a} works {week_days[a, w]} days in week {w}, expected {WORKDAYS_PER_WEEK}"
        for a, w in np.argwhere(week_days != WORKDAYS_PER_WEEK)
    ]


def validate_schedule(
    schedule: Schedule,
    *,
    agent_count: int,
    day_count: int,
    catalog: ShiftCatalog,
    weeks: int,
) -> list[str]:
    """Check the grid shape, the shift indices, and the weekly workday quota."""
    agents, days = schedule.shifts.shape
    if (agents, days) != (agent_count, day_count):
        return [f"schedule covers {agents} agents x {days} days,"
                f" expected {agent_count} x {day_count}"]
    problems = _shift_range_problems(schedule, catalog)
    if problems:
        return problems
    return _quota_problems(schedule.shifts != OFF, weeks)
