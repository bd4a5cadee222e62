"""Core problem-instance and solution types plus coverage accounting.

Time is discretized into equal intervals per day (hourly by default).  The
planning horizon is an exact number of 7-day weeks, every agent works exactly
five days in each week, and a working agent takes exactly one shift that day.
Agents are opaque indices 0..N-1 and are interchangeable: nothing in the
problem data distinguishes one agent from another.

Everything in this module is an immutable value; the functions are pure.
"""

from dataclasses import dataclass, field
from datetime import date

import numpy as np

DAYS_PER_WEEK = 7
WORKDAYS_PER_WEEK = 5


def frozen_grid(values, dtype=np.int64) -> np.ndarray:
    """Copy ``values`` into a read-only numpy array; one that already is
    read-only, of ``dtype``, and owns its memory is returned as it is.

    Raises ``ValueError`` if the conversion to ``dtype`` would change a cell:
    a fraction, a value out of range, NaN or infinity.
    """
    owned = isinstance(values, np.ndarray) and values.base is None
    if owned and values.dtype == dtype and not values.flags.writeable:
        return values
    source = np.asarray(values)
    with np.errstate(invalid="ignore"):  # a cell that does not fit is refused below
        arr = source.astype(dtype)
        if source.dtype != arr.dtype and not (
            np.array_equal(arr, source) and np.array_equal(arr.astype(source.dtype), source)
        ):
            raise ValueError(f"grid values do not convert to {arr.dtype} unchanged")
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# problem-side types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftCatalog:
    """The set of daily shifts an agent can take.

    Each shift is a ``(start_interval, length_intervals)`` block that must fit
    inside a single day.  ``coverage[s, t]`` is 1 when shift ``s`` covers
    interval ``t``.
    """

    shifts: tuple[tuple[int, int], ...]
    intervals_per_day: int = 24
    coverage: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "shifts", tuple((int(s), int(l)) for s, l in self.shifts)
        )
        cov = np.zeros((len(self.shifts), self.intervals_per_day), dtype=np.int8)
        for idx, (start, length) in enumerate(self.shifts):
            if 0 <= start and length >= 1 and start + length <= self.intervals_per_day:
                cov[idx, start : start + length] = 1
        cov.setflags(write=False)
        object.__setattr__(self, "coverage", cov)

    def __len__(self) -> int:
        return len(self.shifts)

    def covers(self, shift: int) -> range:
        """Interval indices covered by ``shift``."""
        start, length = self.shifts[shift]
        return range(start, start + length)

    def validate(self) -> list[str]:
        problems: list[str] = []
        if self.intervals_per_day < 1:
            problems.append("intervals_per_day must be >= 1")
        if not self.shifts:
            problems.append("shift catalog is empty")
        seen: set[tuple[int, int]] = set()
        for idx, (start, length) in enumerate(self.shifts):
            if length < 1:
                problems.append(f"shift {idx} has non-positive length {length}")
            if start < 0:
                problems.append(f"shift {idx} has negative start {start}")
            elif start + length > self.intervals_per_day:
                problems.append(f"shift {idx} exceeds day boundary")
            if (start, length) in seen:
                problems.append(f"shift {idx} duplicates ({start}, {length})")
            seen.add((start, length))
        return problems


@dataclass(frozen=True)
class WeekPartition:
    """Grouping of day indices into consecutive 7-day weeks."""

    weeks: tuple[tuple[int, int], ...]  # (first_day, day_after_last) per week

    @property
    def count(self) -> int:
        return len(self.weeks)

    def days_of(self, week: int) -> range:
        start, stop = self.weeks[week]
        return range(start, stop)

    def week_of(self, day: int) -> int:
        return day // DAYS_PER_WEEK


def build_week_partition(day_count: int) -> WeekPartition:
    """Split ``day_count`` days into full weeks; partial weeks are rejected."""
    if day_count <= 0 or day_count % DAYS_PER_WEEK != 0:
        raise ValueError(
            f"horizon not a multiple of 7: got {day_count} days"
        )
    return WeekPartition(
        tuple(
            (w * DAYS_PER_WEEK, (w + 1) * DAYS_PER_WEEK)
            for w in range(day_count // DAYS_PER_WEEK)
        )
    )


@dataclass(frozen=True, eq=False)
class RequirementMatrix:
    """Required head-counts: per (day, interval) and the per-day peak."""

    per_interval: np.ndarray  # shape (days, intervals), int
    per_day: np.ndarray  # shape (days,), int: max over intervals of that day

    @classmethod
    def from_interval_grid(cls, grid) -> "RequirementMatrix":
        per_interval = frozen_grid(grid)
        if per_interval.ndim != 2:
            raise ValueError("requirements grid must be 2-dimensional")
        per_day = frozen_grid(per_interval.max(axis=1))
        return cls(per_interval, per_day)

    @property
    def days(self) -> int:
        return self.per_interval.shape[0]

    @property
    def intervals(self) -> int:
        return self.per_interval.shape[1]

    def validate(self) -> list[str]:
        problems: list[str] = []
        if self.per_interval.ndim != 2:
            problems.append("per_interval must be 2-dimensional")
            return problems
        if (self.per_interval < 0).any():
            problems.append("negative interval requirement")
        if self.per_day.shape != (self.days,):
            problems.append("per_day length does not match day count")
        elif not np.array_equal(self.per_day, self.per_interval.max(axis=1)):
            problems.append("per_day is not the per-interval row maximum")
        return problems

    def __eq__(self, other) -> bool:
        if not isinstance(other, RequirementMatrix):
            return NotImplemented
        return np.array_equal(self.per_interval, other.per_interval) and np.array_equal(
            self.per_day, other.per_day
        )


def unit_cost_grid(unit_cost, day_count: int, shift_count: int) -> np.ndarray | None:
    """Checked read-only copy of a (days x shifts) unit-cost grid.

    ``unit_cost[d, s]`` is the price of one agent on shift ``s`` of day ``d``;
    agents are interchangeable, so nothing else can carry a price.  ``None``
    (no costs) passes through.
    """
    if unit_cost is None:
        return None
    grid = frozen_grid(unit_cost, dtype=np.float64)
    if grid.shape != (day_count, shift_count):
        raise ValueError(
            f"unit costs are {grid.shape}, expected ({day_count}, {shift_count}) days x shifts"
        )
    if not np.isfinite(grid).all():
        raise ValueError("unit costs must be finite")
    if (grid < 0).any():
        raise ValueError("negative unit cost")
    return grid


@dataclass(frozen=True)
class Scenario:
    """A complete scheduling problem instance."""

    name: str
    days: tuple[date, ...]
    intervals_per_day: int
    agent_count: int
    shift_catalog: ShiftCatalog
    requirements: RequirementMatrix
    sla_target: float = 0.8
    sla_threshold_seconds: float = 20.0
    aht_seconds: float = 300.0

    @property
    def num_days(self) -> int:
        return len(self.days)

    def week_partition(self) -> WeekPartition:
        return build_week_partition(self.num_days)


def validate_scenario(scenario: Scenario) -> list[str]:
    """Collect every contract violation in ``scenario`` (empty list = valid)."""
    problems: list[str] = []
    n_days = scenario.num_days
    if n_days == 0 or n_days % DAYS_PER_WEEK != 0:
        problems.append(f"horizon not a multiple of 7: got {n_days} days")
    if any(
        scenario.days[i] >= scenario.days[i + 1] for i in range(n_days - 1)
    ):
        problems.append("days are not strictly increasing")
    if scenario.intervals_per_day < 1:
        problems.append("intervals_per_day must be >= 1")
    if scenario.agent_count < 0:
        problems.append("agent_count must be >= 0")
    if scenario.shift_catalog.intervals_per_day != scenario.intervals_per_day:
        problems.append("shift catalog interval grid differs from scenario")
    problems.extend(scenario.shift_catalog.validate())
    problems.extend(scenario.requirements.validate())
    if scenario.requirements.per_interval.ndim == 2:
        if scenario.requirements.days != n_days:
            problems.append("requirements day count differs from scenario days")
        if scenario.requirements.intervals != scenario.intervals_per_day:
            problems.append("requirements interval count differs from scenario")
    if not 0.0 < scenario.sla_target <= 1.0:
        problems.append("sla target must lie in (0, 1]")
    if scenario.sla_threshold_seconds <= 0:
        problems.append("sla threshold must be positive")
    if scenario.aht_seconds <= 0:
        problems.append("average handling time must be positive")
    return problems


def require_valid(scenario: Scenario) -> None:
    """Raise a ``ValueError`` naming every problem ``validate_scenario`` finds."""
    problems = validate_scenario(scenario)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# solution-side types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DayAllocation:
    """Which days each agent works: ``works[a, d]`` is 0/1."""

    works: np.ndarray  # shape (agents, days), int8
    day_counts: np.ndarray  # shape (days,), int64 column sums

    @classmethod
    def from_works(cls, works) -> "DayAllocation":
        grid = frozen_grid(works, dtype=np.int8)
        if grid.ndim != 2:
            raise ValueError("works grid must be 2-dimensional")
        if not np.isin(grid, (0, 1)).all():
            raise ValueError("works grid must be 0/1")
        return cls(grid, frozen_grid(grid.sum(axis=0, dtype=np.int64)))

    @property
    def agent_count(self) -> int:
        return self.works.shape[0]

    @property
    def num_days(self) -> int:
        return self.works.shape[1]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Assigned (agent, day) pairs, sorted."""
        return tuple(zip(*(index.tolist() for index in np.nonzero(self.works))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DayAllocation):
            return NotImplemented
        return np.array_equal(self.works, other.works)


OFF = -1  # the shift index of a day off


class TripleError(ValueError):
    """A triple no schedule grid can hold, at index ``position`` of the input."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True, eq=False)
class Schedule:
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return np.array_equal(self.shifts, other.shifts)


@dataclass(frozen=True, eq=False)
class CoverageProfile:
    """Scheduled head-counts: per (day, interval) and distinct agents per day."""

    per_interval: np.ndarray
    per_day: np.ndarray


@dataclass(frozen=True, eq=False)
class DeviationProfile:
    """Signed shortfall (required minus scheduled), interval and day level."""

    per_interval: np.ndarray
    per_day: np.ndarray


def _shift_range_problems(schedule: Schedule, catalog: ShiftCatalog) -> list[str]:
    grid = schedule.shifts
    bad = grid[(grid < OFF) | (grid >= len(catalog))]
    return [f"shift index {int(s)} out of range" for s in bad]


def coverage_from_schedule(schedule: Schedule, catalog: ShiftCatalog) -> CoverageProfile:
    """Aggregate a schedule into interval-level and day-level head-counts."""
    problems = _shift_range_problems(schedule, catalog)
    if problems:
        raise ValueError(problems[0])
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


def deviation_profiles(
    requirements: RequirementMatrix, coverage: CoverageProfile
) -> DeviationProfile:
    """Signed required-minus-scheduled deviations at both granularities."""
    if requirements.per_interval.shape != coverage.per_interval.shape:
        raise ValueError("requirement and coverage shapes differ")
    per_interval = requirements.per_interval - coverage.per_interval
    per_day = requirements.per_day - coverage.per_day
    per_interval.setflags(write=False)
    per_day.setflags(write=False)
    return DeviationProfile(per_interval, per_day)


def _quota_problems(works: np.ndarray, weeks: WeekPartition, week_major: bool) -> list[str]:
    """One problem per (agent, week) not worked exactly five days, ordered by
    agent then week, or by week then agent."""
    week_days = works.reshape(len(works), weeks.count, DAYS_PER_WEEK).sum(axis=2)
    wrong = week_days != WORKDAYS_PER_WEEK
    pairs = np.argwhere(wrong.T)[:, ::-1] if week_major else np.argwhere(wrong)
    return [
        f"agent {a} works {week_days[a, w]} days in week {w}, expected {WORKDAYS_PER_WEEK}"
        for a, w in pairs
    ]


def validate_day_allocation(
    allocation: DayAllocation, agent_count: int, weeks: WeekPartition
) -> list[str]:
    problems: list[str] = []
    if allocation.agent_count != agent_count:
        problems.append(
            f"allocation has {allocation.agent_count} agents, expected {agent_count}"
        )
    return problems + _quota_problems(allocation.works, weeks, week_major=True)


def validate_schedule(
    schedule: Schedule,
    *,
    agent_count: int,
    day_count: int,
    catalog: ShiftCatalog,
    weeks: WeekPartition,
) -> list[str]:
    """Check the grid shape, the shift indices, and the weekly workday quota."""
    agents, days = schedule.shifts.shape
    if (agents, days) != (agent_count, day_count):
        return [f"schedule covers {agents} agents x {days} days,"
                f" expected {agent_count} x {day_count}"]
    problems = _shift_range_problems(schedule, catalog)
    if problems:
        return problems
    return _quota_problems(schedule.shifts != OFF, weeks, week_major=False)
