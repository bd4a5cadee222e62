"""Solve budgets, solve status and the size of the paper's integer programs.

The search itself runs over compact count structures (see ``solvers``);
``SolveLimits`` and ``Deadline`` express and track its budget.  The integer
programs the paper states are never built: ``count_variables`` only sizes them
for the report, and ``tests/oracles.py`` evaluates them on finished schedules.
"""

import time
from dataclasses import dataclass
from enum import Enum


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

    time_budget_seconds: float = 60.0
    seed: int = 0
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
