"""A small integer-programming representation used for auditing solvers.

The search itself runs over compact count structures (see ``solvers``); this
module keeps the explicit binary formulation around so any reported solution
can be re-checked against it: feasibility constraint by constraint, and the
objective re-evaluated in exact integer arithmetic.  Nothing here searches the
per-agent grid: a one-week day model of 3 agents already has 2^21 assignments.
"""

import time
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class LinExpr:
    """constant + sum(coefficient * variable)."""

    terms: dict
    constant: float = 0

    def value(self, values: dict):
        total = self.constant
        for name, coef in self.terms.items():
            total += coef * values[name]
        return total


@dataclass(frozen=True)
class LinearConstraint:
    terms: dict
    relation: str  # one of "<=", ">=", "="
    rhs: int
    label: str = ""

    def holds(self, values: dict) -> bool:
        lhs = sum(coef * values[name] for name, coef in self.terms.items())
        if self.relation == "<=":
            return lhs <= self.rhs
        if self.relation == ">=":
            return lhs >= self.rhs
        if self.relation == "=":
            return lhs == self.rhs
        raise ValueError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class QuadraticObjective:
    """sum of squared linear expressions."""

    squared_terms: tuple[LinExpr, ...]


@dataclass(frozen=True)
class IntegerModel:
    """Bounded integer variables, linear constraints, quadratic objective."""

    variables: tuple[tuple[str, int, int], ...]  # (name, lower, upper)
    constraints: tuple[LinearConstraint, ...]
    objective: QuadraticObjective
    _bounds: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bounds = {}
        for name, lo, hi in self.variables:
            if name in bounds:
                raise ValueError(f"duplicate variable {name!r}")
            if lo > hi:
                raise ValueError(f"variable {name!r} has empty domain [{lo}, {hi}]")
            bounds[name] = (lo, hi)
        object.__setattr__(self, "_bounds", bounds)

    @property
    def bounds(self) -> dict:
        return self._bounds


def check_feasible(model: IntegerModel, values: dict) -> list[str]:
    """List every violated bound or constraint (empty list means feasible)."""
    problems: list[str] = []
    for name, (lo, hi) in model.bounds.items():
        if name not in values:
            problems.append(f"missing value for variable {name}")
        elif not lo <= values[name] <= hi:
            problems.append(
                f"bound violated: {name} = {values[name]} outside [{lo}, {hi}]"
            )
    if problems:
        return problems
    for constraint in model.constraints:
        if not constraint.holds(values):
            lhs = sum(c * values[n] for n, c in constraint.terms.items())
            tag = constraint.label or "constraint"
            problems.append(
                f"{tag}: {lhs} {constraint.relation} {constraint.rhs} violated"
            )
    return problems


def evaluate_objective(model: IntegerModel, values: dict):
    """Exact objective value; integer whenever all inputs are integers."""
    for name in model.bounds:
        if name not in values:
            raise ValueError(f"missing value for variable {name}")
    total = 0
    for expr in model.objective.squared_terms:
        v = expr.value(values)
        total += v * v
    return total


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
