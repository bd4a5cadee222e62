"""Sweeping the idle-day penalty factor and scoring it by KL divergence.

Raising the penalty factor pulls scheduled head-counts away from "everyone on
the busiest days" toward the shape of the demand itself.  The sweep takes the
day phase's head-counts (``phases.day_head_counts``) for K = 0, 1, 2, ... and
keeps the K whose normalized scheduled day profile sits closest (in KL
divergence) to the normalized required profile, stopping after a
configurable run of non-improving steps.  It keeps head-counts only: a caller
that needs working days solves the chosen K's day phase.
"""

import math
from dataclasses import dataclass

import numpy as np

from .phases import MAX_PENALTY, DayPhaseSpec, SolveLimits, day_head_counts

DEFAULT_EPSILON = 1e-9


@dataclass(frozen=True)
class DistributionPair:
    """Workload distribution against its target, with the smoothing epsilon."""

    workload: tuple[float, ...]
    target: tuple[float, ...]
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if len(self.workload) != len(self.target) or not self.workload:
            raise ValueError("distributions must share a positive length")
        for name, dist in (("workload", self.workload), ("target", self.target)):
            if min(dist) < 0:
                raise ValueError(f"{name} has negative entries")
            if abs(sum(dist) - 1.0) > 1e-9:
                raise ValueError(f"{name} does not sum to 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")


def kl_divergence(pair: DistributionPair) -> float:
    """D(workload || target), natural log, 0*log(0) = 0.

    The epsilon only smooths the denominator.  A workload mass sitting where
    ``target + epsilon`` is zero yields ``inf`` rather than an exception.
    """
    total = 0.0
    for lam, alpha in zip(pair.workload, pair.target):
        if lam == 0.0:
            continue
        denom = alpha + pair.epsilon
        if denom == 0.0:
            return math.inf
        total += lam * math.log(lam / denom)
    return total


def _normalized(counts, kind: str) -> tuple[float, ...]:
    values = np.asarray(counts, dtype=np.float64)
    total = values.sum()
    if total <= 0:
        raise ValueError(f"cannot normalize: total {kind} head-count is zero")
    return tuple(float(x) for x in values / total)


def day_distribution(day_counts) -> tuple[float, ...]:
    """Scheduled per-day head-counts, normalized to sum 1."""
    return _normalized(day_counts, "scheduled")


def target_distribution(day_requirements) -> tuple[float, ...]:
    """Required per-day head-counts, normalized to sum 1."""
    return _normalized(day_requirements, "required")


@dataclass(frozen=True)
class StopConfig:
    """Sweep stopping rule: give up after ``patience`` non-improving K values."""

    patience: int = 2
    k_max: int = 50

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.k_max < 0:
            raise ValueError("k_max must be non-negative")
        if self.k_max > MAX_PENALTY:  # every swept K is a day phase's penalty factor
            raise ValueError(f"k_max must be at most {MAX_PENALTY}")


@dataclass(frozen=True)
class SweepEntry:
    penalty_factor: int
    kl: float
    day_counts: tuple[int, ...]


@dataclass(frozen=True)
class SweepTrace:
    entries: tuple[SweepEntry, ...]

    @property
    def selected(self) -> int:
        """The chosen penalty factor: least KL, smallest K on ties."""
        return min(self.entries, key=lambda e: (e.kl, e.penalty_factor)).penalty_factor


@dataclass(frozen=True)
class TuneResult:
    trace: SweepTrace  # the chosen K's head-counts: entries[selected].day_counts


def tune_penalty(
    day_requirements,
    agent_count: int,
    weeks: int,
    per_k_limits: SolveLimits,
    stop: StopConfig = StopConfig(),
) -> TuneResult:
    """Sweep the day phase's head-counts over K = 0..k_max.

    The inputs are checked once, as a ``DayPhaseSpec``: fractional or
    mismatched requirements are refused with a ``ValueError``.  The exact day
    allocation spends no budget, so ``per_k_limits`` is not spent either.
    Strict improvement resets the patience counter; ties keep the earlier K.
    """
    if agent_count < 1:
        raise ValueError("tuning needs at least one agent")
    spec = DayPhaseSpec(day_requirements, agent_count, weeks)
    target = target_distribution(spec.day_requirements)
    entries: list[SweepEntry] = []
    best_kl: float | None = None
    stagnant = 0
    for k in range(stop.k_max + 1):
        head_counts = day_head_counts(spec.day_requirements, agent_count, weeks, k)
        kl = kl_divergence(DistributionPair(day_distribution(head_counts), target))
        entries.append(SweepEntry(k, kl, head_counts))
        if best_kl is None or kl < best_kl:
            best_kl, stagnant = kl, 0
        else:
            stagnant += 1
            if stagnant >= stop.patience:
                break
    return TuneResult(SweepTrace(tuple(entries)))
