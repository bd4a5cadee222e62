"""Sweeping the idle-day penalty factor and scoring it by KL divergence.

Raising the penalty factor pulls scheduled head-counts away from "everyone on
the busiest days" toward the shape of the demand itself.  The sweep takes the
day phase's head-counts (``phases.day_head_counts``) for K = 0, 1, 2, ... and
keeps the K whose scheduled day profile sits closest to the required one by
``metrics.kl_divergence``, the report's KL, stopping after ``PATIENCE``
non-improving steps in a row or at ``K_MAX``.  It keeps head-counts only: a
caller that needs working days solves the chosen K's day phase.
"""

from dataclasses import dataclass

from .metrics import kl_divergence
from .phases import DayPhaseSpec, SolveLimits, day_head_counts

# The stop rule: the sweep gives up after PATIENCE non-improving K values in a
# row, and its largest K is K_MAX, which must be a valid penalty factor.
PATIENCE = 2
K_MAX = 50


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
) -> TuneResult:
    """Sweep the day phase's head-counts over K = 0..K_MAX.

    The inputs are checked once, as a ``DayPhaseSpec``: fractional or
    mismatched requirements are refused with a ``ValueError``.  The exact day
    allocation spends no budget, so ``per_k_limits`` is not spent either.
    Strict improvement resets the patience counter; ties keep the earlier K.
    """
    if agent_count < 1:
        raise ValueError("tuning needs at least one agent")
    spec = DayPhaseSpec(day_requirements, agent_count, weeks)
    entries: list[SweepEntry] = []
    best_kl: float | None = None
    stagnant = 0
    for k in range(K_MAX + 1):
        head_counts = day_head_counts(spec.day_requirements, agent_count, weeks, k)
        kl = kl_divergence(head_counts, spec.day_requirements)
        entries.append(SweepEntry(k, kl, head_counts))
        if best_kl is None or kl < best_kl:
            best_kl, stagnant = kl, 0
        else:
            stagnant += 1
            if stagnant >= PATIENCE:
                break
    return TuneResult(SweepTrace(tuple(entries)))
