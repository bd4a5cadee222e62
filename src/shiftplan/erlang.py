"""Erlang-C staffing: offered load, delay probability, and agent requirements.

The standard M/M/c pipeline for contact-center sizing:

    load      a = calls * AHT / interval_length        (erlangs)
    blocking  B(0, a) = 1,  B(k, a) = a B(k-1, a) / (k + a B(k-1, a))
    delay     C(n, a) = n B(n, a) / (n - a (1 - B(n, a)))
    service   SL(n, a) = 1 - C(n, a) * exp(-(n - a) * threshold / AHT)

A system with ``a >= n`` is saturated: the wait probability is pinned to 1.0
and the service level to 0.0 rather than evaluating the undefined formulas.

Sizing a volume grid runs two vectorised phases over its distinct loads
instead of one search per cell.  They repeat the scalar functions'
floating-point operations in their order, so the head-counts are
bit-identical to theirs.
Negative, NaN and infinite loads, and loads above ``MAX_LOAD_ERLANGS``, are
rejected with a ``ValueError``; a volume is checked as the load it makes.
"""

import math

import numpy as np

from .domain import RequirementMatrix, SlaSpec, check_aht_seconds, check_threshold_seconds

# The sweep's first phase takes one step per erlang of the largest load, so
# its time grows with that load: a full 28 x 96 grid near this cap sizes in
# 0.24-0.54 s on a shared 2-vCPU host.  Realistic contact-center cells are a
# few hundred erlangs.
MAX_LOAD_ERLANGS = 100_000


def check_interval_seconds(interval_seconds: float) -> None:
    """The interval-length rule: positive, so NaN is refused too."""
    if not interval_seconds > 0:
        raise ValueError("interval_seconds must be positive")


def _check_queue(load, agents: int = 0) -> None:
    """Refuse a negative head-count, or a negative or NaN load (or array of loads)."""
    if agents < 0:
        raise ValueError("agents must be non-negative")
    if not (np.asarray(load) >= 0).all():
        raise ValueError("load must be non-negative")


def erlang_b_blocking(agents: int, load: float) -> float:
    """Erlang-B blocking probability via the stable recurrence."""
    _check_queue(load, agents)
    b = 1.0
    for k in range(1, agents + 1):
        b = load * b / (k + load * b)
    return b


def erlang_c_wait_probability(agents: int, load: float) -> float:
    """Probability an arriving call has to wait (Erlang-C).

    Saturated systems (``load >= agents``) return 1.0.
    """
    _check_queue(load, agents)
    if load >= agents:
        return 1.0
    b = erlang_b_blocking(agents, load)
    return agents * b / (agents - load * (1.0 - b))


def service_level(
    agents: int, load: float, aht_seconds: float, threshold_seconds: float
) -> float:
    """Fraction of calls answered within the threshold, clamped to [0, 1]."""
    check_aht_seconds(aht_seconds)
    check_threshold_seconds(threshold_seconds)
    _check_queue(load, agents)
    if load >= agents:  # saturated; math.exp below would overflow
        return 0.0
    wait = erlang_c_wait_probability(agents, load)
    level = 1.0 - wait * math.exp(-(agents - load) * threshold_seconds / aht_seconds)
    return min(1.0, max(0.0, level))


def _required_agents_sweep(loads: np.ndarray, aht_seconds: float, sla: SlaSpec) -> np.ndarray:
    """Smallest head-count meeting ``sla`` for every load, in two phases over
    the distinct non-zero loads.

    The loads come out of ``np.unique`` ascending, so each one's first
    unsaturated head-count ``first = floor(a) + 1`` is non-decreasing.
    Phase 1 advances Erlang-B up to ``first``: step k moves only the loads
    with ``first >= k``, a suffix of the array.  Phase 2 tests every open
    load's service level at its own head-count; the loads that meet the
    target leave, and the rest take one more Erlang-B step.  Each step
    repeats the scalar functions' floating-point operations in their order,
    and ``exp`` is ``math.exp`` (``np.exp`` may differ by an ulp), so every
    head-count equals what the scalar recurrence gives.  Non-finite loads
    are rejected: a NaN cell would never meet the target.  So are loads
    above ``MAX_LOAD_ERLANGS``.
    """
    check_aht_seconds(aht_seconds)
    if not np.isfinite(loads).all():
        raise ValueError("load must be finite")
    _check_queue(loads)
    if (loads > MAX_LOAD_ERLANGS).any():
        raise ValueError(f"load above {MAX_LOAD_ERLANGS} erlangs")
    required = np.zeros(loads.size, dtype=np.int64)
    cells = np.flatnonzero(loads)  # zero load needs zero agents
    a, inverse = np.unique(loads.ravel()[cells], return_inverse=True)
    first = np.floor(a).astype(np.int64) + 1
    b = np.ones_like(a)
    suffixes = np.searchsorted(first, np.arange(1, first.max(initial=0) + 1)).tolist()
    for k, lo in enumerate(suffixes, start=1):
        ab = a[lo:] * b[lo:]
        b[lo:] = ab / (k + ab)
    sized = np.empty(a.size, dtype=np.int64)
    open_loads, n = np.arange(a.size), first
    while open_loads.size:
        wait = n * b / (n - a * (1.0 - b))
        exponent = -(n - a) * sla.threshold_seconds / aht_seconds
        level = 1.0 - wait * np.array([math.exp(x) for x in exponent.tolist()])
        met = np.minimum(1.0, np.maximum(0.0, level)) >= sla.target
        sized[open_loads[met]] = n[met]
        left = ~met
        open_loads, a, b, n = open_loads[left], a[left], b[left], n[left] + 1
        ab = a * b
        b = ab / (n + ab)
    required[cells] = sized[inverse]
    return required.reshape(loads.shape)


def required_agents(load: float, aht_seconds: float, sla: SlaSpec) -> int:
    """Smallest integer head-count meeting the service-level goal.

    Zero load needs zero agents.  Otherwise the search starts just above the
    load (anything at or below it is saturated) and increments: a one-cell
    sweep.
    """
    return int(_required_agents_sweep(np.array([load], dtype=np.float64), aht_seconds, sla)[0])


def requirements_from_volumes(
    volumes, aht_seconds: float, sla: SlaSpec, interval_seconds: float
) -> RequirementMatrix:
    """Convert a (days x intervals) call-volume grid into head-count needs.

    All cells are sized together in one sweep; the grid's shape is checked
    as the ``RequirementMatrix`` it makes.
    """
    grid = np.asarray(volumes, dtype=np.float64)
    check_interval_seconds(interval_seconds)
    with np.errstate(over="ignore"):  # an overflowing load is rejected below
        loads = grid * aht_seconds / interval_seconds
    required = _required_agents_sweep(loads, aht_seconds, sla)
    return RequirementMatrix(required)
