"""Erlang-C staffing: offered load, delay probability, and agent requirements.

The standard M/M/c pipeline for contact-center sizing:

    load      a = calls * AHT / interval_length        (erlangs)
    blocking  B(0, a) = 1,  B(k, a) = a B(k-1, a) / (k + a B(k-1, a))
    delay     C(n, a) = n B(n, a) / (n - a (1 - B(n, a)))
    service   SL(n, a) = 1 - C(n, a) * exp(-(n - a) * threshold / AHT)

A system with ``a >= n`` is saturated: the wait probability is pinned to 1.0
and the service level to 0.0 rather than evaluating the undefined formulas.

Sizing a volume grid runs one vectorised sweep over all its cells instead of
one search per cell.  The sweep repeats the scalar functions' floating-point
operations in their order, so its head-counts are bit-identical to theirs.
NaN and infinite volumes or loads, and loads above ``MAX_LOAD_ERLANGS``,
are rejected with a ``ValueError``.
"""

import math

import numpy as np

from .domain import RequirementMatrix, SlaSpec, check_aht_seconds, check_threshold_seconds

# The sweep takes one step per erlang, so its time grows with the largest
# load: a full 28 x 96 grid at this cap sizes in about 1.3 s.  Realistic
# contact-center cells are a few hundred erlangs.
MAX_LOAD_ERLANGS = 100_000


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
    """Smallest head-count meeting ``sla`` for every load, in one sweep.

    Every open cell holds its Erlang-B value and advances it once per
    head-count k.  From k = floor(a) + 1 on (anything lower is saturated) a
    cell tests its service level at k and leaves the sweep at the first k
    that meets the target.  Each step repeats the scalar functions'
    floating-point operations in their order, and ``exp`` is ``math.exp``
    (``np.exp`` may differ by an ulp), so every head-count equals what the
    scalar recurrence gives.  Non-finite loads are rejected: a NaN cell
    would never meet the target.  So are loads above ``MAX_LOAD_ERLANGS``.
    """
    check_aht_seconds(aht_seconds)
    if not np.isfinite(loads).all():
        raise ValueError("load must be finite")
    _check_queue(loads)
    if (loads > MAX_LOAD_ERLANGS).any():
        raise ValueError(f"load above {MAX_LOAD_ERLANGS} erlangs")
    required = np.zeros(loads.size, dtype=np.int64)
    cells = np.flatnonzero(loads)  # zero load needs zero agents
    a = loads.ravel()[cells]
    first = np.floor(a) + 1.0
    b = np.ones_like(a)
    k = 0
    while cells.size:
        k += 1
        ab = a * b
        b = ab / (k + ab)
        tested = np.flatnonzero(first <= k)
        if not tested.size:
            continue
        a_t, b_t = a[tested], b[tested]
        wait = k * b_t / (k - a_t * (1.0 - b_t))
        exponent = -(k - a_t) * sla.threshold_seconds / aht_seconds
        level = 1.0 - wait * np.array([math.exp(x) for x in exponent.tolist()])
        met = np.minimum(1.0, np.maximum(0.0, level)) >= sla.target
        if met.any():
            done = tested[met]
            required[cells[done]] = k
            keep = np.ones(cells.size, dtype=bool)
            keep[done] = False
            cells, a, b, first = cells[keep], a[keep], b[keep], first[keep]
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

    All cells are sized together in one sweep.
    """
    grid = np.asarray(volumes, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError("volumes grid must be 2-dimensional")
    if not np.isfinite(grid).all():
        raise ValueError("volumes must be finite")
    if (grid < 0).any():
        raise ValueError("volumes must be non-negative")
    if not interval_seconds > 0:
        raise ValueError("interval_seconds must be positive")
    with np.errstate(over="ignore"):  # an overflowing load is rejected below
        loads = grid * aht_seconds / interval_seconds
    required = _required_agents_sweep(loads, aht_seconds, sla)
    return RequirementMatrix(required)
