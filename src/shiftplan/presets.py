"""The bundled scenario presets, as scenario-file JSON data, the defaults
that the library and the CLI share, and the atomic file writer every format
uses.

This module imports neither numpy nor another package module, so
``shiftplan gen-scenario`` writes a preset, and the CLI reads its defaults,
without loading the solver.
``scenario_io.gen_peak_scenario`` builds a ``Scenario`` from the same data
through the loader, so a preset and a file take one path and the same checks.
"""

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass
from datetime import date, timedelta

# Intraday demand shape in percent of the daily peak, one value per hour:
# overnight trickle, a morning ramp, full load through office hours, and an
# evening tail.
DEFAULT_INTRADAY_PROFILE = (
    (10,) * 7 + (50, 80) + (100,) * 8 + (70, 50) + (30,) * 3 + (10,) * 2
)

# The service-level goal and handling time of every preset, and of a
# ``Scenario`` built without them.
DEFAULT_SLA_TARGET = 0.8
DEFAULT_THRESHOLD_SECONDS = 20.0
DEFAULT_AHT_SECONDS = 300.0

# A solve's wall-clock budget.
DEFAULT_TIME_BUDGET_SECONDS = 60.0

# The seed a solve records, and the day phase's idle-day penalty factor K.
DEFAULT_SEED = 0
DEFAULT_PENALTY_FACTOR = 0


@dataclass(frozen=True)
class PeakPresetSpec:
    """A peak-season style week: heavy weekdays, light weekends.

    Interval requirements are ``ceil(day_peak * profile_percent / 100)``; the
    default catalog offers 10-hour shifts starting on each hour that still
    fits in the day.
    """

    name: str = "peak-week"
    agents: int = 70
    weekday_peak: int = 225
    weekend_peak: int = 110
    weeks: int = 1
    intervals_per_day: int = 24
    profile_percent: tuple[int, ...] = DEFAULT_INTRADAY_PROFILE
    shift_length: int = 10
    shift_starts: tuple[int, ...] = tuple(range(15))
    start_date: date = date(2024, 1, 1)  # a Monday, so days 5 and 6 are the weekend


def peak_scenario_data(spec: PeakPresetSpec) -> dict:
    """The scenario file of ``spec`` as JSON data, keys in the order
    ``scenario_io.scenario_to_dict`` writes them."""
    day_count = 7 * spec.weeks
    peaks = [spec.weekday_peak if d % 7 < 5 else spec.weekend_peak for d in range(day_count)]
    return {
        "name": spec.name,
        "days": [(spec.start_date + timedelta(days=d)).isoformat() for d in range(day_count)],
        "intervals_per_day": spec.intervals_per_day,
        "agents": spec.agents,
        "shift_catalog": [{"start": s, "length": spec.shift_length} for s in spec.shift_starts],
        "requirements": [
            [-(-peak * pct // 100) for pct in spec.profile_percent]  # ceil in integers
            for peak in peaks
        ],
        "sla": {"target": DEFAULT_SLA_TARGET, "threshold_seconds": DEFAULT_THRESHOLD_SECONDS},
        "aht_seconds": DEFAULT_AHT_SECONDS,
    }


PRESETS: dict[str, PeakPresetSpec] = {
    "peak-week": PeakPresetSpec(),
    # mid-sized two-week instance used for mode benchmarking
    "benchmark-2wk": PeakPresetSpec(
        name="benchmark-2wk",
        agents=50,
        weekday_peak=60,
        weekend_peak=30,
        weeks=2,
        shift_starts=(1, 4, 7, 10, 13),
    ),
}


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def atomic_open(path: str):
    """A text handle on a temp file beside ``path``; the file replaces ``path``
    when the block exits cleanly and is removed on any exception."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(data: dict, path: str) -> None:
    with atomic_open(path) as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
