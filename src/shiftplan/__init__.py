"""Workforce shift scheduling: Erlang-C staffing, day/shift allocation,
penalty tuning, and mode comparison.

The solve entry points are :func:`solve_multi_phase` (day allocation first,
then shifts within the chosen days) and :func:`solve_single_phase` (one joint
assignment).  Everything is deterministic given a move cap.

``import shiftplan`` loads none of the modules below: each exported name, and
each module name, is imported the first time it is read.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "domain": (
        "DayAllocation",
        "RequirementMatrix",
        "Scenario",
        "Schedule",
        "ShiftCatalog",
        "SlaSpec",
        "build_week_partition",
        "coverage_from_schedule",
        "validate_schedule",
    ),
    "erlang": (
        "erlang_b_blocking",
        "erlang_c_wait_probability",
        "required_agents",
        "requirements_from_volumes",
        "service_level",
    ),
    "metrics": (
        "ComparisonResult",
        "ComparisonRun",
        "SolveReport",
        "build_report",
        "compare_modes",
        "count_variables",
        "dvdi",
        "ivdi",
    ),
    "phases": (
        "DayPhaseSpec",
        "Deadline",
        "SearchResult",
        "ShiftPhaseSpec",
        "SolveLimits",
        "SolveStatus",
        "solve_day_allocation",
        "solve_multi_phase",
        "solve_shift_allocation",
        "solve_single_phase",
    ),
    "scenario_io": (
        "PRESETS",
        "PeakPresetSpec",
        "SchemaError",
        "gen_peak_scenario",
        "gen_preset_scenario",
        "load_scenario",
        "read_schedule",
        "save_scenario",
        "write_report",
        "write_schedule",
        "write_sweep_trace",
    ),
    "tuner": (
        "DistributionPair",
        "StopConfig",
        "SweepTrace",
        "TuneResult",
        "day_distribution",
        "kl_divergence",
        "target_distribution",
        "tune_penalty",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
