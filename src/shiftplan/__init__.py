"""Workforce shift scheduling: Erlang-C staffing, day/shift allocation,
penalty tuning, and mode comparison.

The solve entry points are :func:`solve_multi_phase` (day allocation first,
then shifts within the chosen days) and :func:`solve_single_phase` (one joint
assignment).  Everything is deterministic given a move cap.
"""

from .domain import (
    DayAllocation,
    RequirementMatrix,
    Scenario,
    Schedule,
    ShiftCatalog,
    WeekPartition,
    build_week_partition,
    coverage_from_schedule,
    validate_schedule,
)
from .erlang import (
    SlaSpec,
    erlang_b_blocking,
    erlang_c_wait_probability,
    required_agents,
    requirements_from_volumes,
    service_level,
)
from .metrics import (
    ComparisonResult,
    ComparisonRun,
    SolveReport,
    build_report,
    compare_modes,
    dvdi,
    ivdi,
)
from .model import (
    Deadline,
    SolveLimits,
    SolveStatus,
    count_variables,
)
from .phases import (
    DayPhaseSpec,
    ShiftPhaseSpec,
    solve_day_allocation,
    solve_multi_phase,
    solve_shift_allocation,
    solve_single_phase,
)
from .scenario_io import (
    PRESETS,
    PeakPresetSpec,
    SchemaError,
    gen_peak_scenario,
    gen_preset_scenario,
    load_scenario,
    read_schedule,
    save_scenario,
    write_report,
    write_schedule,
    write_sweep_trace,
)
from .solvers import SearchResult
from .tuner import (
    DistributionPair,
    StopConfig,
    SweepTrace,
    TuneResult,
    day_distribution,
    kl_divergence,
    target_distribution,
    tune_penalty,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonResult",
    "ComparisonRun",
    "DayAllocation",
    "DayPhaseSpec",
    "Deadline",
    "DistributionPair",
    "PRESETS",
    "PeakPresetSpec",
    "RequirementMatrix",
    "Scenario",
    "Schedule",
    "SchemaError",
    "SearchResult",
    "ShiftCatalog",
    "ShiftPhaseSpec",
    "SlaSpec",
    "SolveLimits",
    "SolveReport",
    "SolveStatus",
    "StopConfig",
    "SweepTrace",
    "TuneResult",
    "WeekPartition",
    "build_report",
    "build_week_partition",
    "compare_modes",
    "count_variables",
    "coverage_from_schedule",
    "day_distribution",
    "dvdi",
    "erlang_b_blocking",
    "erlang_c_wait_probability",
    "gen_peak_scenario",
    "gen_preset_scenario",
    "ivdi",
    "kl_divergence",
    "load_scenario",
    "read_schedule",
    "required_agents",
    "requirements_from_volumes",
    "save_scenario",
    "service_level",
    "solve_day_allocation",
    "solve_multi_phase",
    "solve_shift_allocation",
    "solve_single_phase",
    "target_distribution",
    "tune_penalty",
    "validate_schedule",
    "write_report",
    "write_schedule",
    "write_sweep_trace",
]
