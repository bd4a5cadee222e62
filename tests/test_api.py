"""The public surface: every exported name resolves from the module the
package's export table names, a bare ``import shiftplan`` loads none of the
modules, the CLI module and the presets load no numpy, and the benchmark's
in-process replay finds every name it calls and splits the budget as the
package does."""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import shiftplan

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"

EXPORTED = {
    "ComparisonResult", "ComparisonRun", "DayAllocation", "DayPhaseSpec", "Deadline",
    "PRESETS", "PeakPresetSpec", "RequirementMatrix", "Scenario", "Schedule", "SchemaError",
    "SearchResult", "ShiftCatalog", "ShiftPhaseSpec", "SlaSpec", "SolveLimits",
    "SolveReport", "SolveStatus", "SweepTrace", "TuneResult", "build_report",
    "build_week_partition", "compare_modes", "count_variables", "coverage_from_schedule",
    "dvdi", "erlang_b_blocking", "erlang_c_wait_probability", "gen_peak_scenario",
    "gen_preset_scenario", "ivdi", "kl_divergence", "load_scenario", "read_schedule",
    "required_agents", "requirements_from_volumes", "save_scenario", "service_level",
    "solve_day_allocation", "solve_multi_phase", "solve_shift_allocation",
    "solve_single_phase", "tune_penalty", "validate_schedule", "write_report",
    "write_schedule", "write_sweep_trace",
}

COLD_IMPORT = """
import sys
import shiftplan
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("shiftplan."))
assert loaded == [], loaded
import shiftplan.cli
from shiftplan import PeakPresetSpec, PRESETS
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("shiftplan."))
assert loaded == ["shiftplan.cli", "shiftplan.presets"], loaded
shiftplan.SlaSpec
assert "shiftplan.domain" in sys.modules
assert not {"shiftplan.erlang", "shiftplan.phases"} & sys.modules.keys()
from shiftplan import *
assert len(shiftplan.__all__) == 47 and set(shiftplan.__all__) <= globals().keys()
try:
    shiftplan.nope
except AttributeError as exc:
    assert "'shiftplan'" in str(exc) and "'nope'" in str(exc), exc
else:
    raise AssertionError("shiftplan.nope resolved")
"""


def test_every_export_resolves():
    missing = [name for name in shiftplan.__all__ if not hasattr(shiftplan, name)]
    assert missing == []
    assert len(set(shiftplan.__all__)) == len(shiftplan.__all__)
    assert set(shiftplan.__all__) == EXPORTED
    # a name the table places in the wrong module fails here, not on first use
    misplaced = [
        (name, value.__module__, module)
        for module, names in shiftplan._EXPORTS.items()
        for name in names
        if (inspect.isclass(value := getattr(shiftplan, name)) or inspect.isfunction(value))
        and value.__module__ != f"shiftplan.{module}"
    ]
    assert misplaced == []
    assert shiftplan.PRESETS is shiftplan.scenario_io.PRESETS


def test_bare_import_loads_no_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", COLD_IMPORT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def test_benchmark_replay_api_is_exported():
    traced = load_traced()
    api = traced.public_api(shiftplan)
    assert set(api) == set(traced.API)
    assert all(callable(item) for item in api.values())


def test_benchmark_replay_splits_the_budget_as_the_package_does():
    # the replay copies the split to write the CLI's bytes; a drift shows
    # elsewhere only on a workload whose shift cap binds
    assert load_traced().DAY_SHARE == shiftplan.phases.DAY_SHARE
