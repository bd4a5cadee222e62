"""The public surface: every exported name resolves, and the benchmark's
in-process replay finds every name it calls and splits the budget as the
package does."""

import importlib.util
from pathlib import Path

import shiftplan

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def test_every_export_resolves():
    missing = [name for name in shiftplan.__all__ if not hasattr(shiftplan, name)]
    assert missing == []
    assert len(set(shiftplan.__all__)) == len(shiftplan.__all__)


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
