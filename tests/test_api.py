"""The public surface: every exported name resolves, and the benchmark's
in-process replay finds every name it calls."""

import importlib.util
from pathlib import Path

import shiftplan

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def test_every_export_resolves():
    missing = [name for name in shiftplan.__all__ if not hasattr(shiftplan, name)]
    assert missing == []
    assert len(set(shiftplan.__all__)) == len(shiftplan.__all__)


def test_benchmark_replay_api_is_exported():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    api = traced.public_api(shiftplan)
    assert set(api) == set(traced.API)
    assert all(callable(item) for item in api.values())
