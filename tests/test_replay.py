"""The benchmark's in-process replay against the command line.

``perfbench/traced.py`` replays one CLI pass through the package's public
names to time each layer.  If the replay stops following the CLI, or a
result attribute it reads goes, the benchmark shows only failed operations.
Here each workload's seed-1 pass runs both ways; where every solve is
move-capped the schedule and report bytes must agree.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftplan
from shiftplan.cli import main

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def load_perfbench(name: str):
    """A ``perfbench`` module loaded by path, under a name of its own."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


traced = load_perfbench("traced")
workloads = load_perfbench("workloads")


def write_inputs(workload, directory: Path) -> Path:
    """The workload's seed-1 scenario file, made as the benchmark makes it."""
    if workload.name == "volumes-tune":
        workloads.write_volumes_scenario(SEED, str(directory / workload.scenario_file))
    env = dict(os.environ)
    src = str(Path(shiftplan.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for argv in workload.generator_commands(sys.executable):
        subprocess.run(argv, cwd=directory, env=env, check=True, timeout=120)
    return directory / workload.scenario_file


def replay(workload, scenario: Path, out_dir: Path) -> None:
    out_dir.mkdir()
    sp = traced.public_api(shiftplan)
    traced.replay_pass(sp, workload, str(scenario), SEED, str(out_dir), traced.Tracer())


@pytest.mark.parametrize("name", ["peak-week", "scale-4wk", "volumes-tune"])
def test_replay_writes_the_cli_bytes(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    assert workload.deterministic
    scenario = write_inputs(workload, tmp_path)
    cli_dir = tmp_path / "cli"
    cli_dir.mkdir()
    for label, argv in workload.pass_commands(sys.executable, str(scenario), SEED, str(cli_dir)):
        assert argv[1:3] == ["-m", "shiftplan.cli"]
        assert main(argv[3:]) == 0, label
    replay(workload, scenario, tmp_path / "replay")
    for solve in workload.solves:
        for output in (f"{solve.mode}-schedule.csv", f"{solve.mode}-report.json"):
            cli_bytes = (cli_dir / output).read_bytes()
            assert (tmp_path / "replay" / output).read_bytes() == cli_bytes, output


def test_wall_clock_replay_runs(tmp_path):
    workload = workloads.WORKLOADS["budget-2wk"]
    assert not workload.deterministic
    replay(workload, write_inputs(workload, tmp_path), tmp_path / "replay")
    for solve in workload.solves:
        assert (tmp_path / "replay" / f"{solve.mode}-report.json").is_file()
