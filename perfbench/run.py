"""Benchmark of the ``shiftplan`` command line.

    python3 perfbench/run.py --workload peak-week --seed 1 --seconds 25 --trace 0

One closed-loop client runs the workload's CLI commands as child processes,
one at a time, for ``--seconds`` seconds, then checks every output with the
independent checker.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced CLI pass and then traced in-process replays,
and reports the per-layer metrics.  The last line of standard output is the
JSON result; the lines before it record the environment and a summary.
See README.md in this directory.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checker
import traced
from workloads import WORKLOADS, write_volumes_scenario

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PYTHON = sys.executable
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


class Ops:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems[:3]))


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list[str], cwd: Path, log):
    """Run one child to completion: (wall seconds, its rusage, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=log)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        timer.join()
    return time.perf_counter() - start, usage, proc.returncode


def steal_ticks() -> int | None:
    """Host steal time in clock ticks, summed over CPUs (read only)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def src_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "shiftplan").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


# ---------------------------------------------------------------------------
# set-up, passes, checks
# ---------------------------------------------------------------------------


def set_up(workload, seed: int, inputs: Path, ops: Ops, log) -> float:
    """Write the workload's input file and start one cold ``import shiftplan``."""
    start = time.perf_counter()
    if workload.name == "volumes-tune":
        write_volumes_scenario(seed, str(inputs / workload.scenario_file))
    for argv in workload.generator_commands(PYTHON):
        _, _, code = run_child(argv, inputs, log)
        ops.record("generate inputs", [f"exit code {code}"] if code else [])
    _, _, code = run_child([PYTHON, "-c", "import shiftplan"], inputs, log)
    ops.record("import shiftplan", [f"exit code {code}"] if code else [])
    return time.perf_counter() - start


def run_pass(workload, seed: int, scenario: Path, out_dir: Path, ops: Ops, log) -> dict:
    """One pass of the workload's CLI commands, each timed start to exit."""
    out_dir.mkdir()
    seconds, cpu, rss_kib = 0.0, 0.0, 0
    for label, argv in workload.pass_commands(PYTHON, str(scenario), seed, str(out_dir)):
        wall, usage, code = run_child(argv, out_dir, log)
        ops.record(label, [f"exit code {code}"] if code else [])
        seconds += wall
        cpu += usage.ru_utime + usage.ru_stime
        rss_kib = max(rss_kib, usage.ru_maxrss)
    return {"dir": out_dir, "solve_s": seconds, "peak_rss_mb": rss_kib / 1024, "cpu_s": cpu}


def check_outputs(workload, scn, out_dir: Path, ops: Ops, reference: Path | None,
                  table: bool = True) -> None:
    """Checker on every output; byte identity with ``reference`` when given.

    ``table=False`` skips the requirements table, which the in-process
    replay does not write (its writer is not part of the public API).
    """
    names = []
    if table and workload.requirements_table:
        names.append("requirements.csv")
        ops.record(f"{out_dir.name}/requirements",
                   checker.check_requirements_csv(scn, str(out_dir / "requirements.csv")))
    for solve in workload.solves:
        schedule = f"{solve.mode}-schedule.csv"
        report = f"{solve.mode}-report.json"
        names += [schedule, report]
        ops.record(f"{out_dir.name}/{solve.mode}",
                   checker.check_solve(scn, str(out_dir / schedule), str(out_dir / report),
                                       solve.mode))
    if reference is None:
        return
    for name in names:
        mine, theirs = out_dir / name, reference / name
        same = mine.is_file() and theirs.is_file() and mine.read_bytes() == theirs.read_bytes()
        ops.record(f"{out_dir.name}/{name} bytes",
                   [] if same else [f"differs from {reference.name}/{name}"])


def read_reports(workload, out_dir: Path) -> dict:
    reports = {}
    for solve in workload.solves:
        try:
            with open(out_dir / f"{solve.mode}-report.json") as handle:
                reports[solve.mode] = json.load(handle)
        except (OSError, ValueError):
            pass
    return reports


def quality_metrics(workload, out_dir: Path) -> dict:
    reports = read_reports(workload, out_dir)
    m = {}
    for mode, report in reports.items():
        m[f"objective_{mode}"] = report.get("objective_value")
        m[f"ivdi_{mode}"] = report.get("ivdi")
        if mode == "multi":
            m["kl_multi"] = report.get("kl_day_distribution")
    return {k: v for k, v in m.items() if isinstance(v, (int, float))}


def budget_used_ratio(workload, out_dir: Path) -> float | None:
    """Share of the solve budget the CLI solves used: runtime over the time
    budget, or evaluations over the move cap for move-capped solves."""
    reports = read_reports(workload, out_dir)
    used = budget = 0.0
    for solve in workload.solves:
        report = reports.get(solve.mode, {})
        if solve.move_cap is not None:
            value, limit = report.get("evaluations"), solve.move_cap
        else:
            value, limit = report.get("runtime_seconds"), solve.time_budget
        if not isinstance(value, (int, float)):
            return None
        used += value
        budget += limit
    return used / budget


def median_metrics(samples: list[dict], units: dict) -> dict:
    names = sorted({name for sample in samples for name in sample})
    return {
        name: {"value": statistics.median(s[name] for s in samples if name in s),
               "unit": units[name]}
        for name in names
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def untraced_run(workload, seed, seconds, scenario, scn, ops, log, run_dir):
    """Passes until ``seconds`` are used: (metric samples, record for env)."""
    start = time.perf_counter()
    passes, costs = [], []
    # Another pass starts while it is expected to end within half a pass of
    # the deadline, so a run measures about ``seconds`` on average.
    while True:
        began = time.perf_counter()
        passes.append(run_pass(workload, seed, scenario, run_dir / f"pass-{len(passes)}", ops, log))
        costs.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(costs) / 2 > seconds:
            break
    reference = passes[0]["dir"] if workload.deterministic else None
    samples = []
    for i, p in enumerate(passes):
        check_outputs(workload, scn, p["dir"], ops, reference if i else None)
        samples.append({"solve_s": p["solve_s"], "peak_rss_mb": p["peak_rss_mb"],
                        **quality_metrics(workload, p["dir"])})
    record = {"pass_solve_s": [p["solve_s"] for p in passes],
              "pass_cpu_s": [p["cpu_s"] for p in passes]}
    return samples, record


def traced_run(workload, seed, seconds, scenario, scn, ops, log, run_dir):
    """One CLI pass, then traced replays until ``seconds`` are used."""
    start = time.perf_counter()
    cli = run_pass(workload, seed, scenario, run_dir / "cli", ops, log)
    check_outputs(workload, scn, cli["dir"], ops, None)
    sys.path.insert(0, str(SRC))
    import shiftplan

    sp = traced.public_api(shiftplan)
    reference = cli["dir"] if workload.deterministic else None
    samples, tracers, costs = [], [], []
    while True:
        began = time.perf_counter()
        out_dir = run_dir / f"replay-{len(samples)}"
        out_dir.mkdir()
        tracer = traced.Tracer()
        tracers.append(tracer)
        try:
            traced.replay_pass(sp, workload, str(scenario), seed, str(out_dir), tracer)
        except Exception as exc:  # a broken layer is a failed operation, not a crash
            ops.record(f"{out_dir.name} replay", [f"{type(exc).__name__}: {exc}"])
            break
        ops.record(f"{out_dir.name} replay", [])
        check_outputs(workload, scn, out_dir, ops, reference, table=False)
        sample = traced.layer_metrics(tracer)
        sample["trace.cli_pass_s"] = cli["solve_s"]
        ratio = budget_used_ratio(workload, cli["dir"])
        if ratio is not None:
            sample["model.budget_used_ratio"] = ratio
        samples.append(sample)
        costs.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(costs) / 2 > seconds:
            break
    with open(run_dir / "spans.json", "w") as handle:
        json.dump([t.spans for t in tracers], handle)
    return samples, {"cli_pass_s": cli["solve_s"]}


def metric_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shiftplan" / "cli.py").is_file():
        print(f"error: no shiftplan sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    units = metric_units()
    workload = WORKLOADS[args.workload]
    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    steal_before = steal_ticks()
    ops = Ops()
    with open(run_dir / "children.log", "w") as log:
        repeats = SETUP_REPEATS if args.trace == 0 else 1
        setups = [set_up(workload, args.seed, inputs, ops, log) for _ in range(repeats)]
        scenario = inputs / workload.scenario_file
        if not scenario.is_file():
            print(f"error: set-up wrote no {scenario.name}: {ops.problems}", file=sys.stderr)
            return 1
        scn = checker.load_scenario(str(scenario))
        run = traced_run if args.trace else untraced_run
        samples, record = run(workload, args.seed, args.seconds, scenario, scn, ops, log, run_dir)
    metrics = median_metrics(samples, units)
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": units["setup_s"]}
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(samples),
        "setup_s": setups,
        **record,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "src_shiftplan_lines": src_lines(),
        "inputs": scn.sizes(),
        "commands": [" ".join(argv[1:]) for _, argv in
                     workload.pass_commands("python3", workload.scenario_file, args.seed, "out")],
        "steal_ticks_before": steal_before,
        "steal_ticks_after": steal_ticks(),
        "problems": ops.problems,
    }
    with open(run_dir / "env.json", "w") as handle:
        json.dump(env, handle, indent=1)
    print("env " + json.dumps(env))
    for name, m in sorted(metrics.items()):
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
