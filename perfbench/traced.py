"""In-process traced replay of one CLI pass, for the per-layer metrics.

The replay calls the package only through names in ``shiftplan.__all__``, in
the order and with the budget splits the CLI uses, so it writes the same
schedule and report bytes as the CLI.  Every call into a layer is wrapped in
a span (name, start, end, parent, counters); spans stay in memory and are
written out when the benchmark ends.  After each solve command a probe
call, outside the CLI order, times the greedy start alone by running the
same shift or joint solve with a move cap of 1.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np

DAY_SHARE = 0.2  # the CLI's --day-share default
DEFAULT_TIME_BUDGET = 60.0  # the CLI's --time-budget default
API = (
    "DayPhaseSpec",
    "ShiftPhaseSpec",
    "SlaSpec",
    "SolveLimits",
    "build_report",
    "load_scenario",
    "requirements_from_volumes",
    "solve_day_allocation",
    "solve_shift_allocation",
    "solve_single_phase",
    "tune_penalty",
    "write_report",
    "write_schedule",
)


class Tracer:
    """Spans of one replay, in start order."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed duration minus the time covered by children."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                out[parent] = out.get(parent, 0.0) - (s["end"] - s["start"])
        return out

    def counts(self, name: str, key: str):
        """Sum of a counter over spans named ``name``: 0 when no such span
        ran, None when one ran without the counter (a result lacked it)."""
        total = 0
        for s in self.spans:
            if s["name"] == name:
                if s["counts"].get(key) is None:
                    return None
                total += s["counts"][key]
        return total


def public_api(module) -> dict:
    missing = [name for name in API if name not in module.__all__]
    if missing:
        raise RuntimeError(f"shiftplan no longer exports {missing}")
    return {name: getattr(module, name) for name in API}


def _search_counts(counts: dict, result) -> None:
    evaluations = getattr(result, "evaluations", None)
    trace = getattr(result, "trace", None)
    counts["evaluations"] = evaluations
    counts["improvements"] = None if trace is None else len(trace) - 1


def replay_pass(sp: dict, workload, scenario_path: str, seed: int, out_dir: str, tracer: Tracer):
    """Run one pass of ``workload`` in process; outputs go to ``out_dir``."""
    load_bytes = os.path.getsize(scenario_path)
    if workload.requirements_table:
        with tracer.span("cmd.requirements"):
            with tracer.span("scenario_io.load") as counts:
                sp["load_scenario"](scenario_path)
                counts["bytes"] = load_bytes
            # the Erlang-C conversion again, timed on its own beside the load
            with open(scenario_path) as handle:
                data = json.load(handle)
            volumes = np.array(data["volumes"], dtype=np.int64)
            sla = sp["SlaSpec"](data["sla"]["target"], data["sla"]["threshold_seconds"])
            with tracer.span("erlang.requirements") as counts:
                sp["requirements_from_volumes"](
                    volumes, float(data["aht_seconds"]), sla, float(data["interval_seconds"])
                )
                counts["cells"] = int(volumes.size)
    for solve in workload.solves:
        with tracer.span(f"cmd.solve-{solve.mode}") as cmd_counts:
            with tracer.span("scenario_io.load") as counts:
                scenario = sp["load_scenario"](scenario_path)
                counts["bytes"] = load_bytes
            limits = sp["SolveLimits"](
                time_budget_seconds=solve.time_budget or DEFAULT_TIME_BUDGET,
                seed=seed,
                move_cap=solve.move_cap,
            )
            if solve.mode == "multi":
                weeks = scenario.week_partition()
                penalty = 0
                if solve.tune:
                    with tracer.span("tuner.sweep") as counts:
                        tuned = sp["tune_penalty"](
                            scenario.requirements.per_day,
                            scenario.agent_count,
                            weeks,
                            limits.scaled(DAY_SHARE),
                        )
                        counts["k_tried"] = len(tuned.trace.entries)
                    penalty = tuned.trace.selected
                with tracer.span("phases.day") as counts:
                    day = sp["solve_day_allocation"](
                        sp["DayPhaseSpec"](
                            day_requirements=scenario.requirements.per_day,
                            agent_count=scenario.agent_count,
                            weeks=weeks,
                            penalty_factor=penalty,
                        ),
                        limits.scaled(DAY_SHARE),
                    )
                    _search_counts(counts, day)
                allocation = day.allocation
                with tracer.span("phases.shift") as counts:
                    result = sp["solve_shift_allocation"](
                        sp["ShiftPhaseSpec"](
                            requirements=scenario.requirements,
                            allocation=allocation,
                            catalog=scenario.shift_catalog,
                        ),
                        limits.scaled(1.0 - DAY_SHARE),
                    )
                    _search_counts(counts, result)
                cmd_counts["distinct_day_problems"] = len(
                    {
                        (tuple(row), n)
                        for row, n in zip(
                            scenario.requirements.per_interval.tolist(),
                            allocation.day_counts.tolist(),
                        )
                    }
                )
                evaluations = day.evaluations + result.evaluations
                runtime = day.runtime_seconds + result.runtime_seconds
            else:
                with tracer.span("phases.single") as counts:
                    result = sp["solve_single_phase"](scenario, limits)
                    _search_counts(counts, result)
                evaluations = result.evaluations
                runtime = result.runtime_seconds
            schedule_path = f"{out_dir}/{solve.mode}-schedule.csv"
            report_path = f"{out_dir}/{solve.mode}-report.json"
            with tracer.span("scenario_io.write") as counts:
                sp["write_schedule"](result.schedule, scenario.shift_catalog, schedule_path)
                counts["bytes"] = os.path.getsize(schedule_path)
            with tracer.span("metrics.report"):
                report = sp["build_report"](
                    scenario,
                    result.schedule,
                    solve.mode,
                    seed=seed,
                    runtime_seconds=runtime,
                    status=result.status,
                    evaluations=evaluations,
                )
            with tracer.span("scenario_io.write") as counts:
                sp["write_report"](report, report_path, deterministic=solve.move_cap is not None)
                counts["bytes"] = os.path.getsize(report_path)
        # Greedy-start probe: the same entry point with a move cap of 1, run
        # right after the solve so both see the same host load.
        probe = sp["SolveLimits"](seed=seed, move_cap=1)
        with tracer.span(f"phases.{'shift' if solve.mode == 'multi' else 'single'}_start"):
            if solve.mode == "multi":
                sp["solve_shift_allocation"](
                    sp["ShiftPhaseSpec"](
                        requirements=scenario.requirements,
                        allocation=allocation,
                        catalog=scenario.shift_catalog,
                    ),
                    probe,
                )
            else:
                sp["solve_single_phase"](scenario, probe)


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one replay; a layer the workload does not use
    reads 0, a counter its result does not carry is left out."""
    busy = tracer.self_seconds()

    def sec(name: str) -> float:
        return busy.get(name, 0.0)

    m = {
        "phases.day_s": sec("phases.day"),
        "phases.day_evals": tracer.counts("phases.day", "evaluations"),
        "phases.day_improvements": tracer.counts("phases.day", "improvements"),
        "phases.distinct_day_problems": tracer.counts("cmd.solve-multi", "distinct_day_problems"),
        "tuner.sweep_s": sec("tuner.sweep"),
        "tuner.k_tried": tracer.counts("tuner.sweep", "k_tried"),
        "erlang.requirements_s": sec("erlang.requirements"),
        "erlang.cells": tracer.counts("erlang.requirements", "cells"),
        "scenario_io.load_s": sec("scenario_io.load"),
        "scenario_io.load_bytes": tracer.counts("scenario_io.load", "bytes"),
        "metrics.report_s": sec("metrics.report"),
        "scenario_io.write_s": sec("scenario_io.write"),
        "scenario_io.write_bytes": tracer.counts("scenario_io.write", "bytes"),
        "trace.replay_s": sum(
            s["end"] - s["start"] for s in tracer.spans if s["name"].startswith("cmd.")
        ),
    }
    m["erlang.cells_per_s"] = _ratio(m["erlang.cells"], m["erlang.requirements_s"])
    for phase in ("shift", "single"):
        evals = tracer.counts(f"phases.{phase}", "evaluations")
        improvements = tracer.counts(f"phases.{phase}", "improvements")
        m[f"phases.{phase}_s"] = sec(f"phases.{phase}")
        m[f"phases.{phase}_start_s"] = sec(f"phases.{phase}_start")
        m[f"phases.{phase}_evals"] = evals
        m[f"phases.{phase}_improvements"] = improvements
        m[f"phases.{phase}_useful_ratio"] = _ratio(improvements, evals)
        search = m[f"phases.{phase}_s"] - m[f"phases.{phase}_start_s"]
        if evals and search <= 0:
            # the search took less than the timing noise of the start probe:
            # no rate can be measured in this replay
            continue
        m[f"phases.{phase}_evals_per_s"] = _ratio(evals, search)
    return {k: v for k, v in m.items() if v is not None}
