"""Command-line front end.

Subcommands mirror the library surface: ``gen-scenario``, ``requirements``,
``solve``, ``tune-penalty``, ``metrics``, and ``compare``.  Exit codes:

* 0 success
* 1 usage error (bad flags, unreadable files)
* 2 validation failure (malformed files, invalid scenarios, infeasible
  schedules)

``--move-cap`` replaces the wall-clock budget with a fixed move-evaluation
budget; with it, repeated runs produce byte-identical output files.
"""

import argparse
import sys

from .metrics import build_report, compare_modes
from .phases import MAX_PENALTY, SolveLimits, solve_multi_phase, solve_single_phase
from .scenario_io import (
    PRESETS,
    gen_preset_scenario,
    load_scenario,
    read_schedule,
    save_scenario,
    write_report,
    write_requirements,
    write_schedule,
    write_sweep_trace,
)
from .tuner import StopConfig, tune_penalty


class UsageError(Exception):
    """Raised instead of argparse's hard exit so main() can map it to 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2) here
        raise UsageError(message)


def _checked(kind, ok, need: str):
    """An argparse type: ``kind`` parsed from the text, refused unless ``ok``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


_POSITIVE_INT = _checked(int, lambda v: v > 0, "a positive integer")
_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, "a non-negative integer")
_POSITIVE_SECONDS = _checked(float, lambda v: v > 0, "a positive number of seconds")
_PENALTY = _checked(_NON_NEGATIVE_INT, lambda v: v <= MAX_PENALTY, f"at most {MAX_PENALTY}")


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--time-budget",
        type=_POSITIVE_SECONDS,
        default=60.0,
        metavar="SECONDS",
        help="wall-clock budget per solve (default 60)",
    )
    group.add_argument(
        "--move-cap",
        type=_POSITIVE_INT,
        default=None,
        metavar="N",
        help="deterministic move-evaluation budget instead of wall clock",
    )


def _limits(args) -> SolveLimits:
    return SolveLimits(
        time_budget_seconds=args.time_budget,
        seed=args.seed,
        move_cap=args.move_cap,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shiftplan", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen-scenario", help="write a synthetic scenario file")
    gen.add_argument("--preset", choices=sorted(PRESETS), default="peak-week")
    gen.add_argument("--out", default=None, help="output path (default <preset>.json)")
    gen.set_defaults(handler=_cmd_gen_scenario)

    req = commands.add_parser(
        "requirements", help="staffing requirements table for a scenario"
    )
    req.add_argument("--scenario", required=True)
    req.add_argument("--out", default=None, help="output CSV (default <name>-requirements.csv)")
    req.set_defaults(handler=_cmd_requirements)

    solve = commands.add_parser("solve", help="solve a scenario and write schedule + report")
    solve.add_argument("--scenario", required=True)
    solve.add_argument("--mode", choices=("single", "multi"), required=True)
    solve.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    _add_budget_flags(solve)
    penalty = solve.add_mutually_exclusive_group()
    penalty.add_argument(
        "--penalty", type=_PENALTY, default=0, help="day-balancing penalty factor K"
    )
    penalty.add_argument(
        "--tune",
        action="store_true",
        help="sweep K and use the best factor instead of --penalty (multi mode)",
    )
    solve.add_argument("--out", default=None, help="schedule CSV (default <name>-<mode>-schedule.csv)")
    solve.add_argument("--report", default=None, help="report JSON (default <name>-<mode>-report.json)")
    solve.set_defaults(handler=_cmd_solve)

    tune = commands.add_parser(
        "tune-penalty", help="sweep the day-balancing penalty factor"
    )
    tune.add_argument("--scenario", required=True)
    tune.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    _add_budget_flags(tune)  # the multi solve's budget, as for solve --tune
    tune.add_argument("--patience", type=_POSITIVE_INT, default=2)
    tune.add_argument("--k-max", type=_PENALTY, default=50)
    tune.add_argument("--trace", default=None, help="sweep CSV (default <name>-sweep.csv)")
    tune.add_argument("--out", default=None, help="chosen-K schedule CSV (default <name>-tuned-schedule.csv)")
    tune.add_argument("--report", default=None, help="optional report JSON for the tuned schedule")
    tune.set_defaults(handler=_cmd_tune)

    metrics = commands.add_parser(
        "metrics", help="recompute the report for an existing schedule"
    )
    metrics.add_argument("--scenario", required=True)
    metrics.add_argument("--schedule", required=True)
    metrics.add_argument("--mode", choices=("single", "multi"), required=True)
    metrics.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0, help="seed recorded in the report")
    metrics.add_argument("--out", default=None, help="report JSON (default <name>-metrics.json)")
    metrics.set_defaults(handler=_cmd_metrics)

    compare = commands.add_parser(
        "compare", help="seeded repeat runs of both modes, with mean summary"
    )
    compare.add_argument("--scenario", required=True)
    compare.add_argument("--runs", type=_POSITIVE_INT, default=10)
    compare.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    _add_budget_flags(compare)
    compare.add_argument("--penalty", type=_PENALTY, default=0)
    compare.add_argument("--out", default=None, help="comparison JSON (default <name>-compare.json)")
    compare.set_defaults(handler=_cmd_compare)

    return parser


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_gen_scenario(args) -> int:
    scenario = gen_preset_scenario(args.preset)
    out = args.out or f"{args.preset}.json"
    save_scenario(scenario, out)
    print(f"wrote {out}")
    return 0


def _cmd_requirements(args) -> int:
    scenario = load_scenario(args.scenario)
    out = args.out or f"{scenario.name}-requirements.csv"
    write_requirements(scenario.requirements, out)
    print(f"wrote {out}")
    return 0


def _write_outputs(args, scenario, result, mode: str, out: str, report_path):
    """Write ``result``'s schedule to ``out`` and, unless ``report_path`` is
    None, its report; returns the report or None."""
    write_schedule(result.schedule, scenario.shift_catalog, out)
    if report_path is None:
        return None
    report = build_report(
        scenario,
        result.schedule,
        mode,
        seed=args.seed,
        runtime_seconds=result.runtime_seconds,
        status=result.status,
        evaluations=result.evaluations,
    )
    write_report(report, report_path, deterministic=args.move_cap is not None)
    return report


def _tune_and_solve(args, scenario, stop: StopConfig = StopConfig()):
    """The K sweep, then the multi solve at the chosen K with the whole budget."""
    limits = _limits(args)
    tuned = tune_penalty(
        scenario.requirements.per_day,
        scenario.agent_count,
        scenario.week_partition(),
        limits,
        stop,
    )
    return tuned, solve_multi_phase(scenario, limits, tuned.trace.selected)


def _cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.tune and args.mode != "multi":
        raise UsageError("--tune applies to --mode multi only")
    if args.tune:
        _, result = _tune_and_solve(args, scenario)
    elif args.mode == "multi":
        result = solve_multi_phase(scenario, _limits(args), args.penalty)
    else:
        result = solve_single_phase(scenario, _limits(args))
    out = args.out or f"{scenario.name}-{args.mode}-schedule.csv"
    report_path = args.report or f"{scenario.name}-{args.mode}-report.json"
    report = _write_outputs(args, scenario, result, args.mode, out, report_path)
    print(f"wrote {out} and {report_path} (objective {report.objective_value})")
    return 0


def _cmd_tune(args) -> int:
    scenario = load_scenario(args.scenario)
    stop = StopConfig(patience=args.patience, k_max=args.k_max)
    tuned, result = _tune_and_solve(args, scenario, stop)
    trace_path = args.trace or f"{scenario.name}-sweep.csv"
    write_sweep_trace(tuned.trace, trace_path)
    out = args.out or f"{scenario.name}-tuned-schedule.csv"
    _write_outputs(args, scenario, result, "multi", out, args.report)
    print(f"selected K={tuned.trace.selected}; wrote {trace_path} and {out}")
    return 0


def _cmd_metrics(args) -> int:
    scenario = load_scenario(args.scenario)
    schedule = read_schedule(args.schedule, scenario)
    report = build_report(
        scenario, schedule, args.mode, seed=args.seed, runtime_seconds=0.0
    )
    out = args.out or f"{scenario.name}-metrics.json"
    write_report(report, out, deterministic=True)
    print(f"wrote {out} (ivdi {report.ivdi}, dvdi {report.dvdi})")
    return 0


def _cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    limits = _limits(args)
    result = compare_modes(scenario, args.runs, limits, penalty_factor=args.penalty)
    out = args.out or f"{scenario.name}-compare.json"
    write_report(result, out, deterministic=args.move_cap is not None)
    wins = result.wins("ivdi")
    print(f"wrote {out} (multi wins ivdi in {wins}/{args.runs} runs)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # SchemaError, invalid scenarios, infeasible schedules
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
