"""Command-line front end.

Subcommands mirror the library surface: ``gen-scenario``, ``requirements``,
``solve``, ``metrics``, and ``compare``.  ``solve --mode multi --tune`` sweeps
the penalty factor K (``tuner.tune_penalty``, which stops after
``tuner.PATIENCE`` non-improving steps or at ``tuner.K_MAX``) and solves at
the chosen K; ``--sweep FILE`` also writes the sweep as CSV.  Exit codes:

* 0 success
* 1 usage error (bad flags, unreadable files)
* 2 validation failure (malformed files, invalid scenarios, infeasible
  schedules)

``--move-cap`` replaces the wall-clock budget with a fixed move-evaluation
budget; with it, repeated runs produce byte-identical output files.
"""

import argparse
import sys

# Only the presets load with this module: each handler imports what it runs,
# so gen-scenario, --help and usage errors start without numpy.
from .presets import DEFAULT_PENALTY_FACTOR, DEFAULT_SEED
from .presets import DEFAULT_TIME_BUDGET_SECONDS, PRESETS, peak_scenario_data, write_json


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


def _penalty(text: str) -> int:
    """A penalty factor K, as ``phases.check_penalty_factor`` allows; ``phases``
    loads numpy, so it is imported only when a value is given."""
    value = int(text)
    from .phases import check_penalty_factor

    try:
        check_penalty_factor(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


_penalty.__name__ = int.__name__


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--time-budget",
        type=_POSITIVE_SECONDS,
        default=DEFAULT_TIME_BUDGET_SECONDS,
        metavar="SECONDS",
        help="wall-clock budget per solve (default %(default)s)",
    )
    group.add_argument(
        "--move-cap",
        type=_POSITIVE_INT,
        default=None,
        metavar="N",
        help="deterministic move-evaluation budget instead of wall clock",
    )


def _limits(args):
    from .phases import SolveLimits

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
    solve.add_argument("--seed", type=_NON_NEGATIVE_INT, default=DEFAULT_SEED)
    _add_budget_flags(solve)
    penalty = solve.add_mutually_exclusive_group()
    penalty.add_argument(
        "--penalty", type=_penalty, default=DEFAULT_PENALTY_FACTOR, help="day-balancing penalty factor K"
    )
    penalty.add_argument(
        "--tune",
        action="store_true",
        help="sweep K and use the best factor instead of --penalty (multi mode)",
    )
    solve.add_argument("--sweep", default=None, metavar="FILE", help="with --tune: the sweep as CSV")
    solve.add_argument("--out", default=None, help="schedule CSV (default <name>-<mode>-schedule.csv)")
    solve.add_argument("--report", default=None, help="report JSON (default <name>-<mode>-report.json)")
    solve.set_defaults(handler=_cmd_solve)

    metrics = commands.add_parser(
        "metrics", help="recompute the report for an existing schedule"
    )
    metrics.add_argument("--scenario", required=True)
    metrics.add_argument("--schedule", required=True)
    metrics.add_argument("--mode", choices=("single", "multi"), required=True)
    metrics.add_argument(
        "--seed", type=_NON_NEGATIVE_INT, default=DEFAULT_SEED, help="seed recorded in the report"
    )
    metrics.add_argument("--out", default=None, help="report JSON (default <name>-metrics.json)")
    metrics.set_defaults(handler=_cmd_metrics)

    compare = commands.add_parser(
        "compare",
        help="repeat runs of both modes, with mean summary; the seed is only"
        " recorded, so under --move-cap every run repeats one result",
    )
    compare.add_argument("--scenario", required=True)
    compare.add_argument("--runs", type=_POSITIVE_INT, default=10)
    compare.add_argument("--seed", type=_NON_NEGATIVE_INT, default=DEFAULT_SEED)
    _add_budget_flags(compare)
    compare.add_argument("--penalty", type=_penalty, default=DEFAULT_PENALTY_FACTOR)
    compare.add_argument("--out", default=None, help="comparison JSON (default <name>-compare.json)")
    compare.set_defaults(handler=_cmd_compare)

    return parser


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_gen_scenario(args) -> int:
    out = args.out or f"{args.preset}.json"
    write_json(peak_scenario_data(PRESETS[args.preset]), out)
    print(f"wrote {out}")
    return 0


def _cmd_requirements(args) -> int:
    from .scenario_io import load_scenario, write_requirements

    scenario = load_scenario(args.scenario)
    out = args.out or f"{scenario.name}-requirements.csv"
    write_requirements(scenario.requirements, out)
    print(f"wrote {out}")
    return 0


def _cmd_solve(args) -> int:
    # usage errors: raised before any file is read
    if args.tune and args.mode != "multi":
        raise UsageError("--tune applies to --mode multi only")
    if args.sweep is not None and not args.tune:
        raise UsageError("--sweep applies to --tune only")
    from .phases import solve_multi_phase, solve_single_phase
    from .scenario_io import load_scenario, write_report, write_schedule, write_sweep_trace

    scenario = load_scenario(args.scenario)
    limits = _limits(args)
    penalty = args.penalty
    if args.tune:  # the K sweep spends no budget: the solve at its K gets it all
        from .tuner import tune_penalty

        trace = tune_penalty(
            scenario.requirements.per_day, scenario.agent_count, scenario.week_partition(), limits
        ).trace
        penalty = trace.selected
        if args.sweep is not None:
            write_sweep_trace(trace, args.sweep)
    if args.mode == "multi":
        result = solve_multi_phase(scenario, limits, penalty)
    else:
        result = solve_single_phase(scenario, limits)
    # imported after the solve, whose heap peak it would otherwise raise
    from .metrics import result_report

    out = args.out or f"{scenario.name}-{args.mode}-schedule.csv"
    report_path = args.report or f"{scenario.name}-{args.mode}-report.json"
    write_schedule(result.schedule, scenario.shift_catalog, out)
    report = result_report(scenario, result, args.mode, args.seed)
    write_report(report, report_path, deterministic=args.move_cap is not None)
    tuned = f", selected K={penalty}" if args.tune else ""
    print(f"wrote {out} and {report_path} (objective {report.objective_value}{tuned})")
    return 0


def _cmd_metrics(args) -> int:
    from .metrics import build_report
    from .scenario_io import load_scenario, read_schedule, write_report

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
    from .metrics import compare_modes
    from .scenario_io import load_scenario, write_report

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
