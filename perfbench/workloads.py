"""The benchmark's workloads: how each makes its inputs and which CLI
commands one pass runs.

Inputs are written before any timing starts; the CLI only ever sees the
files.  Each workload stresses a different layer (see README.md).
"""

import json
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

# scale-4wk goes through the package's own generator and writer.
SCALE_SCRIPT = (
    "import sys\n"
    "from shiftplan import PeakPresetSpec, gen_peak_scenario, save_scenario\n"
    "spec = PeakPresetSpec(name='scale-4wk', agents=2000, weekday_peak=2500,"
    " weekend_peak=1200, weeks=4)\n"
    "save_scenario(gen_peak_scenario(spec), sys.argv[1])\n"
)


@dataclass(frozen=True)
class Solve:
    """One ``shiftplan solve`` call of a pass."""

    mode: str  # "multi" or "single"
    move_cap: int | None = None  # None: wall-clock budget
    time_budget: float | None = None
    tune: bool = False

    def limit_flags(self) -> list[str]:
        if self.move_cap is not None:
            return ["--move-cap", str(self.move_cap)]
        return ["--time-budget", repr(self.time_budget)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario_file: str
    solves: tuple[Solve, ...]
    requirements_table: bool = False  # pass starts with `shiftplan requirements`

    @property
    def deterministic(self) -> bool:
        return all(s.move_cap is not None for s in self.solves)

    def generator_commands(self, python: str) -> list[list[str]]:
        """Child commands that write the input file (cwd: the input dir)."""
        if self.name in ("peak-week", "budget-2wk"):
            preset = "peak-week" if self.name == "peak-week" else "benchmark-2wk"
            return [[python, "-m", "shiftplan.cli", "gen-scenario", "--preset", preset,
                     "--out", self.scenario_file]]
        if self.name == "scale-4wk":
            return [[python, "-c", SCALE_SCRIPT, self.scenario_file]]
        return []

    def pass_commands(self, python: str, scenario: str, seed: int, out_dir: str):
        """(label, argv) for every CLI call of one pass, in order."""
        cli = [python, "-m", "shiftplan.cli"]
        commands = []
        if self.requirements_table:
            out = f"{out_dir}/requirements.csv"
            commands.append(("requirements",
                             cli + ["requirements", "--scenario", scenario, "--out", out]))
        for solve in self.solves:
            schedule = f"{out_dir}/{solve.mode}-schedule.csv"
            report = f"{out_dir}/{solve.mode}-report.json"
            argv = cli + ["solve", "--scenario", scenario, "--mode", solve.mode,
                          "--seed", str(seed)] + solve.limit_flags()
            if solve.tune:
                argv.append("--tune")
            commands.append((f"solve-{solve.mode}",
                             argv + ["--out", schedule, "--report", report]))
        return commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "peak-week",
            "the paper's scenario; no search move ever improves the greedy start,"
            " so the move loop bounds the time",
            "peak-week.json",
            (Solve("multi", move_cap=200_000), Solve("single", move_cap=200_000)),
        ),
        Workload(
            "scale-4wk",
            "2000 agents over 4 weeks: greedy starts, materialization, reports and"
            " writes bound the time; only 2 distinct day problems in 28 days",
            "scale-4wk.json",
            (Solve("multi", move_cap=50_000), Solve("single", move_cap=50_000)),
        ),
        Workload(
            "volumes-tune",
            "seeded call volumes through Erlang-C and the K sweep; 28 distinct days"
            " and improving moves make it the quality-sensitive case",
            "volumes-tune.json",
            (Solve("multi", move_cap=50_000, tune=True), Solve("single", move_cap=50_000)),
            requirements_table=True,
        ),
        Workload(
            "budget-2wk",
            "the CLI's default wall-clock budget (2 s per solve): the only path"
            " through the deadline clock",
            "benchmark-2wk.json",
            (Solve("multi", time_budget=2.0), Solve("single", time_budget=2.0)),
        ),
    )
}


# ---------------------------------------------------------------------------
# the volumes-tune generator
# ---------------------------------------------------------------------------

VOLUME_DAYS = 28
VOLUME_INTERVALS = 96  # quarter hours
VOLUME_PEAK = 1500  # calls per interval at the busiest point
# Small noise keeps every day row distinct while leaving the instance's
# shape, and so its quality figures, nearly the same from seed to seed.
VOLUME_NOISE_SIGMA = 0.005
# Monday first.  Monday carries more than a fifth of the week's peak demand,
# which no 5-day pattern can match, so the tuned KL has a structural floor
# instead of sitting at rounding noise.
WEEKDAY_LEVEL = (1.0, 0.72, 0.7, 0.7, 0.68, 0.3, 0.25)


def volumes_scenario(seed: int) -> dict:
    """A 4-week scenario with integer call volumes instead of requirements.

    Two intraday peaks (late morning and mid afternoon), a heavy Monday,
    lighter weekdays and light weekends, and independent lognormal noise per
    cell so that no two day rows coincide.  AHT 300 s, 80% of calls answered within 20 s,
    34-interval shifts starting every 30 minutes, 580 agents.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(VOLUME_INTERVALS)
    bumps = np.exp(-0.5 * ((t - 42) / 8.0) ** 2) + 0.85 * np.exp(-0.5 * ((t - 62) / 9.0) ** 2)
    shape = 0.05 + 0.95 * bumps / bumps.max()
    level = np.array(WEEKDAY_LEVEL * (VOLUME_DAYS // 7))
    mean = VOLUME_PEAK * level[:, None] * shape[None, :]
    sigma = VOLUME_NOISE_SIGMA
    noise = rng.lognormal(-sigma * sigma / 2, sigma, size=mean.shape)
    volumes = np.rint(mean * noise).astype(np.int64)
    start = date(2024, 1, 1)  # a Monday
    return {
        "name": "volumes-tune",
        "days": [(start + timedelta(days=i)).isoformat() for i in range(VOLUME_DAYS)],
        "intervals_per_day": VOLUME_INTERVALS,
        "agents": 580,
        "shift_catalog": [
            {"start": s, "length": 34} for s in range(0, VOLUME_INTERVALS - 34 + 1, 2)
        ],
        "volumes": volumes.tolist(),
        "interval_seconds": 900,
        "sla": {"target": 0.8, "threshold_seconds": 20.0},
        "aht_seconds": 300.0,
    }


def write_volumes_scenario(seed: int, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(volumes_scenario(seed), handle)
        handle.write("\n")
