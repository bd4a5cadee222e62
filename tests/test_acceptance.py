"""Acceptance gate: the eight release criteria, one test per criterion.

Each test prints a single "criterion N ...: PASS" line with its headline
numbers (visible with ``pytest -rP`` or ``-s``); a failing criterion shows up
as the test's FAILED row.  Schedules produced for criteria 2, 4, and 5 are
shared through session fixtures so criterion 3 can audit every one of them.
"""

import random
import time
from dataclasses import dataclass

import numpy as np
import pytest

from shiftplan.cli import main as cli_main
from shiftplan.domain import (
    DayAllocation,
    RequirementMatrix,
    Schedule,
    ShiftCatalog,
    build_week_partition,
    coverage_from_schedule,
    validate_schedule,
)
from shiftplan.erlang import (
    SlaSpec,
    erlang_c_wait_probability,
    required_agents,
    service_level,
)
from shiftplan.metrics import build_report, compare_modes, count_variables, kl_divergence
from shiftplan.phases import (
    DayPhaseSpec,
    ShiftPhaseSpec,
    SolveLimits,
    interval_objective_value,
    materialize_day,
    materialize_shift,
    solve_day_allocation,
    solve_multi_phase,
    solve_shift_allocation,
    solve_single_phase,
)
from shiftplan.scenario_io import (
    gen_preset_scenario,
    load_scenario,
    read_schedule,
    read_sweep_trace,
    record_to_dict,
    save_scenario,
    write_schedule,
    write_sweep_trace,
)
from shiftplan.tuner import tune_penalty

import oracles

ONE_WEEK = build_week_partition(7)


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MicroInstance:
    """One randomized micro-problem with exact and local solutions."""

    agents: int
    penalty: int
    r_dt: np.ndarray
    r_day: np.ndarray
    catalog: ShiftCatalog
    exact_day_objective: int
    local_day_objective: int
    exact_shift_objective: int
    local_shift_objective: int
    local_allocation: DayAllocation
    exact_allocation: DayAllocation
    local_schedule: Schedule
    exact_schedule: Schedule


@pytest.fixture(scope="session")
def micro_instances():
    """60 randomized micro-instances solved locally and exactly (criterion 2)."""
    rng = random.Random(20240811)
    instances = []
    t0 = time.monotonic()
    for _ in range(60):
        agents = rng.randint(1, 4)
        intervals = rng.randint(2, 6)
        n_shifts = rng.randint(1, 3)
        shifts: set[tuple[int, int]] = set()
        while len(shifts) < n_shifts:
            length = rng.randint(1, intervals)
            shifts.add((rng.randint(0, intervals - length), length))
        catalog = ShiftCatalog(tuple(sorted(shifts)), intervals)
        r_dt = np.array(
            [[rng.randint(0, 5) for _ in range(intervals)] for _ in range(7)],
            dtype=np.int64,
        )
        r_day = r_dt.max(axis=1)
        penalty = rng.randint(0, 2)
        seed = rng.randint(0, 10_000)

        limits = SolveLimits(seed=seed, move_cap=10_000)
        exact_day = oracles.exact_day(r_day, agents, ONE_WEEK, penalty)
        local_day = solve_day_allocation(DayPhaseSpec(r_day, agents, ONE_WEEK, penalty), limits)
        local_alloc = local_day.allocation
        exact_alloc = materialize_day(exact_day.head_counts, agents, ONE_WEEK)
        n_d = [int(x) for x in local_alloc.day_counts]
        exact_shift = oracles.exact_shift(r_dt, n_d, catalog)
        requirements = RequirementMatrix(r_dt)
        local_shift = solve_shift_allocation(
            ShiftPhaseSpec(requirements, local_alloc, catalog), limits
        )
        instances.append(
            MicroInstance(
                agents=agents,
                penalty=penalty,
                r_dt=r_dt,
                r_day=r_day,
                catalog=catalog,
                exact_day_objective=int(exact_day.objective),
                local_day_objective=int(local_day.objective),
                exact_shift_objective=int(exact_shift.objective),
                local_shift_objective=int(local_shift.objective),
                local_allocation=local_alloc,
                exact_allocation=exact_alloc,
                local_schedule=local_shift.schedule,
                exact_schedule=materialize_shift(exact_shift.splits, local_alloc),
            )
        )
    return instances, time.monotonic() - t0


@pytest.fixture(scope="session")
def peak_artifacts():
    """Penalty sweep on the peak-week preset plus the tuned schedule (criterion 4)."""
    scenario = gen_preset_scenario("peak-week")
    t0 = time.monotonic()
    weeks = scenario.week_partition()
    tuned = tune_penalty(
        scenario.requirements.per_day,
        scenario.agent_count,
        weeks,
        SolveLimits(time_budget_seconds=2.0, seed=11),
    )
    shift = solve_shift_allocation(
        ShiftPhaseSpec(
            requirements=scenario.requirements,
            allocation=materialize_day(
                tuned.trace.entries[tuned.trace.selected].day_counts, scenario.agent_count, weeks
            ),
            catalog=scenario.shift_catalog,
        ),
        SolveLimits(seed=11, move_cap=200_000),
    )
    return {
        "scenario": scenario,
        "tuned": tuned,
        "shift": shift,
        "elapsed": time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def benchmark_artifacts():
    """Ten seeded two-mode runs on the 50-agent benchmark (criterion 5).

    ``compare_modes`` is the official path; a replay with the same limits
    captures the actual schedules for criterion 3 (byte-determinism makes the
    replayed solutions identical to what compare_modes scored).
    """
    scenario = gen_preset_scenario("benchmark-2wk")
    limits = SolveLimits(seed=0, move_cap=200_000)
    t0 = time.monotonic()
    official = compare_modes(scenario, 10, limits)
    replays = []
    for i in range(10):
        run_limits = SolveLimits(seed=i, move_cap=200_000)
        single = solve_single_phase(scenario, run_limits)
        multi = solve_multi_phase(scenario, run_limits)
        replays.append((run_limits.seed, single, multi))
    return {
        "scenario": scenario,
        "official": official,
        "replays": replays,
        "elapsed": time.monotonic() - t0,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_variable_counts():
    """Exact single-phase size; multi-phase shrinks the model by >= 15%."""
    single_30 = count_variables(250, 30, 15, 24, "single")
    assert single_30 == 113_940

    # the multi-phase count depends on the day solve's working pairs, so run
    # one: 250 agents on a four-week peak-shaped horizon (whole weeks)
    weeks = build_week_partition(28)
    r_day = np.array(([225] * 5 + [110] * 2) * 4, dtype=np.int64)
    day = solve_day_allocation(
        DayPhaseSpec(r_day, 250, weeks), SolveLimits(seed=0, move_cap=100_000)
    )
    pairs = int(day.allocation.day_counts.sum())
    assert pairs == 250 * 5 * 4  # five workdays per agent-week, by construction
    multi_28 = count_variables(250, 28, 15, 24, "multi", assigned_pairs=pairs)
    single_28 = count_variables(250, 28, 15, 24, "single")
    reduction = 1.0 - multi_28 / single_28
    assert reduction >= 0.15
    print(
        f"criterion 1 (variable counts): PASS — single@30d={single_30:,};"
        f" multi@28d={multi_28:,} vs single@28d={single_28:,}"
        f" ({reduction:.1%} smaller)"
    )


def test_criterion_2_oracle_equivalence(micro_instances):
    """The local solvers match the exact optimum on micro-instances."""
    instances, elapsed = micro_instances
    assert len(instances) >= 50
    day_misses = [
        inst
        for inst in instances
        if inst.local_day_objective != inst.exact_day_objective
    ]
    assert not day_misses, f"{len(day_misses)} day-phase instances off optimum"
    shift_equal = sum(
        inst.local_shift_objective == inst.exact_shift_objective
        for inst in instances
    )
    assert shift_equal / len(instances) >= 0.95
    for inst in instances:
        if inst.local_shift_objective != inst.exact_shift_objective:
            # any miss must still land within 10% of the optimum
            assert inst.exact_shift_objective > 0
            gap = (
                inst.local_shift_objective - inst.exact_shift_objective
            ) / inst.exact_shift_objective
            assert gap <= 0.10
    assert elapsed < 60.0
    print(
        f"criterion 2 (oracle equivalence): PASS — day {len(instances)}/"
        f"{len(instances)}, shift {shift_equal}/{len(instances)},"
        f" {elapsed:.1f}s"
    )


def test_criterion_3_constraint_invariants(
    micro_instances, peak_artifacts, benchmark_artifacts
):
    """Every produced schedule is feasible and every objective recomputes exactly."""
    checked = 0

    def check_schedule(schedule, *, agents, day_count, catalog, weeks):
        nonlocal checked
        problems = validate_schedule(
            schedule,
            agent_count=agents,
            day_count=day_count,
            catalog=catalog,
            weeks=weeks,
        )
        assert problems == []
        checked += 1
        return coverage_from_schedule(schedule, catalog)

    instances, _ = micro_instances
    for inst in instances:
        # day phase: allocations are valid and objectives recompute to the digit
        for alloc, objective in (
            (inst.local_allocation, inst.local_day_objective),
            (inst.exact_allocation, inst.exact_day_objective),
        ):
            assert oracles.validate_day_allocation(alloc, inst.agents, ONE_WEEK) == []
            audit = oracles.audit_days(alloc.works, inst.r_day, inst.agents, ONE_WEEK, inst.penalty)
            assert audit == ([], objective)
        # shift phase: schedules are valid, sit on the phase-1 head-counts,
        # and the reported objectives recompute exactly
        for schedule, objective in (
            (inst.local_schedule, inst.local_shift_objective),
            (inst.exact_schedule, inst.exact_shift_objective),
        ):
            cov = check_schedule(
                schedule,
                agents=inst.agents,
                day_count=7,
                catalog=inst.catalog,
                weeks=ONE_WEEK,
            )
            assert cov.per_day.tolist() == inst.local_allocation.day_counts.tolist()
            assert interval_objective_value(inst.r_dt, cov.per_interval) == objective

    peak = peak_artifacts
    scn = peak["scenario"]
    cov = check_schedule(
        peak["shift"].schedule,
        agents=scn.agent_count,
        day_count=scn.num_days,
        catalog=scn.shift_catalog,
        weeks=scn.week_partition(),
    )
    trace = peak["tuned"].trace
    assert cov.per_day.tolist() == list(trace.entries[trace.selected].day_counts)
    assert (
        interval_objective_value(scn.requirements.per_interval, cov.per_interval)
        == peak["shift"].objective
    )

    bench = benchmark_artifacts
    scn = bench["scenario"]
    weeks = scn.week_partition()
    for _, single, multi in bench["replays"]:
        cov = check_schedule(
            single.schedule,
            agents=scn.agent_count,
            day_count=scn.num_days,
            catalog=scn.shift_catalog,
            weeks=weeks,
        )
        assert (
            interval_objective_value(scn.requirements.per_interval, cov.per_interval)
            == single.objective
        )
        cov = check_schedule(
            multi.schedule,
            agents=scn.agent_count,
            day_count=scn.num_days,
            catalog=scn.shift_catalog,
            weeks=weeks,
        )
        assert cov.per_day.tolist() == multi.allocation.day_counts.tolist()
        assert (
            interval_objective_value(scn.requirements.per_interval, cov.per_interval)
            == multi.objective
        )
    print(f"criterion 3 (constraint invariants): PASS — {checked} schedules audited")


def test_criterion_4_peak_week_penalty(peak_artifacts):
    """K=0 starves the weekend; the tuner picks a small K that restores it."""
    tuned = peak_artifacts["tuned"]
    entries = {e.penalty_factor: e for e in tuned.trace.entries}
    assert 0 in entries
    assert min(entries[0].day_counts) == 0  # the shutdown pathology
    k_star = tuned.trace.selected
    assert k_star in (1, 2, 3)
    assert entries[k_star].kl < entries[0].kl
    assert min(entries[k_star].day_counts) > 0
    assert peak_artifacts["elapsed"] < 120.0
    print(
        f"criterion 4 (peak-week penalty): PASS — K*={k_star},"
        f" KL {entries[0].kl:.4f} -> {entries[k_star].kl:.4f},"
        f" weekend head-count {min(entries[k_star].day_counts)}"
    )


def test_criterion_5_directional_comparison(benchmark_artifacts):
    """Multi-phase wins on IVDI across seeds and on mean DVDI."""
    official = benchmark_artifacts["official"]
    assert len(official.runs) == 10
    wins = official.wins("ivdi")
    assert wins >= 8
    assert official.means["multi"]["dvdi"] <= official.means["single"]["dvdi"]
    # the replayed runs (whose schedules criterion 3 audited) score identically
    for run, (seed, single, multi) in zip(
        official.runs, benchmark_artifacts["replays"]
    ):
        assert run.seed == seed
        scn = benchmark_artifacts["scenario"]
        replay_single = build_report(
            scn, single.schedule, "single", seed=seed, runtime_seconds=0.0
        )
        replay_multi = build_report(
            scn, multi.schedule, "multi", seed=seed, runtime_seconds=0.0
        )
        for official_report, replay in (
            (run.single, replay_single),
            (run.multi, replay_multi),
        ):
            a = record_to_dict(official_report, deterministic=True)
            b = record_to_dict(replay, deterministic=True)
            for skip in ("status", "evaluations"):
                a.pop(skip), b.pop(skip)
            assert a == b
    assert benchmark_artifacts["elapsed"] < 600.0
    print(
        f"criterion 5 (directional comparison): PASS — multi wins IVDI {wins}/10,"
        f" mean DVDI {official.means['multi']['dvdi']:.1f} <="
        f" {official.means['single']['dvdi']:.1f},"
        f" {benchmark_artifacts['elapsed']:.0f}s"
    )


def test_criterion_6_erlang_properties():
    """Staffing math: hand value, monotonicity, minimality, saturation."""
    t0 = time.monotonic()
    sla = SlaSpec(0.8, 20.0)
    assert required_agents(2.0, 300.0, sla) == 4

    load = 12.0
    waits = [erlang_c_wait_probability(n, load) for n in range(13, 113)]
    assert len(waits) == 100
    assert all(a >= b for a, b in zip(waits, waits[1:]))

    rng = random.Random(6)
    for _ in range(100):
        load = rng.uniform(0.05, 40.0)
        n_star = required_agents(load, 300.0, sla)
        assert service_level(n_star, load, 300.0, 20.0) >= 0.8
        assert service_level(n_star - 1, load, 300.0, 20.0) < 0.8

    assert erlang_c_wait_probability(5, 5.0) == 1.0
    assert erlang_c_wait_probability(3, 9.9) == 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(
        f"criterion 6 (Erlang-C properties): PASS — n*(2 erlangs)=4,"
        f" 100-point monotonicity, 100 minimality checks, {elapsed:.2f}s"
    )


def test_criterion_7_kl_properties():
    """Divergence: identity, non-negativity, and the documented hand value."""
    t0 = time.monotonic()
    uniform = tuple([1 / 7] * 7)
    assert kl_divergence(uniform, uniform, epsilon=0.0) == 0.0

    rng = random.Random(77)
    for _ in range(1000):
        n = rng.randint(2, 10)
        raw_w = [rng.random() for _ in range(n)]
        raw_t = [rng.random() + 1e-9 for _ in range(n)]
        assert kl_divergence(raw_w, raw_t, epsilon=0.0) >= 0.0

    hand = kl_divergence((0.5, 0.5), (0.25, 0.75))
    assert hand == pytest.approx(0.14384, abs=1e-5)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(
        f"criterion 7 (KL properties): PASS — identity 0, 1000 pairs >= 0,"
        f" hand value {hand:.5f}, {elapsed:.2f}s"
    )


def test_criterion_8_determinism_and_round_trips(tmp_path, peak_artifacts):
    """Same seed + move cap give byte-identical files; formats round-trip."""
    t0 = time.monotonic()
    scenario_path = tmp_path / "scenario.json"
    assert (
        cli_main(
            ["gen-scenario", "--preset", "peak-week", "--out", str(scenario_path)]
        )
        == 0
    )

    outputs = []
    for tag in ("a", "b"):
        sched = tmp_path / f"{tag}.csv"
        report = tmp_path / f"{tag}.json"
        code = cli_main(
            [
                "solve",
                "--scenario",
                str(scenario_path),
                "--mode",
                "multi",
                "--seed",
                "42",
                "--move-cap",
                "30000",
                "--penalty",
                "2",
                "--out",
                str(sched),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        outputs.append((sched.read_bytes(), report.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]

    # scenario JSON round-trip
    scenario = load_scenario(str(scenario_path))
    rewritten = tmp_path / "rewritten.json"
    save_scenario(scenario, str(rewritten))
    assert load_scenario(str(rewritten)) == scenario

    # schedule CSV round-trip
    schedule = read_schedule(tmp_path / "a.csv", scenario)
    assert len(schedule) == scenario.agent_count * 5
    rewritten_csv = tmp_path / "rewritten.csv"
    write_schedule(schedule, scenario.shift_catalog, str(rewritten_csv))
    assert rewritten_csv.read_bytes() == (tmp_path / "a.csv").read_bytes()

    # sweep trace CSV round-trip, using the real sweep from criterion 4
    trace = peak_artifacts["tuned"].trace
    trace_path = tmp_path / "trace.csv"
    write_sweep_trace(trace, str(trace_path))
    loaded = read_sweep_trace(str(trace_path))
    assert loaded.entries == trace.entries
    assert loaded.selected == trace.selected
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        f"criterion 8 (determinism and round-trips): PASS — byte-identical"
        f" reruns, 3 formats round-tripped, {elapsed:.1f}s"
    )
