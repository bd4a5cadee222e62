"""Deviation indices, the KL, report building, and the two-mode comparison
harness."""

import random

import numpy as np
import pytest

from shiftplan.domain import Schedule
from shiftplan.metrics import (
    build_report,
    compare_modes,
    dvdi,
    ivdi,
    kl_divergence,
)
from shiftplan.phases import SolveLimits, interval_objective_value, solve_multi_phase

from oracles import scenario_from_grid
from test_replay import load_perfbench

checker = load_perfbench("checker")


class TestIndices:
    def test_dvdi_sums_absolute_day_gaps(self):
        assert dvdi([5, 3], [4, 4]) == 2
        assert dvdi([225, 110], [0, 0]) == 335
        assert dvdi([2, 2], [2, 2]) == 0

    def test_ivdi_sums_absolute_interval_gaps(self):
        assert ivdi([[2, 1], [0, 3]], [[1, 1], [1, 2]]) == 3
        assert ivdi([[1]], [[1]]) == 0

    def test_overcoverage_counts_too(self):
        assert dvdi([1], [4]) == 3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dvdi([1, 2], [1])
        with pytest.raises(ValueError):
            ivdi([[1, 2]], [[1], [2]])
        # the objective shares the indices' shape check
        with pytest.raises(ValueError, match="requirement and coverage shapes differ"):
            interval_objective_value([[1, 2]], [[1], [2]])


def micro_scenario():
    grid = [[2, 1], [1, 2], [2, 2], [1, 1], [2, 1], [0, 0], [1, 1]]
    return scenario_from_grid(grid, agents=2, shifts=((0, 1), (1, 1), (0, 2)))


class TestBuildReport:
    def test_recomputes_everything(self):
        scn = micro_scenario()
        result = solve_multi_phase(scn, SolveLimits(seed=1, move_cap=4000))
        report = build_report(
            scn,
            result.schedule,
            "multi",
            seed=1,
            runtime_seconds=result.runtime_seconds,
            status=result.status,
            evaluations=result.evaluations,
        )
        assert report.scenario == "t"
        assert report.mode == "multi"
        assert report.agents == 2 and report.days == 7
        assert report.shifts == 3 and report.intervals_per_day == 2
        assert report.assigned_pairs == 10  # 2 agents x 5 workdays
        # A*D + D + pairs*S + 2*D*T
        assert report.variable_count == 2 * 7 + 7 + 10 * 3 + 2 * 7 * 2
        assert report.objective_value == result.objective
        assert report.status == "feasible" or report.status == "optimal"
        assert len(report.per_day_required) == 7
        assert len(report.per_day_coverage) == 7
        assert report.dvdi == sum(
            abs(r - c) for r, c in zip(report.per_day_required, report.per_day_coverage)
        )
        assert report.kl_day_distribution is not None
        # denominator smoothing can dip an exact match a few ULPs below zero
        assert report.kl_day_distribution >= -1e-7

    def test_single_mode_variable_count(self):
        scn = micro_scenario()
        from shiftplan.phases import solve_single_phase

        result = solve_single_phase(scn, SolveLimits(seed=0, move_cap=4000))
        report = build_report(
            scn, result.schedule, "single", seed=0, runtime_seconds=0.0
        )
        assert report.variable_count == 2 * 7 * 3 + 2 * 7 * 2

    def test_refuses_infeasible_schedule(self):
        scn = micro_scenario()
        bad = Schedule.from_triples([(0, 0, 0)], 2, 7)  # one workday in the week
        with pytest.raises(ValueError, match="infeasible schedule"):
            build_report(scn, bad, "multi", seed=0, runtime_seconds=0.0)

    def test_refuses_unknown_mode(self):
        scn = micro_scenario()
        with pytest.raises(ValueError, match="unknown mode"):
            build_report(scn, Schedule.from_triples([], 2, 7), "dual", seed=0, runtime_seconds=0.0)

    def test_kl_none_when_nothing_required(self):
        grid = np.zeros((7, 2), dtype=np.int64)
        scn = scenario_from_grid(grid, agents=1, shifts=((0, 1),))
        result = solve_multi_phase(scn, SolveLimits(move_cap=500))
        report = build_report(
            scn, result.schedule, "multi", seed=0, runtime_seconds=0.0
        )
        assert report.kl_day_distribution is None
        assert checker.kl_day_distribution(report.per_day_coverage, report.per_day_required) is None
        assert report.objective_value == report.ivdi  # all-ones deviations square to 1


class TestKlCrossCheck:
    """``kl_divergence`` against the benchmark checker's own KL, which shares
    no code with the package."""

    def test_equal_to_the_checker_on_random_counts(self):
        rng = random.Random(11)
        for _ in range(300):
            days = 7 * rng.randint(1, 4)
            scheduled = [rng.choice((0, rng.randint(1, 60))) for _ in range(days)]
            scheduled[rng.randrange(days)] += 1
            required = [rng.randint(1, 60) for _ in range(days)]
            required[rng.randrange(days)] = 0
            assert kl_divergence(scheduled, required) == checker.kl_day_distribution(
                scheduled, required
            )

    def test_both_none_when_nothing_scheduled(self):
        # nothing required: TestBuildReport.test_kl_none_when_nothing_required
        scn = scenario_from_grid(np.ones((7, 2)), agents=0, shifts=((0, 1),))
        result = solve_multi_phase(scn, SolveLimits(move_cap=500))
        report = build_report(scn, result.schedule, "multi", seed=0, runtime_seconds=0.0)
        assert report.kl_day_distribution is None
        assert checker.kl_day_distribution(report.per_day_coverage, report.per_day_required) is None


class TestCompareModes:
    def test_runs_and_means(self):
        scn = micro_scenario()
        result = compare_modes(scn, 3, SolveLimits(seed=10, move_cap=3000))
        assert len(result.runs) == 3
        assert [run.seed for run in result.runs] == [10, 11, 12]
        for run in result.runs:
            assert run.single.mode == "single"
            assert run.multi.mode == "multi"
        for mode in ("single", "multi"):
            means = result.means[mode]
            assert set(means) == {
                "objective_value",
                "dvdi",
                "ivdi",
                "variable_count",
                "runtime_seconds",
            }
            assert means["ivdi"] == pytest.approx(
                sum(getattr(r, mode).ivdi for r in result.runs) / 3
            )

    def test_wins_counts_ties_for_multi(self):
        scn = micro_scenario()
        result = compare_modes(scn, 2, SolveLimits(seed=0, move_cap=3000))
        wins = result.wins("ivdi")
        assert 0 <= wins <= 2
        manual = sum(
            1 for run in result.runs if run.multi.ivdi <= run.single.ivdi
        )
        assert wins == manual

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError, match="at least 1"):
            compare_modes(micro_scenario(), 0, SolveLimits())
