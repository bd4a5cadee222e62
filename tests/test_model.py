"""Solve budgets, the deadline that tracks them, and the integer programs' sizes."""

import time

import pytest

from shiftplan import phases
from shiftplan.metrics import count_variables
from shiftplan.phases import Deadline, SolveLimits


class TestSolveLimits:
    def test_defaults(self):
        limits = SolveLimits()
        assert limits.time_budget_seconds == 60.0
        assert limits.move_cap is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveLimits(time_budget_seconds=0)
        with pytest.raises(ValueError):
            SolveLimits(seed=-1)
        with pytest.raises(ValueError):
            SolveLimits(move_cap=0)

    def test_nan_budget_rejected(self):
        # NaN <= 0 is false: a plain sign check would accept a budget that never expires
        with pytest.raises(ValueError, match="time budget"):
            SolveLimits(time_budget_seconds=float("nan"))

    def test_scaled_splits_both_budgets(self):
        limits = SolveLimits(time_budget_seconds=10.0, seed=3, move_cap=1000)
        day = limits.scaled(0.2)
        shift = limits.scaled(0.8)
        assert day.time_budget_seconds == pytest.approx(2.0)
        assert shift.time_budget_seconds == pytest.approx(8.0)
        assert day.move_cap == 200 and shift.move_cap == 800
        assert day.seed == 3

    def test_scaled_never_zero_cap(self):
        assert SolveLimits(move_cap=2).scaled(0.1).move_cap == 1

    def test_scaled_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            SolveLimits().scaled(0.0)
        with pytest.raises(ValueError):
            SolveLimits().scaled(1.5)


class TestDeadline:
    def test_move_cap_mode_never_reads_clock(self, monkeypatch):
        deadline = Deadline(SolveLimits(time_budget_seconds=1e-9, move_cap=5))
        # in cap mode even an expired clock budget does not matter
        time.sleep(0.001)
        monkeypatch.setattr(phases, "time", None)  # any clock read would raise
        for _ in range(4):
            deadline.spend()
            assert deadline.affords(1)
        deadline.spend()
        assert not deadline.affords(1)
        assert deadline.evaluations == 5

    def test_wall_clock_mode(self):
        deadline = Deadline(SolveLimits(time_budget_seconds=1000.0))
        deadline.spend(64)
        assert deadline.affords(10**9)  # no cap: only the clock decides

    def test_affords_checks_the_move_cap_ahead(self):
        deadline = Deadline(SolveLimits(move_cap=10))
        deadline.spend(4)
        assert deadline.affords(6)
        assert not deadline.affords(7)

    def test_bulk_spends_still_read_the_clock(self):
        deadline = Deadline(SolveLimits(time_budget_seconds=0.01))
        deadline.spend(1)
        time.sleep(0.02)
        seen = []
        for _ in range(100):
            deadline.spend(2)
            seen.append(deadline.affords(2))
        assert not any(seen)  # once the clock has run out it stays out


class TestVariableCounting:
    def test_single_mode_reference_sizes(self):
        assert count_variables(250, 30, 15, 24, "single") == 113_940
        assert count_variables(250, 45, 15, 24, "single") == 170_910
        assert count_variables(250, 60, 15, 24, "single") == 227_880

    def test_multi_mode_reference_sizes(self):
        assert count_variables(250, 30, 15, 24, "multi", assigned_pairs=5500) == 91_470
        assert (
            count_variables(250, 60, 15, 24, "multi", assigned_pairs=10_750) == 179_190
        )

    def test_small_example(self):
        # 2 agents, 7 days, 2 shifts, 4 intervals, 10 working pairs
        assert count_variables(2, 7, 2, 4, "multi", assigned_pairs=10) == 97

    def test_multi_needs_pairs(self):
        with pytest.raises(ValueError, match="assigned_pairs"):
            count_variables(1, 7, 1, 1, "multi")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            count_variables(1, 7, 1, 1, "both")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_variables(-1, 7, 1, 1, "single")
        with pytest.raises(ValueError, match="assigned_pairs must be non-negative"):
            count_variables(1, 7, 1, 1, "multi", assigned_pairs=-1)
