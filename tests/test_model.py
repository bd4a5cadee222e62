"""Integer-model audit layer: bounds, constraints, objectives, counting."""

import time

import pytest

from shiftplan import model
from shiftplan.model import (
    Deadline,
    IntegerModel,
    LinearConstraint,
    LinExpr,
    QuadraticObjective,
    SolveLimits,
    check_feasible,
    count_variables,
    evaluate_objective,
)


def toy_model():
    """min (1 - x - y)^2 + (x + y)^2 subject to x + y <= 1, binaries."""
    return IntegerModel(
        variables=(("x", 0, 1), ("y", 0, 1)),
        constraints=(LinearConstraint({"x": 1, "y": 1}, "<=", 1, "cap"),),
        objective=QuadraticObjective(
            squared_terms=(
                LinExpr({"x": -1, "y": -1}, constant=1),
                LinExpr({"x": 1, "y": 1}),
            )
        ),
    )


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
        monkeypatch.setattr(model, "time", None)  # any clock read would raise
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


class TestFeasibilityAndObjective:
    def test_feasible_point(self):
        model = toy_model()
        assert check_feasible(model, {"x": 1, "y": 0}) == []

    def test_bound_violation_message(self):
        problems = check_feasible(toy_model(), {"x": 2, "y": 0})
        assert problems == ["bound violated: x = 2 outside [0, 1]"]

    def test_missing_variable(self):
        assert check_feasible(toy_model(), {"x": 0}) == ["missing value for variable y"]

    def test_constraint_violation_uses_label(self):
        problems = check_feasible(toy_model(), {"x": 1, "y": 1})
        assert problems == ["cap: 2 <= 1 violated"]

    def test_objective_is_exact_integer(self):
        # (1-3)^2 + (1+1)^2 with x=3... use an unconstrained model
        model = IntegerModel(
            variables=(("x", 0, 5), ("y", -2, 2)),
            constraints=(),
            objective=QuadraticObjective(
                squared_terms=(
                    LinExpr({"x": -1}, constant=1),
                    LinExpr({"x": 0, "y": 1}, constant=1),
                )
            ),
        )
        value = evaluate_objective(model, {"x": 3, "y": 1})
        assert value == 8 and isinstance(value, int)

    def test_linear_part_added(self):
        model = IntegerModel(
            variables=(("x", 0, 5),),
            constraints=(),
            objective=QuadraticObjective(
                squared_terms=(LinExpr({"x": 1}),),
                linear=LinExpr({"x": 2}, constant=1),
            ),
        )
        assert evaluate_objective(model, {"x": 3}) == 9 + 7

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            IntegerModel(
                variables=(("x", 0, 1), ("x", 0, 1)),
                constraints=(),
                objective=QuadraticObjective(squared_terms=()),
            )

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="empty domain"):
            IntegerModel(
                variables=(("x", 2, 1),),
                constraints=(),
                objective=QuadraticObjective(squared_terms=()),
            )


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
