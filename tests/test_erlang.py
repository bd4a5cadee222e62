"""Erlang-C staffing math, cross-checked against the textbook closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftplan.erlang import (
    MAX_LOAD_ERLANGS,
    SlaSpec,
    erlang_b_blocking,
    erlang_c_wait_probability,
    required_agents,
    requirements_from_volumes,
    service_level,
)


def required_agents_restart_loop(load: float, aht_seconds: float, sla: SlaSpec) -> int:
    """Reference: the per-load search that restarts Erlang-B at every n."""
    if load < 0:
        raise ValueError("load must be non-negative")
    if load == 0:
        return 0
    n = int(math.floor(load)) + 1
    while service_level(n, load, aht_seconds, sla.threshold_seconds) < sla.target:
        n += 1
    return n


def erlang_b_direct(n: int, a: float) -> float:
    """Independent oracle: B = (a^n / n!) / sum_k a^k / k!."""
    terms = [a**k / math.factorial(k) for k in range(n + 1)]
    return terms[-1] / sum(terms)


def erlang_c_direct(n: int, a: float) -> float:
    """Independent oracle via the defining sum, valid for a < n."""
    top = a**n / math.factorial(n) * n / (n - a)
    bottom = sum(a**k / math.factorial(k) for k in range(n)) + top
    return top / bottom


class TestErlangB:
    def test_zero_agents_blocks_everything(self):
        assert erlang_b_blocking(0, 1.5) == 1.0

    def test_hand_values(self):
        assert erlang_b_blocking(1, 0.5) == pytest.approx(1 / 3)
        assert erlang_b_blocking(3, 2.0) == pytest.approx(4 / 19)
        assert erlang_b_blocking(4, 2.0) == pytest.approx(2 / 21)

    @given(
        st.integers(min_value=0, max_value=40),
        st.floats(min_value=0.0, max_value=35.0, allow_nan=False),
    )
    def test_matches_direct_formula(self, n, a):
        assert erlang_b_blocking(n, a) == pytest.approx(
            erlang_b_direct(n, a), abs=1e-12
        )

    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    )
    def test_probability_range_and_monotone_in_agents(self, n, a):
        b_n = erlang_b_blocking(n, a)
        assert 0.0 <= b_n <= 1.0
        assert b_n <= erlang_b_blocking(n - 1, a) + 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            erlang_b_blocking(-1, 1.0)
        with pytest.raises(ValueError):
            erlang_b_blocking(1, -1.0)


class TestErlangC:
    def test_hand_values(self):
        assert erlang_c_wait_probability(1, 0.5) == pytest.approx(0.5)
        assert erlang_c_wait_probability(3, 2.0) == pytest.approx(4 / 9)

    def test_saturated_always_waits(self):
        assert erlang_c_wait_probability(3, 3.0) == 1.0
        assert erlang_c_wait_probability(3, 7.5) == 1.0
        assert erlang_c_wait_probability(0, 0.0) == 1.0

    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=35.0, allow_nan=False),
    )
    def test_matches_direct_formula(self, n, a):
        if a >= n:
            assert erlang_c_wait_probability(n, a) == 1.0
        elif a == 0.0:
            assert erlang_c_wait_probability(n, a) == 0.0
        else:
            assert erlang_c_wait_probability(n, a) == pytest.approx(
                erlang_c_direct(n, a), abs=1e-10
            )

    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=35.0, allow_nan=False),
    )
    def test_wait_at_least_blocking(self, n, a):
        # a delayed-queue caller waits whenever a loss system would block
        c = erlang_c_wait_probability(n, a)
        assert 0.0 <= c <= 1.0
        assert c >= erlang_b_blocking(n, a) - 1e-12


    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="agents must be non-negative"):
            erlang_c_wait_probability(-1, 0.0)
        with pytest.raises(ValueError, match="load must be non-negative"):
            erlang_c_wait_probability(1, -1.0)
        with pytest.raises(ValueError, match="load must be non-negative"):
            erlang_b_blocking(1, float("nan"))  # was NaN


class TestServiceLevel:
    @pytest.mark.parametrize("args, message", [
        ((-1, 0.0, 300.0, 20.0), "agents must be non-negative"),
        ((5, -1.0, 300.0, 20.0), "load must be non-negative"),
        ((5, float("nan"), 300.0, 20.0), "load must be non-negative"),
        ((5, 1.0, float("nan"), 20.0), "aht_seconds must be positive"),
        ((5, 1.0, 0.0, 20.0), "aht_seconds must be positive"),
        ((5, 1.0, 300.0, -1.0), "threshold_seconds must be non-negative"),
        ((5, 1.0, 300.0, float("nan")), "threshold_seconds must be non-negative"),
    ])
    def test_refusals(self, args, message):
        # a negative head-count, a NaN load, AHT or threshold each gave 0.0
        with pytest.raises(ValueError, match=message):
            service_level(*args)

    def test_hand_values(self):
        assert service_level(3, 2.0, 300.0, 20.0) == pytest.approx(0.5842, abs=1e-4)
        assert service_level(4, 2.0, 300.0, 20.0) == pytest.approx(0.8478, abs=1e-4)

    def test_saturated_is_zero(self):
        assert service_level(2, 2.0, 300.0, 20.0) == 0.0
        assert service_level(2, 5.0, 300.0, 20.0) == 0.0

    def test_zero_load_is_one(self):
        assert service_level(1, 0.0, 300.0, 20.0) == 1.0

    @given(
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=2000.0),
        st.floats(min_value=0.0, max_value=600.0),
    )
    def test_range(self, n, a, aht, thr):
        assert 0.0 <= service_level(n, a, aht, thr) <= 1.0

    def test_monotone_in_agents(self):
        levels = [service_level(n, 8.0, 300.0, 20.0) for n in range(9, 25)]
        assert levels == sorted(levels)


class TestRequiredAgents:
    def test_two_erlang_80_20(self):
        # the 80/20 rule on two erlangs of load needs four agents
        assert required_agents(2.0, 300.0, SlaSpec(0.8, 20.0)) == 4

    def test_zero_load(self):
        assert required_agents(0.0, 300.0, SlaSpec(0.8, 20.0)) == 0

    @given(st.floats(min_value=0.01, max_value=30.0, allow_nan=False))
    @settings(max_examples=60)
    def test_minimality_and_sufficiency(self, load):
        sla = SlaSpec(0.8, 20.0)
        n = required_agents(load, 300.0, sla)
        assert service_level(n, load, 300.0, 20.0) >= sla.target
        assert service_level(n - 1, load, 300.0, 20.0) < sla.target

    @given(st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
    @settings(max_examples=60)
    def test_monotone_in_load(self, load):
        sla = SlaSpec(0.8, 20.0)
        assert required_agents(load, 300.0, sla) <= required_agents(
            load + 0.5, 300.0, sla
        )

    def test_tighter_sla_needs_no_fewer(self):
        lax = required_agents(5.0, 300.0, SlaSpec(0.7, 60.0))
        strict = required_agents(5.0, 300.0, SlaSpec(0.95, 10.0))
        assert strict >= lax


class TestRequirementsFromVolumes:
    def test_grid(self):
        req = requirements_from_volumes(
            [[12, 0], [24, 12]], 300.0, SlaSpec(0.8, 20.0), 1800.0
        )
        # 12 calls -> 2 erlangs -> 4 agents; 24 calls -> 4 erlangs -> 7 agents
        assert req.per_interval.tolist() == [[4, 0], [7, 4]]
        assert req.per_day.tolist() == [4, 7]

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError, match="^load must be non-negative$"):
            requirements_from_volumes([[-1.0]], 300.0, SlaSpec(0.8, 20.0), 1800.0)

    def test_non_grid_rejected(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            requirements_from_volumes([1, 2], 300.0, SlaSpec(0.8, 20.0), 1800.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_volume_rejected(self, bad):
        with pytest.raises(ValueError, match="^load must be finite$"):
            requirements_from_volumes([[1.0, bad]], 300.0, SlaSpec(0.8, 20.0), 1800.0)

    def test_overflowing_load_rejected(self):
        with pytest.raises(ValueError, match="load must be finite"):
            requirements_from_volumes([[1e308]], 300.0, SlaSpec(0.8, 20.0), 1800.0)

    @pytest.mark.parametrize("aht, interval, message", [
        (0.0, 1800.0, "aht_seconds must be positive"),
        (float("nan"), 1800.0, "aht_seconds must be positive"),
        (300.0, 0.0, "interval_seconds must be positive"),
    ])
    def test_bad_durations_rejected(self, aht, interval, message):
        with pytest.raises(ValueError, match=message):
            requirements_from_volumes([[0.0, 3.0]], aht, SlaSpec(0.8, 20.0), interval)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_required_agents_rejects_non_finite_load(self, bad):
        with pytest.raises(ValueError, match="load must be finite"):
            required_agents(bad, 300.0, SlaSpec(0.8, 20.0))

    def test_required_agents_rejects_nan_aht(self):
        with pytest.raises(ValueError, match="aht_seconds must be positive"):
            required_agents(2.0, float("nan"), SlaSpec(0.8, 20.0))

    def test_sla_rejects_nan_threshold(self):
        # a NaN threshold makes every service level NaN, so no head-count meets it
        with pytest.raises(ValueError, match="threshold_seconds"):
            SlaSpec(0.8, float("nan"))


class TestSweepMatchesRestartLoop:
    """The grid sweep must reproduce the per-load restart loop bit for bit."""

    TARGETS = (0.5, 0.8, 0.95, 1 - 1e-9)
    THRESHOLDS = (0.0, 20.0, 60.0)

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_random_loads(self, target, threshold):
        rng = np.random.default_rng(int(target * 1000) + int(threshold))
        loads = np.concatenate([
            [0.0, 5e-324, 1e-9, 1.0, 2.0, 700.0],
            rng.uniform(0.0, 1.0, 20),
            rng.integers(0, 700, 20).astype(np.float64),
            rng.uniform(0.0, 700.0, 30),
        ])
        sla = SlaSpec(target, threshold)
        volumes = loads.reshape(2, -1) * 1800.0 / 300.0
        grid = requirements_from_volumes(volumes, 300.0, sla, 1800.0).per_interval
        offered = volumes * 300.0 / 1800.0
        expected = [[required_agents_restart_loop(float(a), 300.0, sla) for a in row] for row in offered]
        assert grid.tolist() == expected

    def test_lognormal_grid_and_single_cells(self):
        rng = np.random.default_rng(7)
        volumes = np.rint(rng.lognormal(np.log(90.0), 0.6, size=(28, 96)))
        sla = SlaSpec(0.8, 20.0)
        grid = requirements_from_volumes(volumes, 300.0, sla, 900.0).per_interval
        loads = volumes * 300.0 / 900.0
        expected = [[required_agents_restart_loop(float(a), 300.0, sla) for a in row] for row in loads]
        assert grid.tolist() == expected
        singles = [[required_agents(float(a), 300.0, sla) for a in row] for row in loads]
        assert singles == expected

    @staticmethod
    def assert_grid_matches(volumes, sla=SlaSpec(0.8, 20.0)):
        """Size ``volumes`` (AHT equal to the interval, so each volume is its
        load) and compare every cell with the restart loop."""
        volumes = np.array(volumes, dtype=np.float64)
        grid = requirements_from_volumes(volumes, 300.0, sla, 300.0).per_interval
        offered = volumes * 300.0 / 300.0
        expected = [[required_agents_restart_loop(float(a), 300.0, sla) for a in row] for row in offered]
        assert grid.tolist() == expected

    @pytest.mark.parametrize("target", TARGETS)
    def test_loads_repeated_across_cells(self, target):
        # cells of one load share one sizing; the order of cells is kept
        row = [7.5, 0.0, 120.0, 7.5, 1e-9, 120.0, 33.0, 7.5]
        self.assert_grid_matches([row, row[::-1], row], SlaSpec(target, 20.0))

    @pytest.mark.parametrize("target", TARGETS)
    def test_loads_that_share_a_floor(self, target):
        # 3.0, 3.25 and 3.999 all start testing at 4 agents
        self.assert_grid_matches([[3.999, 3.0, 3.25], [3.25, 4.0, 2.999]], SlaSpec(target, 20.0))

    def test_all_zero_grid(self):
        self.assert_grid_matches([[0.0, 0.0], [0.0, 0.0]])

    def test_single_cell_at_max_load(self):
        self.assert_grid_matches([[float(MAX_LOAD_ERLANGS)]])
