"""KL divergence scoring and the penalty-factor sweep."""

import math
import random

import numpy as np
import pytest

from shiftplan.domain import build_week_partition
from shiftplan.phases import MAX_PENALTY, SolveLimits
from shiftplan.tuner import (
    DistributionPair,
    StopConfig,
    SweepEntry,
    SweepTrace,
    day_distribution,
    kl_divergence,
    target_distribution,
    tune_penalty,
)

ONE_WEEK = build_week_partition(7)


class TestKlDivergence:
    def test_identity_is_zero(self):
        pair = DistributionPair((0.25, 0.25, 0.5), (0.25, 0.25, 0.5), epsilon=0.0)
        assert kl_divergence(pair) == 0.0

    def test_reference_value(self):
        # 0.5 ln 2 + 0.5 ln(2/3)
        pair = DistributionPair((0.5, 0.5), (0.25, 0.75))
        assert kl_divergence(pair) == pytest.approx(0.14384, abs=1e-5)

    def test_zero_workload_terms_skipped(self):
        pair = DistributionPair((0.0, 1.0), (0.5, 0.5), epsilon=0.0)
        assert kl_divergence(pair) == pytest.approx(math.log(2.0))

    def test_mass_on_empty_target_is_infinite(self):
        pair = DistributionPair((0.5, 0.5), (0.0, 1.0), epsilon=0.0)
        assert kl_divergence(pair) == math.inf

    def test_epsilon_keeps_it_finite(self):
        pair = DistributionPair((0.5, 0.5), (0.0, 1.0))
        value = kl_divergence(pair)
        assert math.isfinite(value) and value > 1.0

    def test_non_negative_over_random_pairs(self):
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(2, 9)
            raw_w = [rng.random() for _ in range(n)]
            raw_t = [rng.random() + 1e-6 for _ in range(n)]
            w = tuple(x / sum(raw_w) for x in raw_w)
            t = tuple(x / sum(raw_t) for x in raw_t)
            assert kl_divergence(DistributionPair(w, t, epsilon=0.0)) >= -1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="share a positive length"):
            DistributionPair((1.0,), (0.5, 0.5))
        with pytest.raises(ValueError, match="does not sum to 1"):
            DistributionPair((0.9,), (1.0,))
        with pytest.raises(ValueError, match="negative entries"):
            DistributionPair((1.5, -0.5), (0.5, 0.5))
        with pytest.raises(ValueError, match="epsilon must be non-negative"):
            DistributionPair((1.0,), (1.0,), epsilon=-1e-9)


class TestNormalization:
    def test_day_distribution(self):
        assert day_distribution([2, 2, 4]) == (0.25, 0.25, 0.5)

    def test_target_distribution(self):
        assert target_distribution(np.array([1, 3])) == (0.25, 0.75)

    def test_zero_totals_rejected(self):
        with pytest.raises(ValueError, match="cannot normalize"):
            day_distribution([0, 0])
        with pytest.raises(ValueError, match="cannot normalize"):
            target_distribution([0.0])


class TestTunePenalty:
    def test_flat_demand_keeps_k_zero(self):
        # demand already matches what K=0 produces: no tuning signal
        r = np.array([10, 10, 10, 10, 10, 10, 10])
        result = tune_penalty(r, 14, ONE_WEEK, SolveLimits(move_cap=5000))
        assert result.trace.selected == 0

    def test_peaked_demand_selects_positive_k(self):
        # heavy weekdays starve the weekend at K=0
        r = np.array([22, 22, 22, 22, 23, 11, 11])
        result = tune_penalty(r, 7, ONE_WEEK, SolveLimits(move_cap=20_000))
        assert result.trace.selected > 0
        assert min(result.trace.entries[result.trace.selected].day_counts) > 0
        kls = {e.penalty_factor: e.kl for e in result.trace.entries}
        assert kls[result.trace.selected] < kls[0]

    def test_patience_stops_sweep(self):
        r = np.array([22, 22, 22, 22, 23, 11, 11])
        result = tune_penalty(
            r, 7, ONE_WEEK, SolveLimits(move_cap=20_000), StopConfig(patience=2, k_max=50)
        )
        ks = [e.penalty_factor for e in result.trace.entries]
        # swept some K past the winner, then stopped after two non-improvements
        assert ks == list(range(len(ks)))
        assert ks[-1] == result.trace.selected + 2
        assert len(ks) < 51

    def test_k_max_caps_sweep(self):
        r = np.array([22, 22, 22, 22, 23, 11, 11])
        result = tune_penalty(
            r, 7, ONE_WEEK, SolveLimits(move_cap=10_000), StopConfig(patience=9, k_max=3)
        )
        assert [e.penalty_factor for e in result.trace.entries] == [0, 1, 2, 3]

    def test_ties_keep_smaller_k(self):
        # 12 agents fill the 60 required agent-days exactly at K=0
        r = np.array([10, 10, 10, 10, 10, 5, 5])
        result = tune_penalty(r, 12, ONE_WEEK, SolveLimits(move_cap=30_000))
        # K=0 already achieves some KL; later equal KLs must not displace it
        entries = result.trace.entries
        best = min(e.kl for e in entries)
        first_best = next(e.penalty_factor for e in entries if e.kl == best)
        assert result.trace.selected == first_best

    def test_selected_is_least_kl_smallest_k_on_ties(self):
        def trace(*pairs):
            return SweepTrace(tuple(SweepEntry(k, kl, (k,)) for k, kl in pairs))

        assert trace((0, 0.5), (1, 0.2), (2, 0.2), (3, 0.3)).selected == 1
        assert trace((2, 0.2), (1, 0.2), (0, 0.5)).selected == 1  # not the first listed
        assert trace((0, float("inf")), (1, 0.7)).selected == 1

    def test_sweep_is_deterministic(self):
        r = np.array([22, 22, 22, 22, 23, 11, 11])
        a = tune_penalty(r, 7, ONE_WEEK, SolveLimits(seed=3, move_cap=8000))
        b = tune_penalty(r, 7, ONE_WEEK, SolveLimits(seed=3, move_cap=8000))
        assert [e.kl for e in a.trace.entries] == [e.kl for e in b.trace.entries]
        assert a.trace.selected == b.trace.selected

    def test_stop_config_refusals(self):
        with pytest.raises(ValueError, match="patience must be at least 1"):
            StopConfig(patience=0)
        with pytest.raises(ValueError, match="k_max must be non-negative"):
            StopConfig(k_max=-1)

    def test_k_max_beyond_max_penalty_refused(self):
        StopConfig(k_max=MAX_PENALTY)
        with pytest.raises(ValueError, match="k_max must be at most 1000000"):
            StopConfig(k_max=MAX_PENALTY + 1)

    def test_needs_agents(self):
        with pytest.raises(ValueError, match="at least one agent"):
            tune_penalty(np.zeros(7), 0, ONE_WEEK, SolveLimits())

    def test_fractional_requirements_refused(self):
        # the solve would truncate 22.7 to 22 while the KL scored 22.7
        r = np.array([22.7, 22, 22, 22, 23, 11, 11.9])
        with pytest.raises(ValueError, match="do not convert"):
            tune_penalty(r, 7, ONE_WEEK, SolveLimits(move_cap=20_000))

    def test_six_day_row_refused(self):
        with pytest.raises(ValueError, match="week partition"):
            tune_penalty(np.full(6, 10), 7, ONE_WEEK, SolveLimits(move_cap=20_000))
