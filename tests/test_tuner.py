"""KL divergence scoring and the penalty-factor sweep."""

import math
import random
import re

import numpy as np
import pytest

from shiftplan import tuner
from shiftplan.domain import build_week_partition
from shiftplan.phases import SolveLimits, check_penalty_factor
from shiftplan.metrics import kl_divergence
from shiftplan.tuner import SweepEntry, SweepTrace, tune_penalty

ONE_WEEK = build_week_partition(7)
COUNT_RULE = "head-counts must be finite and non-negative"
EPSILON_RULE = "epsilon must be finite and non-negative"
ZERO_RULE = "cannot normalize: total {} head-count is zero"


class TestKlDivergence:
    def test_identity_is_zero(self):
        assert kl_divergence((0.25, 0.25, 0.5), (0.25, 0.25, 0.5), epsilon=0.0) == 0.0

    def test_reference_value(self):
        # 0.5 ln 2 + 0.5 ln(2/3)
        assert kl_divergence((0.5, 0.5), (0.25, 0.75)) == pytest.approx(0.14384, abs=1e-5)

    def test_zero_workload_terms_skipped(self):
        assert kl_divergence((0.0, 1.0), (0.5, 0.5), epsilon=0.0) == pytest.approx(math.log(2.0))

    def test_mass_on_empty_target_is_infinite(self):
        assert kl_divergence((0.5, 0.5), (0.0, 1.0), epsilon=0.0) == math.inf

    def test_epsilon_keeps_it_finite(self):
        value = kl_divergence((0.5, 0.5), (0.0, 1.0))
        assert math.isfinite(value) and value > 1.0

    def test_non_negative_over_random_pairs(self):
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(2, 9)
            raw_w = [rng.random() for _ in range(n)]
            raw_t = [rng.random() + 1e-6 for _ in range(n)]
            assert kl_divergence(raw_w, raw_t, epsilon=0.0) >= -1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="differ in length"):
            kl_divergence((1.0,), (0.5, 0.5))
        with pytest.raises(ValueError, match=f"^scheduled {COUNT_RULE}$"):
            kl_divergence((1.5, -0.5), (0.5, 0.5))
        with pytest.raises(ValueError, match=f"^{EPSILON_RULE}, got -1e-09$"):
            kl_divergence((1.0,), (1.0,), epsilon=-1e-9)

    @pytest.mark.parametrize(
        "scheduled, epsilon, refusal",
        [
            ((math.nan, 1.0), 1e-9, f"scheduled {COUNT_RULE}"),
            ((1.0, 1.0), math.nan, f"{EPSILON_RULE}, got nan"),
            ((1.0, 1.0), math.inf, f"{EPSILON_RULE}, got inf"),
        ],
        ids=["nan-count", "nan-epsilon", "inf-epsilon"],
    )
    def test_non_finite_input_refused(self, scheduled, epsilon, refusal):
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            kl_divergence(scheduled, (1.0, 3.0), epsilon=epsilon)


class TestNormalization:
    """Each count vector is normalized inside ``kl_divergence``."""

    def test_day_distribution(self):
        assert kl_divergence([2, 2, 4], (0.25, 0.25, 0.5), epsilon=0.0) == 0.0
        with pytest.raises(ValueError, match=f"^scheduled {COUNT_RULE}$"):
            kl_divergence([2, math.inf, 4], (0.25, 0.25, 0.5))

    def test_target_distribution(self):
        assert kl_divergence((0.25, 0.75), np.array([1, 3]), epsilon=0.0) == 0.0
        with pytest.raises(ValueError, match=f"^required {COUNT_RULE}$"):
            kl_divergence((0.25, 0.75), np.array([-1, 3]))

    def test_zero_totals_rejected(self):
        with pytest.raises(ValueError, match=f"^{ZERO_RULE.format('scheduled')}$"):
            kl_divergence([0, 0], [1, 1])
        with pytest.raises(ValueError, match=f"^{ZERO_RULE.format('required')}$"):
            kl_divergence([1.0], [0.0])
        with pytest.raises(ValueError, match=f"^{ZERO_RULE.format('scheduled')}$"):
            kl_divergence((), ())


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
        result = tune_penalty(r, 7, ONE_WEEK, SolveLimits(move_cap=20_000))
        ks = [e.penalty_factor for e in result.trace.entries]
        # swept some K past the winner, then stopped after two non-improvements
        assert ks == list(range(len(ks)))
        assert ks[-1] == result.trace.selected + 2
        assert len(ks) < 51

    def test_k_max_caps_sweep(self, monkeypatch):
        monkeypatch.setattr(tuner, "PATIENCE", 9)
        monkeypatch.setattr(tuner, "K_MAX", 3)
        r = np.array([22, 22, 22, 22, 23, 11, 11])
        result = tune_penalty(r, 7, ONE_WEEK, SolveLimits(move_cap=10_000))
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

    def test_stop_rule_constants_are_valid(self):
        # the sweep calls day_head_counts directly, so nothing else checks K_MAX
        check_penalty_factor(tuner.K_MAX)
        assert tuner.PATIENCE >= 1

    def test_needs_agents(self):
        with pytest.raises(ValueError, match="at least one agent"):
            tune_penalty(np.zeros(7), 0, ONE_WEEK, SolveLimits())

    def test_fractional_requirements_refused(self):
        # the solve would truncate 22.7 to 22 while the KL scored 22.7
        r = np.array([22.7, 22, 22, 22, 23, 11, 11.9])
        with pytest.raises(ValueError, match="do not convert"):
            tune_penalty(r, 7, ONE_WEEK, SolveLimits(move_cap=20_000))

    def test_six_day_row_refused(self):
        with pytest.raises(ValueError, match="^horizon not a multiple of 7: got 6 days$"):
            tune_penalty(np.full(6, 10), 7, ONE_WEEK, SolveLimits(move_cap=20_000))
