"""The phase solves and their kernel, cross-checked against the exhaustive
oracle and explicit per-agent enumeration.

The oracle (``oracles.py``) enumerates head-counts and splits.  The brute
force here enumerates raw per-agent choices (patterns, shift tuples), sharing
no code with either, and checks the oracle.
"""

import itertools
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftplan.domain import (
    MAX_AGENTS,
    MAX_REQUIREMENT,
    OFF,
    DayAllocation,
    RequirementMatrix,
    Schedule,
    ShiftCatalog,
    build_week_partition,
    validate_schedule,
)
from shiftplan.phases import (
    MAX_PENALTY,
    DayPhaseSpec,
    Deadline,
    ShiftPhaseSpec,
    SolveLimits,
    SolveStatus,
    _day_kernels,
    day_head_counts,
    day_term,
    materialize_day,
    materialize_shift,
    solve_day_allocation,
    solve_shift_allocation,
    solve_single_phase,
    squared_norm,
)

import oracles
from oracles import scenario_from_grid

ONE_WEEK = build_week_partition(7)


def shift_spec(r_dt, n_d, catalog):
    """Shift-phase inputs whose first ``n_d[d]`` agents work day ``d``."""
    works = np.arange(max(n_d))[:, None] < np.asarray(n_d)
    allocation = DayAllocation(works)
    return ShiftPhaseSpec(RequirementMatrix(r_dt), allocation, catalog)


def brute_force_day(r_week, agents, penalty):
    """Optimum over explicit per-agent pattern tuples."""
    best = None
    for combo in itertools.combinations_with_replacement(oracles.DAY_PATTERNS, agents):
        counts = [0] * 7
        for pattern in combo:
            for d in pattern:
                counts[d] += 1
        obj = sum(day_term(r_week[d], counts[d], agents, penalty) for d in range(7))
        best = obj if best is None else min(best, obj)
    return best


def brute_force_shift_day(r_row, n, catalog):
    """Optimum split of n agents over the catalog for one day."""
    best = None
    for combo in itertools.combinations_with_replacement(range(len(catalog)), n):
        cov = [0] * len(r_row)
        for s in combo:
            for t in oracles.covers(catalog, s):
                cov[t] += 1
        obj = sum((int(r) - c) ** 2 for r, c in zip(r_row, cov))
        best = obj if best is None else min(best, obj)
    return best


def brute_force_single_one_agent(r_grid, catalog):
    """Optimum week plan for a single agent."""
    best = None
    S = len(catalog)
    for pattern in oracles.DAY_PATTERNS:
        for shifts in itertools.product(range(S), repeat=5):
            cov = np.zeros_like(r_grid)
            for d, s in zip(pattern, shifts):
                span = oracles.covers(catalog, s)
                cov[d, span.start : span.stop] += 1
            diff = r_grid - cov
            obj = int((diff * diff).sum())
            best = obj if best is None else min(best, obj)
    return best


def week_counts_loop(r_week, agent_count, penalty_factor):
    """Unit-by-unit greedy, one cheapest day increment at a time (reference)."""
    r = [int(x) for x in r_week]
    counts = [0] * 7
    for _ in range(5 * agent_count):
        best_day = -1
        best_delta = None
        for d in range(7):
            if counts[d] >= agent_count:
                continue
            delta = day_term(r[d], counts[d] + 1, agent_count, penalty_factor) - day_term(
                r[d], counts[d], agent_count, penalty_factor
            )
            if best_delta is None or delta < best_delta:
                best_delta = delta
                best_day = d
        counts[best_day] += 1
    objective = sum(day_term(r[d], counts[d], agent_count, penalty_factor) for d in range(7))
    return tuple(counts), objective


def reference_plans_from_week(week_works, day_splits):
    """Week-plan counts of one week's working days and splits (reference).

    The expansion the solvers used before they returned splits: each agent's
    pattern read from its row of the week, then each day's shifts in index
    order to the working agents, lowest first, then a tally of (day, shift)
    week plans.
    """
    agent_pairs = [[] for _ in week_works]
    for d in range(7):
        working = [a for a, row in enumerate(week_works) if row[d]]
        units = []
        for s, y in enumerate(day_splits[d]):
            units.extend([s] * y)
        assert len(units) == len(working)
        for agent, shift in zip(working, units):
            agent_pairs[agent].append((d, shift))
    plans = {}
    for pairs in agent_pairs:
        plan = tuple(sorted(pairs))
        plans[plan] = plans.get(plan, 0) + 1
    return plans


def reference_materialize_single(head_counts, splits, agent_count, weeks):
    """Week plans to agents: lowest index, lexicographically first plan (reference)."""
    works = materialize_day(head_counts, agent_count, weeks).works.tolist()
    triples = []
    for w in range(weeks):
        days = range(7 * w, 7 * w + 7)
        plans = reference_plans_from_week(
            [row[days.start : days.stop] for row in works], splits[days.start : days.stop]
        )
        agent = 0
        for plan in sorted(plans):
            for _ in range(plans[plan]):
                triples.extend((agent, days.start + d, s) for d, s in plan)
                agent += 1
    return Schedule.from_triples(triples, agent_count, weeks * 7)


def shift_tally(schedule, day_count, shift_count):
    """Agents per (day, shift) of a schedule, as nested tuples like ``splits``."""
    tally = np.zeros((day_count, shift_count), dtype=np.int64)
    agents, days = np.nonzero(schedule.shifts != OFF)
    np.add.at(tally, (days, schedule.shifts[agents, days]), 1)
    return tuple(tuple(int(y) for y in row) for row in tally)


class TestDayObjectiveHelpers:
    def test_day_term(self):
        # (3-1)^2 + (2*(4-1))^2
        assert day_term(3, 1, 4, 2) == 4 + 36

    @given(
        st.lists(st.integers(min_value=0, max_value=8), min_size=7, max_size=7),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_week_greedy_matches_brute_force(self, r_week, agents, penalty):
        spec = DayPhaseSpec(r_week, agents, ONE_WEEK, penalty)
        result = solve_day_allocation(spec, SolveLimits())
        counts = result.head_counts
        assert sum(counts) == 5 * agents
        assert max(counts) <= agents and min(counts) >= 0
        assert result.objective == brute_force_day(r_week, agents, penalty)

    def test_week_greedy_matches_reference_loop(self):
        # narrow requirement ranges make ties between days common
        rng = random.Random(5150)
        for _ in range(1500):
            agents = rng.randint(0, 6)
            penalty = rng.randint(0, 3)
            top = rng.choice((2, 4, 9))
            r_week = [rng.randint(0, top) for _ in range(7)]
            spec = DayPhaseSpec(r_week, agents, ONE_WEEK, penalty)
            result = solve_day_allocation(spec, SolveLimits())
            assert (result.head_counts, result.objective) == week_counts_loop(
                r_week, agents, penalty
            )

    def test_greedy_exact_at_max_penalty(self):
        # the largest K, head-count and requirement accepted drive the int64
        # marginals to about 2e17; the greedy in Python integers agrees
        agents, k = MAX_AGENTS, MAX_PENALTY
        r_week = [MAX_REQUIREMENT, 0, 7, MAX_REQUIREMENT // 3, 1, MAX_REQUIREMENT, 2]
        increments = sorted(
            (day_term(r, p + 1, agents, k) - day_term(r, p, agents, k), d)
            for d, r in enumerate(r_week)
            for p in range(agents)
        )
        expected = [0] * 7
        for _, d in increments[: 5 * agents]:
            expected[d] += 1
        assert day_head_counts(r_week, agents, ONE_WEEK, k) == tuple(expected)

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=50)
    def test_pattern_realization(self, agents, data):
        # draw a valid head-count vector: 0 <= c_d <= A, sum = 5A
        counts = [0] * 7
        left = 5 * agents
        for d in range(6):
            lo = max(0, left - agents * (6 - d))
            hi = min(agents, left)
            counts[d] = data.draw(st.integers(min_value=lo, max_value=hi))
            left -= counts[d]
        counts[6] = left
        alloc = materialize_day(counts, agents, ONE_WEEK)
        assert alloc.works.sum(axis=1).tolist() == [5] * agents
        assert alloc.day_counts.tolist() == counts

    def test_pattern_realization_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 5"):
            materialize_day([1, 1, 1, 1, 1, 1, 1], 2, ONE_WEEK)
        with pytest.raises(ValueError, match="outside"):
            materialize_day([3, 2, 1, 1, 1, 1, 1], 2, ONE_WEEK)


class TestExactDay:
    def test_matches_brute_force(self):
        rng = random.Random(4242)
        for _ in range(10):
            agents = rng.randint(1, 3)
            r = [rng.randint(0, 7) for _ in range(7)]
            penalty = rng.randint(0, 2)
            result = oracles.exact_day(r, agents, ONE_WEEK, penalty)
            assert result.status == SolveStatus.OPTIMAL
            assert result.objective == brute_force_day(r, agents, penalty)

    def test_multi_week_is_per_week_sum(self):
        weeks = build_week_partition(14)
        r = [3, 3, 3, 3, 3, 1, 1] + [5, 5, 5, 5, 5, 0, 0]
        result = oracles.exact_day(r, 2, weeks, 0)
        a = oracles.exact_day(r[:7], 2, ONE_WEEK, 0)
        b = oracles.exact_day(r[7:], 2, ONE_WEEK, 0)
        assert result.objective == a.objective + b.objective

    def test_materializes_validly(self):
        result = oracles.exact_day([4, 4, 1, 1, 4, 4, 2], 4, ONE_WEEK, 1)
        assert result.splits is None
        alloc = materialize_day(result.head_counts, 4, ONE_WEEK)
        assert oracles.validate_day_allocation(alloc, 4, ONE_WEEK) == []
        assert tuple(alloc.day_counts) == result.head_counts


CAT3 = ShiftCatalog(((0, 2), (2, 2), (4, 2)), intervals_per_day=6)


class TestExactShift:
    def test_matches_brute_force(self):
        rng = random.Random(77)
        for _ in range(10):
            days = rng.randint(1, 3)
            r = [[rng.randint(0, 4) for _ in range(6)] for _ in range(days)]
            n_d = [rng.randint(0, 4) for _ in range(days)]
            result = oracles.exact_shift(r, n_d, CAT3)
            assert result.status == SolveStatus.OPTIMAL
            expected = sum(
                brute_force_shift_day(r[d], n_d[d], CAT3) for d in range(days)
            )
            assert result.objective == expected

    def test_respects_head_counts(self):
        result = oracles.exact_shift([[3, 3, 0, 0, 2, 2]], [4], CAT3)
        assert result.head_counts == (4,)
        assert sum(result.splits[0]) == 4


class TestExactSingle:
    def test_matches_one_agent_brute_force(self):
        rng = random.Random(99)
        cat = ShiftCatalog(((0, 2), (1, 2)), intervals_per_day=3)
        for _ in range(8):
            r = np.array(
                [[rng.randint(0, 2) for _ in range(3)] for _ in range(7)],
                dtype=np.int64,
            )
            result = oracles.exact_single(r, 1, ONE_WEEK, cat)
            assert result.status == SolveStatus.OPTIMAL
            assert result.objective == brute_force_single_one_agent(r, cat)

    def test_single_shift_catalog_reduces_to_day_choice(self):
        # with one full-day shift the joint problem is the day problem
        cat = ShiftCatalog(((0, 2),), intervals_per_day=2)
        r = np.array([[4, 4], [3, 3], [2, 2], [2, 2], [1, 1], [1, 1], [0, 0]])
        result = oracles.exact_single(r, 2, ONE_WEEK, cat)
        day = oracles.exact_day([4, 3, 2, 2, 1, 1, 0], 2, ONE_WEEK, 0)
        assert result.objective == 2 * day.objective  # both intervals deviate alike

    def test_materializes_validly(self):
        r = np.ones((7, 3), dtype=np.int64)
        cat = ShiftCatalog(((0, 2), (1, 2)), intervals_per_day=3)
        result = oracles.exact_single(r, 2, ONE_WEEK, cat)
        alloc = materialize_day(result.head_counts, 2, ONE_WEEK)
        assert tuple(alloc.day_counts) == result.head_counts
        assert tuple(sum(split) for split in result.splits) == result.head_counts
        schedule = materialize_shift(result.splits, alloc)
        assert (
            validate_schedule(
                schedule, agent_count=2, day_count=7, catalog=cat, weeks=ONE_WEEK
            )
            == []
        )
        assert shift_tally(schedule, 7, len(cat)) == result.splits


class TestJointInputChecks:
    """A malformed joint input is refused with a ``ValueError`` when built."""

    def test_interval_grid_mismatch(self):
        scenario = scenario_from_grid(np.ones((7, 3), dtype=np.int64), 2, ((0, 2), (1, 2)))
        with pytest.raises(ValueError, match="catalog interval grid differs from requirements"):
            replace(scenario, shift_catalog=ShiftCatalog(((0, 2), (2, 4)), intervals_per_day=6))

    def test_one_dimensional_grid(self):
        with pytest.raises(ValueError, match="per_interval must be 2-dimensional"):
            RequirementMatrix(np.ones(7, dtype=np.int64))


class TestShiftSpecChecks:
    """The parts of a shift phase refuse their own problems when built."""

    @pytest.mark.parametrize(
        "r_dt, shifts, intervals, message",
        [
            ([[1] * 24], ((0, 10), (20, 10)), 24, "shift 1 exceeds day boundary"),
            ([[1, -1, 0, 1]], ((0, 2),), 4, "negative interval requirement"),
            ([[1, 1]], (), 2, "shift catalog is empty"),
        ],
        ids=["out-of-day-shift", "negative-cell", "empty-catalog"],
    )
    def test_bad_part_refused(self, r_dt, shifts, intervals, message):
        with pytest.raises(ValueError, match=message):
            shift_spec(r_dt, [1], ShiftCatalog(shifts, intervals))


def draw_kernel_case(data):
    """A requirement row and a catalog over it."""
    width = data.draw(st.integers(min_value=2, max_value=8))
    spans = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=width - 1),
                st.integers(min_value=1, max_value=width),
            ).map(lambda p: (p[0], min(p[1], width - p[0]))),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    catalog = ShiftCatalog(tuple(spans), width)
    row = data.draw(
        st.lists(st.integers(min_value=0, max_value=6), min_size=width, max_size=width)
    )
    return np.array([row], dtype=np.int64), catalog


def split_objective(r_row, catalog, split):
    cov = np.zeros(len(r_row), dtype=np.int64)
    for s, y in enumerate(split):
        span = oracles.covers(catalog, s)
        cov[span.start : span.stop] += y
    diff = r_row - cov
    return int(diff @ diff)


def reference_greedy(r_row, catalog, n_max):
    """One row's greedy pass as a per-row loop, the form the batched pass
    replaced (reference): picks, marginals and values."""
    cover = catalog.coverage.astype(np.int64)
    overlap = cover @ cover.T
    lengths = np.diag(overlap)
    cu = cover @ r_row
    picks, adds = [], []
    for _ in range(n_max):
        add = lengths - 2 * cu
        s = int(np.argmin(add))
        picks.append(s)
        adds.append(add[s].item())
        cu -= overlap[s]
    return picks, np.array(adds), list(itertools.accumulate(adds, initial=squared_norm(r_row)))


def random_kernel_case(rng):
    """Seeded day rows drawn from a small pool, so that some repeat, with
    unequal caps (0 included) and 1 to 5 shifts."""
    width, S = int(rng.integers(1, 10)), int(rng.integers(1, 6))
    starts = rng.integers(0, width, size=S)
    spans = dict.fromkeys((int(a), int(rng.integers(1, width - a + 1))) for a in starts)
    catalog = ShiftCatalog(tuple(spans), width)  # a repeated shift is drawn once
    days = int(rng.integers(1, 9))
    pool = rng.integers(0, 12, size=(int(rng.integers(1, 4)), width))
    r = pool[rng.integers(0, len(pool), size=days)]
    caps = [int(c) for c in rng.integers(0, 15, size=days)]
    return r, catalog, caps


class TestBatchedGreedy:
    """The batched greedy pass against the per-row loop, kept above."""

    def test_same_picks_marginals_and_values(self):
        rng = np.random.default_rng(8)
        for case in range(300):
            r, catalog, caps = random_kernel_case(rng)
            if case % 10 == 0:
                catalog = ShiftCatalog(((0, catalog.intervals_per_day),), catalog.intervals_per_day)
            keys = [r[d].tobytes() for d in range(len(r))]
            kernels = _day_kernels(r, catalog, caps)
            for d, kernel in enumerate(kernels):
                cap = max(c for k, c in zip(keys, caps) if k == keys[d])
                picks, marginals, values = reference_greedy(r[d], catalog, cap)
                assert kernel.picks.tolist() == picks
                assert np.array_equal(kernel.marginals, marginals)
                assert kernel.values == values
                for e in range(d):
                    assert (kernels[e] is kernel) == (keys[e] == keys[d])


class TestDayKernel:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_deltas_match_recomputation(self, data):
        r, catalog = draw_kernel_case(data)
        S = len(catalog)
        kernel = _day_kernels(r, catalog, [0])[0]
        split = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=S, max_size=S)), dtype=np.int64
        )
        before = split_objective(r[0], catalog, split)
        cu = kernel.cr - kernel.overlap @ split
        held = np.flatnonzero(split)
        swaps = kernel.swap_deltas(cu, held)
        for k, o in enumerate(held):
            for i in range(S):
                moved = split.copy()
                moved[o] -= 1
                moved[i] += 1
                assert split_objective(r[0], catalog, moved) - before == swaps[k, i]

    @given(st.data(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_greedy_marginals_never_decrease(self, data, n_max):
        r, catalog = draw_kernel_case(data)
        kernel = _day_kernels(r, catalog, [n_max])[0]
        assert len(kernel.values) == n_max + 1
        assert all(a <= b for a, b in zip(kernel.marginals, kernel.marginals[1:]))
        # values[n] is the objective of the greedy split of n
        for n in range(n_max + 1):
            split = np.bincount(kernel.picks[:n], minlength=len(catalog))
            assert kernel.values[n] == split_objective(r[0], catalog, split)

    def test_split_is_shared_and_descends(self):
        r = np.array([[4, 1, 0, 2, 3, 1]] * 2, dtype=np.int64)
        kernels = _day_kernels(r, CAT3, [2, 3])
        assert kernels[0] is kernels[1]  # equal rows share one kernel, built to n = 3
        deadline = Deadline(SolveLimits(move_cap=10_000))
        split, value = kernels[0].split(3, deadline)
        assert sum(split) == 3 and value <= kernels[0].values[3]
        spent = deadline.evaluations
        assert kernels[0].split(3, deadline) == (split, value)
        assert deadline.evaluations == spent  # the second day reuses the first

    def test_kernels_share_the_catalog_tables(self):
        # 455 shifts: lengths 16 to 40 in steps of 2, starting every 2 intervals
        shifts = tuple((a, n) for n in range(16, 41, 2) for a in range(0, 96 - n + 1, 2))
        catalog = ShiftCatalog(shifts, 96)
        r = np.random.default_rng(0).integers(0, 300, size=(28, 96))
        tracemalloc.start()
        try:
            kernels = _day_kernels(r, catalog, [400] * 28)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(catalog) == 455 and len(set(map(id, kernels))) == 28
        assert all(k.swap_base is kernels[0].swap_base for k in kernels)
        # one S x S swap table per distinct row peaked at 48.6 MiB
        assert peak < 48.6 * 2**20 / 5


class TestLocalSearchDay:
    def test_reaches_exact_optimum_on_micro_instances(self):
        rng = random.Random(2025)
        for _ in range(20):
            agents = rng.randint(1, 4)
            weeks_n = rng.randint(1, 2)
            weeks = build_week_partition(7 * weeks_n)
            r = [rng.randint(0, 6) for _ in range(7 * weeks_n)]
            penalty = rng.randint(0, 2)
            exact = oracles.exact_day(r, agents, weeks, penalty)
            local = solve_day_allocation(
                DayPhaseSpec(r, agents, weeks, penalty),
                SolveLimits(seed=rng.randint(0, 99), move_cap=10_000),
            )
            assert local.objective == exact.objective

    def test_zero_agents(self):
        r = [2, 0, 1, 0, 0, 0, 0]
        result = solve_day_allocation(DayPhaseSpec(r, 0, ONE_WEEK, 3), SolveLimits(move_cap=10))
        assert result.status == SolveStatus.OPTIMAL
        assert result.objective == 5
        assert result.head_counts == (0,) * 7

    def test_penalty_pulls_counts_off_zero(self):
        # scaled-down peak week: weekdays heavy, weekend light
        r = [22, 22, 22, 22, 23, 11, 11]
        limits = SolveLimits(move_cap=20_000)
        bare = solve_day_allocation(DayPhaseSpec(r, 7, ONE_WEEK, 0), limits)
        assert int(bare.allocation.day_counts.min()) == 0  # weekends starve without the penalty
        penalized = solve_day_allocation(DayPhaseSpec(r, 7, ONE_WEEK, 10), limits)
        assert int(penalized.allocation.day_counts.min()) > 0

    def test_deterministic_given_seed_and_cap(self):
        r = [9, 7, 5, 3, 1, 0, 2]
        limits = SolveLimits(seed=5, move_cap=600)
        a = solve_day_allocation(DayPhaseSpec(r, 3, ONE_WEEK, 1), limits)
        b = solve_day_allocation(DayPhaseSpec(r, 3, ONE_WEEK, 1), limits)
        assert a.objective == b.objective
        assert a.head_counts == b.head_counts
        assert a.evaluations == b.evaluations
        assert a.trace == b.trace

    def test_trace_strictly_decreasing(self):
        r = [9, 7, 5, 3, 1, 0, 2]
        result = solve_day_allocation(DayPhaseSpec(r, 3, ONE_WEEK, 1), SolveLimits(move_cap=5000))
        assert all(x > y for x, y in zip(result.trace, result.trace[1:]))


class TestLocalSearchShift:
    def test_tracks_exact_on_micro_instances(self):
        rng = random.Random(31337)
        equal = 0
        total = 12
        for _ in range(total):
            days = rng.randint(1, 2)
            r = [[rng.randint(0, 4) for _ in range(6)] for _ in range(days)]
            n_d = [rng.randint(0, 4) for _ in range(days)]
            exact = oracles.exact_shift(r, n_d, CAT3)
            local = solve_shift_allocation(
                shift_spec(r, n_d, CAT3), SolveLimits(seed=rng.randint(0, 99), move_cap=10_000)
            )
            assert local.objective >= exact.objective  # exact is a true optimum
            equal += local.objective == exact.objective
        assert equal >= total - 1

    def test_zero_head_counts(self):
        result = solve_shift_allocation(
            shift_spec([[2, 2, 2, 2, 2, 2]], [0], CAT3), SolveLimits(move_cap=10)
        )
        assert result.status == SolveStatus.OPTIMAL
        assert result.objective == 24
        assert result.splits == ((0, 0, 0),)

    def test_deterministic_given_seed_and_cap(self):
        r = [[4, 1, 0, 2, 3, 1], [2, 2, 2, 0, 0, 4]]
        limits = SolveLimits(seed=11, move_cap=800)
        a = solve_shift_allocation(shift_spec(r, [3, 4], CAT3), limits)
        b = solve_shift_allocation(shift_spec(r, [3, 4], CAT3), limits)
        assert (a.objective, a.head_counts, a.splits, a.evaluations) == (
            b.objective,
            b.head_counts,
            b.splits,
            b.evaluations,
        )

    def test_trace_monotone(self):
        r = [[4, 1, 0, 2, 3, 1], [2, 2, 2, 0, 0, 4]]
        limits = SolveLimits(seed=1, move_cap=3000)
        result = solve_shift_allocation(shift_spec(r, [3, 4], CAT3), limits)
        assert all(x > y for x, y in zip(result.trace, result.trace[1:]))

    def test_move_cap_is_a_hard_bound(self):
        # an instance whose descent improves two days and spends 165 evaluations
        rng = random.Random(2)
        cat = ShiftCatalog(((0, 4), (2, 4), (4, 4), (0, 2), (3, 3), (6, 2)), 8)
        r = [[rng.randint(0, 9) for _ in range(8)] for _ in range(5)]
        n_d = [rng.randint(3, 12) for _ in range(5)]
        greedy = solve_shift_allocation(shift_spec(r, n_d, cat), SolveLimits(move_cap=1))
        assert greedy.evaluations == 0 and len(greedy.trace) == 1  # the greedy start alone
        full = solve_shift_allocation(shift_spec(r, n_d, cat), SolveLimits(move_cap=100_000))
        assert full.evaluations == 165 and full.objective < greedy.objective
        for cap in (7, 40, 101, 164):
            result = solve_shift_allocation(shift_spec(r, n_d, cat), SolveLimits(move_cap=cap))
            assert result.evaluations <= cap
            assert full.objective <= result.objective <= greedy.objective

    def test_respects_move_cap(self):
        r = [[4, 1, 0, 2, 3, 1]]
        result = solve_shift_allocation(shift_spec(r, [3], CAT3), SolveLimits(move_cap=50))
        assert result.evaluations <= 50


class TestLocalSearchSingle:
    def test_tracks_exact_on_micro_instances(self):
        rng = random.Random(314)
        cat = ShiftCatalog(((0, 2), (1, 2)), intervals_per_day=3)
        equal = 0
        total = 8
        for _ in range(total):
            r = np.array(
                [[rng.randint(0, 2) for _ in range(3)] for _ in range(7)],
                dtype=np.int64,
            )
            exact = oracles.exact_single(r, 1, ONE_WEEK, cat)
            local = solve_single_phase(
                scenario_from_grid(r, 1, cat.shifts),
                SolveLimits(seed=rng.randint(0, 99), move_cap=20_000),
            )
            assert local.objective >= exact.objective
            equal += local.objective == exact.objective
        assert equal >= total - 1

    def test_zero_agents(self):
        cat = ShiftCatalog(((0, 1),), 2)
        r = np.array([[1, 1]] * 7)
        result = solve_single_phase(scenario_from_grid(r, 0, cat.shifts), SolveLimits(move_cap=10))
        assert result.status == SolveStatus.OPTIMAL
        assert result.objective == 14

    def test_deterministic_given_seed_and_cap(self):
        cat = ShiftCatalog(((0, 2), (1, 2)), intervals_per_day=3)
        r = np.array([[2, 1, 0], [0, 1, 2], [1, 1, 1], [2, 2, 2], [0, 0, 0], [1, 0, 1], [2, 0, 2]])
        limits = SolveLimits(seed=8, move_cap=2000)
        a = solve_single_phase(scenario_from_grid(r, 2, cat.shifts), limits)
        b = solve_single_phase(scenario_from_grid(r, 2, cat.shifts), limits)
        assert (a.objective, a.head_counts, a.splits, a.evaluations) == (
            b.objective,
            b.head_counts,
            b.splits,
            b.evaluations,
        )

    def test_materializes_validly(self):
        cat = ShiftCatalog(((0, 2), (1, 2)), intervals_per_day=3)
        r = np.ones((7, 3), dtype=np.int64)
        limits = SolveLimits(seed=0, move_cap=5000)
        result = solve_single_phase(scenario_from_grid(r, 3, cat.shifts), limits)
        assert tuple(result.allocation.day_counts) == result.head_counts
        assert tuple(sum(split) for split in result.splits) == result.head_counts
        assert (
            validate_schedule(
                result.schedule, agent_count=3, day_count=7, catalog=cat, weeks=ONE_WEEK
            )
            == []
        )


def random_week_plan_instance(rng):
    """Realizable head-counts (each agent draws a pattern) and random splits."""
    agents = rng.randint(0, 8)
    weeks = build_week_partition(7 * rng.randint(1, 3))
    shifts = rng.randint(1, 5)
    head_counts = []
    for _ in range(weeks):
        week = [0] * 7
        for _ in range(agents):
            for d in rng.choice(oracles.DAY_PATTERNS):
                week[d] += 1
        head_counts.extend(week)
    splits = []
    for n in head_counts:
        split = [0] * shifts
        for _ in range(n):
            split[rng.randrange(shifts)] += 1
        splits.append(tuple(split))
    return agents, weeks, tuple(head_counts), tuple(splits)


def random_week_counts(rng, agents):
    """One week's head-counts: 2A days off over the 7 days, at most A on any
    one, spread as evenly as they go (tied), each day as full or as empty as
    it can be (skewed: head-counts 0 and A), or uniformly at random."""
    style = rng.choice(("tied", "skewed", "uniform"))
    if style == "tied":
        base, extra = divmod(2 * agents, 7)
        off = [base + (d < extra) for d in range(7)]
    else:
        off, left = [], 2 * agents
        for d in range(7):
            lo, hi = max(0, left - agents * (6 - d)), min(agents, left)
            off.append(rng.choice((lo, hi)) if style == "skewed" else rng.randint(lo, hi))
            left -= off[-1]
    rng.shuffle(off)
    return [agents - o for o in off]


class TestMaterialization:
    def test_day_expansion_meets_counts_quota_and_order(self):
        rng = random.Random(1959)
        seen = set()
        for case in range(300):
            agents = (0, 200)[case] if case < 2 else rng.randint(1, 200)
            weeks = build_week_partition(7 * rng.randint(1, 3))
            head_counts = [n for _ in range(weeks) for n in random_week_counts(rng, agents)]
            seen.update(("off", "on")[n > 0] for n in head_counts if agents and n in (0, agents))
            alloc = materialize_day(head_counts, agents, weeks)
            assert alloc.day_counts.tolist() == head_counts
            week_rows = alloc.works.reshape(agents, weeks, 7)
            assert (week_rows.sum(axis=2) == 5).all()
            for w in range(weeks):
                patterns = [tuple(np.flatnonzero(row).tolist()) for row in week_rows[:, w]]
                assert patterns == sorted(patterns)
        assert seen == {"off", "on"}  # days with everyone off, days with everyone on

    def test_day_expansion_is_canonical(self):
        # off-day slots latest day first: 6, 5, 1, 0; agent 0 takes slots 0
        # and 2 (days 6 and 1), agent 1 slots 1 and 3 (days 5 and 0)
        alloc = materialize_day((1, 1, 2, 2, 2, 1, 1), 2, ONE_WEEK)
        # so agent 0 has the lexicographically smaller pattern (0, 2, 3, 4, 5)
        assert alloc.works[0].tolist() == [1, 0, 1, 1, 1, 1, 0]
        assert alloc.works[1].tolist() == [0, 1, 1, 1, 1, 0, 1]

    def test_day_expansion_validates_totals(self):
        with pytest.raises(ValueError, match="sum to"):
            materialize_day((1, 1, 1, 1, 1, 0, 0), 2, ONE_WEEK)

    def test_day_expansion_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 14 day head-counts, got 7"):
            materialize_day((1, 1, 1, 1, 1, 0, 0), 1, build_week_partition(14))

    def test_shift_expansion_round_trip(self):
        r = [4, 2, 3, 2, 4, 1, 4]
        day = oracles.exact_day(r, 2, ONE_WEEK, 0)
        alloc = materialize_day(day.head_counts, 2, ONE_WEEK)
        assert tuple(alloc.day_counts) == day.head_counts
        shift = oracles.exact_shift(
            np.tile(np.array(r).reshape(7, 1), (1, 6)) // 2,
            [int(x) for x in alloc.day_counts],
            CAT3,
        )
        assert tuple(sum(split) for split in shift.splits) == day.head_counts
        schedule = materialize_shift(shift.splits, alloc)
        assert shift_tally(schedule, 7, len(CAT3)) == shift.splits
        assert (
            validate_schedule(
                schedule, agent_count=2, day_count=7, catalog=CAT3, weeks=ONE_WEEK
            )
            == []
        )

    def test_shift_expansion_checks_unit_totals(self):
        alloc = materialize_day((1, 1, 1, 1, 1, 0, 0), 1, ONE_WEEK)
        with pytest.raises(ValueError, match="shift units"):
            materialize_shift(((2,),) + ((0,),) * 6, alloc)

    def test_shift_expansion_rejects_wrong_length(self):
        alloc = materialize_day((1, 1, 1, 1, 1, 0, 0), 1, ONE_WEEK)
        with pytest.raises(ValueError, match="expected 7 shift splits, got 6"):
            materialize_shift(((1,),) * 5 + ((0,),), alloc)

    def test_day_then_shift_matches_week_plan_expansion(self):
        # the two expanders in turn number agents in week-plan order, so they
        # reproduce the week-plan expansion assignment for assignment
        rng = random.Random(8128)
        for _ in range(1200):
            agents, weeks, head_counts, splits = random_week_plan_instance(rng)
            schedule = materialize_shift(splits, materialize_day(head_counts, agents, weeks))
            assert schedule == reference_materialize_single(head_counts, splits, agents, weeks)

