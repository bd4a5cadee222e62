"""Solvers, cross-checked against explicit per-agent enumeration.

The brute-force oracles here enumerate raw per-agent choices (patterns,
shift tuples), deliberately sharing no code with the solvers' count-based
decompositions.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftplan.domain import (
    OFF,
    Schedule,
    ShiftCatalog,
    build_week_partition,
    unit_cost_grid,
    validate_day_allocation,
    validate_schedule,
)
from shiftplan.model import Deadline, SearchSpaceError, SolveLimits, SolveStatus
from shiftplan.solvers import (
    DAY_PATTERNS,
    _bounded_vectors,
    _day_kernels,
    day_term,
    materialize_day,
    materialize_shift,
    patterns_from_day_counts,
    solve_exact_day,
    solve_exact_shift,
    solve_exact_single,
    solve_local_day,
    solve_local_shift,
    solve_local_single,
    squared_norm,
    week_optimal_day_counts,
)

ONE_WEEK = build_week_partition(7)


def brute_force_day(r_week, agents, penalty):
    """Optimum over explicit per-agent pattern tuples."""
    best = None
    for combo in itertools.combinations_with_replacement(DAY_PATTERNS, agents):
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
            for t in catalog.covers(s):
                cov[t] += 1
        obj = sum((int(r) - c) ** 2 for r, c in zip(r_row, cov))
        best = obj if best is None else min(best, obj)
    return best


def brute_force_single_one_agent(r_grid, catalog):
    """Optimum week plan for a single agent."""
    best = None
    S = len(catalog)
    for pattern in DAY_PATTERNS:
        for shifts in itertools.product(range(S), repeat=5):
            cov = np.zeros_like(r_grid)
            for d, s in zip(pattern, shifts):
                span = catalog.covers(s)
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


def reference_plans_from_week(day_head_counts, day_splits, agent_count):
    """Week-plan counts of one week's head-counts and splits (reference).

    The expansion the solvers used before they returned splits: patterns to
    agents, lowest agent first, then each day's shifts in index order, then
    a tally of (day, shift) week plans.
    """
    pattern_counts = patterns_from_day_counts(day_head_counts, agent_count)
    agent_patterns = []
    for pattern in sorted(pattern_counts):
        agent_patterns.extend([pattern] * pattern_counts[pattern])
    agent_pairs = [[] for _ in range(agent_count)]
    for d in range(7):
        working = [a for a in range(agent_count) if d in agent_patterns[a]]
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
    triples = []
    for w in range(weeks.count):
        days = weeks.days_of(w)
        plans = reference_plans_from_week(
            head_counts[days.start : days.stop], splits[days.start : days.stop], agent_count
        )
        agent = 0
        for plan in sorted(plans):
            for _ in range(plans[plan]):
                triples.extend((agent, days.start + d, s) for d, s in plan)
                agent += 1
    return Schedule.from_triples(triples, agent_count, weeks.count * 7)


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
        counts, obj = week_optimal_day_counts(r_week, agents, penalty)
        assert sum(counts) == 5 * agents
        assert max(counts) <= agents and min(counts) >= 0
        assert obj == brute_force_day(r_week, agents, penalty)

    def test_week_greedy_matches_reference_loop(self):
        # narrow requirement ranges make ties between days common
        rng = random.Random(5150)
        for _ in range(1500):
            agents = rng.randint(0, 6)
            penalty = rng.randint(0, 3)
            top = rng.choice((2, 4, 9))
            r_week = [rng.randint(0, top) for _ in range(7)]
            assert week_optimal_day_counts(r_week, agents, penalty) == week_counts_loop(
                r_week, agents, penalty
            )

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
        patterns = patterns_from_day_counts(counts, agents)
        assert sum(patterns.values()) == agents
        realized = [0] * 7
        for pattern, n in patterns.items():
            assert len(pattern) == 5 and len(set(pattern)) == 5
            for d in pattern:
                realized[d] += n
        assert realized == counts

    def test_pattern_realization_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 5"):
            patterns_from_day_counts([1, 1, 1, 1, 1, 1, 1], 2)
        with pytest.raises(ValueError, match="outside"):
            patterns_from_day_counts([3, 2, 1, 1, 1, 1, 1], 2)


class TestExactDay:
    def test_matches_brute_force(self):
        rng = random.Random(4242)
        for _ in range(10):
            agents = rng.randint(1, 3)
            r = [rng.randint(0, 7) for _ in range(7)]
            penalty = rng.randint(0, 2)
            result = solve_exact_day(
                r, agents, ONE_WEEK, penalty, SolveLimits()
            )
            assert result.status == SolveStatus.OPTIMAL
            assert result.objective == brute_force_day(r, agents, penalty)

    def test_multi_week_is_per_week_sum(self):
        weeks = build_week_partition(14)
        r = [3, 3, 3, 3, 3, 1, 1] + [5, 5, 5, 5, 5, 0, 0]
        result = solve_exact_day(r, 2, weeks, 0, SolveLimits())
        a = solve_exact_day(r[:7], 2, ONE_WEEK, 0, SolveLimits())
        b = solve_exact_day(r[7:], 2, ONE_WEEK, 0, SolveLimits())
        assert result.objective == a.objective + b.objective

    def test_node_cap(self):
        with pytest.raises(SearchSpaceError):
            solve_exact_day(
                [5] * 7, 40, ONE_WEEK, 0, SolveLimits()
            )

    def test_materializes_validly(self):
        result = solve_exact_day([4, 4, 1, 1, 4, 4, 2], 4, ONE_WEEK, 1, SolveLimits())
        assert result.splits is None
        alloc = materialize_day(result.head_counts, 4, ONE_WEEK)
        assert validate_day_allocation(alloc, 4, ONE_WEEK) == []
        assert tuple(alloc.day_counts) == result.head_counts


CAT3 = ShiftCatalog(((0, 2), (2, 2), (4, 2)), intervals_per_day=6)


class TestExactShift:
    def test_matches_brute_force(self):
        rng = random.Random(77)
        for _ in range(10):
            days = rng.randint(1, 3)
            r = [[rng.randint(0, 4) for _ in range(6)] for _ in range(days)]
            n_d = [rng.randint(0, 4) for _ in range(days)]
            result = solve_exact_shift(r, n_d, CAT3, SolveLimits())
            assert result.status == SolveStatus.OPTIMAL
            expected = sum(
                brute_force_shift_day(r[d], n_d[d], CAT3) for d in range(days)
            )
            assert result.objective == expected

    def test_respects_head_counts(self):
        result = solve_exact_shift([[3, 3, 0, 0, 2, 2]], [4], CAT3, SolveLimits())
        assert result.head_counts == (4,)
        assert sum(result.splits[0]) == 4

    def test_node_cap(self):
        big_cat = ShiftCatalog(tuple((i, 1) for i in range(12)), 12)
        with pytest.raises(SearchSpaceError):
            solve_exact_shift(
                [[1] * 12], [30], big_cat, SolveLimits()
            )


class TestExactSingle:
    def test_matches_one_agent_brute_force(self):
        rng = random.Random(99)
        cat = ShiftCatalog(((0, 2), (1, 2)), intervals_per_day=3)
        for _ in range(8):
            r = np.array(
                [[rng.randint(0, 2) for _ in range(3)] for _ in range(7)],
                dtype=np.int64,
            )
            result = solve_exact_single(r, 1, ONE_WEEK, cat, SolveLimits())
            assert result.status == SolveStatus.OPTIMAL
            assert result.objective == brute_force_single_one_agent(r, cat)

    def test_single_shift_catalog_reduces_to_day_choice(self):
        # with one full-day shift the joint problem is the day problem
        cat = ShiftCatalog(((0, 2),), intervals_per_day=2)
        r = np.array([[4, 4], [3, 3], [2, 2], [2, 2], [1, 1], [1, 1], [0, 0]])
        result = solve_exact_single(r, 2, ONE_WEEK, cat, SolveLimits())
        day = solve_exact_day([4, 3, 2, 2, 1, 1, 0], 2, ONE_WEEK, 0, SolveLimits())
        assert result.objective == 2 * day.objective  # both intervals deviate alike

    def test_materializes_validly(self):
        r = np.ones((7, 3), dtype=np.int64)
        cat = ShiftCatalog(((0, 2), (1, 2)), intervals_per_day=3)
        result = solve_exact_single(r, 2, ONE_WEEK, cat, SolveLimits())
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

    def test_node_cap(self):
        cat = ShiftCatalog(tuple((i, 2) for i in range(10)), 12)
        with pytest.raises(SearchSpaceError):
            solve_exact_single(
                np.ones((7, 12), dtype=np.int64),
                25,
                ONE_WEEK,
                cat,
                SolveLimits(),
            )



# The exact enumerators as they were before they shared one week choice
# (references): each kept its own week loop, and the shift enumerator split
# ``n`` agents with its own generator rather than ``_bounded_vectors``.


def reference_splits_of(total, parts):
    vec = [0] * parts

    def rec(pos, left):
        if pos == parts - 1:
            vec[pos] = left
            yield tuple(vec)
            return
        for v in range(left + 1):
            vec[pos] = v
            yield from rec(pos + 1, left - v)

    yield from rec(0, total)


def reference_best_split(r, d, n, catalog, unit_cost, deadline):
    S = len(catalog)
    best_vec = None
    best_obj = None
    scheduled = np.zeros(r.shape[1], dtype=np.int64)
    cost = None if unit_cost is None else unit_cost[d].tolist()
    for vec in reference_splits_of(n, S):
        deadline.spend()
        scheduled[:] = 0
        for s, y in enumerate(vec):
            if y:
                span = catalog.covers(s)
                scheduled[span.start : span.stop] += y
        obj = squared_norm(r[d] - scheduled)
        if cost is not None:
            obj = obj + sum(vec[s] * cost[s] for s in range(S))
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best_vec = vec
    return best_vec, best_obj


def reference_exact_day(r_day, agent_count, weeks, penalty_factor):
    r = np.asarray(r_day, dtype=np.int64)
    deadline = Deadline(SolveLimits())
    head_counts = []
    objective = 0
    for w in range(weeks.count):
        base = weeks.days_of(w).start
        r_week = [int(r[base + d]) for d in range(7)]
        best_vec = None
        best_obj = None
        for vec in _bounded_vectors(agent_count, 5 * agent_count, 7):
            deadline.spend()
            obj = sum(day_term(r_week[d], vec[d], agent_count, penalty_factor) for d in range(7))
            if best_obj is None or obj < best_obj:
                best_obj = obj
                best_vec = vec
        head_counts.extend(best_vec)
        objective += best_obj
    return SolveStatus.OPTIMAL, objective, tuple(head_counts), None, (objective,), deadline.evaluations


def reference_exact_shift(r_dt, day_counts, catalog, unit_cost):
    r = np.asarray(r_dt, dtype=np.int64)
    n_d = [int(x) for x in day_counts]
    unit_cost = unit_cost_grid(unit_cost, r.shape[0], len(catalog))
    deadline = Deadline(SolveLimits())
    splits = []
    objective = 0
    for d in range(r.shape[0]):
        vec, obj = reference_best_split(r, d, n_d[d], catalog, unit_cost, deadline)
        splits.append(vec)
        objective = objective + obj
    return SolveStatus.OPTIMAL, objective, tuple(n_d), tuple(splits), (objective,), deadline.evaluations


def reference_exact_single(r_dt, agent_count, weeks, catalog, unit_cost):
    r = np.asarray(r_dt, dtype=np.int64)
    unit_cost = unit_cost_grid(unit_cost, r.shape[0], len(catalog))
    deadline = Deadline(SolveLimits())
    best_comp = []
    best_val = []
    for d in range(r.shape[0]):
        comps, vals = [], []
        for n in range(agent_count + 1):
            vec, obj = reference_best_split(r, d, n, catalog, unit_cost, deadline)
            comps.append(vec)
            vals.append(obj)
        best_comp.append(comps)
        best_val.append(vals)
    head_counts = []
    objective = 0
    for w in range(weeks.count):
        base = weeks.days_of(w).start
        best_vec = None
        best_obj = None
        for vec in _bounded_vectors(agent_count, 5 * agent_count, 7):
            deadline.spend()
            obj = sum(best_val[base + d][vec[d]] for d in range(7))
            if best_obj is None or obj < best_obj:
                best_obj = obj
                best_vec = vec
        objective = objective + best_obj
        head_counts.extend(best_vec)
    splits = tuple(best_comp[d][n] for d, n in enumerate(head_counts))
    return SolveStatus.OPTIMAL, objective, tuple(head_counts), splits, (objective,), deadline.evaluations


def exact_record(result):
    """Every ``SearchResult`` field an exact solve fixes: all but the clock."""
    return (
        result.status,
        result.objective,
        result.head_counts,
        result.splits,
        result.trace,
        result.evaluations,
    )


class TestExactRecords:
    """The exact enumerators against the references above: same optimum,
    same tie-break and same evaluation count, on seeded micro instances."""

    def test_records_match_the_references(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            agents, week_count = int(rng.integers(0, 4)), int(rng.integers(1, 3))
            weeks = build_week_partition(7 * week_count)
            width = int(rng.integers(1, 5))
            starts = rng.integers(0, width, size=int(rng.integers(1, 4)))
            catalog = ShiftCatalog(
                tuple((int(a), int(rng.integers(1, width - a + 1))) for a in starts), width
            )
            days = weeks.count * 7
            r = rng.integers(0, 4, size=(days, width))
            unit_cost = None
            if rng.random() < 0.5:
                unit_cost = rng.choice([0, 0.5, 1, 2.5], size=(days, len(catalog)))
            r_day, penalty = r.max(axis=1), int(rng.integers(0, 3))
            day_counts = rng.integers(0, agents + 1, size=days)
            assert exact_record(
                solve_exact_day(r_day, agents, weeks, penalty, SolveLimits())
            ) == reference_exact_day(r_day, agents, weeks, penalty)
            assert exact_record(
                solve_exact_shift(r, day_counts, catalog, SolveLimits(), unit_cost)
            ) == reference_exact_shift(r, day_counts, catalog, unit_cost)
            assert exact_record(
                solve_exact_single(r, agents, weeks, catalog, SolveLimits(), unit_cost)
            ) == reference_exact_single(r, agents, weeks, catalog, unit_cost)

    def test_splits_of_match_bounded_vectors(self):
        for total in range(7):
            for parts in range(1, 5):
                assert list(_bounded_vectors(total, total, parts)) == list(
                    reference_splits_of(total, parts)
                )


class TestJointInputChecks:
    """The exact and local joint solves refuse the same malformed inputs."""

    @pytest.mark.parametrize("solve", [solve_exact_single, solve_local_single])
    def test_interval_grid_mismatch(self, solve):
        catalog = ShiftCatalog(((0, 2), (2, 4)), intervals_per_day=6)
        with pytest.raises(ValueError, match="catalog interval grid differs from requirements"):
            solve(np.ones((7, 3), dtype=np.int64), 2, ONE_WEEK, catalog, SolveLimits(move_cap=100))

    @pytest.mark.parametrize("solve", [solve_exact_single, solve_local_single])
    def test_one_dimensional_grid(self, solve):
        catalog = ShiftCatalog(((0, 1),), intervals_per_day=1)
        with pytest.raises(ValueError, match="requirement rows do not match the week partition"):
            solve(np.ones(7, dtype=np.int64), 2, ONE_WEEK, catalog, SolveLimits(move_cap=100))


def draw_kernel_case(data, priced):
    """A requirement row, a catalog over it and, when ``priced``, unit costs."""
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
    unit_cost = None
    if priced:
        # multiples of 0.5 keep the float sums exact
        halves = data.draw(
            st.lists(st.integers(0, 6), min_size=len(spans), max_size=len(spans))
        )
        unit_cost = np.array([halves]) / 2
    return np.array([row], dtype=np.int64), catalog, unit_cost


def split_objective(r_row, catalog, unit_cost, split):
    cov = np.zeros(len(r_row), dtype=np.int64)
    for s, y in enumerate(split):
        span = catalog.covers(s)
        cov[span.start : span.stop] += y
    diff = r_row - cov
    cost = 0 if unit_cost is None else sum(y * unit_cost[0, s] for s, y in enumerate(split))
    return int(diff @ diff) + cost


def reference_greedy(r_row, catalog, cost, n_max):
    """One row's greedy pass as a per-row loop, the form the batched pass
    replaced (reference): picks, marginals and values."""
    cover = catalog.coverage.astype(np.int64)
    overlap = cover @ cover.T
    lengths = np.diag(overlap)
    cu = cover @ r_row
    picks, adds = [], []
    for _ in range(n_max):
        add = lengths - 2 * cu + cost
        s = int(np.argmin(add))
        picks.append(s)
        adds.append(add[s].item())
        cu -= overlap[s]
    return picks, np.array(adds), list(itertools.accumulate(adds, initial=squared_norm(r_row)))


def random_kernel_case(rng):
    """Seeded day rows drawn from a small pool, so that some repeat, with
    unequal caps (0 included), 1 to 5 shifts, and unpriced or arbitrary
    float costs, shared by some repeated rows."""
    width, S = int(rng.integers(1, 10)), int(rng.integers(1, 6))
    starts = rng.integers(0, width, size=S)
    catalog = ShiftCatalog(
        tuple((int(a), int(rng.integers(1, width - a + 1))) for a in starts), width
    )
    days = int(rng.integers(1, 9))
    pool = rng.integers(0, 12, size=(int(rng.integers(1, 4)), width))
    r = pool[rng.integers(0, len(pool), size=days)]
    unit_cost = None
    if rng.random() < 0.6:
        cost_pool = rng.random((2, S)) * rng.choice([1.0, 7.3, 1e3])
        unit_cost = cost_pool[rng.integers(0, 2, size=days)]
    caps = [int(c) for c in rng.integers(0, 15, size=days)]
    return r, catalog, unit_cost, caps


class TestBatchedGreedy:
    """The batched greedy pass against the per-row loop, kept above."""

    def test_same_picks_marginals_and_values(self):
        rng = np.random.default_rng(8)
        for case in range(300):
            r, catalog, unit_cost, caps = random_kernel_case(rng)
            if case % 10 == 0:
                catalog = ShiftCatalog(((0, catalog.intervals_per_day),), catalog.intervals_per_day)
                unit_cost = None if unit_cost is None else unit_cost[:, :1]
            costs = np.zeros((len(r), len(catalog))) if unit_cost is None else unit_cost
            keys = [(r[d].tobytes(), costs[d].tobytes()) for d in range(len(r))]
            kernels = _day_kernels(r, catalog, unit_cost, caps)
            for d, kernel in enumerate(kernels):
                cap = max(c for k, c in zip(keys, caps) if k == keys[d])
                cost = np.zeros(len(catalog), dtype=np.int64) if unit_cost is None else unit_cost[d]
                picks, marginals, values = reference_greedy(r[d], catalog, cost, cap)
                assert kernel.picks.tolist() == picks
                assert np.array_equal(kernel.marginals, marginals)
                assert kernel.values == values
                for e in range(d):
                    assert (kernels[e] is kernel) == (keys[e] == keys[d])


class TestDayKernel:
    @given(st.data(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_deltas_match_recomputation(self, data, priced):
        r, catalog, unit_cost = draw_kernel_case(data, priced)
        S = len(catalog)
        kernel = _day_kernels(r, catalog, unit_cost, [0])[0]
        split = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=S, max_size=S)), dtype=np.int64
        )
        before = split_objective(r[0], catalog, unit_cost, split)
        cu = kernel.cr - kernel.overlap @ split
        adds = kernel.add_deltas(cu)
        for s in range(S):
            grown = split.copy()
            grown[s] += 1
            assert split_objective(r[0], catalog, unit_cost, grown) - before == adds[s]
        held = np.flatnonzero(split)
        swaps = kernel.swap_deltas(cu, held)
        for k, o in enumerate(held):
            for i in range(S):
                moved = split.copy()
                moved[o] -= 1
                moved[i] += 1
                assert split_objective(r[0], catalog, unit_cost, moved) - before == swaps[k, i]

    @given(st.data(), st.booleans(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_greedy_marginals_never_decrease(self, data, priced, n_max):
        r, catalog, unit_cost = draw_kernel_case(data, priced)
        kernel = _day_kernels(r, catalog, unit_cost, [n_max])[0]
        assert len(kernel.values) == n_max + 1
        assert all(a <= b for a, b in zip(kernel.marginals, kernel.marginals[1:]))
        # values[n] is the objective of the greedy split of n
        for n in range(n_max + 1):
            split = np.bincount(kernel.picks[:n], minlength=len(catalog))
            assert kernel.values[n] == split_objective(r[0], catalog, unit_cost, split)

    def test_split_is_shared_and_descends(self):
        r = np.array([[4, 1, 0, 2, 3, 1]] * 2, dtype=np.int64)
        kernels = _day_kernels(r, CAT3, None, [2, 3])
        assert kernels[0] is kernels[1]  # equal rows share one kernel, built to n = 3
        deadline = Deadline(SolveLimits(move_cap=10_000))
        split, value = kernels[0].split(3, deadline)
        assert sum(split) == 3 and value <= kernels[0].values[3]
        spent = deadline.evaluations
        assert kernels[0].split(3, deadline) == (split, value)
        assert deadline.evaluations == spent  # the second day reuses the first


class TestLocalSearchDay:
    def test_reaches_exact_optimum_on_micro_instances(self):
        rng = random.Random(2025)
        for _ in range(20):
            agents = rng.randint(1, 4)
            weeks_n = rng.randint(1, 2)
            weeks = build_week_partition(7 * weeks_n)
            r = [rng.randint(0, 6) for _ in range(7 * weeks_n)]
            penalty = rng.randint(0, 2)
            exact = solve_exact_day(r, agents, weeks, penalty, SolveLimits())
            local = solve_local_day(
                r, agents, weeks, penalty, SolveLimits(seed=rng.randint(0, 99), move_cap=10_000)
            )
            assert local.objective == exact.objective

    def test_zero_agents(self):
        r = [2, 0, 1, 0, 0, 0, 0]
        result = solve_local_day(r, 0, ONE_WEEK, 3, SolveLimits(move_cap=10))
        assert result.status == SolveStatus.OPTIMAL
        assert result.objective == 5
        assert result.head_counts == (0,) * 7

    def test_penalty_pulls_counts_off_zero(self):
        # scaled-down peak week: weekdays heavy, weekend light
        r = [22, 22, 22, 22, 23, 11, 11]
        bare = solve_local_day(r, 7, ONE_WEEK, 0, SolveLimits(move_cap=20_000))
        alloc = materialize_day(bare.head_counts, 7, ONE_WEEK)
        assert int(alloc.day_counts.min()) == 0  # weekends starve without the penalty
        penalized = solve_local_day(r, 7, ONE_WEEK, 10, SolveLimits(move_cap=20_000))
        alloc = materialize_day(penalized.head_counts, 7, ONE_WEEK)
        assert int(alloc.day_counts.min()) > 0

    def test_deterministic_given_seed_and_cap(self):
        r = [9, 7, 5, 3, 1, 0, 2]
        limits = SolveLimits(seed=5, move_cap=600)
        a = solve_local_day(r, 3, ONE_WEEK, 1, limits)
        b = solve_local_day(r, 3, ONE_WEEK, 1, limits)
        assert a.objective == b.objective
        assert a.head_counts == b.head_counts
        assert a.evaluations == b.evaluations
        assert a.trace == b.trace

    def test_trace_strictly_decreasing(self):
        r = [9, 7, 5, 3, 1, 0, 2]
        result = solve_local_day(r, 3, ONE_WEEK, 1, SolveLimits(move_cap=5000))
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
            exact = solve_exact_shift(r, n_d, CAT3, SolveLimits())
            local = solve_local_shift(
                r, n_d, CAT3, SolveLimits(seed=rng.randint(0, 99), move_cap=10_000)
            )
            assert local.objective >= exact.objective  # exact is a true optimum
            equal += local.objective == exact.objective
        assert equal >= total - 1

    def test_zero_head_counts(self):
        result = solve_local_shift(
            [[2, 2, 2, 2, 2, 2]], [0], CAT3, SolveLimits(move_cap=10)
        )
        assert result.status == SolveStatus.OPTIMAL
        assert result.objective == 24
        assert result.splits == ((0, 0, 0),)

    def test_deterministic_given_seed_and_cap(self):
        r = [[4, 1, 0, 2, 3, 1], [2, 2, 2, 0, 0, 4]]
        limits = SolveLimits(seed=11, move_cap=800)
        a = solve_local_shift(r, [3, 4], CAT3, limits)
        b = solve_local_shift(r, [3, 4], CAT3, limits)
        assert (a.objective, a.head_counts, a.splits, a.evaluations) == (
            b.objective,
            b.head_counts,
            b.splits,
            b.evaluations,
        )

    def test_trace_monotone(self):
        r = [[4, 1, 0, 2, 3, 1], [2, 2, 2, 0, 0, 4]]
        result = solve_local_shift(r, [3, 4], CAT3, SolveLimits(seed=1, move_cap=3000))
        assert all(x > y for x, y in zip(result.trace, result.trace[1:]))

    def test_move_cap_is_a_hard_bound(self):
        # an instance whose descent improves two days and spends 165 evaluations
        rng = random.Random(2)
        cat = ShiftCatalog(((0, 4), (2, 4), (4, 4), (0, 2), (3, 3), (6, 2)), 8)
        r = [[rng.randint(0, 9) for _ in range(8)] for _ in range(5)]
        n_d = [rng.randint(3, 12) for _ in range(5)]
        greedy = solve_local_shift(r, n_d, cat, SolveLimits(move_cap=1))
        assert greedy.evaluations == 0 and len(greedy.trace) == 1  # the greedy start alone
        full = solve_local_shift(r, n_d, cat, SolveLimits(move_cap=100_000))
        assert full.evaluations == 165 and full.objective < greedy.objective
        for cap in (7, 40, 101, 164):
            result = solve_local_shift(r, n_d, cat, SolveLimits(move_cap=cap))
            assert result.evaluations <= cap
            assert full.objective <= result.objective <= greedy.objective

    def test_respects_move_cap(self):
        r = [[4, 1, 0, 2, 3, 1]]
        result = solve_local_shift(r, [3], CAT3, SolveLimits(move_cap=50))
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
            exact = solve_exact_single(r, 1, ONE_WEEK, cat, SolveLimits())
            local = solve_local_single(
                r, 1, ONE_WEEK, cat, SolveLimits(seed=rng.randint(0, 99), move_cap=20_000)
            )
            assert local.objective >= exact.objective
            equal += local.objective == exact.objective
        assert equal >= total - 1

    def test_zero_agents(self):
        cat = ShiftCatalog(((0, 1),), 2)
        r = np.array([[1, 1]] * 7)
        result = solve_local_single(r, 0, ONE_WEEK, cat, SolveLimits(move_cap=10))
        assert result.status == SolveStatus.OPTIMAL
        assert result.objective == 14

    def test_deterministic_given_seed_and_cap(self):
        cat = ShiftCatalog(((0, 2), (1, 2)), intervals_per_day=3)
        r = np.array([[2, 1, 0], [0, 1, 2], [1, 1, 1], [2, 2, 2], [0, 0, 0], [1, 0, 1], [2, 0, 2]])
        limits = SolveLimits(seed=8, move_cap=2000)
        a = solve_local_single(r, 2, ONE_WEEK, cat, limits)
        b = solve_local_single(r, 2, ONE_WEEK, cat, limits)
        assert (a.objective, a.head_counts, a.splits, a.evaluations) == (
            b.objective,
            b.head_counts,
            b.splits,
            b.evaluations,
        )

    def test_materializes_validly(self):
        cat = ShiftCatalog(((0, 2), (1, 2)), intervals_per_day=3)
        r = np.ones((7, 3), dtype=np.int64)
        result = solve_local_single(r, 3, ONE_WEEK, cat, SolveLimits(seed=0, move_cap=5000))
        alloc = materialize_day(result.head_counts, 3, ONE_WEEK)
        assert tuple(alloc.day_counts) == result.head_counts
        assert tuple(sum(split) for split in result.splits) == result.head_counts
        schedule = materialize_shift(result.splits, alloc)
        assert (
            validate_schedule(
                schedule, agent_count=3, day_count=7, catalog=cat, weeks=ONE_WEEK
            )
            == []
        )


def random_week_plan_instance(rng):
    """Realizable head-counts (each agent draws a pattern) and random splits."""
    agents = rng.randint(0, 8)
    weeks = build_week_partition(7 * rng.randint(1, 3))
    shifts = rng.randint(1, 5)
    head_counts = []
    for _ in range(weeks.count):
        week = [0] * 7
        for _ in range(agents):
            for d in rng.choice(DAY_PATTERNS):
                week[d] += 1
        head_counts.extend(week)
    splits = []
    for n in head_counts:
        split = [0] * shifts
        for _ in range(n):
            split[rng.randrange(shifts)] += 1
        splits.append(tuple(split))
    return agents, weeks, tuple(head_counts), tuple(splits)


class TestMaterialization:
    def test_day_expansion_is_canonical(self):
        # head-counts of the patterns (0, 1, 2, 3, 4) and (2, 3, 4, 5, 6)
        alloc = materialize_day((1, 1, 2, 2, 2, 1, 1), 2, ONE_WEEK)
        # agent 0 gets the lexicographically smaller pattern
        assert alloc.works[0].tolist() == [1, 1, 1, 1, 1, 0, 0]
        assert alloc.works[1].tolist() == [0, 0, 1, 1, 1, 1, 1]

    def test_day_expansion_validates_totals(self):
        with pytest.raises(ValueError, match="sum to"):
            materialize_day((1, 1, 1, 1, 1, 0, 0), 2, ONE_WEEK)

    def test_day_expansion_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 14 day head-counts, got 7"):
            materialize_day((1, 1, 1, 1, 1, 0, 0), 1, build_week_partition(14))

    def test_shift_expansion_round_trip(self):
        r = [4, 2, 3, 2, 4, 1, 4]
        day = solve_exact_day(r, 2, ONE_WEEK, 0, SolveLimits())
        alloc = materialize_day(day.head_counts, 2, ONE_WEEK)
        assert tuple(alloc.day_counts) == day.head_counts
        shift = solve_exact_shift(
            np.tile(np.array(r).reshape(7, 1), (1, 6)) // 2,
            [int(x) for x in alloc.day_counts],
            CAT3,
            SolveLimits(),
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

