"""
Single-phase vs multi-phase on the two-week benchmark
=====================================================

Equal move budgets.  The solvers are deterministic, so the seeded repeat runs
score identically; the seed only labels each run.  The joint single-phase
solve chases raw squared deviation; the multi-phase split tends to land better
distribution indices because phase 1 already settled the day-level balance.
"""

from shiftplan import SolveLimits, compare_modes, count_variables, gen_preset_scenario

scenario = gen_preset_scenario("benchmark-2wk")
print(f"scenario: {scenario.name}, {scenario.agent_count} agents,"
      f" {scenario.num_days} days, {len(scenario.shift_catalog)} shifts")

# model sizes first; the day/shift split carries far fewer variables
single_vars = count_variables(
    scenario.agent_count, scenario.num_days, len(scenario.shift_catalog),
    scenario.intervals_per_day, "single",
)
pairs = scenario.agent_count * 5 * scenario.week_partition()
multi_vars = count_variables(
    scenario.agent_count, scenario.num_days, len(scenario.shift_catalog),
    scenario.intervals_per_day, "multi", assigned_pairs=pairs,
)
print(f"decision variables: single {single_vars:,} vs multi {multi_vars:,}"
      f" ({1 - multi_vars / single_vars:.0%} fewer)")
print()

result = compare_modes(scenario, runs=5, limits=SolveLimits(seed=0, move_cap=60_000))

print("seed   single DVDI/IVDI    multi DVDI/IVDI")
for run in result.runs:
    print(
        f"{run.seed:<7}{run.single.dvdi:>6} / {run.single.ivdi:<10}"
        f"{run.multi.dvdi:>6} / {run.multi.ivdi}"
    )
print()
for mode in ("single", "multi"):
    m = result.means[mode]
    print(f"mean {mode:>6}: objective {m['objective_value']:.0f},"
          f" dvdi {m['dvdi']:.1f}, ivdi {m['ivdi']:.1f}")
print(f"multi-phase IVDI wins: {result.wins('ivdi')}/{len(result.runs)}")
