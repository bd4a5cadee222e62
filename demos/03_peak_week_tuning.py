"""
Tuning the day-balancing penalty on a peaky week
================================================

With weekday demand at 225 and weekend demand at 110, a plain squared-deviation
day phase parks everyone on weekdays and leaves the weekend empty.  Sweeping
the idle-agent penalty factor K and scoring each allocation by KL divergence
from the demand distribution finds the smallest K that staffs all seven days.
"""

from shiftplan import (
    DayPhaseSpec,
    ShiftPhaseSpec,
    SolveLimits,
    gen_preset_scenario,
    solve_day_allocation,
    solve_shift_allocation,
    tune_penalty,
)

scenario = gen_preset_scenario("peak-week")
print(f"{scenario.agent_count} agents, daily peaks {scenario.requirements.per_day.tolist()}")
print()

tuned = tune_penalty(
    scenario.requirements.per_day,
    scenario.agent_count,
    scenario.week_partition(),
    per_k_limits=SolveLimits(seed=11, move_cap=50_000),
)

print("K     KL divergence   per-day head-counts")
for entry in tuned.trace.entries:
    tag = "  <- selected" if entry.penalty_factor == tuned.trace.selected else ""
    print(f"{entry.penalty_factor:<6}{entry.kl:<16.5f}{list(entry.day_counts)}{tag}")

# K=0 exhibits the weekend shutdown; the selected K staffs every day
assert min(tuned.trace.entries[0].day_counts) == 0
assert min(tuned.trace.entries[tuned.trace.selected].day_counts) > 0

# the sweep keeps head-counts only: solve the chosen K's day phase for its working days
day = solve_day_allocation(
    DayPhaseSpec(
        day_requirements=scenario.requirements.per_day,
        agent_count=scenario.agent_count,
        weeks=scenario.week_partition(),
        penalty_factor=tuned.trace.selected,
    ),
    SolveLimits(seed=11, move_cap=50_000),
)
shift = solve_shift_allocation(
    ShiftPhaseSpec(
        requirements=scenario.requirements,
        allocation=day.allocation,
        catalog=scenario.shift_catalog,
    ),
    SolveLimits(seed=11, move_cap=100_000),
)
print()
print(f"tuned schedule: {len(shift.schedule)} assignments, objective {shift.objective}")

# optional picture of the sweep
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the plot")
else:
    ks = [e.penalty_factor for e in tuned.trace.entries]
    kls = [e.kl for e in tuned.trace.entries]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(ks, kls, marker="o")
    ax.axvline(tuned.trace.selected, color="tab:red", linestyle="--", label="selected K")
    ax.set_xlabel("penalty factor K")
    ax.set_ylabel("KL(workload || demand)")
    ax.set_title("penalty sweep on the peak week")
    ax.legend()
    fig.tight_layout()
    fig.savefig("peak_week_sweep.png", dpi=120)
    print("wrote peak_week_sweep.png")
