"""Communication cost: the two-stage run plateaus, the baseline keeps paying.

Run with:  python3 demos/05_communication_plateau.py
"""
from fedelim import ExperimentConfig, run

for variant in ("pfpne", "global-only"):
    config = ExperimentConfig(objective="garland", clients=10, horizon=5000,
                              variant=variant, seeds=(0,))
    metrics = run(config, 0, client_records=False)
    print(f"=== {variant} ===")
    print(f"{'round':>5} {'depth':>5} {'up':>6} {'down':>6} {'cumulative':>11} {'clock':>6}")
    for rnd in metrics.comm_rounds:
        print(f"{rnd.round_index:5d} {rnd.depth:5d} {rnd.scalars_up:6d} "
              f"{rnd.scalars_down:6d} {rnd.cumulative_scalars:11d} {rnd.clock:6d}")
    if metrics.stage_transition_t is not None:
        print(f"stage transition at clock {metrics.stage_transition_t}: "
              f"no further communication for the rest of the run "
              f"(budget {metrics.horizon})")
    else:
        print("no transition: rounds continue until the budget dies")
    print()
