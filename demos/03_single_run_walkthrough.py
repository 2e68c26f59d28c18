"""Anatomy of one federated run: stages, eliminations, communication.

Run with:  python3 demos/03_single_run_walkthrough.py
"""
import numpy as np

from fedelim import ExperimentConfig, run

config = ExperimentConfig(objective="garland", clients=10, horizon=5000, seeds=(0,))
metrics = run(config, seed=0)

print(f"objective={config.objective}  clients={config.clients}  "
      f"budget per client={config.horizon}")
print(f"stage transition depth: {metrics.h0}")
print()

print("=== collaborative stage (server view) ===")
for rnd in metrics.comm_rounds:
    active = len(rnd.survivors) + len(rnd.eliminated)
    print(f"depth {rnd.depth}: {active:3d} active cells, "
          f"{len(rnd.eliminated):3d} eliminated, best {tuple(rnd.best)}; "
          f"round {rnd.round_index} moved {rnd.scalars_up}+{rnd.scalars_down} scalars "
          f"(clock {rnd.clock})")
print(f"communication stops after round {metrics.comm_rounds_total} "
      f"at clock {metrics.stage_transition_t}")
print()

print("=== personalized stage (client 1) ===")
for event in metrics.client_events[0]:
    print(f"depth {event.depth}: kept {len(event.survivors):3d} cells, "
          f"dropped {len(event.eliminated):3d}")
print()

trace = metrics.avg_cum_regret
ticks = metrics.checkpoints
print("=== average cumulative regret ===")
for t in (500, 1000, 2500, 5000):
    i = int(np.searchsorted(ticks, t))
    print(f"t={t:5d}: {trace[i]:9.2f}")
print(f"per-client final regrets: min {metrics.final_regret_per_client.min():.1f}, "
      f"max {metrics.final_regret_per_client.max():.1f}")
