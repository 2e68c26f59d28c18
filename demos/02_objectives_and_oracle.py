"""The objective suite: normalized surfaces, shifts, certificates, the cell census.

Run with:  python3 demos/02_objectives_and_oracle.py
"""
import numpy as np

from fedelim import OBJECTIVE_NAMES, PartitionSpec, make_base, make_suite, near_optimal_census

print("=== the five normalized benchmark surfaces ===")
for name in OBJECTIVE_NAMES:
    base = make_base(name)
    rng = np.random.default_rng(0)
    cloud = rng.uniform(base.domain.lower, base.domain.upper, size=(20_000, base.domain.dim))
    values = base.evaluate_batch(cloud)
    print(f"{name:11s} dim={base.domain.dim:2d}  raw extreme={base.normalization_max:10.4f}  "
          f"value range on a random cloud [{values.min():.4f}, {values.max():.4f}]")

print()
print("known anchor values:")
print("  garland(0)        =", make_base("garland").evaluate([0.0]))
print("  himmelblau(3, 2)  =", make_base("himmelblau").evaluate([3.0, 2.0]))
print("  himmelblau(5, 5)  =", make_base("himmelblau").evaluate([5.0, 5.0]))
print("  rastrigin(0,...,0)=", make_base("rastrigin").evaluate(np.zeros(10)))

print()
print("=== a shifted suite and its optimum certificates ===")
suite = make_suite(make_base("garland"), clients=5, shift_std=0.05,
                   noise_halfwidth=0.1, seed=7)
for m in range(1, 6):
    cert = suite.local_optima[m - 1]
    print(f"client {m}: shift {suite.shifts[m - 1][0]:+.4f}  "
          f"x*={cert.x[0]:.6f}  f*={cert.value:.9f}  ({cert.method})")
gcert = suite.global_optimum
print(f"average objective: x*={gcert.x[0]:.6f}  f*={gcert.value:.9f}")

print()
print("noisy rewards at one point (bounded, zero-mean noise):")
rng = np.random.default_rng(1)
x = [0.4]
value = suite.eval_local(1, x)
print("  true value:", round(value, 6))
print("  samples:   ", [round(float(r), 4) for r in value + suite.noise.draw(rng, 5)])

print()
print("=== near-optimal cells of garland's binary partition, eps = 6 * nu1 * rho^h ===")
base = make_base("garland")
print(f"{'h':>2} {'eps':>9} {'near':>5} {'cells':>6}")
for h, eps, near, cells in near_optimal_census(base.evaluate_batch, base.domain,
                                               PartitionSpec(2), 1.0, 0.5):
    print(f"{h:2d} {eps:9.4f} {near:5d} {cells:6d}")
