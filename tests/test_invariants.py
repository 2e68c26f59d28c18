"""Protocol invariants over seeded random configurations.

Every drawn config either runs or is rejected with ``ConfigError``; both are
counted and none is dropped.  Each run must conserve the budget, never
eliminate a protected cell for a client, have all clients agree on the stage
transition, and run the server rounds its variant's schedule sets.
"""
import dataclasses
import math
import random

from fedelim.harness import VARIANTS, ConfigError, ExperimentConfig, run

DRAWS = 60


def reference_h0(config: ExperimentConfig) -> int:
    """The last depth of a server round, written out from the paper's schedule.

    The full protocol stops at the first depth ``h`` with ``nu1 * rho**h <= delta_gap``,
    or at the cap; the drawn parameters keep that product in the normal float range.
    """
    if config.variant == "local-only":
        return 0
    if config.variant == "global-only":
        return config.depth_cap
    return next((h for h in range(config.depth_cap)
                 if config.nu1 * config.rho ** h <= config.delta_gap), config.depth_cap)


def draw_config(rng: random.Random, seed: int, objectives: tuple[str, ...]) -> ExperimentConfig:
    return ExperimentConfig(
        objective=rng.choice(objectives),
        arity=rng.randint(2, 4),
        clients=rng.randint(1, 5),
        horizon=round(10 ** rng.uniform(math.log10(3), math.log10(3000))),
        depth_cap=rng.randint(1, 8),
        rho=rng.uniform(0.05, 1.1),  # rho >= 1 is rejected
        delta_gap=10 ** rng.uniform(-3, 0),
        noise=rng.choice((0.0, 0.1)),
        variant=rng.choice(VARIANTS),
        seeds=(seed,),
    )


def draw_rastrigin_config(rng: random.Random, seed: int,
                          objectives: tuple[str, ...]) -> ExperimentConfig:
    """A rastrigin config on the box [-1, 1]^d, with d drawn from 1 to 4."""
    d = rng.randint(1, 4)
    return dataclasses.replace(draw_config(rng, seed, objectives),
                               domain_lower=(-1.0,) * d, domain_upper=(1.0,) * d)


def check_invariants(config: ExperimentConfig, metrics) -> None:
    assert len(metrics.pull_logs) == config.clients, config
    for log in metrics.pull_logs:
        assert len(log) == config.horizon, config
    # A cell is protected at depth h when it survived the server's depth-h round.
    protected = {rnd.depth: set(rnd.survivors) for rnd in metrics.comm_rounds}
    for events in metrics.client_events:
        for event in events:
            assert protected.get(event.depth, set()).isdisjoint(event.eliminated), config
    # run_protocol returns one transition only when every client agrees on it;
    # it must be the clock of the last server round, or 0 without one.
    t = metrics.stage_transition_t
    if config.variant == "global-only":
        assert t is None, config
    elif config.variant == "local-only":
        assert t == 0 and not metrics.comm_rounds, config
    elif t is not None:
        assert t == (metrics.comm_rounds[-1].clock if metrics.comm_rounds else 0), config
    if t is None:
        assert not any(metrics.client_events), config
    # The schedule: rounds at depths 0..h0, or none when h0 = 0 with a
    # personal stage; a transition means the schedule ran to its end.
    h0 = reference_h0(config)
    assert metrics.h0 == h0, config
    assert len(metrics.comm_rounds) <= h0 + 1, config
    if t is not None:
        assert len(metrics.comm_rounds) == (h0 + 1 if h0 else 0), config


def run_draws(rng: random.Random, objectives: tuple[str, ...],
              draw=draw_config) -> list[ExperimentConfig]:
    """Run ``DRAWS`` drawn configs and return the ones that ran."""
    ran, rejected = [], 0
    for seed in range(DRAWS):
        try:  # a config is checked when it is built
            config = draw(rng, seed, objectives)
            metrics = run(config, seed)
        except ConfigError:
            rejected += 1
            continue
        ran.append(config)
        check_invariants(config, metrics)
    assert len(ran) + rejected == DRAWS
    assert ran and rejected > 0, (len(ran), rejected)
    return ran


def test_invariants_hold_on_random_configs():
    run_draws(random.Random(5), ("garland", "doublesine"))


def test_invariants_hold_on_random_configs_in_more_dimensions():
    # himmelblau and ackley are 2-D, rastrigin 10-D; garland and doublesine are 1-D.
    run_draws(random.Random(6), ("himmelblau", "ackley", "rastrigin"))


def test_invariants_hold_on_random_configs_over_dimensions():
    # rastrigin is the only objective that takes any dimension.
    ran = run_draws(random.Random(7), ("rastrigin",), draw=draw_rastrigin_config)
    assert {len(config.domain_lower) for config in ran} == {1, 2, 3, 4}
