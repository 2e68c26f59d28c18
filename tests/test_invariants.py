"""Protocol invariants over seeded random configurations.

Every drawn config either runs or is rejected with ``ConfigError``; both are
counted and none is dropped.  Each run must conserve the budget, never
eliminate a protected cell for a client, and have all clients agree on the
stage transition.
"""
import math
import random

from fedelim.harness import VARIANTS, ConfigError, ExperimentConfig, run

DRAWS = 60


def draw_config(rng: random.Random, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        objective=rng.choice(("garland", "doublesine")),
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


def test_invariants_hold_on_random_configs():
    rng = random.Random(5)
    ran = rejected = 0
    for seed in range(DRAWS):
        config = draw_config(rng, seed)
        try:
            metrics = run(config, seed)
        except ConfigError:
            rejected += 1
            continue
        ran += 1
        check_invariants(config, metrics)
    assert ran + rejected == DRAWS
    assert ran > 0 and rejected > 0, (ran, rejected)
