"""Protocol state machines: stage-one phases, broadcasts, PE, fallback."""
import dataclasses
import math

import numpy as np
import pytest

from fedelim.fedcore import (
    ClientReport,
    ConfParams,
    NodeStats,
    ProtocolFault,
    ServerBroadcast,
    SmoothParams,
    TAU_SATURATED,
    confidence_bound,
    eliminate,
    merge_global,
    quota,
    select_best,
    tau,
    transition_depth,
)
from fedelim import protocol
from fedelim.harness import ExperimentConfig, run
from fedelim.objectives import BaseObjective, NoiseModel, ORIENT_VALUE, make_base, make_suite
from fedelim.partition import (
    ROOT,
    BoxDomain,
    NodeId,
    PartitionSpec,
    children,
    node_containing,
    representative,
)
from fedelim.protocol import CellTable, Client, PullLog, Server, Stage, run_protocol
from fedelim.seeding import PURPOSE_NOISE, substream
from pull_helpers import expand_pulls

SPEC = PartitionSpec(2)


def ramp_suite(clients=1, noise=0.0, seed=1, shift_std=0.0):
    base = BaseObjective(
        name="ramp",
        domain=BoxDomain([0.0], [1.0]),
        normalization_max=1.0,
        orientation=ORIENT_VALUE,
        raw_fn=lambda X: X[:, 0],
        known_optimum=np.array([1.0]),
    )
    return make_suite(base, clients=clients, shift_std=shift_std,
                      noise_halfwidth=noise, seed=seed)


def make_client(suite, conf, smooth, pe=False, m=1, seed=1):
    """A client in ``STAGE1``, or moved to ``PE`` at clock 0 when ``pe``."""
    client = Client(m, suite, CellTable(SPEC), conf, smooth, substream(seed, PURPOSE_NOISE, m))
    if pe:
        client.enter_pe()
    return client


SMOOTH = SmoothParams(nu1=1.0, rho=0.5, delta_gap=0.01)


def smooth_to(h0: int) -> SmoothParams:
    """``SMOOTH`` with the gap ``nu1 * rho**h0``, whose transition depth is exactly ``h0``.

    Only the transition depth reads the gap, so a run's pulls and bounds are ``SMOOTH``'s.
    """
    return SmoothParams(SMOOTH.nu1, SMOOTH.rho, SMOOTH.nu1 * SMOOTH.rho ** h0)


def personal_eliminations(result):
    return sum(len(e.eliminated) for events in result.client_events for e in events)


def rewards_by_node(log, suite, m, seed):
    """One client's rewards per node, in pull order."""
    out: dict[NodeId, list[float]] = {}
    depths, indices, rewards, _ = expand_pulls(log, suite, m, seed)
    for d, i, r in zip(depths, indices, rewards.tolist()):
        out.setdefault(NodeId(d, i), []).append(r)
    return out


class TestStage1Phase:
    def test_pull_count_accounting(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 100)
        client = make_client(suite, conf, SMOOTH)
        active = [NodeId(2, i) for i in range(1, 5)]
        report = client.run_stage1_phase(active, per_node_quota=1)
        assert client.stage is Stage.STAGE1
        assert client.clock == 4 and client.budget == 96
        assert set(report.entries) == set(active)
        assert all(pulls == 1 for _, pulls in report.entries.values())

    def test_noiseless_means_are_exact(self):
        suite = ramp_suite(noise=0.0)
        conf = ConfParams(0.1, 1.0, 0.1, 100)
        client = make_client(suite, conf, SMOOTH)
        active = [NodeId(2, i) for i in range(1, 5)]
        report = client.run_stage1_phase(active, per_node_quota=3)
        for node, (mean, _) in report.entries.items():
            # cell centers on [0,1] at depth 2: (2i-1)/8
            assert mean == (2 * node.index - 1) / 8

    def test_budget_truncation_mid_phase(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 2)
        client = make_client(suite, conf, SMOOTH)
        active = [NodeId(2, i) for i in range(1, 5)]
        assert client.run_stage1_phase(active, per_node_quota=1) is None
        assert client.stage is Stage.EXHAUSTED
        assert client.clock == 2
        # the two cells it cut the phase to, logged without a drawn sum
        assert [segment[:3] for segment in client.pull_log.segments] == [
            (NodeId(2, 1), 1, None), (NodeId(2, 2), 1, None)]

    def test_wrong_stage_fault(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 100)
        client = make_client(suite, conf, SMOOTH, pe=True)
        with pytest.raises(ProtocolFault):
            client.run_stage1_phase([ROOT], 1)


class TestServerStep:
    def test_single_client_elimination_example(self):
        # noiseless sibling means 0.9 / 0.2 at depth 3 with b <= 0.2875
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(CellTable(SPEC), conf, SMOOTH, clients=1)
        server.depth = 3
        server.active = [NodeId(3, 1), NodeId(3, 2)]
        pulls = tau(3, conf, SMOOTH)
        bound = confidence_bound(pulls, conf)
        assert bound <= 0.2875
        report = ClientReport(1, 3, {NodeId(3, 1): (0.9, pulls), NodeId(3, 2): (0.2, pulls)})
        broadcast = server.step([report], clock=pulls * 2)
        assert tuple(broadcast.stats) == (NodeId(3, 1),)
        assert server.comm_rounds[-1].eliminated == {NodeId(3, 2)}
        assert server.active == [NodeId(4, 1), NodeId(4, 2)]

    def test_equal_means_keep_everything(self):
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(CellTable(SPEC), conf, SMOOTH, clients=2)
        server.depth = 4
        server.active = [NodeId(4, 1), NodeId(4, 2), NodeId(4, 3)]
        reports = [
            ClientReport(m, 4, {n: (0.5, 7) for n in server.active}) for m in (1, 2)
        ]
        broadcast = server.step(reports, clock=0)
        assert tuple(broadcast.stats) == server.comm_rounds[-1].survivors
        assert len(broadcast.stats) == 3
        assert server.comm_rounds[-1].eliminated == frozenset()

    def test_singleton_active_set(self):
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(CellTable(SPEC), conf, SMOOTH, clients=1)
        report = ClientReport(1, 0, {ROOT: (0.4, 3)})
        broadcast = server.step([report], clock=3)
        assert tuple(broadcast.stats) == (ROOT,)
        assert server.active == [NodeId(1, 1), NodeId(1, 2)]

    def test_depth_mismatch_fault(self):
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(CellTable(SPEC), conf, SMOOTH, clients=1)
        with pytest.raises(ProtocolFault):
            server.step([ClientReport(1, 2, {ROOT: (0.4, 3)})], clock=0)

    @pytest.mark.parametrize("ids", [(1, 1), (1, 3)], ids=["repeated", "unknown"])
    def test_report_set_must_name_each_client_once(self, ids):
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(CellTable(SPEC), conf, SMOOTH, clients=2)
        reports = [ClientReport(m, 0, {ROOT: (mean, 3)}) for m, mean in zip(ids, (0.2, 0.9))]
        with pytest.raises(ProtocolFault, match="one report from each client 1..2"):
            server.step(reports, clock=0)
        assert server.comm_rounds == []

    def test_report_missing_an_active_cell_fault(self):
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(CellTable(SPEC), conf, SMOOTH, clients=1)
        server.depth = 1
        server.active = [NodeId(1, 1), NodeId(1, 2)]
        with pytest.raises(ProtocolFault, match="does not cover the active set"):
            server.step([ClientReport(1, 1, {NodeId(1, 1): (0.4, 3)})], clock=0)

    def test_scalar_accounting(self):
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(CellTable(SPEC), conf, SMOOTH, clients=3)
        reports = [ClientReport(m, 0, {ROOT: (0.5, 2)}) for m in (1, 2, 3)]
        server.step(reports, clock=2)
        rnd = server.comm_rounds[-1]
        assert rnd.scalars_up == 3 * 1 * 2   # one entry per client, (mean, pulls)
        assert rnd.scalars_down == 1 * 3     # (id, mean, bound) per survivor
        assert rnd.cumulative_scalars == rnd.scalars_up + rnd.scalars_down


class TestAbsorb:
    def _client_after_phase(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 1000)
        client = make_client(suite, conf, SMOOTH)
        client.run_stage1_phase([ROOT], per_node_quota=2)
        return client, conf

    def test_substitution_overwrites_local_stats(self):
        client, conf = self._client_after_phase()
        broadcast = ServerBroadcast(0, {ROOT: (0.42, 0.05)})
        client.absorb_broadcast(broadcast)
        stats = client.stats[ROOT]
        assert stats.mean == 0.42 and stats.bound == 0.05
        assert stats.pulls == 2  # local counts retained
        assert client.protected[0] == frozenset({ROOT})
        assert len(client.protected) == 1

    def test_unknown_node_fault(self):
        client, _ = self._client_after_phase()
        broadcast = ServerBroadcast(0, {NodeId(0, 1): (0.4, 0.1), NodeId(1, 1): (0.4, 0.1)})
        with pytest.raises(ProtocolFault):
            client.absorb_broadcast(broadcast)

    def test_broadcast_in_pe_fault(self):
        client, _ = self._client_after_phase()
        client.enter_pe()
        with pytest.raises(ProtocolFault, match="received a broadcast in stage"):
            client.absorb_broadcast(ServerBroadcast(0, {ROOT: (0.4, 0.1)}))

    def test_broadcast_of_the_wrong_depth_fault(self):
        client, _ = self._client_after_phase()
        with pytest.raises(ProtocolFault, match="at depth 0 received a depth-1 broadcast"):
            client.absorb_broadcast(ServerBroadcast(1, {ROOT: (0.4, 0.1)}))
        assert client.protected == {}

    def test_absorb_leaves_the_client_in_stage_one(self):
        # The driver, not the broadcast, moves a client to PE.
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 1000)
        client = make_client(suite, conf, SMOOTH)
        client.run_stage1_phase([ROOT], 1)
        client.absorb_broadcast(ServerBroadcast(0, {ROOT: (0.5, 0.1)}))
        kids = (NodeId(1, 1), NodeId(1, 2))
        client.run_stage1_phase(list(kids), 1)
        client.absorb_broadcast(ServerBroadcast(1, {k: (0.5, 0.1) for k in kids}))
        assert client.stage is Stage.STAGE1
        assert len(client.protected) == 2 and client.stage_transition_t is None


class TestPersonalElimination:
    def test_enter_pe_starts_from_the_root(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 50)
        client = make_client(suite, conf, SMOOTH, pe=True)
        assert client.stage is Stage.PE
        assert client.pe_depth == 0
        assert client.local_active == [ROOT]
        assert client.stage_transition_t == 0

    def test_protected_root_needs_no_sampling(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 1000)
        client = make_client(suite, conf, SMOOTH)
        client.run_stage1_phase([ROOT], 1)
        client.absorb_broadcast(ServerBroadcast(0, {ROOT: (0.5, 0.1)}))
        kids = (NodeId(1, 1), NodeId(1, 2))
        client.run_stage1_phase(list(kids), 1)
        client.absorb_broadcast(ServerBroadcast(1, {k: (0.5, 0.1) for k in kids}))
        client.enter_pe()
        clock_before = client.clock
        client.pe_step()  # depth 0: root protected, no pulls
        assert client.stage is Stage.PE
        assert client.clock == clock_before
        assert client.pe_depth == 1
        assert client.pe_events[-1].eliminated == frozenset()

    def test_threshold_carry_over_skips_sampling(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 1000)
        client = make_client(suite, conf, SMOOTH, pe=True)
        # preload 12 local pulls on the root; threshold at depth 0 is 1
        client._pull_cells([ROOT], [12])
        assert client.stats[ROOT].pulls == 12
        assert tau(0, conf, SMOOTH) <= 12
        clock_before = client.clock
        client.pe_step()
        assert client.stage is Stage.PE
        assert client.clock == clock_before

    def test_protected_node_can_dominate_elimination(self):
        # global-substituted (0.9, 0.02) vs local sibling (0.3, ...) at depth 3
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        client = make_client(suite, conf, SMOOTH, pe=True)
        client.pe_depth = 3
        good, bad = NodeId(3, 1), NodeId(3, 2)
        client.local_active = [good, bad]
        client.protected[3] = frozenset({good})
        client.stats[good] = NodeStats(40, None, 0.9, 0.02)
        pulls = tau(3, conf, SMOOTH)
        client.stats[bad] = NodeStats.from_counts(pulls, 0.3 * pulls, conf)
        assert client.stats[bad].bound + 0.3 + SMOOTH.slack(3) < 0.9 - 0.02
        client.pe_step()
        assert client.stage is Stage.PE
        event = client.pe_events[-1]
        assert event.best == good
        assert event.eliminated == frozenset({bad})
        assert client.local_active == [NodeId(4, 1), NodeId(4, 2)]

    def test_all_protected_depth_expands_without_pulls(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 1000)
        client = make_client(suite, conf, SMOOTH, pe=True)
        client.protected[0] = frozenset({ROOT})
        client.stats[ROOT] = NodeStats(5, None, 0.5, 0.1)
        client.pe_step()
        assert client.stage is Stage.PE
        assert client.clock == 0
        assert client.pe_events[-1].best == ROOT
        assert client.local_active == [NodeId(1, 1), NodeId(1, 2)]

    def test_budget_exhaustion_mid_depth(self):
        suite = ramp_suite()
        conf = ConfParams(0.5, 1.0, 0.1, 10)  # tau grows fast with c = 0.5
        smooth = SmoothParams(1.0, 0.5, 1.0)
        client = make_client(suite, conf, smooth, pe=True)
        client.run_pe(40)
        assert client.stage is Stage.EXHAUSTED
        assert client.clock == 10 and client.budget == 0


class TestFallback:
    def test_remaining_budget_lands_on_one_node(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 1000)
        smooth = SmoothParams(1.0, 0.5, 1.0)
        cap = 2
        # exact personal-elimination cost through depths 0 and 1, then 37 left
        t0, t1 = tau(0, conf, smooth), tau(1, conf, smooth)
        horizon = t0 + 2 * t1 + 37
        conf = ConfParams(0.1, 1.0, 0.1, horizon)
        client = make_client(suite, conf, smooth, pe=True)
        client.run_pe(cap)
        assert client.stage is Stage.EXHAUSTED
        assert client.budget == 0
        depths, indices, _, _ = expand_pulls(client.pull_log, suite, 1, 1)
        tail_nodes = set(zip(depths[-37:], indices[-37:]))
        assert len(tail_nodes) == 1
        (depth, index), = tail_nodes
        assert depth == cap
        # the winner descends from the best depth-1 cell [0.5, 1]
        assert index in (3, 4)

    def test_fallback_regret_is_constant_per_pull(self):
        suite = ramp_suite()
        smooth = SmoothParams(1.0, 0.5, 1.0)
        conf_probe = ConfParams(0.1, 1.0, 0.1, 1000)
        horizon = tau(0, conf_probe, smooth) + 2 * tau(1, conf_probe, smooth) + 12
        conf = ConfParams(0.1, 1.0, 0.1, horizon)
        client = make_client(suite, conf, smooth, pe=True)
        client.run_pe(2)
        _, _, _, regrets = expand_pulls(client.pull_log, suite, 1, 1)
        tail = regrets[-12:]
        assert len(tail) == 12 and len(set(tail.tolist())) == 1


class TestDrivenRuns:
    def test_synchrony_and_budget_conservation(self):
        suite = ramp_suite(clients=3, noise=0.1, seed=4)
        conf = ConfParams(0.1, 1.0, 1 / 3, 300)
        result = run_protocol(suite, SPEC, conf, smooth_to(3), variant="pfpne",
                              depth_cap=40, seed=4)
        for log in result.pull_logs:
            assert len(log) == 300
        assert result.stage_transition_t is not None

    @pytest.mark.parametrize("h0", [0, 1, 3])
    def test_driver_moves_clients_to_pe_after_round_h0(self, h0):
        suite = ramp_suite(clients=2, noise=0.1, seed=3)
        conf = ConfParams(0.1, 1.0, 0.5, 1000)
        result = run_protocol(suite, SPEC, conf, smooth_to(h0), variant="pfpne",
                              depth_cap=40, seed=3)
        # h0 = 0 means no collaborative round; otherwise rounds at depths 0..h0.
        assert [rnd.depth for rnd in result.comm_rounds] == (list(range(h0 + 1)) if h0 else [])
        assert result.stage_transition_t == (result.comm_rounds[-1].clock if h0 else 0)
        assert all(events for events in result.client_events)

    def test_one_noise_draw_per_phase_and_per_sampling_step(self, monkeypatch):
        draws = []  # the generator of every draw, in draw order
        drawn = {}  # each generator's state after its last draw
        draw = NoiseModel.draw

        def counted_draw(model, rng, n, **kwargs):
            out = draw(model, rng, n, **kwargs)
            draws.append(rng)
            drawn[id(rng)] = rng.bit_generator.state
            return out

        monkeypatch.setattr(NoiseModel, "draw", counted_draw)
        stage = []  # the stage function each cohort is pulled for, innermost last
        for owner, name in ((protocol, "stage1_cohort"), (protocol, "pe_cohort"),
                            (Client, "_spend_rest")):
            def named(*args, method=getattr(owner, name), name=name):
                stage.append(name)
                try:
                    return method(*args)
                finally:
                    stage.pop()
            monkeypatch.setattr(owner, name, named)
        calls = []  # (stage, pulls, segments, own draws, exhausted after) of each client's call
        pull = protocol.pull_cohort

        def counted_pull(cohort):
            before = [(client.clock, len(client.pull_log.segments)) for client, _, _ in cohort]
            start = len(draws)
            pull(cohort)
            for (client, _, _), (clock, segments) in zip(cohort, before):
                calls.append((stage[-1], client.clock - clock,
                              len(client.pull_log.segments) - segments,
                              sum(rng is client.rng for rng in draws[start:]),
                              client.stage is Stage.EXHAUSTED))

        monkeypatch.setattr(protocol, "pull_cohort", counted_pull)
        clients = record_clients(monkeypatch)
        # At horizon 1000 a pfpne run on garland exhausts its clients in a
        # stage-one phase; a larger gap moves the transition to depth 2 and
        # the end into a personal step; a depth cap of 5 leaves budget for
        # _spend_rest.  Each names the stages with calls that pull several
        # cells from their one draw.
        for ending, overrides, stages in [
                ("stage1_cohort", {}, {"stage1_cohort"}),
                ("pe_cohort", {"delta_gap": 0.3}, {"stage1_cohort", "pe_cohort"}),
                ("_spend_rest", {"depth_cap": 5}, {"stage1_cohort", "pe_cohort"})]:
            calls.clear()
            clients.clear()
            draws.clear()
            drawn.clear()
            run(ExperimentConfig(objective="garland", clients=2, horizon=1000, **overrides), 0)
            # a call that pulls draws once from its own client's generator,
            # unless it exhausts the client: then it draws nothing
            assert [taken for _, _, _, taken, _ in calls] == [
                int(pulls > 0 and not exhausted) for _, pulls, _, _, exhausted in calls], ending
            assert len(draws) == sum(taken for _, _, _, taken, _ in calls), ending
            # each client's one exhausting call pulls, and ends its run as named
            assert [(name, pulls > 0) for name, pulls, *_, exhausted in calls if exhausted] == [
                (ending, True)] * 2
            assert [c.rng.bit_generator.state for c in clients] == [
                drawn[id(c.rng)] for c in clients], ending
            assert {name for name, _, segments, taken, _ in calls
                    if segments > 1 and taken} == stages, ending

    @pytest.mark.parametrize("variant, depth_cap, message", [
        ("centralized", 40, "unknown variant 'centralized'"),
        ("pfpne", -1, "depth_cap must be at least 1, got -1"),
        ("global-only", -1, "depth_cap must be at least 1, got -1"),
        ("local-only", 0, "depth_cap must be at least 1, got 0"),
    ], ids=["unknown-variant", "pfpne-negative-cap", "global-only-negative-cap",
            "local-only-zero-cap"])
    def test_bad_schedule_is_rejected_before_any_client(self, variant, depth_cap, message,
                                                         monkeypatch):
        clients = record_clients(monkeypatch)
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.5, 100)
        with pytest.raises(ValueError, match=message):
            run_protocol(suite, SPEC, conf, SMOOTH, variant=variant, depth_cap=depth_cap, seed=0)
        assert clients == []

    def test_stage1_report_transcript_matches_direct_recomputation(self, monkeypatch):
        # noiseless two-client run; every message is recomputable by hand:
        # depth-h cell centers are (2i-1)/2^(h+1) and the ramp value equals x.
        # The messages are read where they exist, at the server step.
        messages = []
        step = Server.step

        def recording_step(server, reports, clock):
            broadcast = step(server, reports, clock)
            messages.append((reports, broadcast))
            return broadcast

        monkeypatch.setattr(Server, "step", recording_step)
        suite = ramp_suite(clients=2, noise=0.0, seed=6)
        conf = ConfParams(0.2, 1.0, 0.5, 400)
        smooth = SmoothParams(1.0, 0.5, 0.26)  # transition depth 2
        result = run_protocol(suite, SPEC, conf, smooth, variant="pfpne",
                              depth_cap=40, seed=6)
        assert result.h0 == 2
        # messages cover exactly the three collaborative depths
        assert [broadcast.depth for _, broadcast in messages] == [0, 1, 2]
        assert len(result.comm_rounds) == 3
        indices = [1]
        log_term = math.log(1.0 * 400 / 0.5)
        for depth, (reports, broadcast), rnd in zip((0, 1, 2), messages, result.comm_rounds):
            per_node = quota(tau(depth, conf, smooth), 2)
            centers = {i: (2 * i - 1) / 2 ** (depth + 1) for i in indices}
            assert [(r.client, r.depth) for r in reports] == [(1, depth), (2, depth)]
            for report in reports:
                # exact float equality: (mean, pulls) per cell, no other cells
                assert report.entries == {
                    NodeId(depth, i): (centers[i], per_node) for i in indices
                }
            pooled = 2 * per_node
            bound = 0.2 * math.sqrt(log_term / pooled)
            best_value = max(centers.values())
            survivors = [
                i for i in indices
                if not (centers[i] + bound + 0.5 ** depth < best_value - bound)
            ]
            assert tuple(broadcast.stats) == tuple(NodeId(depth, i) for i in survivors)
            assert broadcast.stats == {NodeId(depth, i): (centers[i], bound) for i in survivors}
            assert rnd.survivors == tuple(broadcast.stats)
            indices = [j for i in survivors for j in (2 * i - 1, 2 * i)]

    def test_round_records_are_self_consistent(self):
        base = make_base("garland")
        suite = make_suite(base, clients=3, shift_std=0.05, noise_halfwidth=0.1, seed=9)
        conf = ConfParams(0.1, 1.0, 1 / 3, 1500)
        result = run_protocol(suite, SPEC, conf, smooth_to(5), variant="pfpne",
                              depth_cap=40, seed=9)
        assert result.stage_transition_t is not None and personal_eliminations(result) > 0
        assert len(result.comm_rounds) == result.h0 + 1
        active = [ROOT]
        cumulative = 0
        for position, rnd in enumerate(result.comm_rounds):
            assert rnd.round_index == position + 1 and rnd.depth == position
            assert set(rnd.survivors).isdisjoint(rnd.eliminated)
            assert set(rnd.survivors) | rnd.eliminated == set(active)
            assert len(rnd.survivors) + len(rnd.eliminated) == len(active)
            assert rnd.scalars_up == 2 * 3 * len(active)
            assert rnd.scalars_down == 3 * len(rnd.survivors)
            cumulative += rnd.scalars_up + rnd.scalars_down
            assert rnd.cumulative_scalars == cumulative
            assert rnd.best in rnd.survivors
            active = sorted(c for n in rnd.survivors for c in children(n, SPEC))

    def test_protection_invariant_across_run(self):
        base = make_base("garland")
        suite = make_suite(base, clients=4, shift_std=0.05, noise_halfwidth=0.1, seed=8)
        conf = ConfParams(0.1, 1.0, 0.25, 2000)
        result = run_protocol(suite, SPEC, conf, smooth_to(5), variant="pfpne",
                              depth_cap=40, seed=8)
        assert personal_eliminations(result) > 0
        server_survivors = {e.depth: set(e.survivors) for e in result.comm_rounds}
        for events in result.client_events:
            for event in events:
                protected = server_survivors.get(event.depth, set())
                assert not (set(event.eliminated) & protected)

    def test_threshold_discipline(self):
        base = make_base("garland")
        suite = make_suite(base, clients=3, shift_std=0.05, noise_halfwidth=0.1, seed=9)
        conf = ConfParams(0.1, 1.0, 1 / 3, 1500)
        result = run_protocol(suite, SPEC, conf, smooth_to(5), variant="pfpne",
                              depth_cap=40, seed=9)
        assert personal_eliminations(result) > 0
        # own rewards per node per client, accumulated over the whole run
        own = [rewards_by_node(log, suite, m, 9) for m, log in enumerate(result.pull_logs, start=1)]
        server = {e.depth: e for e in result.comm_rounds}
        # the broadcast statistics, merged again from every client's pulls of the
        # survivors (protected cells are never pulled after stage one)
        merged = {}
        for e in result.comm_rounds:
            reports = [ClientReport(m, e.depth, {n: (float(np.sum(rw[n])) / len(rw[n]), len(rw[n]))
                                                 for n in e.survivors})
                       for m, rw in enumerate(own, start=1)]
            merged[e.depth] = merge_global(reports, conf)
        settled = 0
        for rewards, events in zip(own, result.client_events):
            for event in events:
                for node in event.eliminated:
                    pulls = len(rewards[node])
                    if pulls >= tau(event.depth, conf, SMOOTH):
                        continue
                    # below the threshold only a server-eliminated cell whose
                    # own stage-one statistics fail against the best protected cell
                    assert node in server[event.depth].eliminated
                    stats = dict(merged[event.depth])
                    ref = select_best(stats)
                    stats[node] = NodeStats.from_counts(pulls, float(np.sum(rewards[node])), conf)
                    assert eliminate(stats, [node], ref, event.depth, SMOOTH) == {node}
                    settled += 1
        assert settled > 0
        pooled: dict[NodeId, int] = {}
        for rewards in own:
            for node, rw in rewards.items():
                pooled[node] = pooled.get(node, 0) + len(rw)
        for event in result.comm_rounds:
            for node in event.eliminated:
                assert pooled[node] >= tau(event.depth, conf, SMOOTH)

    def test_communication_silence_after_transition(self):
        base = make_base("garland")
        suite = make_suite(base, clients=5, shift_std=0.05, noise_halfwidth=0.1, seed=10)
        conf = ConfParams(0.1, 1.0, 0.2, 5000)
        result = run_protocol(suite, SPEC, conf, smooth_to(5), variant="pfpne",
                              depth_cap=40, seed=10)
        assert result.stage_transition_t is not None
        for rnd in result.comm_rounds:
            assert rnd.clock <= result.stage_transition_t

    def test_noiseless_optimum_safety_small(self):
        base = make_base("garland")
        for seed in (0, 1):
            suite = make_suite(base, clients=5, shift_std=0.05, noise_halfwidth=0.0, seed=seed)
            conf = ConfParams(0.1, 1.0, 0.2, 3000)
            result = run_protocol(suite, SPEC, conf, smooth_to(5), variant="pfpne",
                                  depth_cap=40, seed=seed)
            assert personal_eliminations(result) > 0
            gx = suite.global_optimum.x
            for event in result.comm_rounds:
                assert node_containing(base.domain, gx, event.depth, SPEC) not in event.eliminated
            for m, events in enumerate(result.client_events, start=1):
                lx = suite.local_optima[m - 1].x
                for event in events:
                    assert node_containing(base.domain, lx, event.depth, SPEC) not in event.eliminated

    def test_regret_monotone_nondecreasing(self):
        base = make_base("doublesine")
        suite = make_suite(base, clients=3, shift_std=0.05, noise_halfwidth=0.1, seed=12)
        conf = ConfParams(0.1, 1.0, 1 / 3, 1000)
        result = run_protocol(suite, SPEC, conf, smooth_to(7), variant="pfpne",
                              depth_cap=40, seed=12)
        for m, log in enumerate(result.pull_logs, start=1):
            _, _, _, regrets = expand_pulls(log, suite, m, 12)
            assert len(regrets) == 1000 and np.all(regrets >= -1e-9)


def record_clients(monkeypatch, adjust=lambda client: None) -> list[Client]:
    """Collect every ``Client`` a run builds, each passed to ``adjust`` once built."""
    made = []
    init = Client.__init__

    def recording_init(client, *args, **kwargs):
        init(client, *args, **kwargs)
        adjust(client)
        made.append(client)

    monkeypatch.setattr(Client, "__init__", recording_init)
    return made


def two_client_config(horizon, variant="pfpne", **overrides):
    return ExperimentConfig(objective="garland", clients=2, horizon=horizon, noise=0.0,
                            variant=variant, **overrides)


class TestBudgetEnds:
    # At these horizons the budget ends exactly with a stage-one phase.
    @pytest.mark.parametrize("variant", ["pfpne", "global-only"])
    @pytest.mark.parametrize("horizon, rounds", [(23, 4), (79, 5), (629, 6)])
    def test_budget_ending_with_a_phase_exhausts_every_client(self, variant, horizon, rounds,
                                                              monkeypatch):
        clients = record_clients(monkeypatch)
        metrics = run(two_client_config(horizon, variant), 0)
        assert len(metrics.comm_rounds) == rounds
        assert metrics.comm_rounds[-1].clock == horizon
        assert metrics.stage_transition_t is None
        assert [len(log) for log in metrics.pull_logs] == [horizon, horizon]
        assert [c.stage for c in clients] == [Stage.EXHAUSTED, Stage.EXHAUSTED]
        assert [c.clock for c in clients] == [horizon, horizon]

    def test_clients_exhausting_in_different_phases_fault(self, monkeypatch):
        # Client 2 has one pull less, so it falls short in the last phase
        # that client 1 completes exactly.
        shorter = lambda c: setattr(c, "conf", dataclasses.replace(c.conf, horizon_T=22))
        record_clients(monkeypatch, lambda c: shorter(c) if c.m == 2 else None)
        with pytest.raises(ProtocolFault, match="clients exhausted asynchronously in stage one"):
            run(two_client_config(23), 0)

    def test_pull_cells_cuts_the_first_short_cell(self):
        client = make_client(ramp_suite(noise=0.1), ConfParams(0.1, 1.0, 0.1, 7), SMOOTH)
        cells = [NodeId(1, 1), NodeId(1, 2), NodeId(2, 1)]
        client._pull_cells(cells, [5, 5, 5])
        assert [(node, pulls) for node, pulls, _, _ in client.pull_log.segments] == [
            (cells[0], 5), (cells[1], 2)]
        assert cells[2] not in client.stats
        assert client.stage is Stage.EXHAUSTED
        assert client.clock == 7

    @pytest.mark.parametrize("clock", [0, 7])
    def test_pull_cells_skips_wants_of_zero_or_less(self, clock):
        client = make_client(ramp_suite(noise=0.1), ConfParams(0.1, 1.0, 0.1, 7), SMOOTH)
        client.clock = clock
        state = client.rng.bit_generator.state
        client._pull_cells([NodeId(1, 1), NodeId(1, 2)], [0, -3])
        assert client.pull_log.segments == [] and client.stats == {}
        assert client.rng.bit_generator.state == state  # no noise drawn
        assert client.stage is Stage.STAGE1
        assert client.clock == clock

    def test_pull_cells_cuts_a_saturated_want_at_the_budget(self):
        client = make_client(ramp_suite(noise=0.1), ConfParams(0.1, 1.0, 0.1, 7), SMOOTH)
        client._pull_cells([NodeId(1, 1), NodeId(1, 2), NodeId(2, 1)], [3, TAU_SATURATED, 1])
        assert [pulls for _, pulls, _, _ in client.pull_log.segments] == [3, 4]
        assert client.stage is Stage.EXHAUSTED
        assert client.clock == 7

    def test_unspent_budget_fault(self, monkeypatch):
        # The depth cap leaves budget over, which this _spend_rest never pulls.
        monkeypatch.setattr(Client, "_spend_rest",
                            lambda client, frontier: setattr(client, "stage", Stage.EXHAUSTED))
        with pytest.raises(ProtocolFault, match=r"client 1 consumed \d+ pulls out of 1000"):
            run(two_client_config(1000, depth_cap=5), 0)

    def test_transition_disagreement_fault(self, monkeypatch):
        enter_pe = Client.enter_pe

        def late_enter_pe(client):
            enter_pe(client)
            client.stage_transition_t += client.m

        monkeypatch.setattr(Client, "enter_pe", late_enter_pe)
        with pytest.raises(ProtocolFault, match="clients disagree on the stage transition time"):
            run(two_client_config(1000, depth_cap=5), 0)


def per_cell_pulls(suite, m, seed, nodes, counts, spec=SPEC):
    """Client ``m``'s segments for ``counts`` pulls of ``nodes``, one cell at a time.

    One draw of every pull from the client's noise substream, then per cell:
    its slice plus its value, summed on its own.  This is the reference the
    blocked sums must match bit for bit.
    """
    noise = suite.noise.draw(substream(seed, PURPOSE_NOISE, m), sum(counts))
    segments, offset = [], 0
    for node, n in zip(nodes, counts):
        value = suite.eval_local(m, representative(suite.domain, node, spec))
        rewards = noise[offset:offset + n] + value
        segments.append((node, n, float(rewards.sum()), suite.local_optima[m - 1].value - value))
        offset += n
    return segments


class TestBlockedPulls:
    @pytest.mark.parametrize("k", [1, 7, 8, 9, 128, 8192, 8193, 100000])
    def test_block_row_sums_equal_each_cell_slice_sum(self, k):
        # A block of r cells x k pulls is summed as a 2-D view at some offset
        # into the call's draw; every row must reduce as its 1-D slice does.
        rng = np.random.default_rng(k)
        flat = rng.uniform(-0.5, 0.5, size=5 * k + 3)
        for r in range(1, 6):
            for offset in (0, 1, 3):
                rows = flat[offset:offset + r * k].reshape(r, k)
                assert rows.sum(axis=1).tolist() == [
                    float(flat[offset + i * k:offset + (i + 1) * k].sum()) for i in range(r)]

    # Counts past 8 matter: below that, a pairwise sum is a plain loop.
    @pytest.mark.parametrize("horizon, wants, counts, exhausted", [
        (100, [5, 5, 3, 3, 3, 7], [5, 5, 3, 3, 3, 7], False),   # three blocks
        (9000, [500, 500, 130, 130, 130, 7000], [500, 500, 130, 130, 130, 7000], False),
        (1300, [500, 500, 130, 130, 130, 7000], [500, 500, 130, 130, 40], True),  # cut in a block
        (3000, [500, 500, TAU_SATURATED, 3], [500, 500, 2000], True),  # saturated: the rest
        (9000, [40, 0, 40, -2, 40, 40], [40, 0, 40, 0, 40, 40], False),  # skipped cells
        (9000, [500, 500, 130, 130, 40], [500, 500, 130, 130, 40], False),  # a short last block
    ])
    def test_pull_cells_matches_a_per_cell_reference(self, horizon, wants, counts, exhausted):
        suite = make_suite(make_base("garland"), clients=3, shift_std=0.05,
                           noise_halfwidth=0.1, seed=4)
        conf = ConfParams(0.1, 1.0, 0.1, horizon)
        nodes = [NodeId(3, i) for i in (2, 3, 5, 6, 7, 8)]
        client = make_client(suite, conf, SMOOTH, m=2, seed=4)
        state = client.rng.bit_generator.state
        client._pull_cells(nodes, wants)
        pulled = [(node, n) for node, n in zip(nodes, counts) if n]
        expected = per_cell_pulls(suite, 2, 4, *zip(*pulled))
        if exhausted:  # the client's last call: no draw, no sum, no statistics
            assert client.pull_log.segments == [(node, n, None, regret)
                                                 for node, n, _, regret in expected]
            assert client.stats == {}
            assert client.rng.bit_generator.state == state
        else:
            assert client.pull_log.segments == expected
            assert client.stats == {node: NodeStats.from_counts(n, total, conf)
                                    for node, n, total, _ in expected}
        assert client.clock == sum(counts)
        assert client.stage is (Stage.EXHAUSTED if exhausted else Stage.STAGE1)


class TestPullLogSteps:
    @pytest.mark.parametrize("start", [4, 6], ids=["overlap", "gap"])
    def test_a_call_must_continue_the_log(self, start):
        log = PullLog()
        log.append_batch([(ROOT, 5, 2.5, 0.1)], range(5))
        with pytest.raises(ProtocolFault, match=f"a call at pull {start} does not follow pull 5"):
            log.append_batch([(ROOT, 2, None, 0.1)], range(start, start + 2))
        assert len(log) == 5 and log.segments == [(ROOT, 5, 2.5, 0.1)]
        log.append_batch([(ROOT, 2, None, 0.1)], range(5, 7))
        assert len(log) == 7

    @pytest.mark.parametrize("stop", [2, 4], ids=["short", "long"])
    def test_segments_must_account_for_every_pull_of_the_call(self, stop):
        log = PullLog()
        with pytest.raises(ProtocolFault, match="segments do not account for every pull"):
            log.append_batch([(ROOT, 3, 1.5, 0.1)], range(stop))
        assert len(log) == 0 and log.segments == []


def step_alone(suite, spec, conf, smooth, variant, depth_cap, seed):
    """``run_protocol``'s schedule, each client stepped alone through the one-client methods.

    Returns the clients and the server.
    """
    if variant == "pfpne":
        h0 = min(transition_depth(smooth), depth_cap)
    else:
        h0 = depth_cap if variant == "global-only" else 0
    rounds = h0 + 1 if h0 or variant == "global-only" else 0
    table = CellTable(spec)
    clients = [Client(m, suite, table, conf, smooth, substream(seed, PURPOSE_NOISE, m))
               for m in range(1, suite.clients + 1)]
    server = Server(table, conf, smooth, suite.clients)
    while clients[0].stage is Stage.STAGE1 and server.depth < rounds:
        per_node = quota(tau(server.depth, conf, smooth), suite.clients)
        reports = [client.run_stage1_phase(server.active, per_node) for client in clients]
        if clients[0].stage is Stage.EXHAUSTED:
            break
        broadcast = server.step(reports, clock=clients[0].clock)
        for client in clients:
            client.absorb_broadcast(broadcast)
    for client in clients:
        if client.stage is Stage.STAGE1 and variant != "global-only":
            client.enter_pe()
        if client.stage is Stage.PE:
            client.run_pe(depth_cap)
        elif client.stage is Stage.STAGE1:
            client.finish_stage1_only()
    return clients, server


def client_record(client):
    return (client.pull_log.segments, client.stats, client.pe_events,
            client.rng.bit_generator.state, client.clock, client.stage_transition_t)


class TestCohortSteps:
    """``run_protocol`` steps a round's or depth's clients at once; alone, each ends the same."""

    def run_both(self, monkeypatch, config, seed=1):
        """The clients of ``run`` on ``config``, and those of ``step_alone`` on the same suite."""
        clients = record_clients(monkeypatch)
        metrics = run(config, seed)
        driven = list(clients)
        alone, server = step_alone(metrics.suite, config.spec, config.conf, config.smooth,
                                   config.variant, config.depth_cap, seed)
        assert server.comm_rounds == metrics.comm_rounds
        assert [client_record(c) for c in driven] == [client_record(c) for c in alone]
        return driven

    # At these horizons, 20 clients with noise exhaust at personal depths 7 and 8.
    @pytest.mark.parametrize("noise", [0.1, 0.0, -0.0], ids=["noisy", "zero", "negative-zero"])
    @pytest.mark.parametrize("variant", ["pfpne", "global-only", "local-only"])
    @pytest.mark.parametrize("clients", [1, 3, 20])
    @pytest.mark.parametrize("objective, horizon", [("garland", 20000), ("himmelblau", 60000)])
    def test_cohort_steps_match_clients_stepped_alone(self, objective, horizon, clients, variant,
                                                     noise, monkeypatch):
        config = ExperimentConfig(objective=objective, clients=clients, horizon=horizon,
                                  variant=variant, noise=noise, seeds=(1,))
        driven = self.run_both(monkeypatch, config)
        if noise == 0.0:  # no step touches a generator
            assert [c.rng.bit_generator.state for c in driven] == [
                substream(1, PURPOSE_NOISE, c.m).bit_generator.state for c in driven]
        elif clients == 20 and variant != "global-only":
            assert len({c.pe_depth for c in driven}) > 1

    @pytest.mark.parametrize("variant", ["pfpne", "global-only", "local-only"])
    @pytest.mark.parametrize("clients", [3, 20])
    @pytest.mark.parametrize("objective", ["garland", "himmelblau"])
    def test_depth_cap_spends_the_rest_as_alone(self, objective, clients, variant, monkeypatch):
        spent = []
        spend_rest = Client._spend_rest
        monkeypatch.setattr(Client, "_spend_rest",
                            lambda c, frontier: spent.append(c.budget) or spend_rest(c, frontier))
        config = ExperimentConfig(objective=objective, clients=clients, horizon=4000,
                                  variant=variant, depth_cap=2, seeds=(1,))
        self.run_both(monkeypatch, config)
        # every client of both runs spends a rest, cohort first
        assert len(spent) == 2 * clients and min(spent) > 0

    @pytest.mark.parametrize("cap", [50, protocol.BUFFER_DOUBLES])
    @pytest.mark.parametrize("variant", ["pfpne", "local-only"])
    def test_calls_longer_than_the_buffer_and_calls_sharing_one(self, cap, variant, monkeypatch):
        monkeypatch.setattr(protocol, "BUFFER_DOUBLES", cap)
        buffers = []  # (calls, doubles) of each buffer
        draw_and_sum = protocol._draw_and_sum
        monkeypatch.setattr(protocol, "_draw_and_sum", lambda group, size, noise: buffers.append(
            (len(group), size)) or draw_and_sum(group, size, noise))
        horizon = 20000 if cap == 50 else 1_000_000
        config = ExperimentConfig(objective="garland", clients=3, horizon=horizon,
                                  variant=variant, seeds=(1,))
        self.run_both(monkeypatch, config)
        assert any(calls == 1 and size > cap for calls, size in buffers)
        assert any(calls > 1 for calls, _ in buffers)
        assert all(size <= cap for calls, size in buffers if calls > 1)
