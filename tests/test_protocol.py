"""Protocol state machines: stage-one phases, broadcasts, PE, fallback."""
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
    confidence_bound,
    eliminate,
    merge_global,
    quota,
    select_best,
    tau,
)
from fedelim.objectives import BaseObjective, ORIENT_VALUE, make_base, make_suite
from fedelim.partition import ROOT, BoxDomain, NodeId, PartitionSpec, children, node_containing
from fedelim.protocol import Client, Server, Stage, run_protocol
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


def make_client(suite, conf, smooth, h0=3, depth_cap=40, pe_enabled=True, m=1, seed=1):
    return Client(m, suite, SPEC, conf, smooth, h0, depth_cap, pe_enabled,
                  substream(seed, PURPOSE_NOISE, m), {})


SMOOTH = SmoothParams(nu1=1.0, rho=0.5, delta_gap=0.01)


def personal_eliminations(result):
    return sum(len(e.eliminated) for events in result.client_events for e in events)


def rewards_by_node(log):
    """One client's rewards per node, in pull order."""
    out: dict[NodeId, list[float]] = {}
    depths, indices, rewards, _ = expand_pulls(log)
    for d, i, r in zip(depths, indices, rewards.tolist()):
        out.setdefault(NodeId(d, i), []).append(r)
    return out


class TestStage1Phase:
    def test_pull_count_accounting(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 100)
        client = make_client(suite, conf, SMOOTH)
        active = [NodeId(2, i) for i in range(1, 5)]
        report, completed = client.run_stage1_phase(active, per_node_quota=1)
        assert completed
        assert client.clock == 4 and client.budget == 96
        assert set(report.entries) == set(active)
        assert all(pulls == 1 for _, pulls in report.entries.values())

    def test_noiseless_means_are_exact(self):
        suite = ramp_suite(noise=0.0)
        conf = ConfParams(0.1, 1.0, 0.1, 100)
        client = make_client(suite, conf, SMOOTH)
        active = [NodeId(2, i) for i in range(1, 5)]
        report, _ = client.run_stage1_phase(active, per_node_quota=3)
        for node, (mean, _) in report.entries.items():
            # cell centers on [0,1] at depth 2: (2i-1)/8
            assert mean == (2 * node.index - 1) / 8

    def test_budget_truncation_mid_phase(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 2)
        client = make_client(suite, conf, SMOOTH)
        active = [NodeId(2, i) for i in range(1, 5)]
        report, completed = client.run_stage1_phase(active, per_node_quota=1)
        assert not completed
        assert client.stage is Stage.EXHAUSTED
        assert client.clock == 2
        assert set(report.entries) == {NodeId(2, 1), NodeId(2, 2)}

    def test_wrong_stage_fault(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 100)
        client = make_client(suite, conf, SMOOTH, h0=0)  # starts in PE
        with pytest.raises(ProtocolFault):
            client.run_stage1_phase([ROOT], 1)


class TestServerStep:
    def test_single_client_elimination_example(self):
        # noiseless sibling means 0.9 / 0.2 at depth 3 with b <= 0.2875
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(SPEC, conf, SMOOTH, clients=1)
        server.depth = 3
        server.active = [NodeId(3, 1), NodeId(3, 2)]
        pulls = tau(3, conf, SMOOTH)
        bound = confidence_bound(pulls, conf)
        assert bound <= 0.2875
        report = ClientReport(1, 3, {NodeId(3, 1): (0.9, pulls), NodeId(3, 2): (0.2, pulls)})
        broadcast = server.step([report], clock=pulls * 2)
        assert broadcast.survivors == (NodeId(3, 1),)
        assert server.comm_rounds[-1].eliminated == {NodeId(3, 2)}
        assert server.active == [NodeId(4, 1), NodeId(4, 2)]

    def test_equal_means_keep_everything(self):
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(SPEC, conf, SMOOTH, clients=2)
        server.depth = 4
        server.active = [NodeId(4, 1), NodeId(4, 2), NodeId(4, 3)]
        reports = [
            ClientReport(m, 4, {n: (0.5, 7) for n in server.active}) for m in (1, 2)
        ]
        broadcast = server.step(reports, clock=0)
        assert broadcast.survivors == server.comm_rounds[-1].survivors
        assert len(broadcast.survivors) == 3
        assert server.comm_rounds[-1].eliminated == frozenset()

    def test_singleton_active_set(self):
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(SPEC, conf, SMOOTH, clients=1)
        report = ClientReport(1, 0, {ROOT: (0.4, 3)})
        broadcast = server.step([report], clock=3)
        assert broadcast.survivors == (ROOT,)
        assert server.active == [NodeId(1, 1), NodeId(1, 2)]

    def test_depth_mismatch_fault(self):
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(SPEC, conf, SMOOTH, clients=1)
        with pytest.raises(ProtocolFault):
            server.step([ClientReport(1, 2, {ROOT: (0.4, 3)})], clock=0)

    def test_scalar_accounting(self):
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        server = Server(SPEC, conf, SMOOTH, clients=3)
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
        client = make_client(suite, conf, SMOOTH, h0=3)
        client.run_stage1_phase([ROOT], per_node_quota=2)
        return client, conf

    def test_substitution_overwrites_local_stats(self):
        client, conf = self._client_after_phase()
        broadcast = ServerBroadcast(0, (ROOT,), {ROOT: (0.42, 0.05)})
        client.absorb_broadcast(broadcast)
        stats = client.stats[ROOT]
        assert stats.mean == 0.42 and stats.bound == 0.05
        assert stats.pulls == 2  # local counts retained
        assert client.protected[0] == frozenset({ROOT})
        assert client.depth == 1

    def test_unknown_node_fault(self):
        client, _ = self._client_after_phase()
        broadcast = ServerBroadcast(0, (NodeId(0, 1), NodeId(1, 1)),
                                    {NodeId(0, 1): (0.4, 0.1), NodeId(1, 1): (0.4, 0.1)})
        with pytest.raises(ProtocolFault):
            client.absorb_broadcast(broadcast)

    def test_transition_to_pe_after_last_depth(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 1000)
        client = make_client(suite, conf, SMOOTH, h0=0 + 1)
        client.run_stage1_phase([ROOT], 1)
        client.absorb_broadcast(ServerBroadcast(0, (ROOT,), {ROOT: (0.5, 0.1)}))
        assert client.stage is Stage.STAGE1  # depth 1 == h0, still collaborative
        kids = (NodeId(1, 1), NodeId(1, 2))
        client.run_stage1_phase(list(kids), 1)
        client.absorb_broadcast(ServerBroadcast(1, kids, {k: (0.5, 0.1) for k in kids}))
        assert client.stage is Stage.PE
        assert client.pe_depth == 0
        assert client.local_active == [ROOT]
        assert client.stage_transition_t == client.clock


class TestPersonalElimination:
    def test_pe_from_start_when_gap_dominates(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 50)
        client = make_client(suite, conf, SMOOTH, h0=0)
        assert client.stage is Stage.PE
        assert client.stage_transition_t == 0

    def test_protected_root_needs_no_sampling(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 1000)
        client = make_client(suite, conf, SMOOTH, h0=1)
        client.run_stage1_phase([ROOT], 1)
        client.absorb_broadcast(ServerBroadcast(0, (ROOT,), {ROOT: (0.5, 0.1)}))
        kids = (NodeId(1, 1), NodeId(1, 2))
        client.run_stage1_phase(list(kids), 1)
        client.absorb_broadcast(ServerBroadcast(1, kids, {k: (0.5, 0.1) for k in kids}))
        clock_before = client.clock
        assert client.pe_step()  # depth 0: root protected, no pulls
        assert client.clock == clock_before
        assert client.pe_depth == 1
        assert client.pe_events[-1].eliminated == frozenset()

    def test_threshold_carry_over_skips_sampling(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 1000)
        client = make_client(suite, conf, SMOOTH, h0=0)
        # preload 12 local pulls on the root; threshold at depth 0 is 1
        client._pull_batch(ROOT, 12)
        assert client.stats[ROOT].pulls == 12
        assert tau(0, conf, SMOOTH) <= 12
        clock_before = client.clock
        assert client.pe_step()
        assert client.clock == clock_before

    def test_protected_node_can_dominate_elimination(self):
        # global-substituted (0.9, 0.02) vs local sibling (0.3, ...) at depth 3
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 10_000)
        client = make_client(suite, conf, SMOOTH, h0=0)
        client.pe_depth = 3
        good, bad = NodeId(3, 1), NodeId(3, 2)
        client.local_active = [good, bad]
        client.protected[3] = frozenset({good})
        client.stats[good] = NodeStats(40, None, 0.9, 0.02)
        pulls = tau(3, conf, SMOOTH)
        client.stats[bad] = NodeStats.from_counts(pulls, 0.3 * pulls, conf)
        assert client.stats[bad].bound + 0.3 + SMOOTH.slack(3) < 0.9 - 0.02
        assert client.pe_step()
        event = client.pe_events[-1]
        assert event.best == good
        assert event.eliminated == frozenset({bad})
        assert client.local_active == [NodeId(4, 1), NodeId(4, 2)]

    def test_all_protected_depth_expands_without_pulls(self):
        suite = ramp_suite()
        conf = ConfParams(0.1, 1.0, 0.1, 1000)
        client = make_client(suite, conf, SMOOTH, h0=0)
        client.protected[0] = frozenset({ROOT})
        client.stats[ROOT] = NodeStats(5, None, 0.5, 0.1)
        assert client.pe_step()
        assert client.clock == 0
        assert client.pe_events[-1].best is None
        assert client.local_active == [NodeId(1, 1), NodeId(1, 2)]

    def test_budget_exhaustion_mid_depth(self):
        suite = ramp_suite()
        conf = ConfParams(0.5, 1.0, 0.1, 10)  # tau grows fast with c = 0.5
        smooth = SmoothParams(1.0, 0.5, 1.0)
        client = make_client(suite, conf, smooth, h0=0)
        client.run_pe()
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
        client = make_client(suite, conf, smooth, h0=0, depth_cap=cap)
        client.run_pe()
        assert client.stage is Stage.EXHAUSTED
        assert client.budget == 0
        depths, indices, _, _ = expand_pulls(client.pull_log)
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
        client = make_client(suite, conf, smooth, h0=0, depth_cap=2)
        client.run_pe()
        _, _, _, regrets = expand_pulls(client.pull_log)
        tail = regrets[-12:]
        assert len(tail) == 12 and len(set(tail.tolist())) == 1


class TestDrivenRuns:
    def test_synchrony_and_budget_conservation(self):
        suite = ramp_suite(clients=3, noise=0.1, seed=4)
        conf = ConfParams(0.1, 1.0, 1 / 3, 300)
        result = run_protocol(suite, SPEC, conf, SMOOTH, h0=3, pe_enabled=True,
                              depth_cap=40, seed=4)
        for log in result.pull_logs:
            assert len(log) == 300
        assert result.stage_transition_t is not None

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
        result = run_protocol(suite, SPEC, conf, smooth, h0=2, pe_enabled=True,
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
            assert broadcast.survivors == tuple(NodeId(depth, i) for i in survivors)
            assert broadcast.stats == {NodeId(depth, i): (centers[i], bound) for i in survivors}
            assert rnd.survivors == broadcast.survivors
            indices = [j for i in survivors for j in (2 * i - 1, 2 * i)]

    def test_round_records_are_self_consistent(self):
        base = make_base("garland")
        suite = make_suite(base, clients=3, shift_std=0.05, noise_halfwidth=0.1, seed=9)
        conf = ConfParams(0.1, 1.0, 1 / 3, 1500)
        result = run_protocol(suite, SPEC, conf, SMOOTH, h0=5, pe_enabled=True,
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
        result = run_protocol(suite, SPEC, conf, SMOOTH, h0=5, pe_enabled=True,
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
        result = run_protocol(suite, SPEC, conf, SMOOTH, h0=5, pe_enabled=True,
                              depth_cap=40, seed=9)
        assert personal_eliminations(result) > 0
        # own rewards per node per client, accumulated over the whole run
        own = [rewards_by_node(log) for log in result.pull_logs]
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
        result = run_protocol(suite, SPEC, conf, SMOOTH, h0=5, pe_enabled=True,
                              depth_cap=40, seed=10)
        assert result.stage_transition_t is not None
        for rnd in result.comm_rounds:
            assert rnd.clock <= result.stage_transition_t

    def test_noiseless_optimum_safety_small(self):
        base = make_base("garland")
        for seed in (0, 1):
            suite = make_suite(base, clients=5, shift_std=0.05, noise_halfwidth=0.0, seed=seed)
            conf = ConfParams(0.1, 1.0, 0.2, 3000)
            result = run_protocol(suite, SPEC, conf, SMOOTH, h0=5, pe_enabled=True,
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
        result = run_protocol(suite, SPEC, conf, SMOOTH, h0=7, pe_enabled=True,
                              depth_cap=40, seed=12)
        for log in result.pull_logs:
            _, _, _, regrets = expand_pulls(log)
            assert len(regrets) == 1000 and np.all(regrets >= -1e-9)
