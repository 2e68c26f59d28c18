"""Two-stage federated elimination protocol over a hierarchical partition.

Stage one is collaborative: the server walks the partition depth by depth,
each client samples every active cell a per-client share of the depth
threshold, the server merges the reports, eliminates cells whose optimistic
value falls below the best cell, and broadcasts the survivors with their
merged statistics.  Clients overwrite their local estimates of surviving
cells with the broadcast values; those cells are *protected* from then on.

Once the cell resolution drops below the optimal-value gap bound, every
client restarts from the root on its own (personalized elimination).  A cell
the server eliminated is first re-checked on the client's own stage-one
pulls against the best protected cell; if that test eliminates it, no
further pulls are spent on it.  Every other unprotected cell is sampled up
to the full depth threshold from the client's own budget, the best cell is
chosen over protected and local cells alike, and only unprotected cells may
be eliminated.  A cell thus disappears for a client only after failing both
the collaborative test and a personal test on the client's own rewards.

The driver is synchronous and deterministic: given a suite and a master
seed, every pull, message and elimination event is reproducible.  Each
client's pull log keeps one segment per batch (the cell, the batch's reward
array and their shared instant regret), not one entry per pull.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fedcore import (
    ClientReport,
    ConfParams,
    NodeStats,
    ProtocolFault,
    ServerBroadcast,
    SmoothParams,
    eliminate,
    merge_global,
    quota,
    select_best,
    tau,
)
from .objectives import ObjectiveSuite
from .partition import ROOT, NodeId, PartitionSpec, children, parent, representative
from .seeding import PURPOSE_NOISE, substream


class Stage(enum.Enum):
    STAGE1 = "stage1"
    PE = "pe"
    EXHAUSTED = "exhausted"


class PullLog:
    """One client's pulls, stored as one segment per batch.

    Every pull of a batch hits the same cell, so a segment is the cell, the
    batch's reward array and the instant regret shared by all its pulls.
    Per-pull sequences are expanded only when asked for.
    """

    def __init__(self):
        self.segments: list[tuple[NodeId, np.ndarray, float]] = []

    def append_batch(self, node: NodeId, rewards: np.ndarray, instant_regret: float) -> None:
        self.segments.append((node, rewards, instant_regret))

    def __len__(self) -> int:
        return sum(len(rewards) for _, rewards, _ in self.segments)

    def regret_array(self) -> np.ndarray:
        """Instant regret of every pull, in pull order."""
        regrets = [regret for _, _, regret in self.segments]
        counts = [len(rewards) for _, rewards, _ in self.segments]
        return np.repeat(np.asarray(regrets, dtype=float), counts)


@dataclass
class EliminationEvent:
    """One elimination decision at one depth: a client's personal step, or a server round's."""

    depth: int
    best: NodeId | None
    eliminated: frozenset[NodeId]
    survivors: tuple[NodeId, ...]


@dataclass
class CommRound(EliminationEvent):
    """One server round: its elimination decision, what moved up and down, and when."""

    round_index: int
    scalars_up: int
    scalars_down: int
    cumulative_scalars: int
    clock: int


class Server:
    """Merges client reports, eliminates, and broadcasts survivors."""

    def __init__(self, spec: PartitionSpec, conf: ConfParams, smooth: SmoothParams, clients: int):
        self.spec = spec
        self.conf = conf
        self.smooth = smooth
        self.clients = clients
        self.depth = 0
        self.active: list[NodeId] = [ROOT]
        self.comm_rounds: list[CommRound] = []

    def step(self, reports: list[ClientReport], clock: int) -> ServerBroadcast:
        """Process one depth: merge, eliminate, broadcast, expand."""
        if len(reports) != self.clients:
            raise ProtocolFault(f"expected {self.clients} reports, got {len(reports)}")
        for report in reports:
            if report.depth != self.depth:
                raise ProtocolFault(
                    f"client {report.client} reported depth {report.depth}, server is at {self.depth}"
                )
            if set(report.entries) != set(self.active):
                raise ProtocolFault(f"client {report.client} report does not cover the active set")
        merged = merge_global(reports, self.conf)
        best = select_best(merged)
        removed = eliminate(merged, set(self.active), best, self.depth, self.smooth)
        survivors = tuple(n for n in self.active if n not in removed)
        stats = {n: (merged[n].mean, merged[n].bound) for n in survivors}

        up = sum(len(r.entries) for r in reports) * 2
        down = len(survivors) * 3
        before = self.comm_rounds[-1].cumulative_scalars if self.comm_rounds else 0
        self.comm_rounds.append(CommRound(
            depth=self.depth,
            best=best,
            eliminated=frozenset(removed),
            survivors=survivors,
            round_index=len(self.comm_rounds) + 1,
            scalars_up=up,
            scalars_down=down,
            cumulative_scalars=before + up + down,
            clock=clock,
        ))

        broadcast = ServerBroadcast(depth=self.depth, survivors=survivors, stats=stats)
        self.active = sorted(c for n in survivors for c in children(n, self.spec))
        self.depth += 1
        return broadcast


class Client:
    """One client's state machine across both stages."""

    def __init__(self, m: int, suite: ObjectiveSuite, spec: PartitionSpec,
                 conf: ConfParams, smooth: SmoothParams, h0: int, depth_cap: int,
                 pe_enabled: bool, rng: np.random.Generator,
                 cell_values: dict[NodeId, np.ndarray]):
        self.m = m
        self.suite = suite
        self.spec = spec
        self.conf = conf
        self.smooth = smooth
        self.h0 = h0
        self.depth_cap = depth_cap
        self.pe_enabled = pe_enabled
        self.rng = rng
        self.f_star = suite.local_star(m)

        self.clock = 0
        self.depth = 0
        self.pe_depth = 0
        self.stats: dict[NodeId, NodeStats] = {}
        self.protected: dict[int, frozenset[NodeId]] = {}
        self.local_active: list[NodeId] = [ROOT]
        self.pull_log = PullLog()
        self.pe_events: list[EliminationEvent] = []
        self.stage = Stage.STAGE1
        self.stage_transition_t: int | None = None
        self.cell_values = cell_values  # the run's table: cell -> every client's value

        if h0 == 0 and pe_enabled:
            # The gap bound already swamps the root resolution: no
            # collaborative stage at all, personal elimination from pull one.
            self._enter_pe()

    @property
    def budget(self) -> int:
        """Pulls left: the horizon minus the clock."""
        return self.conf.horizon_T - self.clock

    # ---- shared pull machinery ------------------------------------------

    def _cell_value(self, node: NodeId) -> float:
        values = self.cell_values.get(node)
        if values is None:
            point = representative(self.suite.domain, node, self.spec)
            values = self.cell_values[node] = self.suite.eval_clients(point)
        return float(values[self.m - 1])

    def _pull_batch(self, node: NodeId, n: int) -> None:
        value = self._cell_value(node)
        rewards = value + self.suite.noise.draw(self.rng, n)
        instant = self.f_star - value
        self.pull_log.append_batch(node, rewards, instant)
        prev = self.stats.get(node)
        if prev is None:
            pulls, total = n, float(rewards.sum())
        else:
            pulls, total = prev.pulls + n, prev.reward_sum + float(rewards.sum())
        self.stats[node] = NodeStats.from_counts(pulls, total, self.conf)
        self.clock += n

    def _pull_up_to(self, node: NodeId, n: int) -> bool:
        """Pull ``node`` up to ``n`` times; False, and exhausted, if the budget fell short."""
        k = min(n, self.budget)
        if k > 0:
            self._pull_batch(node, k)
        if k < n:
            self.stage = Stage.EXHAUSTED
            return False
        return True

    def _spend_rest(self, frontier: list[NodeId]) -> None:
        """Spend the remaining budget on the frontier cell with the best ancestor mean.

        Ties go to the first cell of ``frontier``.
        """
        if self.budget > 0:
            self._pull_batch(max(frontier, key=self._ancestor_mean), self.budget)
        self.stage = Stage.EXHAUSTED

    # ---- collaborative stage --------------------------------------------

    def run_stage1_phase(self, active: list[NodeId], per_node_quota: int) -> tuple[ClientReport, bool]:
        """Pull every active cell ``per_node_quota`` times, in index order.

        On budget exhaustion the client freezes mid-phase and reports only
        the cells it actually pulled; the caller treats that as the end of
        the run (schedules are identical across clients, so exhaustion is
        simultaneous).
        """
        if self.stage != Stage.STAGE1:
            raise ProtocolFault(f"client {self.m} cannot sample stage one in stage {self.stage}")
        entries: dict[NodeId, tuple[float, int]] = {}
        for node in active:
            completed = self._pull_up_to(node, per_node_quota)
            if node in self.stats:
                s = self.stats[node]
                entries[node] = (s.mean, s.pulls)
            if not completed:
                break
        return ClientReport(client=self.m, depth=self.depth, entries=entries), self.stage == Stage.STAGE1

    def absorb_broadcast(self, broadcast: ServerBroadcast) -> None:
        """Adopt merged statistics for survivors and advance one depth."""
        if self.stage != Stage.STAGE1:
            raise ProtocolFault(f"client {self.m} received a broadcast in stage {self.stage}")
        if broadcast.depth != self.depth:
            raise ProtocolFault(
                f"client {self.m} at depth {self.depth} received a depth-{broadcast.depth} broadcast"
            )
        for node in broadcast.survivors:
            prev = self.stats.get(node)
            if prev is None:
                raise ProtocolFault(f"broadcast names unknown node {node}")
            mean, bound = broadcast.stats[node]
            self.stats[node] = NodeStats(pulls=prev.pulls, reward_sum=prev.reward_sum,
                                         mean=mean, bound=bound)
        self.protected[self.depth] = frozenset(broadcast.survivors)
        self.depth += 1
        if self.depth > self.h0 and self.pe_enabled:
            self._enter_pe()

    def _enter_pe(self) -> None:
        self.stage = Stage.PE
        self.pe_depth = 0
        self.local_active = [ROOT]
        self.stage_transition_t = self.clock

    # ---- personalized elimination ----------------------------------------

    def _stats_view(self, nodes: list[NodeId]) -> dict[NodeId, NodeStats]:
        return {node: self.stats[node] for node in nodes if node in self.stats}

    def pe_step(self) -> bool:
        """One personal depth: settle, top up unprotected cells, eliminate, expand.

        Protected cells keep their broadcast statistics, still compete for
        the best-cell slot, and are exempt from both sampling and
        elimination.  A cell the server eliminated at this depth is first
        tested on the client's own stage-one pulls against the best
        protected cell; if that test eliminates it, it is settled without a
        top-up.  Every other unprotected cell is topped up to the depth
        threshold, stage-one pulls counting toward it.  Returns False when
        the budget ran out before the thresholds were met.
        """
        h = self.pe_depth
        prot = self.protected.get(h, frozenset())
        tau_h = tau(h, self.conf, self.smooth)
        to_sample = [n for n in self.local_active if n not in prot]
        settled: set[NodeId] = set()
        if prot:
            # Unprotected cells with stage-one pulls are exactly the cells the
            # server eliminated at depth h.
            view = self._stats_view(self.local_active)
            ref = select_best({n: view[n] for n in prot})
            settled = eliminate(view, [n for n in to_sample if n in view], ref, h, self.smooth)
            to_sample = [n for n in to_sample if n not in settled]
        for node in to_sample:
            have = self.stats[node].pulls if node in self.stats else 0
            if not self._pull_up_to(node, tau_h - have):
                return False
        view = self._stats_view(self.local_active)
        if to_sample or settled:
            best = select_best(view)
            removed = settled | eliminate(view, to_sample, best, h, self.smooth)
        else:
            best, removed = None, set()
        if not prot.isdisjoint(removed):
            raise ProtocolFault(f"client {self.m} eliminated protected nodes at depth {h}")
        survivors = tuple(n for n in self.local_active if n not in removed)
        self.pe_events.append(EliminationEvent(h, best, frozenset(removed), survivors))
        self.local_active = sorted(c for n in survivors for c in children(n, self.spec))
        self.pe_depth += 1
        return True

    def run_pe(self) -> None:
        """Personal steps down to the depth cap, then the rest of the budget on the best cell."""
        if self.stage != Stage.PE:
            return
        while self.pe_depth < self.depth_cap:
            if not self.pe_step():
                return
        self._spend_rest(self.local_active)

    def _ancestor_mean(self, node: NodeId) -> float:
        """Mean of the nearest ancestor-or-self with recorded statistics."""
        while node not in self.stats:
            if node.depth == 0:
                return float("-inf")
            node = parent(node, self.spec)
        return self.stats[node].mean

    def finish_stage1_only(self) -> None:
        """No personal stage: the rest of the budget goes to the server's best last survivor."""
        if not self.protected:
            raise ProtocolFault(f"client {self.m} finished stage one without a server round")
        self._spend_rest(sorted(self.protected[max(self.protected)]))


@dataclass
class ProtocolResult:
    """Everything a run produced, sufficient to recompute every metric.

    ``comm_rounds`` holds one record per server round, elimination decision
    included; ``client_events`` one record per personal step of each client.
    """

    clients: int
    horizon: int
    h0: int
    pull_logs: list[PullLog] | None
    client_events: list[list[EliminationEvent]]
    comm_rounds: list[CommRound]
    stage_transition_t: int | None

    @property
    def comm_rounds_total(self) -> int:
        return len(self.comm_rounds)

    @property
    def scalars_up_total(self) -> int:
        return sum(r.scalars_up for r in self.comm_rounds)

    @property
    def scalars_down_total(self) -> int:
        return sum(r.scalars_down for r in self.comm_rounds)


def run_protocol(suite: ObjectiveSuite, spec: PartitionSpec, conf: ConfParams,
                 smooth: SmoothParams, h0: int, pe_enabled: bool, depth_cap: int,
                 seed: int) -> ProtocolResult:
    """Drive a full run: synchronous stage-one rounds, then per-client PE.

    All clients advance through a stage-one phase before the server step;
    clients exhaust simultaneously there because their schedules are
    identical.  Personal elimination then runs each client to the end of
    its budget independently.
    """
    m_count = suite.clients
    cell_values: dict[NodeId, np.ndarray] = {}  # each cell evaluated once, for every client
    clients = [
        Client(m, suite, spec, conf, smooth, h0, depth_cap, pe_enabled,
               substream(seed, PURPOSE_NOISE, m), cell_values)
        for m in range(1, m_count + 1)
    ]
    server = Server(spec, conf, smooth, m_count)

    if h0 >= 1:
        while server.depth <= h0 and clients[0].budget > 0:
            per_node = quota(tau(server.depth, conf, smooth), m_count)
            reports = []
            completed = True
            for client in clients:
                report, ok = client.run_stage1_phase(server.active, per_node)
                reports.append(report)
                completed = completed and ok
            if not completed:
                if any(c.stage != Stage.EXHAUSTED for c in clients):
                    raise ProtocolFault("clients exhausted asynchronously in stage one")
                break
            broadcast = server.step(reports, clock=clients[0].clock)
            for client in clients:
                client.absorb_broadcast(broadcast)

    if pe_enabled:
        for client in clients:
            client.run_pe()
    else:
        for client in clients:
            if client.stage == Stage.STAGE1:
                client.finish_stage1_only()

    for client in clients:
        if client.clock != conf.horizon_T:
            raise ProtocolFault(
                f"client {client.m} consumed {client.clock} pulls out of {conf.horizon_T}"
            )

    transitions = {c.stage_transition_t for c in clients}
    if len(transitions) != 1:
        raise ProtocolFault("clients disagree on the stage transition time")

    return ProtocolResult(
        clients=m_count,
        horizon=conf.horizon_T,
        h0=h0,
        pull_logs=[c.pull_log for c in clients],
        client_events=[list(c.pe_events) for c in clients],
        comm_rounds=list(server.comm_rounds),
        stage_transition_t=transitions.pop(),
    )
