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
seed, every pull, message and elimination event is reproducible.  A phase or
step draws its noise once, in ``Client._pull_cells``, which evaluates its new
cells in one batch and sums each block of equal-count cells in one reduction.
The call that exhausts a client draws none: nothing reads its rewards.  A
client's pull log keeps a segment per cell pulled (cell, pull count, reward
sum, ``None`` in that last call, and shared instant regret), not one per pull.
"""
from __future__ import annotations

import enum
import itertools
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
    transition_depth,
)
from .objectives import ObjectiveSuite
from .partition import ROOT, NodeId, PartitionSpec, children, parent, representative
from .seeding import PURPOSE_NOISE, substream

VARIANTS = ("pfpne", "global-only", "local-only")


class Stage(enum.Enum):
    STAGE1 = "stage1"
    PE = "pe"
    EXHAUSTED = "exhausted"


class PullLog:
    """One client's pulls, stored as one segment per cell pulled.

    All pulls of a cell in one call share the cell, so a segment is the
    cell, the pull count, the reward sum and the instant regret shared by
    all its pulls.  The rewards themselves are not kept: elimination reads
    only counts and sums.  The call that exhausts the client draws no
    rewards, so its segments' reward sum is ``None``.
    """

    def __init__(self):
        self.segments: list[tuple[NodeId, int, float | None, float]] = []
        self._pulls = 0

    def append_batch(self, segments: list[tuple[NodeId, int, float | None, float]],
                     steps: range) -> None:
        """Log one call's segments, in pull order; the call takes the clock ticks ``steps``."""
        if steps.start != self._pulls:
            raise ProtocolFault(f"a call at pull {steps.start} does not follow pull {self._pulls}")
        if sum(pulls for _, pulls, _, _ in segments) != len(steps):
            raise ProtocolFault("segments do not account for every pull of the call")
        self.segments += segments
        self._pulls = steps.stop

    def __len__(self) -> int:
        return self._pulls


@dataclass
class EliminationEvent:
    """One elimination decision at one depth: a client's personal step, or a server round's.

    ``best`` is the best cell over the depth's statistics; every decision names one.
    """

    depth: int
    best: NodeId
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


class CellTable:
    """A run's partition and what it knows of each cell, shared by the server and every client.

    Each entry is made once.  ``values``: every client's value at the cell's
    center, filled by ``Client._pull_cells``.  ``children``: the cell's
    children, built by ``partition.children`` when it is first expanded.
    """

    def __init__(self, spec: PartitionSpec):
        self.spec = spec
        self.values: dict[NodeId, list[float]] = {}
        self.children: dict[NodeId, list[NodeId]] = {}

    def expand(self, cells) -> list[NodeId]:
        """The children of ``cells``, cell by cell, each in index order."""
        kids, spec = self.children, self.spec
        return [c for n in cells for c in kids.get(n) or kids.setdefault(n, children(n, spec))]


class Server:
    """Merges client reports, eliminates, and broadcasts survivors."""

    def __init__(self, table: CellTable, conf: ConfParams, smooth: SmoothParams, clients: int):
        self.table = table
        self.conf = conf
        self.smooth = smooth
        self.clients = clients
        self.depth = 0
        self.active: list[NodeId] = [ROOT]
        self.comm_rounds: list[CommRound] = []

    def step(self, reports: list[ClientReport], clock: int) -> ServerBroadcast:
        """Process one depth: merge, eliminate, broadcast, expand."""
        if sorted(r.client for r in reports) != list(range(1, self.clients + 1)):
            raise ProtocolFault(f"expected one report from each client 1..{self.clients}")
        active = set(self.active)
        for report in reports:
            if report.depth != self.depth:
                raise ProtocolFault(
                    f"client {report.client} reported depth {report.depth}, server is at {self.depth}"
                )
            if report.entries.keys() != active:
                raise ProtocolFault(f"client {report.client} report does not cover the active set")
        merged = merge_global(reports, self.conf)
        best = select_best(merged)
        removed = eliminate(merged, active, best, self.depth, self.smooth)
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

        broadcast = ServerBroadcast(depth=self.depth, stats=stats)
        self.active = self.table.expand(survivors)  # in index order
        self.depth += 1
        return broadcast


class Client:
    """One client's pulls, broadcasts and personal steps; ``run_protocol`` decides when."""

    def __init__(self, m: int, suite: ObjectiveSuite, table: CellTable,
                 conf: ConfParams, smooth: SmoothParams, rng: np.random.Generator):
        self.m = m
        self.suite = suite
        self.table = table  # the run's, shared with the server and every client
        self.conf = conf
        self.smooth = smooth
        self.rng = rng
        self.f_star = suite.local_optima[m - 1].value

        self.clock = 0
        self.pe_depth = 0
        self.stats: dict[NodeId, NodeStats] = {}
        self.protected: dict[int, frozenset[NodeId]] = {}
        self.local_active: list[NodeId] = [ROOT]
        self.pull_log = PullLog()
        self.pe_events: list[EliminationEvent] = []
        self.stage = Stage.STAGE1
        self.stage_transition_t: int | None = None

    @property
    def budget(self) -> int:
        """Pulls left: the horizon minus the clock."""
        return self.conf.horizon_T - self.clock

    # ---- shared pull machinery ------------------------------------------

    def _pull_cells(self, nodes: list[NodeId], wants: list[int]) -> None:
        """Pull each cell up to its want, in order, from one noise draw.

        A want of zero or less pulls nothing.  The first cell the budget
        cannot fill is cut at the budget and exhausts the client; no later
        cell is pulled.  Cells not yet in the run's table are evaluated for
        every client in one batch; each pulled cell then reads only this
        client's value from it.  Each cell's pulls are logged as one
        segment.  A call that exhausts the client, its last, draws no noise:
        nothing reads its rewards.  Otherwise a block of consecutive cells
        with equal pull counts is one (cells x pulls) view of the draw,
        summed by row: each row reduces exactly as the cell's own slice would.
        """
        pulled, left = [], self.budget
        for node, want in zip(nodes, wants):
            k = min(want, left) if want > 0 else 0  # Python ints: a want may be TAU_SATURATED
            if k:
                pulled.append((node, k))
            left -= k
            if k < want:
                self.stage = Stage.EXHAUSTED
                break
        if not pulled:
            return
        table = self.table.values
        new = [node for node, _ in pulled if node not in table]
        if new:
            centers = [representative(self.suite.domain, node, self.table.spec) for node in new]
            table.update(zip(new, self.suite.eval_clients_batch(np.array(centers)).tolist()))
        values = [table[node][self.m - 1] for node, _ in pulled]
        steps = range(self.clock, self.clock + self.budget - left)
        self.clock = steps.stop
        if self.stage is Stage.EXHAUSTED:
            segments = [(node, k, None, self.f_star - v) for (node, k), v in zip(pulled, values)]
            return self.pull_log.append_batch(segments, steps)
        column = np.array(values)
        rewards = self.suite.noise.draw(self.rng, len(steps))
        sums, offset = [], 0
        for k, block in itertools.groupby(k for _, k in pulled):
            first, r = len(sums), len(list(block))
            rows = rewards[offset:offset + r * k].reshape(r, k)
            rows += column[first:first + r, None]  # in place: one array per call
            sums += rows.sum(axis=1).tolist()
            offset += r * k
        stats, conf, f_star, segments = self.stats, self.conf, self.f_star, []
        for (node, k), value, total in zip(pulled, values, sums):
            segments.append((node, k, total, f_star - value))
            prev = stats.get(node)
            if prev is not None:
                k, total = prev.pulls + k, prev.reward_sum + total
            stats[node] = NodeStats.from_counts(k, total, conf)
        self.pull_log.append_batch(segments, steps)

    def _spend_rest(self, frontier: list[NodeId]) -> None:
        """Spend the rest of the budget on the frontier cell of highest own, else parent, mean.

        Ties go to the first cell.  Every frontier cell has statistics itself
        or through its parent: it survived the last server round, or is a
        child of a survivor of the last personal step.  The client is
        exhausted before the pull, which thus draws no noise.
        """
        stats, spec = self.stats, self.table.spec
        cell = max(frontier, key=lambda n: stats[n if n in stats else parent(n, spec)].mean)
        self.stage = Stage.EXHAUSTED
        self._pull_cells([cell], [self.budget])

    # ---- collaborative stage --------------------------------------------

    def run_stage1_phase(self, active: list[NodeId], per_node_quota: int) -> ClientReport | None:
        """Pull every active cell ``per_node_quota`` times, in index order, from one noise draw.

        If the budget falls short, the client is exhausted in the middle of
        the phase, and reports nothing (``None``).  A budget that ends
        exactly with the phase exhausts the client on the first cell of the
        next phase.
        """
        if self.stage != Stage.STAGE1:
            raise ProtocolFault(f"client {self.m} cannot sample stage one in stage {self.stage}")
        self._pull_cells(active, [per_node_quota] * len(active))
        if self.stage is Stage.EXHAUSTED:
            return None
        entries = {n: (s.mean, s.pulls) for n, s in self._stats_view(active).items()}
        return ClientReport(client=self.m, depth=len(self.protected), entries=entries)

    def absorb_broadcast(self, broadcast: ServerBroadcast) -> None:
        """Adopt merged statistics for survivors and advance one depth, staying in ``STAGE1``."""
        if self.stage != Stage.STAGE1:
            raise ProtocolFault(f"client {self.m} received a broadcast in stage {self.stage}")
        if broadcast.depth != len(self.protected):
            raise ProtocolFault(f"client {self.m} at depth {len(self.protected)} "
                                f"received a depth-{broadcast.depth} broadcast")
        for node, (mean, bound) in broadcast.stats.items():
            prev = self.stats.get(node)
            if prev is None:
                raise ProtocolFault(f"broadcast names unknown node {node}")
            self.stats[node] = NodeStats(prev.pulls, prev.reward_sum, mean, bound)
        self.protected[broadcast.depth] = frozenset(broadcast.stats)

    def enter_pe(self) -> None:
        """Start personal elimination from the root at the current clock."""
        self.stage = Stage.PE
        self.stage_transition_t = self.clock

    # ---- personalized elimination ----------------------------------------

    def _stats_view(self, nodes: list[NodeId]) -> dict[NodeId, NodeStats]:
        return {node: self.stats[node] for node in nodes if node in self.stats}

    def pe_step(self) -> None:
        """One personal depth: settle, top up unprotected cells, eliminate, expand.

        Protected cells keep their broadcast statistics, still compete for
        the best-cell slot, and are exempt from both sampling and
        elimination.  A cell the server eliminated at this depth is first
        tested on the client's own stage-one pulls against the best
        protected cell; if that test eliminates it, it is settled without a
        top-up.  Every other unprotected cell is topped up to the depth
        threshold, stage-one pulls counting toward it, from one noise draw.
        A budget that falls short exhausts the client there, before the
        depth's elimination; every step completed names its best cell.
        """
        h, stats = self.pe_depth, self.stats
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
        self._pull_cells(to_sample, [tau_h - stats[n].pulls if n in stats else tau_h
                                     for n in to_sample])
        if self.stage is Stage.EXHAUSTED:
            return
        view = self._stats_view(self.local_active)
        best = select_best(view)
        removed = settled | eliminate(view, to_sample, best, h, self.smooth)
        if not prot.isdisjoint(removed):
            raise ProtocolFault(f"client {self.m} eliminated protected nodes at depth {h}")
        survivors = tuple(n for n in self.local_active if n not in removed)
        self.pe_events.append(EliminationEvent(h, best, frozenset(removed), survivors))
        self.local_active = self.table.expand(survivors)  # sorted
        self.pe_depth += 1

    def run_pe(self, depth_cap: int) -> None:
        """Personal steps down to ``depth_cap``, then the rest of the budget on the best cell.

        A step that exhausts the client ends the personal stage there.  At
        least one step runs, so ``_spend_rest`` finds statistics for every cell.
        """
        while self.stage is Stage.PE and self.pe_depth < depth_cap:
            self.pe_step()
        if self.stage is Stage.PE:
            self._spend_rest(self.local_active)

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
    A run may drop its per-client records, ``pull_logs`` and ``client_events``.
    """

    horizon: int
    h0: int
    pull_logs: list[PullLog] | None
    client_events: list[list[EliminationEvent]] | None
    comm_rounds: list[CommRound]
    stage_transition_t: int | None

    @property
    def comm_rounds_total(self) -> int:
        return len(self.comm_rounds)


def run_protocol(suite: ObjectiveSuite, spec: PartitionSpec, conf: ConfParams,
                 smooth: SmoothParams, variant: str, depth_cap: int,
                 seed: int) -> ProtocolResult:
    """Drive a full run: the one record of the stage schedule, then each client's ending.

    Server rounds run at depths ``0..h0``, where ``h0`` is the transition
    depth of ``smooth`` capped at ``depth_cap`` for ``pfpne``, ``depth_cap``
    for ``global-only`` and 0 for ``local-only``.  Every variant but
    ``global-only`` has a personal stage, and ``h0 = 0`` with one means no
    round at all.  Clients' schedules are identical, so a phase leaves them
    all ``STAGE1`` or all ``EXHAUSTED``, which ends the run before the server
    step.  After the last round, a personal stage moves ``STAGE1`` clients
    to ``PE`` (personal elimination down to ``depth_cap``); without one they
    spend their budget on the server's best cell.  Every client ends ``EXHAUSTED``.
    ``depth_cap`` must be at least 1, as ``ExperimentConfig`` requires.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if depth_cap < 1:
        raise ValueError(f"depth_cap must be at least 1, got {depth_cap}")
    pe_enabled = variant != "global-only"
    if variant == "pfpne":
        h0 = min(transition_depth(smooth), depth_cap)
    else:
        h0 = depth_cap if variant == "global-only" else 0
    rounds = h0 + 1 if h0 or not pe_enabled else 0
    m_count = suite.clients
    table = CellTable(spec)  # each cell evaluated and expanded once, for every client
    clients = [Client(m, suite, table, conf, smooth, substream(seed, PURPOSE_NOISE, m))
               for m in range(1, m_count + 1)]
    server = Server(table, conf, smooth, m_count)

    while clients[0].stage is Stage.STAGE1 and server.depth < rounds:
        per_node = quota(tau(server.depth, conf, smooth), m_count)
        reports = [client.run_stage1_phase(server.active, per_node) for client in clients]
        if len({c.stage for c in clients}) != 1:
            raise ProtocolFault("clients exhausted asynchronously in stage one")
        if clients[0].stage is Stage.EXHAUSTED:
            break
        broadcast = server.step(reports, clock=clients[0].clock)
        for client in clients:
            client.absorb_broadcast(broadcast)

    for client in clients:
        if client.stage is Stage.STAGE1 and pe_enabled:
            client.enter_pe()
        if client.stage is Stage.PE:
            client.run_pe(depth_cap)
        elif client.stage is Stage.STAGE1:
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
        horizon=conf.horizon_T,
        h0=h0,
        pull_logs=[c.pull_log for c in clients],
        client_events=[list(c.pe_events) for c in clients],
        comm_rounds=list(server.comm_rounds),
        stage_transition_t=transitions.pop(),
    )
