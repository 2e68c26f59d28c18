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
seed, every pull, message and elimination event is reproducible.  Clients
take the same steps side by side, so ``run_protocol`` steps them together:
each stage-one round and each personal depth is one *cohort*, one call per
client, pulled by ``pull_cohort``, the one pull path.  It evaluates the
cohort's new cells in one batch, draws each client's noise once from the
client's own generator into a shared buffer, and sums each run of
equal-count cells in one reduction.  The call that exhausts a client draws
none: nothing reads its rewards.  The one-client methods
(``Client._pull_cells``, ``run_stage1_phase``, ``pe_step``, ``run_pe``) are
the cohort of one.  A client's pull log keeps a segment per cell pulled
(cell, pull count, reward sum, ``None`` in that last call, and shared
instant regret), not one per pull.
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
    center, filled by ``pull_cohort``.  ``children``: the cell's
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
        """Pull each cell up to its want, in order: ``pull_cohort`` of this client alone."""
        pull_cohort([(self, nodes, wants)])

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
        """This client's stage-one phase: ``stage1_cohort`` of this client alone."""
        return stage1_cohort([self], active, per_node_quota)[0]

    def _report(self, active: list[NodeId]) -> ClientReport | None:
        """The phase's upload, (mean, pulls) per active cell; ``None`` once exhausted."""
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
        """One personal depth: ``pe_cohort`` of this client alone."""
        pe_cohort([self])

    def _pe_plan(self) -> tuple[list[NodeId], list[int], set[NodeId]]:
        """A personal step up to its pulls: the cells to top up, their wants, the settled cells.

        A cell the server eliminated at this depth is tested on the client's
        own stage-one pulls against the best protected cell; if that test
        eliminates it, it is settled without a top-up.  Every other
        unprotected cell wants the depth threshold, less its stage-one pulls.
        """
        h, stats = self.pe_depth, self.stats
        prot = self.protected.get(h, frozenset())
        tau_h = tau(h, self.conf, self.smooth)
        to_sample = [n for n in self.local_active if n not in prot]
        settled: set[NodeId] = set()
        if prot:
            # Unprotected cells with stage-one pulls are exactly the cells the
            # server eliminated at depth h.
            ref = select_best({n: stats[n] for n in prot})
            settled = eliminate(stats, [n for n in to_sample if n in stats], ref, h, self.smooth)
            to_sample = [n for n in to_sample if n not in settled]
        wants = [tau_h - stats[n].pulls if n in stats else tau_h for n in to_sample]
        return to_sample, wants, settled

    def _pe_finish(self, sampled: list[NodeId], settled: set[NodeId]) -> None:
        """Finish a personal step the budget covered: best cell, elimination, event, expansion."""
        h = self.pe_depth
        best = select_best(self._stats_view(self.local_active))
        removed = settled | eliminate(self.stats, sampled, best, h, self.smooth)
        if not self.protected.get(h, frozenset()).isdisjoint(removed):
            raise ProtocolFault(f"client {self.m} eliminated protected nodes at depth {h}")
        survivors = tuple(n for n in self.local_active if n not in removed)
        self.pe_events.append(EliminationEvent(h, best, frozenset(removed), survivors))
        self.local_active = self.table.expand(survivors)  # sorted
        self.pe_depth += 1

    def run_pe(self, depth_cap: int) -> None:
        """This client's personal stage: ``run_pe_cohort`` of this client alone."""
        run_pe_cohort([self], depth_cap)

    def finish_stage1_only(self) -> None:
        """No personal stage: the rest of the budget goes to the server's best last survivor."""
        if not self.protected:
            raise ProtocolFault(f"client {self.m} finished stage one without a server round")
        self._spend_rest(sorted(self.protected[max(self.protected)]))


# Consecutive drawing calls of a cohort share one noise buffer of at most this
# many doubles; a longer call gets an array of its own.
BUFFER_DOUBLES = 1 << 16


def pull_cohort(calls: list[tuple[Client, list[NodeId], list[int]]]) -> None:
    """The one pull path: each ``(client, nodes, wants)`` call pulls its cells up to their wants.

    The calls are one stage-one round's or one personal depth's, one per
    client of one run.  A want of zero or less pulls nothing.  The first
    cell a client's budget cannot fill is cut at the budget and exhausts the
    client; no later cell is pulled.  New cells are evaluated for every
    client in one batch.  Each cell's pulls are one segment, each call's
    segments one ``PullLog.append_batch``.  A call that exhausts its
    client, its last, draws no noise: nothing reads its rewards, so its
    reward sums are ``None``.  The other calls draw from their own clients'
    generators, in call order, into buffers of at most ``BUFFER_DOUBLES``
    doubles (``_draw_and_sum``).  Statistics take one ``confidence_bound``
    per distinct pull count.
    """
    planned = []  # (client, cells, their pulls, total) of each call that pulls
    for client, nodes, wants in calls:
        left, n = client.budget, sum(wants)
        if wants and min(wants) > 0 and n <= left:  # the usual call: every want in full
            planned.append((client, nodes, wants, n))
            continue
        cells, ks = [], []
        for node, want in zip(nodes, wants):
            k = min(want, left) if want > 0 else 0  # Python ints: a want may be TAU_SATURATED
            if k:
                cells.append(node)
                ks.append(k)
            left -= k
            if k < want:
                client.stage = Stage.EXHAUSTED
                break
        if cells:
            planned.append((client, cells, ks, client.budget - left))
    if not planned:
        return
    table, suite = planned[0][0].table, planned[0][0].suite
    values = table.values
    new = dict.fromkeys(node for _, cells, _, _ in planned for node in cells if node not in values)
    if new:
        centers = [representative(suite.domain, node, table.spec) for node in new]
        values.update(zip(new, suite.eval_clients_batch(np.array(centers)).tolist()))
    drawing = []  # (client, cells, pulls, cell values, clock ticks) of each call that draws
    for client, cells, ks, n in planned:
        cell_values = [values[node][client.m - 1] for node in cells]
        steps = range(client.clock, client.clock + n)
        client.clock = steps.stop
        if client.stage is Stage.EXHAUSTED:
            f_star = client.f_star
            client.pull_log.append_batch([(node, k, None, f_star - v)
                                          for node, k, v in zip(cells, ks, cell_values)], steps)
        else:
            drawing.append((client, cells, ks, cell_values, steps))

    sums, group, size = [], [], 0
    for call in drawing:
        if group and size + len(call[4]) > BUFFER_DOUBLES:
            sums += _draw_and_sum(group, size, suite.noise)
            group, size = [], 0
        group.append(call)
        size += len(call[4])
    if group:
        sums += _draw_and_sum(group, size, suite.noise)

    bounds, conf, first = {}, None, 0
    for client, cells, ks, cell_values, steps in drawing:
        if client.conf is not conf:
            bounds, conf = {}, client.conf
        stats, f_star, segments = client.stats, client.f_star, []
        for node, k, value, total in zip(cells, ks, cell_values, sums[first:first + len(cells)]):
            segments.append((node, k, total, f_star - value))
            prev = stats.get(node)
            if prev is not None:
                k, total = prev.pulls + k, prev.reward_sum + total
            stats[node] = NodeStats.from_counts(k, total, conf, bounds)
        first += len(cells)
        client.pull_log.append_batch(segments, steps)


def _draw_and_sum(group: list, size: int, noise) -> list[float]:
    """The reward sums of ``group``'s cells, in order, from one buffer of ``size`` doubles.

    Each call draws its slice from its own client's generator.  A run of
    consecutive equal-count cells, across calls, is one (cells x pulls) view
    of the buffer, summed by row: each row reduces exactly as the cell's own
    slice would.
    """
    rewards, offset = np.empty(size), 0
    for client, _, _, _, steps in group:
        noise.draw(client.rng, len(steps), out=rewards[offset:offset + len(steps)])
        offset += len(steps)
    column = np.array(list(itertools.chain.from_iterable(call[3] for call in group)))
    sums, offset = [], 0
    for k, block in itertools.groupby(itertools.chain.from_iterable(call[2] for call in group)):
        first, r = len(sums), len(list(block))
        rows = rewards[offset:offset + r * k].reshape(r, k)
        rows += column[first:first + r, None]  # in place: one array per buffer
        sums += rows.sum(axis=1).tolist()
        offset += r * k
    return sums


def stage1_cohort(clients: list[Client], active: list[NodeId],
                  per_node_quota: int) -> list[ClientReport | None]:
    """One stage-one round: every client pulls every active cell ``per_node_quota`` times.

    The pulls are one ``pull_cohort``, each client's in index order.  A
    client whose budget falls short is exhausted in the middle of the
    phase, and reports nothing (``None``).  A budget that ends exactly with
    the phase exhausts the client on the first cell of the next phase.
    """
    for client in clients:
        if client.stage != Stage.STAGE1:
            raise ProtocolFault(
                f"client {client.m} cannot sample stage one in stage {client.stage}")
    wants = [per_node_quota] * len(active)
    pull_cohort([(client, active, wants) for client in clients])
    return [client._report(active) for client in clients]


def pe_cohort(clients: list[Client]) -> None:
    """One personal depth for every client: settle, top up unprotected cells, eliminate, expand.

    Protected cells keep their broadcast statistics, still compete for the
    best-cell slot, and are exempt from both sampling and elimination.  The
    top-ups of all clients are one ``pull_cohort``.  A budget that falls
    short exhausts its client there, before the depth's elimination; every
    step completed names its best cell.
    """
    plans = [client._pe_plan() for client in clients]
    pull_cohort([(client, nodes, wants) for client, (nodes, wants, _) in zip(clients, plans)])
    for client, (nodes, _, settled) in zip(clients, plans):
        if client.stage is not Stage.EXHAUSTED:
            client._pe_finish(nodes, settled)


def run_pe_cohort(clients: list[Client], depth_cap: int) -> None:
    """Personal steps to ``depth_cap``, one ``pe_cohort`` per depth, then each rest on one cell.

    A step that exhausts a client ends its personal stage there.  At least
    one step runs, so ``_spend_rest`` finds statistics for every cell.
    """
    stepping = clients
    while stepping := [c for c in stepping if c.stage is Stage.PE and c.pe_depth < depth_cap]:
        pe_cohort(stepping)
    for client in clients:
        if client.stage is Stage.PE:
            client._spend_rest(client.local_active)


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
    round at all.  Each round's phases are one ``stage1_cohort`` of every
    client.  Clients' schedules are identical, so a round leaves them all
    ``STAGE1`` or all ``EXHAUSTED``, which ends the run before the server
    step.  After the last round, a personal stage moves ``STAGE1`` clients
    to ``PE``, and ``run_pe_cohort`` steps them together, one ``pe_cohort``
    per depth, down to ``depth_cap``; without one they spend their budget
    on the server's best cell.  Every client ends ``EXHAUSTED``.
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
        reports = stage1_cohort(clients, server.active, per_node)
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
        elif client.stage is Stage.STAGE1:
            client.finish_stage1_only()
    run_pe_cohort(clients, depth_cap)

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
