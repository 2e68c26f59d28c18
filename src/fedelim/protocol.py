"""Two-stage federated elimination protocol over a hierarchical partition.

Stage one is collaborative: the server walks the partition depth by depth,
each client samples every active cell a per-client share of the depth
threshold and reports its column of the active cells (means and pull
counts, never reward sums), the server merges the reports, eliminates cells
whose optimistic value falls below the best cell, and broadcasts the
survivors with their merged statistics.  Clients overwrite their local
estimates of surviving cells with the broadcast values; those cells are
*protected* from then on.  The server's round and every personal step pick
and eliminate with the one rule of ``fedcore``, ``select_best`` and
``eliminate``, on arrays.

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
client, pulled by ``pull_cohort``, the one pull path.  What a run knows of
its cells is one ``CellTable``: a row per cell, a column per client, for
the cell values and each client's pulls, reward sums, means and bounds.  A
cohort reads and writes whole rows and columns of it: it evaluates its new
cells in one batch, draws each client's noise once from the client's own
generator into a shared buffer, sums each run of equal-count cells in one
reduction, and settles, picks and eliminates over every client's cells at
once.  The call that exhausts a client draws none: nothing reads its
rewards.  The one-client methods (``Client._pull_cells``,
``run_stage1_phase``, ``pe_step``, ``run_pe``) are the cohort of one.  A
client's pull log keeps columns with an entry per cell pulled (cell, pull
count, reward sum, ``None`` in that last call, and shared instant regret),
not one per pull.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .fedcore import (
    ClientReport,
    ConfParams,
    ProtocolFault,
    ServerBroadcast,
    SmoothParams,
    confidence_bound,
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
    """One client's pulls as columns ``cells``, ``pulls``, ``sums``, ``regrets``, one entry a segment.

    All pulls of a cell in one call share the cell, so a segment is the
    cell, the pull count, the reward sum and the instant regret shared by
    all its pulls.  The rewards themselves are not kept: elimination reads
    only counts and sums.  The call that exhausts the client draws no
    rewards, so its reward sums are ``None``.
    """

    def __init__(self):
        self.cells: list[NodeId] = []
        self.pulls: list[int] = []
        self.sums: list[float | None] = []
        self.regrets: list[float] = []
        self._pulls = 0

    def append_batch(self, segments: tuple[list, list, list | None, list], steps: range) -> None:
        """Log one call's segment columns ``(cells, pulls, sums or None, regrets)``, over ``steps``."""
        cells, pulls, sums, regrets = segments
        if steps.start != self._pulls:
            raise ProtocolFault(f"a call at pull {steps.start} does not follow pull {self._pulls}")
        if sum(pulls) != len(steps):
            raise ProtocolFault("segments do not account for every pull of the call")
        if not len(cells) == len(pulls) == len(regrets) == len(cells if sums is None else sums):
            raise ProtocolFault("a call's segment columns differ in length")
        self.cells += cells
        self.pulls += pulls
        self.sums += [None] * len(cells) if sums is None else sums
        self.regrets += regrets
        self._pulls = steps.stop

    @property
    def segments(self) -> list[tuple[NodeId, int, float | None, float]]:
        """``(cell, pulls, reward sum, instant regret)`` per segment: a view, built on each read."""
        return list(zip(self.cells, self.pulls, self.sums, self.regrets))

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


class _Rows(dict):
    """Each cell's row, in row order: a cell named for the first time takes the next one."""

    def __missing__(self, cell: NodeId) -> int:
        row = self[cell] = len(self)
        return row


class CellTable:
    """A run's partition and what it knows of each cell, shared by the server and every client.

    A cell takes the next row the first time it is named (``rows``,
    ``rows_of``).  Each array holds a row per cell and a column per client,
    client ``m`` in column ``m - 1``: ``values``, every client's value at
    the cell's center, filled when the cell is first pulled (``evaluated``);
    and each client's ``pulls``, reward ``sums``, ``means`` and ``bounds``.
    A client has statistics of a cell once it has drawn pulls there
    (``pulls > 0``); a broadcast overwrites a survivor's mean and bound.
    The arrays double their rows as cells arrive.  ``children``: each
    cell's children, built when it is first expanded.
    """

    def __init__(self, spec: PartitionSpec):
        self.spec = spec
        self.rows = _Rows()
        self.children: dict[NodeId, list[NodeId]] = {}
        self.evaluated = np.zeros(0, dtype=bool)
        self.values = self.sums = self.means = self.bounds = np.zeros((0, 0))
        self.pulls = np.zeros((0, 0), dtype=np.int64)

    def widen(self, clients: int) -> None:
        """Make a column for each of ``clients`` clients."""
        if clients > self.pulls.shape[1]:
            self._fit(max(64, len(self.evaluated)), clients)

    def rows_of(self, cells) -> np.ndarray:
        """The rows of ``cells``, in order; a new cell takes a new row."""
        rows = np.fromiter(map(self.rows.__getitem__, cells), dtype=np.intp)
        if len(self.rows) > len(self.evaluated):
            self._fit(max(64, 2 * len(self.rows)), self.pulls.shape[1])
        return rows

    def _fit(self, height: int, width: int) -> None:
        held, clients = self.pulls.shape
        self.evaluated = np.concatenate([self.evaluated, np.zeros(height - held, dtype=bool)])
        for name in ("values", "pulls", "sums", "means", "bounds"):
            grown = np.zeros((height, width), dtype=getattr(self, name).dtype)
            grown[:held, :clients] = getattr(self, name)
            setattr(self, name, grown)

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
        active, n = self.active, len(self.active)
        for report in reports:
            if report.depth != self.depth:
                raise ProtocolFault(
                    f"client {report.client} reported depth {report.depth}, server is at {self.depth}"
                )
            if not len(report.means) == len(report.pulls) == n:
                raise ProtocolFault(f"client {report.client} report does not cover the active set")
        means, _, bounds = merge_global(reports, self.conf)
        best = select_best(means, [n])
        out = eliminate(means, bounds, best, [n], self.smooth.slack(self.depth)).tolist()
        fallen = set(map(active.__getitem__, out))
        means, bounds = means.tolist(), bounds.tolist()
        stats = {cell: (means[i], bounds[i]) for i, cell in enumerate(active) if cell not in fallen}
        survivors = tuple(stats)
        # The eliminated set is built from the active set, in set order: a
        # set's layout, and so its repr, depends on the order its cells arrive in.
        removed = {cell for cell in set(active) if cell in fallen} if fallen else set()

        up = len(reports) * n * 2
        down = len(survivors) * 3
        before = self.comm_rounds[-1].cumulative_scalars if self.comm_rounds else 0
        self.comm_rounds.append(CommRound(
            depth=self.depth,
            best=active[best[0]],
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
    """One client's clock, stage and frontier; its statistics are its column of the run's table.

    ``run_protocol`` decides when each step runs, and steps the clients
    together through the cohort functions below.
    """

    def __init__(self, m: int, suite: ObjectiveSuite, table: CellTable,
                 conf: ConfParams, smooth: SmoothParams, rng: np.random.Generator):
        self.m = m
        self.suite = suite
        self.table = table  # the run's, shared with the server and every client
        self.conf = conf
        self.smooth = smooth
        self.rng = rng
        self.f_star = suite.local_optima[m - 1].value
        table.widen(suite.clients)

        self.clock = 0
        self.pe_depth = 0
        self.protected: dict[int, frozenset[NodeId]] = {}
        self.local_active: list[NodeId] = [ROOT]  # in index order
        self.pull_log = PullLog()
        self.pe_events: list[EliminationEvent] = []
        self.stage = Stage.STAGE1
        self.stage_transition_t: int | None = None

    @property
    def budget(self) -> int:
        """Pulls left: the horizon minus the clock."""
        return self.conf.horizon_T - self.clock

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
        table, col = self.table, self.m - 1
        rows = table.rows_of(frontier)
        own = table.pulls[rows, col] > 0
        if not own.all():
            parents = table.rows_of(map(parent, frontier, itertools.repeat(table.spec)))
            rows = np.where(own, rows, parents)
        cell = frontier[int(table.means[rows, col].argmax())]
        self.stage = Stage.EXHAUSTED
        self._pull_cells([cell], [self.budget])

    def run_stage1_phase(self, active: list[NodeId], per_node_quota: int) -> ClientReport | None:
        """This client's stage-one phase: ``stage1_cohort`` of this client alone."""
        return stage1_cohort([self], active, per_node_quota)[0]

    def enter_pe(self) -> None:
        """Start personal elimination from the root at the current clock."""
        self.stage = Stage.PE
        self.stage_transition_t = self.clock

    def pe_step(self) -> None:
        """One personal depth: ``pe_cohort`` of this client alone."""
        pe_cohort([self])

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
    client of one run, whose clients share one ``ConfParams``; each call's
    cells are distinct.  A want of zero or less pulls nothing.  The first
    cell a client's budget cannot fill is cut at the budget and exhausts the
    client; no later cell is pulled.  Until then the wants are Python ints,
    since one may be ``TAU_SATURATED``; the pulls left are table entries.
    New cells are evaluated for every client in one batch.  Each cell's pulls are one
    segment, each call's segments one ``PullLog.append_batch``.  A call that
    exhausts its client, its last, draws no noise: nothing reads its
    rewards, so its reward sums are ``None``.  The other calls draw from
    their own clients' generators, in call order, into buffers of at most
    ``BUFFER_DOUBLES`` doubles (``_draw_and_sum``), and add their pulls and
    sums to the table, whose means and bounds of those cells are then
    recomputed in one pass.
    """
    planned = []  # (client, cells, their pulls, total) of each call that pulls
    for client, nodes, wants in calls:
        left, n = client.budget, sum(wants)
        if wants and min(wants) > 0 and n <= left and len(nodes) == len(wants):  # the usual call
            planned.append((client, nodes, wants, n))
            continue
        cells, ks = [], []
        for node, want in zip(nodes, wants):
            k = min(want, left) if want > 0 else 0
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
    table, suite, conf = planned[0][0].table, planned[0][0].suite, planned[0][0].conf
    counts = [len(cells) for _, cells, _, _ in planned]
    pulled = list(itertools.chain.from_iterable(call[1] for call in planned))
    rows = table.rows_of(pulled)
    at = rows * table.pulls.shape[1] + np.array([c.m - 1 for c, *_ in planned]).repeat(counts)
    ks = np.fromiter(itertools.chain.from_iterable(call[2] for call in planned), dtype=np.int64)
    evaluated = table.evaluated[rows]
    if not evaluated.all():
        new = dict.fromkeys(itertools.compress(pulled, (~evaluated).tolist()))
        centers = [representative(suite.domain, cell, table.spec) for cell in new]
        new = list(map(table.rows.__getitem__, new))
        table.values[new] = suite.eval_clients_batch(np.array(centers))
        table.evaluated[new] = True
    values = table.values.ravel()[at]  # flat (row, client) indices into the table
    f_stars = np.array([client.f_star for client, _, _, _ in planned]).repeat(counts)
    regrets = (f_stars - values).tolist()

    drawing, groups, group, size, first = [], [], [], 0, 0
    for (client, cells, pulls, n), count in zip(planned, counts):
        steps, last = range(client.clock, client.clock + n), first + count
        client.clock = steps.stop
        if client.stage is Stage.EXHAUSTED:
            client.pull_log.append_batch((cells, pulls, None, regrets[first:last]), steps)
        else:
            if group and size + n > BUFFER_DOUBLES:
                groups.append((group, size))
                group, size = [], 0
            group.append((client, pulls, steps))
            size += n
            drawing.append((client, cells, pulls, first, last, steps))
        first = last
    if not drawing:
        return
    groups.append((group, size))
    if len(drawing) < len(planned):
        keep = np.repeat([client.stage is not Stage.EXHAUSTED for client, *_ in planned], counts)
        at, ks, values = at[keep], ks[keep], values[keep]
    sums, done = np.empty(len(ks)), 0
    for group, size in groups:
        done += _draw_and_sum(group, size, values[done:], sums[done:], suite.noise)

    flat = [array.ravel() for array in (table.pulls, table.sums, table.means, table.bounds)]
    pulls = flat[0][at] + ks
    totals = flat[1][at] + sums  # a reward sum is never -0.0, so 0.0 + it is it
    flat[0][at], flat[1][at], flat[2][at] = pulls, totals, totals / pulls
    flat[3][at] = confidence_bound(pulls, conf)

    sums, done = sums.tolist(), 0
    for client, cells, pulls, first, last, steps in drawing:
        client.pull_log.append_batch(
            (cells, pulls, sums[done:done + last - first], regrets[first:last]), steps)
        done += last - first


def _draw_and_sum(group: list, size: int, values: np.ndarray, out: np.ndarray, noise) -> int:
    """Sum the rewards of ``group``'s cells into ``out``, in order, from one ``size``-double buffer.

    Each ``(client, pulls, steps)`` call draws its slice from its own
    client's generator; ``values`` holds each cell's value.  A run of
    consecutive equal-count cells, across calls, is one (cells x pulls) view
    of the buffer, summed by row: each row reduces exactly as the cell's own
    slice would.  Returns the number of cells.
    """
    rewards, offset = np.empty(size), 0
    for client, _, steps in group:
        noise.draw(client.rng, len(steps), out=rewards[offset:offset + len(steps)])
        offset += len(steps)
    first = offset = 0
    for k, run in itertools.groupby(itertools.chain.from_iterable(call[1] for call in group)):
        last = first + len(list(run))
        rows = rewards[offset:offset + (last - first) * k].reshape(last - first, k)
        rows += values[first:last, None]  # in place: one array per buffer
        rows.sum(axis=1, out=out[first:last])
        first, offset = last, offset + (last - first) * k
    return first


def stage1_cohort(clients: list[Client], active: list[NodeId],
                  per_node_quota: int) -> list[ClientReport | None]:
    """One stage-one round: every client pulls every active cell ``per_node_quota`` times.

    The pulls are one ``pull_cohort``, each client's in index order.  A
    client whose budget falls short is exhausted in the middle of the
    phase, and reports nothing (``None``).  A budget that ends exactly with
    the phase exhausts the client on the first cell of the next phase.
    Every other client uploads its means and pulls of the active cells, its
    column of their rows of the table.
    """
    for client in clients:
        if client.stage != Stage.STAGE1:
            raise ProtocolFault(
                f"client {client.m} cannot sample stage one in stage {client.stage}")
    wants = [per_node_quota] * len(active)
    pull_cohort([(client, active, wants) for client in clients])
    table = clients[0].table
    rows = table.rows_of(active)
    means, pulls = table.means[rows].T, table.pulls[rows].T  # a row per client
    return [None if c.stage is Stage.EXHAUSTED else ClientReport(
        c.m, len(c.protected), means[c.m - 1], pulls[c.m - 1]) for c in clients]


def absorb_cohort(clients: list[Client], broadcast: ServerBroadcast) -> None:
    """Each client adopts the merged (mean, bound) of every survivor and advances one depth.

    The survivors' rows keep each client's own pulls and sums, and are
    protected from then on.  The clients stay in ``STAGE1``: the driver,
    not the broadcast, moves them on.
    """
    for client in clients:
        if client.stage != Stage.STAGE1:
            raise ProtocolFault(f"client {client.m} received a broadcast in stage {client.stage}")
        if broadcast.depth != len(client.protected):
            raise ProtocolFault(f"client {client.m} at depth {len(client.protected)} "
                                f"received a depth-{broadcast.depth} broadcast")
    table, survivors = clients[0].table, list(broadcast.stats)
    rows = list(map(table.rows.get, survivors))
    if None in rows:
        raise ProtocolFault(f"broadcast names unknown node {survivors[rows.index(None)]}")
    grid = np.array(rows, np.intp)[:, None], np.array([client.m - 1 for client in clients])
    held = table.pulls[grid]  # every client has statistics of the cell
    if not held.all():
        raise ProtocolFault(f"broadcast names unknown node {survivors[held.all(1).argmin()]}")
    merged = np.array(list(broadcast.stats.values()), dtype=float).reshape(-1, 2)
    table.means[grid], table.bounds[grid] = merged[:, :1], merged[:, 1:]
    protected = frozenset(survivors)
    for client in clients:
        client.protected[broadcast.depth] = protected


def pe_cohort(clients: list[Client]) -> None:
    """One personal depth for every client: settle, top up unprotected cells, eliminate, expand.

    The clients are at one depth; their active cells, client by client, are
    one flat run of table rows and columns.  A cell the server eliminated at
    the depth is tested on the client's own stage-one pulls against its best
    protected cell; if that test eliminates it, it is settled without a
    top-up.  Every other unprotected cell wants the depth threshold, less
    its stage-one pulls; the top-ups of all clients are one ``pull_cohort``.
    Protected cells keep their broadcast statistics, still compete for the
    best-cell slot, and are exempt from both sampling and elimination.  A
    budget that falls short exhausts its client there, before the depth's
    elimination; every step completed names its best cell.
    """
    table, h = clients[0].table, clients[0].pe_depth
    tau_h, slack = tau(h, clients[0].conf, clients[0].smooth), clients[0].smooth.slack(h)
    actives = [client.local_active for client in clients]
    counts = list(map(len, actives))
    ends = list(itertools.accumulate(counts))
    runs = list(zip([0, *ends], ends))  # each client's slice of the flat run
    rows = table.rows_of(itertools.chain.from_iterable(actives))
    at = rows * table.pulls.shape[1] + np.array([c.m - 1 for c in clients]).repeat(counts)
    flags = []
    for client, active in zip(clients, actives):
        prot = client.protected.get(h)
        held = list(map(prot.__contains__, active)) if prot else [False] * len(active)
        if prot and sum(held) != len(prot):
            raise ProtocolFault(f"client {client.m} has protected cells outside its active "
                                f"set at depth {h}")
        flags += held
    prot, own = np.array(flags, dtype=bool), table.pulls.ravel()[at]
    sample, settled = ~prot, []
    if True in flags:
        # Unprotected cells with stage-one pulls are exactly the cells the
        # server eliminated at the depth.  A client without a protected cell
        # has no reference, and settles none.
        means, bounds = table.means.ravel()[at], table.bounds.ravel()[at]
        ref = select_best(np.where(prot, means, -np.inf), counts)
        settled = eliminate(means, bounds, ref, counts, slack,
                            sample & (own > 0) & prot[ref].repeat(counts))
        sample[settled] = False
        settled = settled.tolist()
    picks, own = sample.tolist(), own.tolist()
    pull_cohort([(client, list(itertools.compress(active, picks[first:last])),
                  list(map(tau_h.__sub__, itertools.compress(own[first:last], picks[first:last]))))
                 for client, active, (first, last) in zip(clients, actives, runs)])

    means, bounds = table.means.ravel()[at], table.bounds.ravel()[at]
    best = select_best(means, counts)
    dropped = eliminate(means, bounds, best, counts, slack, sample).tolist()  # never a protected cell
    # Each cell's fate as flags for itertools.compress: settled, dropped or kept.
    settled_at, dropped_at, kept = [False] * len(flags), [False] * len(flags), [True] * len(flags)
    for i in settled:
        settled_at[i], kept[i] = True, False
    for i in dropped:
        dropped_at[i], kept[i] = True, False
    for client, b, (first, last) in zip(clients, best, runs):
        if client.stage is Stage.EXHAUSTED:
            continue
        active = client.local_active
        # The settled set joined by the eliminated one, each built in cell
        # order: this fixes the event's set layout, and so its repr.
        removed = (set(itertools.compress(active, settled_at[first:last]))
                   | set(itertools.compress(active, dropped_at[first:last])))
        survivors = tuple(itertools.compress(active, kept[first:last]))
        client.pe_events.append(EliminationEvent(h, active[b - first], frozenset(removed),
                                                 survivors))
        client.local_active = table.expand(survivors)  # in index order
        client.pe_depth += 1


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
        absorb_cohort(clients, server.step(reports, clock=clients[0].clock))

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
