"""Span tracing for the benchmark's traced run, and the per-layer metrics.

The program is not instrumented itself.  ``install`` replaces each layer's
public entry points, at the name its caller looks up, with a wrapper that
records a span: name, start, end, parent span, run id and an optional count
taken from the call's arguments or result.  ``from x import f`` binds ``f``
at import time, so a function is wrapped in every module that calls it.

Spans stay in memory and are written out once, when the traced repetition
ends.  Pool workers are forked from the traced process and inherit the
wrappers; each worker task keeps its own spans and writes them to a file
that the traced process merges, so no span recorded in a worker is lost.
"""
from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

# A span is (name, start_ns, end_ns, parent, run_id, count); parent is the
# index of the enclosing span in the same list, or -1 for a root span.
NAME, START, END, PARENT, RUN, COUNT = range(6)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str, worker_dir: Path):
        self.run_id = run_id
        self.worker_dir = Path(worker_dir)
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list[int] = []
        self._dumps = 0

    def wrap(self, fn, name: str, count=None):
        """``fn`` with a span around each call; ``count(args, result)`` gives its count."""
        tracer = self  # read the lists through the tracer: a worker task replaces them

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
            n = count(args, result) if count is not None else None
            tracer.spans[idx] = (name, start, end, parent, tracer.run_id, n)
            return result

        return traced

    def wrap_worker_task(self, fn, name: str):
        """Wrap a pool task so a forked worker writes out the spans it records."""
        inner = self.wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def task(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return inner(*args, **kwargs)
            # Forked worker: drop the spans copied from the parent at fork.
            tracer.spans, tracer.stack = [], []
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._dumps += 1
                path = tracer.worker_dir / f"worker-{os.getpid()}-{tracer._dumps}.json"
                path.write_text(json.dumps(tracer.spans))

        return task

    def all_spans(self) -> tuple[list, int]:
        """This process's spans followed by the pool workers', and the count of the former.

        Worker parents are re-indexed so that every span lives in one list.
        """
        merged = list(self.spans)
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            offset = len(merged)
            for s in json.loads(path.read_text()):
                parent = s[PARENT] + offset if s[PARENT] >= 0 else -1
                merged.append((s[NAME], s[START], s[END], parent, s[RUN], s[COUNT]))
        return merged, len(self.spans)


def _suite_counts(args, suite):
    """(local probes, global probes x clients, translations, clients) of one suite."""
    local = sum(c.probes for c in suite.local_optima)
    translated = sum(c.method == "shift-translation" for c in suite.local_optima)
    # A one-client suite reuses the local certificate as the global one.
    global_evals = suite.global_optimum.probes * suite.clients if suite.clients > 1 else 0
    return [local, global_evals, translated, suite.clients]


def _rows_written(args, result):
    results = args[0]
    return sum(len(r.checkpoints) + len(r.comm_rounds)
               for agg in results.values() for r in agg.runs)


def _step_scalars(args, result):
    rnd = args[0].comm_rounds[-1]
    return [rnd.scalars_up, rnd.scalars_down]


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every fedelim layer."""
    import fedelim.cli as cli
    import fedelim.harness as harness
    import fedelim.objectives as objectives
    import fedelim.protocol as protocol

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))

    # objectives: base certification, suites, certificates, cell values, noise
    for owner in (objectives, harness, cli):
        patch(owner, "make_base", "objectives.make_base")
    for owner in (harness, cli):
        patch(owner, "make_suite", "objectives.make_suite", _suite_counts)
    patch(objectives, "_certify_shifted", "objectives.certify_shifted")
    patch(objectives, "oracle_optimum", "objectives.oracle_optimum")
    patch(objectives.ObjectiveSuite, "eval_local", "objectives.eval_local")
    patch(objectives.NoiseModel, "draw", "objectives.noise_draw")
    # partition: cell centers, looked up by the protocol
    patch(protocol, "representative", "partition.representative")
    # fedcore: aggregation and elimination rules, looked up by the protocol
    patch(protocol, "merge_global", "fedcore.merge_global", lambda a, r: len(a[0]))
    patch(protocol, "select_best", "fedcore.select_best")
    patch(protocol, "eliminate", "fedcore.eliminate", lambda a, r: len(r))
    # protocol: driver, stage one, server, personalized elimination, pull log
    patch(harness, "run_protocol", "protocol.run_protocol")
    patch(protocol.Client, "run_stage1_phase", "protocol.stage1_phase")
    patch(protocol.Server, "step", "protocol.server_step", _step_scalars)
    patch(protocol.Client, "run_pe", "protocol.run_pe")
    patch(protocol.Client, "pe_step", "protocol.pe_step")
    patch(protocol.PullLog, "append_batch", "protocol.append_batch", lambda a, r: len(a[2]))
    # harness: runs, aggregation, regret accounting
    patch(harness, "run", "harness.run")
    patch(cli, "run", "harness.run")
    patch(cli, "run_many", "harness.run_many")
    patch(harness, "average_regret_trace", "harness.regret_trace")
    # cli: execution (serial or pool) and output writing
    patch(cli, "_execute", "cli.execute")
    patch(cli, "write_outputs", "cli.write_outputs", _rows_written)
    cli._run_one = tracer.wrap_worker_task(cli._run_one, "cli.run_one")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(a, s[START]), min(b, s[END])) for a, b in kids if b > s[START] and a < s[END]]
        out.append(s[END] - s[START] - covered_ns(clipped))
    return out


def untraced_ns(spans, window_start: int, window_end: int) -> int:
    """Time in [window_start, window_end] that no root span covers."""
    roots = [(max(s[START], window_start), min(s[END], window_end))
             for s in spans if s[PARENT] < 0 and s[END] > window_start and s[START] < window_end]
    return (window_end - window_start) - covered_ns(roots)


LAYERS = ("partition", "objectives", "fedcore", "protocol", "harness", "cli")


def layer_metrics(spans, n_main: int, window_start: int, window_end: int,
                  workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced ``fedelim run``.

    ``spans`` holds the traced process's ``n_main`` spans followed by those
    of its pool workers; ``[window_start, window_end]`` is the ``main(argv)``
    call.  Spans of the traced process outside it (base certification during
    set-up) count only toward ``objectives.base_cert_s``.  ``workers`` is
    the pool size, 1 when serial.
    """
    sec = 1e-9
    selfs = self_times_ns(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def dur(name, where=None):
        return sec * sum(s[END] - s[START] for s in by_name.get(name, ()) if where is None or where(s))

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, k=None):
        return sum(s[COUNT] if k is None else s[COUNT][k] for s in by_name.get(name, ()))

    suite_idx = {i for i, s in enumerate(spans) if s[NAME] == "objectives.make_suite"}
    run_idx = {i for i, s in enumerate(spans) if s[NAME] == "harness.run"}
    clients = total("objectives.make_suite", 3)
    protocol_s = dur("protocol.run_protocol")
    pulls = total("protocol.append_batch")
    out = {
        "objectives.base_cert_s": dur("objectives.make_base"),
        "objectives.suite_s": dur("objectives.make_suite"),
        "objectives.local_cert_s": dur("objectives.certify_shifted"),
        "objectives.global_cert_s": dur("objectives.oracle_optimum", lambda s: s[PARENT] in suite_idx),
        "objectives.suite_builds": calls("objectives.make_suite"),
        "objectives.base_evals": total("objectives.make_suite", 0) + total("objectives.make_suite", 1),
        "objectives.translation_ratio": total("objectives.make_suite", 2) / clients if clients else 0.0,
        "objectives.cell_evals": calls("objectives.eval_local"),
        "objectives.cell_eval_s": dur("objectives.eval_local"),
        "objectives.noise_draw_s": dur("objectives.noise_draw"),
        "partition.representative_calls": calls("partition.representative"),
        "partition.representative_s": dur("partition.representative"),
        "protocol.pulls": pulls,
        "protocol.pull_batches": calls("protocol.append_batch"),
        "protocol.pull_log_s": dur("protocol.append_batch"),
        "protocol.pulls_per_s": pulls / protocol_s if protocol_s > 0 else 0.0,
        "protocol.run_s": protocol_s,
        "protocol.stage1_s": dur("protocol.stage1_phase"),
        "protocol.server_step_s": dur("protocol.server_step"),
        "protocol.pe_s": dur("protocol.run_pe"),
        "protocol.pe_steps": calls("protocol.pe_step"),
        "protocol.pe_fallback_s": dur("protocol.run_pe") - dur("protocol.pe_step"),
        "fedcore.merge_s": dur("fedcore.merge_global"),
        "fedcore.reports_merged": total("fedcore.merge_global"),
        "fedcore.select_eliminate_s": dur("fedcore.select_best") + dur("fedcore.eliminate"),
        "fedcore.cells_eliminated": total("fedcore.eliminate"),
        "fedcore.scalars_up": total("protocol.server_step", 0),
        "fedcore.scalars_down": total("protocol.server_step", 1),
        "harness.run_self_s": sec * sum(selfs[i] for i in run_idx),
        "harness.regret_trace_s": dur("harness.regret_trace"),
        "cli.write_s": dur("cli.write_outputs"),
        "cli.rows_written": total("cli.write_outputs"),
        "cli.pool_idle_s": workers * dur("cli.execute") - dur("harness.run"),
    }
    # Self time per layer, over the main(argv) window and the pool workers.
    inside = [i for i, s in enumerate(spans)
              if i >= n_main or (s[START] >= window_start and s[END] <= window_end)]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sec * sum(selfs[i] for i in inside
                                           if spans[i][NAME].split(".", 1)[0] == layer)
    out["trace.untraced_s"] = sec * untraced_ns(spans[:n_main], window_start, window_end)
    out["trace.wall_s"] = sec * (window_end - window_start)
    out["trace.spans"] = len(spans)
    return out
