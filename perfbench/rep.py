"""One repetition of a workload, in a fresh process.

Usage: python3 rep.py RESULT_JSON OBJECTIVE TRACE_DIR|- -- [FEDELIM_ARGV...]

Times ``import fedelim`` plus the certification of the workload's base
objective by ``make_base`` (the set-up every ``fedelim`` invocation pays),
then ``fedelim.cli.main(argv)`` itself, and writes the timings, CPU time and
peak RSS to RESULT_JSON.  With a trace directory instead of ``-`` every
layer's entry points are wrapped (see spans.py) and the per-layer metrics
are written too.  The exit code is that of ``main``.  Without FEDELIM_ARGV
only the set-up is timed.
"""
import json
import os
import resource
import sys
import time


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    result_path, objective, trace_dir, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: rep.py RESULT_JSON OBJECTIVE TRACE_DIR|- -- FEDELIM_ARGV...")
    t0 = time.perf_counter_ns()
    import fedelim.cli
    import fedelim.objectives
    tracer = None
    if trace_dir != "-":
        import spans
        tracer = spans.Tracer(run_id=f"rep-{os.getpid()}", worker_dir=trace_dir)
        spans.install(tracer)
    fedelim.objectives.make_base(objective)  # cached: main() reuses this certificate
    t1 = time.perf_counter_ns()
    if not argv:
        with open(result_path, "w") as fh:
            json.dump({"setup_s": (t1 - t0) * 1e-9}, fh)
        return 0
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    w0 = time.perf_counter_ns()
    code = fedelim.cli.main(argv)
    w1 = time.perf_counter_ns()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    import numpy
    record = {
        "exit_code": code,
        # includes installing the wrappers in a traced repetition, which is
        # why only untraced repetitions report end-to-end metrics
        "setup_s": (t1 - t0) * 1e-9,
        "wall_s": (w1 - w0) * 1e-9,
        "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
        # ru_maxrss is in KiB on Linux; children holds the largest pool worker
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        threads = int(os.environ.get("FEDELIM_THREADS", "1") or "1")
        all_spans, n_main = tracer.all_spans()
        record["layers"] = spans.layer_metrics(all_spans, n_main, w0, w1, max(threads, 1))
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
