"""Benchmark of the ``fedelim run`` command on three workloads.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  python3 perfbench/run.py --workload all ...      # every workload, one table
  python3 perfbench/run.py --workload NAME --seed 0 --record-reference

Run from the root of a checkout: the program is imported from ``src/``.
Each repetition is a fresh process (rep.py) that times set-up (``import
fedelim`` plus base certification) and then ``fedelim.cli.main(argv)``.
Another repetition starts while one as long as the longest so far would
end within ``--seconds``; at least one always runs.  Every repetition's outputs are checked (check.py),
and the repetitions of one run must write identical bytes.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's repetitions.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones (spans.py),
plus the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` (repetitions run), ``failed``
(repetitions that exited non-zero or failed a check) and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 0
# Set-up is timed in every repetition and, while there are fewer than
# SETUP_SAMPLES times, by set-up-only processes: at least MIN_SETUP_SAMPLES of
# them, and more only while the probes have taken under a fifth of --seconds.
SETUP_SAMPLES = 9
MIN_SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0  # every run ends well within three minutes


@dataclass(frozen=True)
class Workload:
    """One ``fedelim run`` invocation; the benchmark seed is its ``--seed``."""

    objective: str
    clients: int
    horizon: int
    variants: tuple[str, ...]
    runs: int
    threads: int  # FEDELIM_THREADS: above 1, runs go to a process pool

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        args = ["run", "--objective", self.objective, "--clients", str(self.clients),
                "--horizon", str(self.horizon)]
        for v in self.variants:
            args += ["--variant", v]
        return args + ["--runs", str(self.runs), "--seed", str(seed), "--out", str(out_dir)]

    def seeds(self, seed: int) -> list[int]:
        return [seed + i for i in range(self.runs)]


# Why each workload was chosen, and what each should show: README.md.
WORKLOADS = {
    "cert-ackley": Workload("ackley", 2, 5000, ("pfpne", "local-only"), 1, 1),
    "long-horizon": Workload("garland", 10, 1_000_000, ("pfpne",), 1, 1),
    "wide-pool": Workload("garland", 100, 100_000, ("pfpne", "local-only"), 2, 2),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

class Runner:
    """Runs repetitions of one workload and keeps their records."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.count = 0
        ref = REFERENCE_DIR / f"{name}.json"
        self.reference = (json.loads(ref.read_text())
                          if seed == REFERENCE_SEED and ref.is_file() else None)
        self.records: list[dict] = []
        self.digests: set[str] = set()

    def spawn(self, argv: list[str], trace: bool) -> tuple[int, dict | None, str]:
        self.count += 1
        result = self.work / f"rep-{self.count}.json"
        trace_dir = self.work / f"trace-{self.count}"
        if trace:
            trace_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   FEDELIM_THREADS=str(self.workload.threads))
        cmd = [sys.executable, str(HERE / "rep.py"), str(result), self.workload.objective,
               str(trace_dir) if trace else "-", "--", *argv]
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the repetition and its pool workers
            _, err = proc.communicate()
            err += f"\nrepetition killed after {timeout:.0f} s"
        record = json.loads(result.read_text()) if result.is_file() else None
        shutil.rmtree(trace_dir, ignore_errors=True)
        return proc.returncode, record, err

    def setup_probe(self) -> dict | None:
        """A process that only does the set-up: import and base certification."""
        code, record, _ = self.spawn([], trace=False)
        return record if code == 0 else None

    def repetition(self, trace: bool) -> dict:
        out_dir = self.work / f"out-{self.count + 1}"
        code, record, err = self.spawn(self.workload.argv(self.seed, out_dir), trace)
        problems = check.check_run(out_dir, code, self.workload.variants,
                                   self.workload.seeds(self.seed), self.workload.horizon,
                                   self.reference)
        if not problems:
            # The repetitions of one run must write identical bytes.
            self.digests.add(check.digest(out_dir))
            if len(self.digests) > 1:
                problems.append("outputs differ from an earlier repetition of this run")
        shutil.rmtree(out_dir, ignore_errors=True)
        if record is None:
            record = {}
            problems = problems or ["repetition wrote no result"]
        if problems:
            print(f"{self.name}: repetition {self.count} failed: {'; '.join(problems)}",
                  file=sys.stderr)
            if err.strip():
                print(err.strip()[-2000:], file=sys.stderr)
        record.update(traced=trace, failed=bool(problems), problems=problems)
        self.records.append(record)
        return record


def _warm_up() -> None:
    """Import fedelim once, untimed, so that its bytecode is compiled and cached."""
    subprocess.run([sys.executable, "-c", "import fedelim.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60, check=False)


def _median(values):
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    start = time.monotonic()
    runner = Runner(name, seed, work, start + RUN_DEADLINE_S)
    _warm_up()
    batch = (True, False) if trace else (False,)
    longest = 0.0
    # Another repetition starts if one as long as the longest so far would end
    # within --seconds.
    while not runner.records or time.monotonic() - start + longest <= seconds:
        if time.monotonic() + 1.5 * longest > runner.deadline:
            break
        t0 = time.monotonic()
        for traced in batch:
            runner.repetition(traced)
        longest = max(longest, time.monotonic() - t0)

    untraced = [r for r in runner.records if not r["traced"] and not r["failed"]]
    setups = [r["setup_s"] for r in untraced]
    probes_start = time.monotonic()
    while not trace and len(setups) < SETUP_SAMPLES and time.monotonic() < runner.deadline - 30:
        if len(setups) >= MIN_SETUP_SAMPLES and time.monotonic() - probes_start > seconds / 5:
            break
        probe = runner.setup_probe()
        if probe is not None:
            setups.append(probe["setup_s"])

    failed = sum(r["failed"] for r in runner.records)
    metrics: dict[str, dict] = {}
    if trace:
        traced = [r for r in runner.records if r["traced"] and not r["failed"]]
        if traced and untraced:
            for key in traced[0]["layers"]:
                metrics[key] = _median([r["layers"][key] for r in traced])
            metrics["trace.overhead_frac"] = (_median([r["wall_s"] for r in traced])
                                              / _median([r["wall_s"] for r in untraced]) - 1.0)
        units = {k: layer_unit(k) for k in metrics}
    else:
        if untraced:
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                metrics[key] = _median([r[key] for r in untraced])
            metrics["setup_s"] = _median(setups)
        units = END_TO_END_UNITS
    return {
        "workload": name,
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": {"repetitions": runner.records, "setup_s": setups},
        "elapsed_s": time.monotonic() - start,
        "numpy": next((r["numpy"] for r in runner.records if "numpy" in r), None),
    }


# ---------------------------------------------------------------------------
# Environment record, reports
# ---------------------------------------------------------------------------

def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git(*args) -> str | None:
    # The ceiling keeps git from searching above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha is not None else None
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "loadavg_start": _loadavg(),
    }


def print_table(result: dict) -> None:
    for key, m in sorted(result["metrics"].items()):
        print(f"{result['workload']:<13} {key:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"{result['workload']:<13} {'failed_runs':<32} {result['failed']:>14d} count "
          f"(of {result['attempted']} attempted)")


def record_reference(name: str, work: Path) -> int:
    """Run the reference seed once and store its output digest."""
    workload = WORKLOADS[name]
    runner = Runner(name, REFERENCE_SEED, work, time.monotonic() + 600)
    out_dir = work / "reference-out"
    code, _, err = runner.spawn(workload.argv(REFERENCE_SEED, out_dir), trace=False)
    problems = check.check_run(out_dir, code, workload.variants,
                               workload.seeds(REFERENCE_SEED), workload.horizon, None)
    if problems:
        print(f"{name}: {'; '.join(problems)}\n{err}", file=sys.stderr)
        return 1
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(check.make_reference(out_dir, REFERENCE_SEED), indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with every sample, here")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store the seed-{REFERENCE_SEED} output reference of the workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedelim" / "cli.py").is_file():
        print(f"perfbench: no fedelim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.record_reference:
            if args.workload == "all" or args.seed != REFERENCE_SEED:
                parser.error(f"--record-reference takes one workload and seed {REFERENCE_SEED}")
            return record_reference(args.workload, work)
        env = environment(args.seed)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), work) for n in names]
        env["loadavg_end"] = _loadavg()
        env["numpy"] = results[0]["numpy"]
        for result in results:
            result["env"] = env
            print_table(result)
        print("env " + json.dumps(env, sort_keys=True))
        if args.out:
            Path(args.out).write_text(json.dumps(results if len(results) > 1 else results[0],
                                                 indent=1) + "\n")
        keys = ("correct", "attempted", "failed", "metrics")
        if len(results) == 1:
            print(json.dumps({k: results[0][k] for k in keys}))
        else:
            print(json.dumps({r["workload"]: {k: r[k] for k in keys} for r in results}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
