"""The benchmark's own logic: span arithmetic, output checks, metric names."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import diff  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = ["run", "--objective", "garland", "--clients", "3", "--horizon", "200",
        "--variant", "pfpne", "--variant", "global-only", "--variant", "local-only",
        "--seed", "5"]
TINY_VARIANTS = ("pfpne", "global-only", "local-only")


def span(name, start, end, parent=-1, count=None):
    return (name, start, end, parent, "r", count)


def test_self_times_on_hand_built_tree():
    tree = [
        span("cli.execute", 0, 100),           # 0
        span("harness.run", 10, 40, 0),        # 1
        span("objectives.eval_local", 15, 25, 1),  # 2
        span("harness.run", 50, 70, 0),        # 3
        span("protocol.pe_step", 60, 65, 3),   # 4
        span("cli.write_outputs", 110, 130),   # 5
    ]
    assert spans.self_times_ns(tree) == [50, 20, 10, 15, 5, 20]
    # window [0, 150]: roots cover [0, 100] and [110, 130]
    assert spans.untraced_ns(tree, 0, 150) == 30
    # only the overlap with the window counts
    assert spans.untraced_ns(tree, 90, 120) == 10


def test_union_of_overlapping_intervals():
    assert spans.covered_ns([(0, 10), (5, 20), (30, 40), (35, 36)]) == 30
    assert spans.covered_ns([]) == 0


def test_layer_metrics_from_hand_built_tree():
    tree = [
        span("objectives.make_base", 0, 5),                      # set-up, outside the window
        span("cli.execute", 10, 90),
        span("harness.run", 12, 80, 1),
        span("protocol.run_protocol", 20, 70, 2),
        span("protocol.append_batch", 30, 40, 3, count=100),
        span("protocol.append_batch", 40, 60, 3, count=300),
        span("cli.write_outputs", 90, 99, count=7),
    ]
    m = spans.layer_metrics(tree, len(tree), 10, 100, workers=1)
    assert m["objectives.base_cert_s"] == pytest.approx(5e-9)
    assert m["objectives.self_s"] == 0  # set-up is outside main(argv)
    assert m["protocol.pulls"] == 400
    assert m["protocol.pull_batches"] == 2
    assert m["protocol.pulls_per_s"] == pytest.approx(400 / 50e-9)
    assert m["harness.run_self_s"] == pytest.approx(18e-9)
    assert m["cli.pool_idle_s"] == pytest.approx(12e-9)
    assert m["cli.rows_written"] == 7
    assert m["trace.untraced_s"] == pytest.approx(1e-9)
    layer_self = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_self + m["trace.untraced_s"] == pytest.approx(m["trace.wall_s"])


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    from fedelim.cli import main
    out = tmp_path_factory.mktemp("tiny") / "out"
    assert main(TINY + ["--out", str(out)]) == 0
    return out


def _check(out, code=0, reference=None):
    return check.check_run(out, code, TINY_VARIANTS, [5], 200, reference)


def test_check_accepts_real_outputs_and_their_reference(tiny_run):
    assert _check(tiny_run) == []
    assert _check(tiny_run, reference=check.make_reference(tiny_run, 5)) == []


def test_check_rejects_nonzero_exit(tiny_run):
    assert _check(tiny_run, code=3) == ["exit code 3"]


def test_check_rejects_tampered_regret(tiny_run, tmp_path):
    reference = check.make_reference(tiny_run, 5)
    out = tmp_path / "out"
    out.mkdir()
    for name in check.FILES:
        (out / name).write_bytes((tiny_run / name).read_bytes())
    lines = (out / "regret.csv").read_text().splitlines()
    variant, seed, t, value = lines[7].split(",")
    lines[7] = ",".join([variant, seed, t, repr(float(value) * (1 + 1e-6))])
    (out / "regret.csv").write_text("\n".join(lines) + "\n")
    problems = _check(out, reference=reference)
    assert problems and all("regret" in p for p in problems)
    # a dropped row breaks the invariants even without a reference
    (out / "regret.csv").write_text("\n".join(lines[:7] + lines[8:]) + "\n")
    assert _check(out)


def test_check_rejects_missing_file(tiny_run, tmp_path):
    (tmp_path / "regret.csv").write_bytes((tiny_run / "regret.csv").read_bytes())
    assert _check(tmp_path) == ["missing comm.csv, summary.json"]


def _rep(tmp_path, tag, traced):
    result = tmp_path / f"{tag}.json"
    trace_dir = tmp_path / f"{tag}-trace"
    trace_dir.mkdir()
    out = tmp_path / f"{tag}-out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), FEDELIM_THREADS="1")
    subprocess.run([sys.executable, str(BENCH / "rep.py"), str(result), "garland",
                    str(trace_dir) if traced else "-", "--", *TINY, "--out", str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return json.loads(result.read_text()), out


def test_traced_repetition_reports_every_layer_and_same_outputs(tmp_path):
    plain, plain_out = _rep(tmp_path, "plain", traced=False)
    traced, traced_out = _rep(tmp_path, "traced", traced=True)
    assert "layers" not in plain
    assert check.digest(plain_out) == check.digest(traced_out)
    layers = traced["layers"]
    assert layers["protocol.pulls"] == 3 * 3 * 200  # variants x clients x horizon
    assert layers["objectives.suite_builds"] == 3
    assert layers["fedcore.reports_merged"] > 0


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = set(spans.layer_metrics([], 0, 0, 0, 1)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert NAME_RE.fullmatch(m["name"]), m["name"]
        expected = run.layer_unit(m["name"]) if m in spec["per_layer"] else run.END_TO_END_UNITS[m["name"]]
        assert m["unit"] == expected


def test_diff_gives_ratio_and_base():
    base = {"w": {"a_s": {"value": 2.0, "unit": "s"}, "gone": {"value": 1, "unit": "count"}}}
    head = {"w": {"a_s": {"value": 1.0, "unit": "s"}}}
    rows = diff.diff_rows(base, head)
    assert rows == [("w", "a_s", "s", 2.0, 1.0, 0.5), ("w", "gone", "count", 1, None, None)]
