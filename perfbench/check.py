"""Output checks for one ``fedelim run`` repetition.

Every repetition must exit 0 and write ``regret.csv``, ``comm.csv`` and
``summary.json`` that satisfy the invariants below.  For the seed a
reference was recorded with, the outputs must also match that reference:
``comm.csv``, the transition times and the round counts exactly, the regret
row count exactly, and regret values within ``REGRET_RTOL``, because the
regret sums may change in their last bits when their summation order does.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

FILES = ("regret.csv", "comm.csv", "summary.json")
# The output format is restated here, not imported from fedelim, so that the
# check does not take the program's word for what it should write.
REGRET_HEADER = ["variant", "seed", "t", "avg_cum_regret"]
COMM_HEADER = ["variant", "seed", "round_index", "depth", "scalars_up", "scalars_down",
               "cumulative_scalars"]
REGRET_RTOL = 1e-9
CHECKPOINT_STRIDE = 10  # the fedelim default; no workload overrides it
SAMPLES_PER_RUN = 64


def digest(out_dir: Path) -> str:
    """One hash over the three output files, for the determinism check."""
    h = hashlib.sha256()
    for name in FILES:
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()


def checkpoints(horizon: int) -> list[int]:
    ticks = list(range(CHECKPOINT_STRIDE, horizon + 1, CHECKPOINT_STRIDE))
    if not ticks or ticks[-1] != horizon:
        ticks.append(horizon)
    return ticks


def _read_csv(path: Path, header: list[str]):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header is not {','.join(header)}")
    return rows[1:]


def _groups(rows):
    """Rows grouped by (variant, seed), in file order."""
    out: dict[tuple[str, int], list] = {}
    for row in rows:
        out.setdefault((row[0], int(row[1])), []).append(row)
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REGRET_RTOL, abs_tol=1e-12)


def _invariants(out: Path, variants, seeds, horizon) -> list[str]:
    problems = []
    regret = _groups(_read_csv(out / "regret.csv", REGRET_HEADER))
    comm = _groups(_read_csv(out / "comm.csv", COMM_HEADER))
    summary = json.loads((out / "summary.json").read_text())
    expected = {(v, s) for v in variants for s in seeds}
    if set(regret) != expected:
        problems.append(f"regret.csv covers {sorted(regret)}, expected {sorted(expected)}")
    ticks = checkpoints(horizon)
    for key, rows in regret.items():
        if [int(r[2]) for r in rows] != ticks:
            problems.append(f"regret.csv {key}: checkpoints differ from the stride-{CHECKPOINT_STRIDE} grid")
        for r in rows:
            value = float(r[3])
            if not math.isfinite(value) or abs(value) > int(r[2]) + 1e-9:
                problems.append(f"regret.csv {key}: impossible regret {r[3]} at t={r[2]}")
                break
    for key, rows in comm.items():
        if key[0] == "local-only":
            problems.append(f"comm.csv {key}: local-only must not communicate")
        total = 0
        for i, r in enumerate(rows, start=1):
            idx, depth, up, down, cum = map(int, r[2:])
            total += up + down
            if idx != i or depth != i - 1 or cum != total:
                problems.append(f"comm.csv {key}: round {i} is out of sequence")
                break
    if sorted(summary) != sorted(variants):
        problems.append(f"summary.json variants {sorted(summary)}, expected {sorted(variants)}")
        return problems
    for v in variants:
        entry = summary[v]
        rounds = sum(len(comm.get((v, s), ())) for s in seeds) / len(seeds)
        if entry["comm_rounds_mean"] != rounds:
            problems.append(f"summary.json {v}: comm_rounds_mean disagrees with comm.csv")
        finals = [float(regret[(v, s)][-1][3]) for s in seeds if (v, s) in regret]
        if finals and not _close(entry["final_regret_mean"], sum(finals) / len(finals)):
            problems.append(f"summary.json {v}: final_regret_mean disagrees with regret.csv")
        t = entry["stage_transition_t_mean"]
        if v == "local-only" and t != 0.0:
            problems.append(f"summary.json {v}: transition {t}, expected 0")
        if v == "global-only" and t is not None:
            problems.append(f"summary.json {v}: transition {t}, expected none")
        if v == "pfpne" and t is not None and not 0 <= t <= horizon:
            problems.append(f"summary.json {v}: transition {t} outside the horizon")
    return problems


def make_reference(out_dir: Path, seed: int) -> dict:
    """The reference record of a checked run's outputs."""
    out = Path(out_dir)
    regret = _read_csv(out / "regret.csv", REGRET_HEADER)
    summary = json.loads((out / "summary.json").read_text())
    samples = []
    for rows in _groups(regret).values():
        step = max(1, len(rows) // SAMPLES_PER_RUN)
        picked = rows[step - 1::step]
        if picked[-1] is not rows[-1]:
            picked.append(rows[-1])
        samples += [[r[0], int(r[1]), int(r[2]), float(r[3])] for r in picked]
    return {
        "seed": seed,
        "comm_sha256": hashlib.sha256((out / "comm.csv").read_bytes()).hexdigest(),
        "regret_rows": len(regret),
        "transition_t": {v: e["stage_transition_t_mean"] for v, e in summary.items()},
        "comm_rounds": {v: e["comm_rounds_mean"] for v, e in summary.items()},
        "final_regret": {v: e["final_regret_mean"] for v, e in summary.items()},
        "regret_samples": samples,
    }


def _against_reference(out: Path, ref: dict) -> list[str]:
    problems = []
    now = make_reference(out, ref["seed"])
    for key in ("comm_sha256", "regret_rows", "transition_t", "comm_rounds"):
        if now[key] != ref[key]:
            problems.append(f"{key} differs from the reference: {now[key]} != {ref[key]}")
    finals = now["final_regret"]
    for v, value in ref["final_regret"].items():
        if v not in finals or not _close(finals[v], value):
            problems.append(f"final regret of {v} differs from the reference")
    values = {tuple(s[:3]): s[3] for s in now["regret_samples"]}
    for variant, seed, t, value in ref["regret_samples"]:
        got = values.get((variant, seed, t))
        if got is None or not _close(got, value):
            problems.append(f"regret of {variant} seed {seed} at t={t}: {got} != {value}")
            break
    return problems


def check_run(out_dir: Path, exit_code: int, variants, seeds, horizon,
              reference: dict | None) -> list[str]:
    """Problems with one repetition's outputs; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out = Path(out_dir)
    missing = [name for name in FILES if not (out / name).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    try:
        problems = _invariants(out, variants, seeds, horizon)
        if reference is not None:
            problems += _against_reference(out, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"malformed output: {exc}"]
    return problems
