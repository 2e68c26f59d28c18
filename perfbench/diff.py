"""Per-layer metrics of two traced results, side by side.

Usage: python3 perfbench/diff.py BASE.json HEAD.json

Both files are written by ``run.py --trace 1 --out FILE`` (one workload or
``--workload all``).  For every metric of every workload the table gives
the base value, the head value and head / base, so a change shows in which
layer its saving or its cost appears.
"""
from __future__ import annotations

import json
import sys


def _by_workload(path: str) -> dict[str, dict]:
    with open(path) as fh:
        data = json.load(fh)
    results = data if isinstance(data, list) else [data]
    return {r["workload"]: r["metrics"] for r in results}


def diff_rows(base: dict[str, dict], head: dict[str, dict]) -> list[tuple]:
    """(workload, metric, unit, base, head, ratio) for every metric of either side."""
    rows = []
    for workload in sorted(set(base) | set(head)):
        b, h = base.get(workload, {}), head.get(workload, {})
        for name in sorted(set(b) | set(h)):
            bv = b[name]["value"] if name in b else None
            hv = h[name]["value"] if name in h else None
            unit = (b.get(name) or h.get(name))["unit"]
            ratio = hv / bv if bv not in (None, 0) and hv is not None else None
            rows.append((workload, name, unit, bv, hv, ratio))
    return rows


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    print(f"{'workload':<13} {'metric':<32} {'unit':<6} {'base':>12} {'head':>12} head/base")
    for workload, name, unit, bv, hv, ratio in diff_rows(_by_workload(argv[0]),
                                                          _by_workload(argv[1])):
        shown = "-" if ratio is None else f"{ratio:.3f} (base {_fmt(bv)})"
        print(f"{workload:<13} {name:<32} {unit:<6} {_fmt(bv):>12} {_fmt(hv):>12} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
