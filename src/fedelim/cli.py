"""Command-line entry point: run experiments, or print certificates and the base's census.

A config file sets fields of ``harness.ExperimentConfig``: its keys and their
types are the dataclass's fields, plus ``variants``, a list of ``variant``
values.  Keys may sit in any section, ``[DEFAULT]`` included, and values are
read literally (no ``%`` interpolation).  An ``ExperimentConfig`` checks
every setting when it is built, and ``run`` raises every configuration error
before it creates its output directory.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 runtime
fault.  ``FEDELIM_THREADS`` caps how many (variant, seed) runs execute in
parallel worker processes; a single run executes in this process.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import types
import typing
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from pathlib import Path

from .fedcore import ProtocolFault
from .harness import (
    VARIANTS,
    AggregateMetrics,
    ConfigError,
    ExperimentConfig,
    run,
    run_many,
)
from .objectives import (
    OBJECTIVE_NAMES,
    OracleFailure,
    make_base,
    make_suite,
    near_optimal_census,
)

REGRET_HEADER = ["variant", "seed", "t", "avg_cum_regret"]
COMM_HEADER = ["variant", "seed", "round_index", "depth", "scalars_up", "scalars_down",
               "cumulative_scalars"]
FLOAT_FORMAT = "%.17g"  # 17 significant digits round-trip a float64
ROW_BLOCK = 4096  # regret rows formatted per write, so no run's text is built whole

# A config file's keys and their types: ExperimentConfig's fields, plus
# `variants`, which lists several `variant` values.
_KEY_TYPES = typing.get_type_hints(ExperimentConfig)
_KEY_TYPES["variants"] = tuple[_KEY_TYPES["variant"], ...]
_CONFIG_KEYS = set(_KEY_TYPES)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits (round-trips float64)."""
    return FLOAT_FORMAT % float(x)


def load_config_file(path: str) -> dict:
    """Parse a key = value config document into a flat dict of typed values.

    Keys may live in any section; unknown keys are rejected so typos fail
    loudly instead of silently falling back to defaults.
    """
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    # No header can name the empty section, so [DEFAULT] is read as a plain one.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(file.read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    settings: dict = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            key = key.strip().lower()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            key = "variants" if key == "variant" else key  # one key, two spellings
            if key in settings:
                raise ConfigError(f"duplicate config key {key!r} in {path}")
            value = value.strip()
            try:
                settings[key] = _parse_value(_KEY_TYPES[key], value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in {path}: {value!r}") from exc
    return settings


def _parse_value(kind, raw: str):
    """``raw`` as a value of the field type ``kind``."""
    if isinstance(kind, types.UnionType):  # X | None: a file gives an X
        kind = typing.get_args(kind)[0]
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        # names are split on commas only, numbers on commas and whitespace
        tokens = raw.split(",") if item is str else raw.replace(",", " ").split()
        return tuple(item(tok.strip()) for tok in tokens if tok.strip())
    return kind(raw)


def build_parser() -> _Parser:
    parser = _Parser(prog="fedelim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments and write CSV/JSON outputs")
    p_run.set_defaults(handler=cmd_run)
    p_run.add_argument("--config", help="path to a key = value config file")
    p_run.add_argument("--out", default="fedelim_out", help="output directory")
    p_run.add_argument("--seed", type=int, help="first seed (overrides config seeds)")
    p_run.add_argument("--runs", type=int, help="number of consecutive seeds")
    p_run.add_argument("--variant", action="append", choices=VARIANTS,
                       help="variant to run (repeatable; overrides config)")
    p_run.add_argument("--objective", choices=OBJECTIVE_NAMES)
    p_run.add_argument("--clients", type=int)
    p_run.add_argument("--horizon", type=int)

    p_oracle = sub.add_parser("oracle", help="print optimum certificates and the base's census")
    p_oracle.set_defaults(handler=cmd_oracle)
    p_oracle.add_argument("--objective", required=True, choices=OBJECTIVE_NAMES)
    p_oracle.add_argument("--clients", type=int, default=10)
    p_oracle.add_argument("--shift-std", type=float, default=None)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--nu1", type=float, default=1.0)
    p_oracle.add_argument("--rho", type=float, default=0.5)
    return parser


def _configs_from_args(args) -> list[ExperimentConfig]:
    settings = load_config_file(args.config) if args.config else {}
    variants = settings.pop("variants", ("pfpne",))
    if args.variant:
        variants = tuple(args.variant)
    if not variants:
        raise ConfigError("at least one variant is required")
    if args.objective:
        settings["objective"] = args.objective
    if args.clients is not None:
        settings["clients"] = args.clients
    if args.horizon is not None:
        settings["horizon"] = args.horizon
    if args.seed is not None:
        count = args.runs if args.runs is not None else 1
        settings["seeds"] = tuple(args.seed + i for i in range(count))
    elif args.runs is not None:
        settings["seeds"] = tuple(range(args.runs))
    elif "seeds" in settings:  # a repeated seed runs once, as a repeated variant does
        settings["seeds"] = tuple(dict.fromkeys(settings["seeds"]))
    return [ExperimentConfig(variant=variant, **settings)
            for variant in dict.fromkeys(variants)]  # a repeated variant runs once


def _run_one(payload):
    config, seed = payload
    return run(config, seed, client_records=False)


def _execute(configs: list[ExperimentConfig], threads: int) -> dict[str, AggregateMetrics]:
    """Every (variant, seed) run: in this process, or on a pool of at most one worker per run."""
    tasks = [(config, seed) for config in configs for seed in config.seeds]
    if threads <= 1 or len(tasks) == 1:  # one run gains nothing from a forked worker
        return {config.variant: run_many(config) for config in configs}
    results: dict[str, AggregateMetrics] = {}
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        metrics = list(pool.map(_run_one, tasks))
    for config in configs:
        runs = [metric for (owner, _), metric in zip(tasks, metrics) if owner is config]
        results[config.variant] = AggregateMetrics.from_runs(config.variant, runs)
    return results


def _write_rows(fh, cells: list, width: int) -> None:
    """Write ``cells`` ``width`` to a line as ``csv.writer`` would, floats as ``format_float``."""
    line = ",".join(FLOAT_FORMAT if isinstance(c, float) else "%s" for c in cells[:width])
    fh.write((line + "\r\n") * (len(cells) // width) % tuple(cells))


def write_outputs(results: dict[str, AggregateMetrics], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    with open(out_dir / "regret.csv", "w", newline="") as regret, \
            open(out_dir / "comm.csv", "w", newline="") as comm:
        _write_rows(regret, REGRET_HEADER, len(REGRET_HEADER))
        _write_rows(comm, COMM_HEADER, len(COMM_HEADER))
        for variant, agg in sorted(results.items()):
            summary[variant] = {
                "final_regret_mean": agg.final_mean,
                "final_regret_std": agg.final_std,
                "comm_rounds_mean": agg.comm_rounds_mean,
                "stage_transition_t_mean": agg.stage_transition_t_mean,
            }
            for metrics in sorted(agg.runs, key=lambda r: r.seed):
                for start in range(0, len(metrics.checkpoints), ROW_BLOCK):
                    t = metrics.checkpoints[start:start + ROW_BLOCK].tolist()
                    cells = [variant, metrics.seed, None, None] * len(t)
                    cells[2::4] = t
                    cells[3::4] = metrics.avg_cum_regret[start:start + ROW_BLOCK].tolist()
                    _write_rows(regret, cells, len(REGRET_HEADER))
                _write_rows(comm, [cell for rnd in metrics.comm_rounds for cell in (
                    variant, metrics.seed, rnd.round_index, rnd.depth, rnd.scalars_up,
                    rnd.scalars_down, rnd.cumulative_scalars)], len(COMM_HEADER))
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(args) -> int:
    configs = _configs_from_args(args)
    raw = os.environ.get("FEDELIM_THREADS") or "1"
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"FEDELIM_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"FEDELIM_THREADS must be at least 1, got {threads}")
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {args.out}: {exc}") from exc
    for path in (Path(args.out) / name for name in ("regret.csv", "comm.csv", "summary.json")):
        if path.exists() and not path.is_file():
            raise ConfigError(f"output path {path} exists and is not a regular file")
    results = _execute(configs, threads)
    write_outputs(results, Path(args.out))
    for variant in sorted(results):
        agg = results[variant]
        print(f"{variant}: final avg regret {agg.final_mean:.6g} +- {agg.final_std:.6g} "
              f"over {len(agg.runs)} seed(s), {agg.comm_rounds_mean:.6g} comm rounds")
    print(f"wrote regret.csv, comm.csv, summary.json to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    config = ExperimentConfig(objective=args.objective, clients=args.clients,
                              shift_std=args.shift_std, noise=0.0, nu1=args.nu1, rho=args.rho,
                              seeds=(args.seed,))
    shift_std = config.shift_scales
    suite = make_suite(config.base, clients=args.clients, shift_std=shift_std,
                       noise_halfwidth=0.0, seed=args.seed)
    shown = shift_std[:1] if len(set(shift_std)) == 1 else shift_std  # one scale if all agree
    print(f"objective={args.objective} clients={args.clients} "
          f"shift_std={','.join(map(format_float, shown))} seed={args.seed}")
    for m in range(1, suite.clients + 1):
        cert = suite.local_optima[m - 1]
        point = ", ".join(format_float(v) for v in cert.x)
        print(f"client {m}: f*={format_float(cert.value)} x*=({point}) "
              f"method={cert.method} probes={cert.probes}")
    cert = suite.global_optimum
    point = ", ".join(format_float(v) for v in cert.x)
    print(f"global  : f*={format_float(cert.value)} x*=({point}) "
          f"method={cert.method} probes={cert.probes}")
    base = make_base(args.objective)  # config.base's cached object; perfbench wraps this name
    print(f"census  : base cells within eps=6*nu1*rho^h of the optimum by depth, "
          f"nu1={format_float(config.nu1)} rho={format_float(config.rho)}")
    for h, eps, near, cells in near_optimal_census(base.evaluate_batch, base.domain,
                                                   config.spec, config.nu1, config.rho):
        print(f"h={h} eps={format_float(eps)} near={near} cells={cells}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"fedelim: config error: {exc}", file=sys.stderr)
        return 2
    except (OracleFailure, ProtocolFault, ValueError, OSError, MemoryError,
            BrokenExecutor) as exc:  # BrokenExecutor: a pool worker died
        print(f"fedelim: runtime fault: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
