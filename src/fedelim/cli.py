"""Command-line entry point: run experiments, print certificates, profile.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 runtime
fault.  ``FEDELIM_THREADS`` caps how many (variant, seed) runs execute in
parallel worker processes.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
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
    PROFILE_CELL_LIMIT,
    OracleFailure,
    make_base,
    make_suite,
    near_optimality_profile,
    profile_ladder,
)

REGRET_HEADER = ["variant", "seed", "t", "avg_cum_regret"]
COMM_HEADER = ["variant", "seed", "round_index", "depth", "scalars_up", "scalars_down",
               "cumulative_scalars"]

_CONFIG_KEYS = {
    "objective", "clients", "horizon", "shift_std", "noise", "nu1", "rho", "c", "c1",
    "delta_conf", "delta_gap", "arity", "depth_cap", "variant", "variants", "seeds",
    "checkpoint_stride", "domain_lower", "domain_upper",
}

_INT_KEYS = {"clients", "horizon", "arity", "depth_cap", "checkpoint_stride"}
_FLOAT_KEYS = {"shift_std", "noise", "nu1", "rho", "c", "c1", "delta_conf", "delta_gap"}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits (round-trips float64)."""
    return format(float(x), ".17g")


def load_config_file(path: str) -> dict:
    """Parse a key = value config document into a flat dict.

    Keys may live in any section; unknown keys are rejected so typos fail
    loudly instead of silently falling back to defaults.
    """
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(file.read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    flat: dict = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            key = key.strip().lower()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            key = "variants" if key == "variant" else key  # one key, two spellings
            if key in flat:
                raise ConfigError(f"duplicate config key {key!r} in {path}")
            flat[key] = value.strip()
    return _coerce_config(flat, path)


def _coerce_config(flat: dict, path: str) -> dict:
    out: dict = {}
    for key, raw in flat.items():
        try:
            if key in _INT_KEYS:
                out[key] = int(raw)
            elif key in _FLOAT_KEYS:
                out[key] = float(raw)
            elif key == "seeds":
                out[key] = tuple(int(tok) for tok in raw.replace(",", " ").split())
            elif key == "variants":
                out[key] = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
            elif key in ("domain_lower", "domain_upper"):
                out[key] = tuple(float(tok) for tok in raw.replace(",", " ").split())
            else:
                out[key] = raw
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in {path}: {raw!r}") from exc
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="fedelim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments and write CSV/JSON outputs")
    p_run.add_argument("--config", help="path to a key = value config file")
    p_run.add_argument("--out", default="fedelim_out", help="output directory")
    p_run.add_argument("--seed", type=int, help="first seed (overrides config seeds)")
    p_run.add_argument("--runs", type=int, help="number of consecutive seeds")
    p_run.add_argument("--variant", action="append", choices=VARIANTS,
                       help="variant to run (repeatable; overrides config)")
    p_run.add_argument("--objective", choices=OBJECTIVE_NAMES)
    p_run.add_argument("--clients", type=int)
    p_run.add_argument("--horizon", type=int)

    p_oracle = sub.add_parser("oracle", help="print per-client and global optimum certificates")
    p_oracle.add_argument("--objective", required=True, choices=OBJECTIVE_NAMES)
    p_oracle.add_argument("--clients", type=int, default=10)
    p_oracle.add_argument("--shift-std", type=float, default=None)
    p_oracle.add_argument("--seed", type=int, default=0)

    p_profile = sub.add_parser("profile", help="near-optimality cell counts")
    p_profile.add_argument("--objective", required=True, choices=OBJECTIVE_NAMES)
    p_profile.add_argument("--eps", type=float, help="single-count tolerance")
    p_profile.add_argument("--grid-step", type=float, help="single-count grid step")
    p_profile.add_argument("--nu1", type=float, default=1.0)
    p_profile.add_argument("--rho", type=float, default=0.5)
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
    configs = []
    for variant in dict.fromkeys(variants):  # a repeated variant runs once
        try:
            config = ExperimentConfig(variant=variant, **settings)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        config.validate()
        configs.append(config)
    return configs


def _run_one(payload):
    config, seed = payload
    return run(config, seed, record_pulls=False)


def _execute(configs: list[ExperimentConfig]) -> dict[str, AggregateMetrics]:
    raw = os.environ.get("FEDELIM_THREADS") or "1"
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"FEDELIM_THREADS must be an integer, got {raw!r}") from None
    results: dict[str, AggregateMetrics] = {}
    if threads <= 1:
        for config in configs:
            results[config.variant] = run_many(config)
        return results
    tasks = [(config, seed) for config in configs for seed in config.seeds]
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        metrics = list(pool.map(_run_one, tasks))
    for config in configs:
        runs = [metric for (owner, _), metric in zip(tasks, metrics) if owner is config]
        results[config.variant] = AggregateMetrics.from_runs(config.variant, runs)
    return results


def write_outputs(results: dict[str, AggregateMetrics], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "regret.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REGRET_HEADER)
        for variant in sorted(results):
            for metrics in sorted(results[variant].runs, key=lambda r: r.seed):
                for t, value in zip(metrics.checkpoints, metrics.avg_cum_regret):
                    writer.writerow([variant, metrics.seed, int(t), format_float(value)])
    with open(out_dir / "comm.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMM_HEADER)
        for variant in sorted(results):
            for metrics in sorted(results[variant].runs, key=lambda r: r.seed):
                for rnd in metrics.comm_rounds:
                    writer.writerow([variant, metrics.seed, rnd.round_index, rnd.depth,
                                     rnd.scalars_up, rnd.scalars_down, rnd.cumulative_scalars])
    summary = {}
    for variant in sorted(results):
        agg = results[variant]
        summary[variant] = {
            "final_regret_mean": agg.final_mean,
            "final_regret_std": agg.final_std,
            "comm_rounds_mean": agg.comm_rounds_mean,
            "stage_transition_t_mean": agg.stage_transition_t_mean,
        }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(args) -> int:
    configs = _configs_from_args(args)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {args.out}: {exc}") from exc
    results = _execute(configs)
    write_outputs(results, Path(args.out))
    for variant in sorted(results):
        agg = results[variant]
        print(f"{variant}: final avg regret {agg.final_mean:.6g} +- {agg.final_std:.6g} "
              f"over {len(agg.runs)} seed(s), {agg.comm_rounds_mean:.6g} comm rounds")
    print(f"wrote regret.csv, comm.csv, summary.json to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    config = ExperimentConfig(objective=args.objective, clients=args.clients,
                              shift_std=args.shift_std, noise=0.0, seeds=(args.seed,))
    config.validate()
    base = make_base(args.objective)
    shift_std = config.resolved_shift_std(base)
    suite = make_suite(base, clients=args.clients, shift_std=shift_std,
                       noise_halfwidth=0.0, seed=args.seed)
    print(f"objective={args.objective} clients={args.clients} "
          f"shift_std={format_float(shift_std)} seed={args.seed}")
    for m in range(1, suite.clients + 1):
        cert = suite.local_optima[m - 1]
        point = ", ".join(format_float(v) for v in cert.x)
        print(f"client {m}: f*={format_float(cert.value)} x*=({point}) "
              f"method={cert.method} probes={cert.probes}")
    cert = suite.global_optimum
    point = ", ".join(format_float(v) for v in cert.x)
    print(f"global  : f*={format_float(cert.value)} x*=({point}) "
          f"method={cert.method} probes={cert.probes}")
    return 0


def cmd_profile(args) -> int:
    smooth = ExperimentConfig(nu1=args.nu1, rho=args.rho).smooth_params()
    if (args.eps is None) != (args.grid_step is None):
        raise ConfigError("--eps and --grid-step must be given together")
    if args.eps is not None and not (args.eps > 0 and args.grid_step > 0):
        raise ConfigError("--eps and --grid-step must be positive")
    base = make_base(args.objective)
    fn = base.evaluate_batch
    if args.eps is not None:
        try:
            count = near_optimality_profile(fn, base.domain, 1.0, args.eps, args.grid_step)
        except ValueError as exc:  # the grid exceeds the cell cap
            raise ConfigError(str(exc)) from exc
        print(f"{args.objective}: eps={format_float(args.eps)} "
              f"grid_step={format_float(args.grid_step)} cells={count}")
        return 0
    print(f"{args.objective}: near-optimal cell counts, eps=6*nu1*rho^h, step=rho^h")
    for h, eps, step, count in profile_ladder(fn, base.domain, 1.0, smooth.nu1, smooth.rho):
        cells = f"cells={count}" if count is not None else (
            f"exceeds the {PROFILE_CELL_LIMIT}-cell cap; the ladder stops here")
        print(f"h={h} eps={format_float(eps)} grid_step={format_float(step)} {cells}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "profile":
            return cmd_profile(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"fedelim: config error: {exc}", file=sys.stderr)
        return 2
    except (OracleFailure, ProtocolFault, ValueError) as exc:
        print(f"fedelim: runtime fault: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
