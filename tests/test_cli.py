"""Command-line surface: config parsing, CSV/JSON outputs, exit codes."""
import argparse
import csv
import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fedelim import cli, harness, objectives
from fedelim.cli import (
    COMM_HEADER,
    REGRET_HEADER,
    ROW_BLOCK,
    format_float,
    load_config_file,
    main,
    write_outputs,
)
from fedelim.harness import ConfigError, ExperimentConfig
from test_objectives import CENSUS_COUNTS

def dying_run(payload):
    """A pool task whose worker process dies at once; a pool pickles it by name."""
    os._exit(7)


TINY_CONFIG = """
[experiment]
objective = garland
clients = 3
horizon = 200
noise = 0.1
shift_std = 0.05
delta_gap = 0.05
seeds = 0, 1
checkpoint_stride = 10
variants = pfpne, local-only
"""


# Three variants, a few hundred pulls per client; pfpne transitions on one seed.
FIXED_CONFIG = """
[experiment]
objective = garland
clients = 3
horizon = 400
noise = 0.1
shift_std = 0.05
delta_gap = 0.05
seeds = 0, 1
checkpoint_stride = 10
variants = pfpne, global-only, local-only
"""

FIXED_DIGESTS = {
    "regret.csv": "e21c18904af502f3e453f541d2645f5dcde8e180bee7aff7062e051a29085dd2",
    "comm.csv": "9f4ea1af4ce16735597fa4bcab059221c9830bb23a44d801c36d7a2d1aaed51e",
    "summary.json": "24af45964d95cb79eeb7de3d1a909424a6bcecbfd232a4e3d7c42de3a4e66098",
}

# With depth_cap = 2 every client has budget left when its last phase ends:
# global-only spends it on the server's best last survivor, pfpne and
# local-only on the best cell of their depth-cap frontier.
LEFTOVER_CONFIG = """
[experiment]
objective = garland
clients = 3
horizon = 2000
depth_cap = 2
seeds = 0, 1, 2
variants = pfpne, global-only, local-only
"""

LEFTOVER_DIGESTS = {
    "regret.csv": "b3cf9204939e50c870f15157bcf644f4202f07d974dd31919a08476e7be2996b",
    "comm.csv": "9305099e7fa6067cfb709a68c06ab7f13127cb7a84b36d7dd8d576ff4e307caf",
    "summary.json": "06f16f2ae2a1a349f166f14d42f4536dff7660aa558763e56fec2d06ba72f704",
}

# Beyond one dimension: ackley in 2-D (the benchmark's cert-ackley run, seed
# 0) and rastrigin in 10-D.  These digests guard the cell centers and the
# batched cell evaluation of multi-dimensional boxes.
ACKLEY_CONFIG = """
[experiment]
objective = ackley
clients = 2
horizon = 5000
seeds = 0
variants = pfpne, local-only
"""

ACKLEY_DIGESTS = {
    "regret.csv": "81fb1dd8d30e0bf20769eddc9091f046e975a16c919b8af5c753f6e4628c5498",
    "comm.csv": "ccb9f2052d3e492fdb39c4e4d67d1efd37144c9821f662e9f303adbfd66df353",
    "summary.json": "d7dd69769e16ad79781c69b035cfcd305da1f051a42d30593f15db1dc29311c2",
}

RASTRIGIN_CONFIG = """
[experiment]
objective = rastrigin
clients = 3
horizon = 3000
seeds = 0
variants = pfpne, global-only, local-only
"""

RASTRIGIN_DIGESTS = {
    "regret.csv": "a1c86e1b7c7620917bc72c4dc03e738a174a90b3e8b939076d2cbda194e1df57",
    "comm.csv": "88f5938376162a1517b52780f523801610a873cde5fa7ea80bac755b02cbf0ef",
    "summary.json": "c9df7c252a775cc7db045be7a16fed4a731857bca6c2555112c205ab9ff05fb8",
}

# SHA-256 of `fedelim oracle` stdout through its `global  :` line, keyed by
# (objective, clients, seed, shift_std), with "" for the default shift.  The
# first eight were recorded while the suite still certified its global
# optimum at construction; the shifted three pin searched client
# certificates: garland's 1-D grid, the separable rastrigin search, and
# himmelblau's 2-D grid for every client.  The census lines that follow are
# checked on their own.
ORACLE_DIGESTS = {
    ("garland", "3", "0", ""): "ba51dcf8a30487fe59412a0925bf1e69d7d3a433e5bb8d4a8110c2f87ab586bf",
    ("garland", "3", "1", ""): "06360df902b643f324f92136d9e56c31a7f1897bc25053843f98abc10bdb354f",
    ("doublesine", "3", "0", ""): "3c6a9fe30cc3704f8e7fcd43589574ed87af2083392245d065675e8484f24a9e",
    ("doublesine", "3", "1", ""): "b321e9d23c4930ef82d46c338d8d0460842885144a9b5b6b99d018763c7ced11",
    ("himmelblau", "3", "0", ""): "889d35c65b51de06a2b234b91643e5bedcd95f0ace0450c41b9abe4932e53529",
    ("himmelblau", "3", "1", ""): "9528a3561b9244d75bacaa89120978cdc6eff7275f726ccb2ffa1121d1bd9d70",
    ("garland", "1", "0", ""): "0b5dd07f6a5e760755c0618b2dd8c1fe33d62c3c9551d77703c06e105be90fa5",
    ("ackley", "3", "0", ""): "c66576de06decd3df88d3922f42af17002edef414b9d1450316a383d9fed87f1",
    ("garland", "3", "0", "0.5"): "467baf3ec3748ffd6423503f77a4bf032d9fabe6eb37b226d61adc74dec94a9c",
    ("rastrigin", "3", "0", "0.5"): "c05781a28a98b161308ec0e922fc5f3b7a2ee1625b73347998ed30165cdd4fa7",
    ("himmelblau", "3", "0", "3"): "10b9e413a0e552d9c32491f9c1490c83e51533ebdb909651f6b3ef27cfb7b39d",
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(TINY_CONFIG)
    return str(path)


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Swap the process pool for an in-process one; the list of worker counts asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return sizes


def assert_digests(tmp_path, monkeypatch, threads, config, digests):
    path = tmp_path / "fixed.ini"
    path.write_text(config)
    monkeypatch.setenv("FEDELIM_THREADS", threads)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def config_errors(err):
    return [line for line in err.splitlines() if "config error" in line]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigFile:
    def test_parse_and_types(self, config_path):
        settings = load_config_file(config_path)
        assert settings["clients"] == 3
        assert settings["horizon"] == 200
        assert settings["seeds"] == (0, 1)
        assert settings["variants"] == ("pfpne", "local-only")
        assert settings["shift_std"] == 0.05

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nobjective = garland\nlearning_rate = 3\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))

    def test_keys_are_the_config_fields(self):
        fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
        assert set(cli._KEY_TYPES) == fields | {"variants"}

    @pytest.mark.parametrize("key", ["base", "shift_scales", "conf", "smooth", "spec", "schedule"])
    def test_derived_parameter_is_an_unknown_key(self, tmp_path, capsys, key):
        path = tmp_path / "derived.ini"
        path.write_text(f"[experiment]\nobjective = garland\n{key} = 1\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"fedelim: config error: unknown config key {key!r} in {path}\n")
        assert not (tmp_path / "out").exists()

    def test_missing_file_names_path(self):
        with pytest.raises(ConfigError, match="no/such/file.ini"):
            load_config_file("no/such/file.ini")

    def test_readme_config_block_validates_and_readme_names_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        settings = load_config_file(str(path))
        for variant in settings.pop("variants"):
            ExperimentConfig(variant=variant, **settings)
        unnamed = [key for key in sorted(cli._CONFIG_KEYS)
                   if not re.search(rf"`{key}`|^{key} = ", readme, re.MULTILINE)]
        assert unnamed == []


class TestRunCommand:
    def test_outputs_and_schema(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", config_path, "--out", str(out)])
        assert code == 0
        regret = read_csv(out / "regret.csv")
        assert regret[0] == REGRET_HEADER
        body = regret[1:]
        # sorted by (variant, seed, t) and t strictly increasing per pair
        keys = [(row[0], int(row[1])) for row in body]
        assert keys == sorted(keys)
        seen = {}
        for row in body:
            key = (row[0], int(row[1]))
            t = int(row[2])
            assert seen.get(key, 0) < t
            seen[key] = t
        comm = read_csv(out / "comm.csv")
        assert comm[0] == COMM_HEADER
        local_rows = [row for row in comm[1:] if row[0] == "local-only"]
        assert local_rows == []  # no communication for the local baseline
        pf_rows = [row for row in comm[1:] if row[0] == "pfpne"]
        assert pf_rows, "the federated variant must log its rounds"
        for row in pf_rows:
            assert int(row[6]) >= int(row[4]) + int(row[5]) > 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"pfpne", "local-only"}
        for entry in summary.values():
            assert set(entry) == {"final_regret_mean", "final_regret_std",
                                  "comm_rounds_mean", "stage_transition_t_mean"}

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config_path, "--out", str(out1)]) == 0
        assert main(["run", "--config", config_path, "--out", str(out2)]) == 0
        for name in ("regret.csv", "comm.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_flag_overrides(self, config_path, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--config", config_path, "--out", str(out),
                     "--variant", "local-only", "--seed", "7", "--runs", "1"])
        assert code == 0
        regret = read_csv(out / "regret.csv")
        assert {row[0] for row in regret[1:]} == {"local-only"}
        assert {row[1] for row in regret[1:]} == {"7"}

    def test_no_config_defaults(self, tmp_path):
        out = tmp_path / "d"
        code = main(["run", "--out", str(out), "--objective", "garland",
                     "--clients", "2", "--horizon", "100", "--runs", "1",
                     "--variant", "local-only"])
        assert code == 0
        assert (out / "regret.csv").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", "does/not/exist.ini", "--out", str(tmp_path)])
        assert code == 2
        assert "does/not/exist.ini" in capsys.readouterr().err

    def test_usage_error_exits_1(self):
        assert main(["run", "--bogus-flag"]) == 1
        assert main([]) == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_outputs_match_recorded_hashes(self, tmp_path, monkeypatch, threads):
        # comm.csv's digest was recorded before the pull log stored segments;
        # regret.csv's and summary.json's when regret became a closed form per
        # segment.  Serial and pool runs must both reproduce them.
        assert_digests(tmp_path, monkeypatch, threads, FIXED_CONFIG, FIXED_DIGESTS)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_leftover_budget_outputs_match_recorded_hashes(self, tmp_path, monkeypatch, threads):
        # comm.csv's digest was recorded before the two leftover-budget paths
        # became one; the others when regret became a closed form per segment.
        assert_digests(tmp_path, monkeypatch, threads, LEFTOVER_CONFIG, LEFTOVER_DIGESTS)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("config, digests", [(ACKLEY_CONFIG, ACKLEY_DIGESTS),
                                                 (RASTRIGIN_CONFIG, RASTRIGIN_DIGESTS)],
                             ids=["ackley-2d", "rastrigin-10d"])
    def test_multidimensional_outputs_match_recorded_hashes(self, tmp_path, monkeypatch,
                                                            threads, config, digests):
        # Recorded while each new cell was still evaluated on its own.
        assert_digests(tmp_path, monkeypatch, threads, config, digests)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_global_certificate_failure_does_not_fail_a_run(self, tmp_path, monkeypatch,
                                                           capsys, threads):
        # Every garland local certificate of FIXED_CONFIG translates, so once
        # the base is cached only the global search reaches the oracle.
        objectives.make_base("garland")

        def fail(*args, **kwargs):
            raise objectives.OracleFailure("global search did not converge")

        monkeypatch.setattr(objectives, "oracle_optimum", fail)
        assert_digests(tmp_path, monkeypatch, threads, FIXED_CONFIG, FIXED_DIGESTS)
        assert main(["oracle", "--objective", "garland", "--clients", "3", "--seed", "0"]) == 3
        assert "runtime fault: global search did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_empty_variant_list_exits_2(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("FEDELIM_THREADS", threads)
        path = tmp_path / "empty.ini"
        path.write_text("[experiment]\nobjective = garland\nclients = 2\nhorizon = 100\nvariants = ,\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "at least one variant" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_repeated_variant_runs_once(self, tmp_path, monkeypatch, pool_sizes, threads):
        monkeypatch.setenv("FEDELIM_THREADS", threads)
        calls = []
        run_protocol = harness.run_protocol
        monkeypatch.setattr(harness, "run_protocol",
                            lambda *a, **k: calls.append(a) or run_protocol(*a, **k))
        argv = ["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                "--runs", "2", "--variant", "pfpne"]
        once, twice = tmp_path / "once", tmp_path / "twice"
        assert main([*argv, "--out", str(once)]) == 0
        assert main([*argv, "--variant", "pfpne", "--out", str(twice)]) == 0
        assert len(calls) == 4  # two seeds per command
        for name in ("regret.csv", "comm.csv", "summary.json"):
            assert (once / name).read_bytes() == (twice / name).read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_repeated_seed_runs_once(self, tmp_path, capsys, monkeypatch, pool_sizes, threads):
        monkeypatch.setenv("FEDELIM_THREADS", threads)
        path = tmp_path / "seeds.ini"
        path.write_text("[experiment]\nobjective = garland\nclients = 2\nhorizon = 100\n"
                        "seeds = 3, 3\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert "over 1 seed(s)" in capsys.readouterr().out
        for name in ("regret.csv", "comm.csv"):
            keys = [tuple(row[:3]) for row in read_csv(out / name)[1:]]
            assert len(keys) == len(set(keys)), name

    @pytest.mark.parametrize("layout", [
        "[DEFAULT]\nobjective = doublesine\nclients = 2\nhorizon = 100\n",
        "[DEFAULT]\nobjective = doublesine\n[run]\nclients = 2\n[budget]\nhorizon = 100\n",
    ], ids=["default-only", "default-and-two-sections"])
    def test_default_section_is_read_like_any_other(self, tmp_path, layout):
        outs = []
        for i, text in enumerate([layout, "[experiment]\nobjective = doublesine\nclients = 2\n"
                                          "horizon = 100\n"]):
            path = tmp_path / f"{i}.ini"
            path.write_text(text)
            outs.append(tmp_path / f"out{i}")
            assert main(["run", "--config", str(path), "--out", str(outs[-1])]) == 0
        for name in ("regret.csv", "comm.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes("[experiment]\nobjective = garland\n# caf\u00e9\n".encode("latin-1"))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot parse config file" in err and "Traceback" not in err

    def test_out_naming_a_file_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "taken"
        out.write_text("")
        executed = []
        monkeypatch.setattr(cli, "_execute", lambda *args: executed.append(args))
        code = main(["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot create output directory" in err and "Traceback" not in err
        assert executed == []

    @pytest.mark.parametrize("name", ["regret.csv", "comm.csv", "summary.json"])
    def test_output_file_that_is_a_directory_exits_2_before_any_run(
            self, tmp_path, capsys, monkeypatch, name):
        (tmp_path / name).mkdir()
        executed = []
        monkeypatch.setattr(cli, "_execute", lambda *args: executed.append(args))
        code = main(["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(tmp_path / name) in err and "Traceback" not in err
        assert executed == []

    def test_write_failure_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        def fail(results, out_dir):
            raise PermissionError(f"[Errno 13] Permission denied: '{out_dir / 'regret.csv'}'")

        monkeypatch.setattr(cli, "write_outputs", fail)
        code = main(["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("fedelim: runtime fault:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_dead_pool_worker_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        # A worker that dies, as one the OOM killer takes, breaks the pool.
        monkeypatch.setenv("FEDELIM_THREADS", "2")
        monkeypatch.setattr(cli, "_run_one", dying_run)
        argv = ["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                "--runs", "2", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "fedelim: runtime fault: A process in the process pool was terminated abruptly "
            "while the future was running or pending.\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_out_of_memory_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch, threads):
        # An allocation too large for memory is a runtime fault, also when a
        # pool worker raises it.  Nothing large is allocated here.
        message = "Unable to allocate 21.1 GiB for an array with shape (2831155200,)"

        def draw(*args, **kwargs):
            raise MemoryError(message)

        def build(*args, **kwargs):
            raise MemoryError

        monkeypatch.setenv("FEDELIM_THREADS", threads)
        argv = ["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                "--runs", "2", "--out", str(tmp_path)]
        monkeypatch.setattr(objectives.NoiseModel, "draw", draw)
        assert main(argv) == 3
        assert capsys.readouterr().err == f"fedelim: runtime fault: {message}\n"
        monkeypatch.setattr(harness, "make_suite", build)
        monkeypatch.setattr(cli, "make_suite", build)
        for command in (argv, ["oracle", "--objective", "himmelblau", "--clients", "3"]):
            assert main(command) == 3
            assert capsys.readouterr().err == "fedelim: runtime fault: MemoryError\n"

    @pytest.mark.parametrize("line", [
        "noise = nan", "noise = inf", "nu1 = inf", "nu1 = nan", "c1 = inf", "c1 = nan",
        "c = nan", "c = inf", "shift_std = inf", "shift_std = nan",
        "domain_lower = -inf\ndomain_upper = 1", "domain_lower = 0\ndomain_upper = inf",
    ])
    def test_nonfinite_value_exits_2(self, tmp_path, capsys, line):
        path = tmp_path / "bad.ini"
        path.write_text(f"[experiment]\nobjective = garland\nclients = 3\nhorizon = 500\n{line}\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "Traceback" not in err

    def test_huge_nu1_runs_like_a_large_one(self, tmp_path):
        # nu1 ** 2 overflows for nu1 = 1e200; every threshold is 1 either way
        outs = []
        for nu1 in ("1e150", "1e200"):
            path = tmp_path / f"{nu1}.ini"
            path.write_text(f"[experiment]\nnu1 = {nu1}\n")
            outs.append(tmp_path / nu1)
            assert main(["run", "--config", str(path), "--out", str(outs[-1])]) == 0
        assert json.loads((outs[0] / "summary.json").read_text())["pfpne"]["comm_rounds_mean"] > 0
        for name in ("regret.csv", "comm.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_overflowing_log_ratio_keeps_the_rounds(self, tmp_path):
        # c1 * horizon / delta overflows for c1 = 1e305; its log, about 713, does not
        rounds = []
        for c1 in ("1e303", "1e305"):
            path = tmp_path / f"{c1}.ini"
            path.write_text(f"[experiment]\nc1 = {c1}\n")
            assert main(["run", "--config", str(path), "--out", str(tmp_path / c1)]) == 0
            summary = json.loads((tmp_path / c1 / "summary.json").read_text())
            rounds.append(summary["pfpne"]["comm_rounds_mean"])
        assert rounds[0] == rounds[1] > 0

    def test_objective_that_overflows_on_its_domain_exits_2(self, tmp_path, capsys):
        # himmelblau's raw form exceeds the float range on this box; its
        # certification must be refused, not attempted
        path = tmp_path / "huge.ini"
        path.write_text("[experiment]\nobjective = himmelblau\nclients = 2\nhorizon = 100\n"
                        "domain_lower = -1e200, -1e200\ndomain_upper = 1e200, 1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: himmelblau overflows on the domain" in err
        assert "[-1e+200, 1e+200] x [-1e+200, 1e+200]" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lower,upper", [("-1", "0"), ("-1", "-0.5")])
    def test_objective_with_no_positive_maximum_exits_2(self, tmp_path, capsys, lower, upper):
        # garland's raw form is 0 at x = 0 and negative below it: on the first
        # box the normalized values would divide by 0, on the second flip sign
        path = tmp_path / "negative.ini"
        path.write_text("[experiment]\nobjective = garland\nclients = 3\nhorizon = 200\n"
                        f"domain_lower = {lower}\ndomain_upper = {upper}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("fedelim: config error: garland has no positive maximum on the domain "
                       f"[{lower}, {upper}]\n")
        assert not (tmp_path / "out").exists()

    def test_ackley_beyond_two_dimensions_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ackley3.ini"
        path.write_text("[experiment]\nobjective = ackley\nclients = 2\nhorizon = 100\n"
                        "domain_lower = -1, -1, -1\ndomain_upper = 1, 1, 1\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "fedelim: config error: ackley is defined on a 2-dimensional domain\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines", [
        "variant = pfpne\nvariants = local-only", "variants = local-only\nvariant = pfpne",
    ])
    def test_variant_and_variants_are_one_key(self, tmp_path, capsys, lines):
        path = tmp_path / "dup.ini"
        path.write_text(f"[experiment]\nobjective = garland\nclients = 2\nhorizon = 100\n{lines}\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "duplicate config key" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "", "1e308", "-0",
                                       "%", "%(x)s", "1" + "0" * 400],
                             ids=lambda value: value if len(value) < 20 else "10**400")
    @pytest.mark.parametrize("key", sorted(cli._CONFIG_KEYS))
    def test_edge_value_exits_0_or_2(self, tmp_path, capsys, key, value):
        settings = {"objective": "garland", "clients": "2", "horizon": "200", key: value}
        path = tmp_path / "edge.ini"
        path.write_text("[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, source):
        path = tmp_path / "neg.ini"
        seeds = "seeds = -1\n" if source == "config" else ""
        path.write_text(f"[experiment]\nobjective = garland\nclients = 2\nhorizon = 100\n{seeds}")
        flags = ["--seed", "-1"] if source == "flag" else []
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert len(config_errors(err)) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("threads, variants, runs, pools", [
        ("8", ["pfpne"], 2, [2]),                # two tasks: no idle worker is forked
        ("2", ["pfpne", "local-only"], 2, [2]),  # four tasks on two workers
        ("2", ["pfpne"], 1, []),                 # one task runs in this process
    ])
    def test_pool_never_exceeds_task_count(self, tmp_path, monkeypatch, pool_sizes,
                                           threads, variants, runs, pools):
        monkeypatch.setenv("FEDELIM_THREADS", threads)
        argv = ["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                "--runs", str(runs), "--out", str(tmp_path / "out")]
        for variant in variants:
            argv += ["--variant", variant]
        assert main(argv) == 0
        assert pool_sizes == pools

    def test_pooled_and_serial_runs_carry_no_client_records(self):
        # The records exist in a full run; a pool task and run_many drop them.
        config = ExperimentConfig(objective="garland", clients=3, horizon=400, delta_gap=0.05,
                                  seeds=(1,))
        full = harness.run(config, 1)
        assert all(full.pull_logs) and all(full.client_events) and full.comm_rounds
        for metrics in (cli._run_one((config, 1)), *harness.run_many(config).runs):
            assert metrics.pull_logs is metrics.client_events is metrics.suite is None
            assert metrics.avg_cum_regret.tolist() == full.avg_cum_regret.tolist()
            assert metrics.comm_rounds == full.comm_rounds

    def test_non_integer_threads_exits_2(self, tmp_path, capsys, monkeypatch, pool_sizes):
        monkeypatch.setenv("FEDELIM_THREADS", "two")
        code = main(["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                     "--runs", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(config_errors(err)) == 1 and "FEDELIM_THREADS" in err
        assert "Traceback" not in err and pool_sizes == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, monkeypatch, pool_sizes, threads):
        monkeypatch.setenv("FEDELIM_THREADS", threads)
        code = main(["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                     "--runs", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert config_errors(err) == [
            f"fedelim: config error: FEDELIM_THREADS must be at least 1, got {threads}"]
        assert "Traceback" not in err and pool_sizes == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [
        "rho = 1e-160", "nu1 = 1e-200", "c1 = 1e308", "delta_conf = 1e-320",
    ])
    def test_overflowing_threshold_runs_clean(self, tmp_path, capsys, line):
        # tau overflows at some depth; the saturated threshold is never reached
        path = tmp_path / "edge.ini"
        path.write_text(f"[experiment]\nobjective = garland\nclients = 3\nhorizon = 500\n{line}\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert len(read_csv(tmp_path / "out" / "regret.csv")) == 51  # header + 50 checkpoints

    def test_parallel_workers_match_sequential(self, config_path, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        monkeypatch.setenv("FEDELIM_THREADS", "1")
        assert main(["run", "--config", config_path, "--out", str(out1)]) == 0
        monkeypatch.setenv("FEDELIM_THREADS", "2")
        assert main(["run", "--config", config_path, "--out", str(out2)]) == 0
        for name in ("regret.csv", "comm.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def synthetic_results(runs):
    """Results for ``write_outputs`` from ``{variant: [(seed, rows, comm rounds), ...]}``."""
    results = {}
    for variant, specs in runs.items():
        metrics = []
        for seed, rows, rounds in specs:
            regret = np.random.default_rng(rows + seed).random(rows) * 10.0 ** (seed % 7 - 3)
            regret[:4] = [0.0, 5e-324, 0.1, 1e17][:rows]
            comm = [SimpleNamespace(round_index=i, depth=i + 1, scalars_up=3 * i + 1,
                                    scalars_down=2 * i, cumulative_scalars=5 * i * i + 1)
                    for i in range(rounds)]
            metrics.append(SimpleNamespace(seed=seed, checkpoints=np.arange(1, rows + 1) * 10,
                                           avg_cum_regret=regret, comm_rounds=comm))
        results[variant] = SimpleNamespace(runs=metrics, final_mean=0.5, final_std=0.25,
                                           comm_rounds_mean=1.0, stage_transition_t_mean=None)
    return results


def reference_write(results, out_dir):
    """The CSV files as csv.writer writes them, regret values through format_float."""
    with open(out_dir / "regret.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REGRET_HEADER)
        for variant in sorted(results):
            for run in sorted(results[variant].runs, key=lambda r: r.seed):
                for t, value in zip(run.checkpoints.tolist(), run.avg_cum_regret.tolist()):
                    writer.writerow([variant, run.seed, t, format_float(value)])
    with open(out_dir / "comm.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMM_HEADER)
        for variant in sorted(results):
            for run in sorted(results[variant].runs, key=lambda r: r.seed):
                for rnd in run.comm_rounds:
                    writer.writerow([variant, run.seed, rnd.round_index, rnd.depth,
                                     rnd.scalars_up, rnd.scalars_down, rnd.cumulative_scalars])


class TestWriteOutputs:
    def test_rows_match_csv_writer_byte_for_byte(self, tmp_path):
        # Runs shorter than, equal to and past one block, and past two; the
        # variants and seeds arrive unsorted, and a local-only run has no rounds.
        b = ROW_BLOCK
        results = synthetic_results({
            "pfpne": [(7, b + 1, 3), (2, 2 * b + 3, 5), (4, 1, 1)],
            "local-only": [(7, b - 1, 0), (2, b, 0)],
        })
        write_outputs(results, tmp_path / "out")
        reference_write(results, tmp_path)
        for name in ("regret.csv", "comm.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes(), name
        rows = read_csv(tmp_path / "out" / "regret.csv")
        assert len(rows) == 1 + (b + 1) + (2 * b + 3) + 1 + (b - 1) + b

    def test_a_long_run_is_written_in_bounded_memory(self, tmp_path):
        results = synthetic_results({"pfpne": [(1, 200_000, 4)]})
        tracemalloc.start()
        try:
            write_outputs(results, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "regret.csv").read_bytes().count(b"\r\n") == 200_001
        assert peak < 4_000_000, peak


class TestOracleCommand:
    def test_zero_shift_certificates_agree(self, capsys):
        code = main(["oracle", "--objective", "garland", "--clients", "3",
                     "--shift-std", "0", "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        client_lines = [l for l in lines if l.startswith("client")]
        assert len(client_lines) == 3
        values = {l.split("f*=")[1].split()[0] for l in client_lines}
        assert len(values) == 1  # identical locals
        assert abs(float(values.pop()) - 1.0) < 1e-9

    def test_single_client_global_equals_local(self, capsys):
        code = main(["oracle", "--objective", "doublesine", "--clients", "1",
                     "--shift-std", "0.02", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        local = [l for l in out.splitlines() if l.startswith("client 1")][0]
        glob = [l for l in out.splitlines() if l.startswith("global")][0]
        assert local.split("f*=")[1].split()[0] == glob.split("f*=")[1].split()[0]

    @pytest.mark.parametrize("case", sorted(ORACLE_DIGESTS),
                             ids=["-".join(filter(None, case)) for case in sorted(ORACLE_DIGESTS)])
    def test_output_matches_recorded_digests(self, capsys, case):
        objective, clients, seed, shift = case
        code = main(["oracle", "--objective", objective, "--clients", clients, "--seed", seed,
                     *(["--shift-std", shift] if shift else [])])
        assert code == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        end = 1 + next(i for i, line in enumerate(lines) if line.startswith("global  :"))
        assert hashlib.sha256("".join(lines[:end]).encode()).hexdigest() == ORACLE_DIGESTS[case]

    def test_census_lines_match_the_counts(self, capsys):
        for name, counts in CENSUS_COUNTS.items():
            assert main(["oracle", "--objective", name]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[-9].startswith("global  :")
            assert out[-8] == ("census  : base cells within eps=6*nu1*rho^h of the optimum by "
                               "depth, nu1=1 rho=0.5")
            # exactly seven depth lines, every one counted: no cap line
            assert out[-7:] == [f"h={h} eps={format_float(6.0 * 0.5 ** h)} near={near} "
                                f"cells={2 ** h}" for h, near in enumerate(counts)]

    @pytest.mark.parametrize("flags", [
        ["--clients", "0"], ["--shift-std", "inf"], ["--shift-std", "-1"], ["--shift-std", "nan"],
        ["--seed", "-1"], ["--nu1", "0"], ["--nu1", "inf"], ["--rho", "0"], ["--rho", "2"],
    ], ids=" ".join)
    def test_bad_arguments_exit_2(self, capsys, flags):
        code = main(["oracle", "--objective", "garland", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "Traceback" not in err


    def test_profile_is_an_unknown_subcommand(self, capsys):
        assert main(["profile", "--objective", "garland"]) == 1  # its census is oracle's
        assert "invalid choice: 'profile'" in capsys.readouterr().err


class TestReadmeCommandLine:
    def test_every_example_parses_and_every_subcommand_is_shown(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("fedelim ")]
        parser = cli.build_parser()
        for argv in examples:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {shlex.join(argv)}")
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert {argv[1] for argv in examples} == set(commands.choices)


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        # pyproject's pythonpath reaches pytest's process, not its children
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "fedelim.cli", "oracle", "--objective", "garland",
             "--clients", "1"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert "h=3 eps=0.75 near=6 cells=8" in result.stdout.splitlines()
