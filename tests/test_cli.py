"""Command-line surface: config parsing, CSV/JSON outputs, exit codes."""
import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

from fedelim import cli, harness, objectives
from fedelim.cli import (
    COMM_HEADER,
    REGRET_HEADER,
    load_config_file,
    main,
)
from fedelim.harness import ConfigError

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
    "regret.csv": "58175502e72bcf44abeb79b3d980118df33332d9617c5f66da9da35f6f5e1687",
    "comm.csv": "9f4ea1af4ce16735597fa4bcab059221c9830bb23a44d801c36d7a2d1aaed51e",
    "summary.json": "1046101da2894541b312aac40542d2d77eace1a5188cd9a68162974e5427c04b",
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
    "regret.csv": "04234360c336fcd500ab22021f6c63293ec4ca4010071042647f15edaa36dc5a",
    "comm.csv": "9305099e7fa6067cfb709a68c06ab7f13127cb7a84b36d7dd8d576ff4e307caf",
    "summary.json": "d730b237c99f0d08848927b6f2120f1a8dbf1c16e8086ce4012e24c1933c38fa",
}

# SHA-256 of `fedelim oracle` stdout, recorded while the suite still
# certified its global optimum at construction.
ORACLE_DIGESTS = {
    ("garland", "3", "0"): "ba51dcf8a30487fe59412a0925bf1e69d7d3a433e5bb8d4a8110c2f87ab586bf",
    ("garland", "3", "1"): "06360df902b643f324f92136d9e56c31a7f1897bc25053843f98abc10bdb354f",
    ("doublesine", "3", "0"): "3c6a9fe30cc3704f8e7fcd43589574ed87af2083392245d065675e8484f24a9e",
    ("doublesine", "3", "1"): "b321e9d23c4930ef82d46c338d8d0460842885144a9b5b6b99d018763c7ced11",
    ("himmelblau", "3", "0"): "87fa9c5a8682953c3ce2b96e3e089ff3d8fe0858093fcec2b6c903e4640d9c1e",
    ("himmelblau", "3", "1"): "9528a3561b9244d75bacaa89120978cdc6eff7275f726ccb2ffa1121d1bd9d70",
    ("garland", "1", "0"): "0b5dd07f6a5e760755c0618b2dd8c1fe33d62c3c9551d77703c06e105be90fa5",
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

    def test_missing_file_names_path(self):
        with pytest.raises(ConfigError, match="no/such/file.ini"):
            load_config_file("no/such/file.ini")


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
        # Digests recorded before the pull log stored segments; serial and
        # pool runs must both reproduce them.
        assert_digests(tmp_path, monkeypatch, threads, FIXED_CONFIG, FIXED_DIGESTS)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_leftover_budget_outputs_match_recorded_hashes(self, tmp_path, monkeypatch, threads):
        # Digests recorded before the two leftover-budget paths became one.
        assert_digests(tmp_path, monkeypatch, threads, LEFTOVER_CONFIG, LEFTOVER_DIGESTS)

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
        monkeypatch.setattr(cli, "_execute", executed.append)
        code = main(["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot create output directory" in err and "Traceback" not in err
        assert executed == []

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "", "1e308", "-0"])
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

    @pytest.mark.parametrize("threads, variants, workers", [
        ("8", ["pfpne"], 2),                # two tasks: no idle worker is forked
        ("2", ["pfpne", "local-only"], 2),  # four tasks on two workers
    ])
    def test_pool_never_exceeds_task_count(self, tmp_path, monkeypatch, pool_sizes,
                                           threads, variants, workers):
        monkeypatch.setenv("FEDELIM_THREADS", threads)
        argv = ["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                "--runs", "2", "--out", str(tmp_path / "out")]
        for variant in variants:
            argv += ["--variant", variant]
        assert main(argv) == 0
        assert pool_sizes == [workers]

    def test_non_integer_threads_exits_2(self, tmp_path, capsys, monkeypatch, pool_sizes):
        monkeypatch.setenv("FEDELIM_THREADS", "two")
        code = main(["run", "--objective", "garland", "--clients", "2", "--horizon", "100",
                     "--runs", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(config_errors(err)) == 1 and "FEDELIM_THREADS" in err
        assert "Traceback" not in err and pool_sizes == []

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

    @pytest.mark.parametrize("objective,clients,seed", sorted(ORACLE_DIGESTS),
                             ids=["-".join(case) for case in sorted(ORACLE_DIGESTS)])
    def test_output_matches_recorded_digests(self, capsys, objective, clients, seed):
        code = main(["oracle", "--objective", objective, "--clients", clients, "--seed", seed])
        assert code == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == ORACLE_DIGESTS[objective, clients, seed]

    @pytest.mark.parametrize("flags", [
        ["--clients", "0"], ["--shift-std", "inf"], ["--shift-std", "-1"], ["--shift-std", "nan"],
        ["--seed", "-1"],
    ], ids=" ".join)
    def test_bad_arguments_exit_2(self, capsys, flags):
        code = main(["oracle", "--objective", "garland", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "Traceback" not in err


class TestProfileCommand:
    def test_ladder_counts(self, capsys):
        code = main(["profile", "--objective", "garland"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("h=")]
        assert len(lines) == 7
        assert "cells=1" in lines[0]  # eps = 6 covers everything in one cell

    def test_ladder_stops_at_the_cell_cap(self, capsys):
        # rastrigin's depth-2 grid is 8**10 cells, past the cap
        code = main(["profile", "--objective", "rastrigin"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("h=")]
        assert len(lines) == 3
        assert "cells=1024" in lines[0] and "cells=" in lines[1]
        assert lines[2].startswith("h=2 ") and "cap" in lines[2] and "cells=" not in lines[2]

    @pytest.mark.parametrize("step", ["1e-9", "1e-320"])
    def test_single_count_over_the_cap_exits_2(self, capsys, step):
        code = main(["profile", "--objective", "garland", "--eps", "0.1", "--grid-step", step])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "cap" in err and "Traceback" not in err

    def test_single_count(self, capsys):
        code = main(["profile", "--objective", "garland", "--eps", "1.0",
                     "--grid-step", "0.0625"])
        assert code == 0
        assert "cells=16" in capsys.readouterr().out

    def test_invalid_parameters_exit_2(self):
        assert main(["profile", "--objective", "garland", "--eps", "-1.0",
                     "--grid-step", "0.1"]) == 2
        assert main(["profile", "--objective", "garland", "--eps", "0.5"]) == 2
        for flags in (["--nu1", "0"], ["--nu1", "inf"], ["--rho", "2"], ["--rho", "0"],
                      ["--eps", "0.5", "--grid-step", "nan"]):
            assert main(["profile", "--objective", "garland", *flags]) == 2, flags


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        result = subprocess.run(
            [sys.executable, "-m", "fedelim.cli", "profile", "--objective", "garland",
             "--eps", "1.0", "--grid-step", "0.25"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert "cells=4" in result.stdout
