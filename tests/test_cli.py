import gzip
import importlib.metadata
import importlib.util
import os
import shutil
import site
import subprocess
import sys
import sysconfig
import venv
from pathlib import Path

import pytest

from vradapt.cli import (
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from vradapt.engine import CSV_HEADER
from vradapt.verify import MARGIN_CSV_HEADER

QUICK_CFG = "method=saga\nb=2\nn=6\nd=4\nT=20\ncadence=5\n"
MISSING_DATA_CFG = "method=saga\nb=2\ndataset=/no/such/file\nT=5\n"
SAGA_CFG = "method=saga\nb=2\nT=5\n"


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_one_error_line(captured, named):
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert named in lines[0]
    assert "Traceback" not in captured.out + captured.err


class TestRunCommand:
    def test_runs_and_writes_trace(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_CFG)
        out = str(tmp_path / "trace.csv")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert line.startswith("status=completed ")
        assert "min_grad_norm=" in line and line.endswith(f"trace={out}")
        content = (tmp_path / "trace.csv").read_text()
        assert content.startswith(CSV_HEADER + "\n")

    def test_default_trace_name_from_config_stem(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, QUICK_CFG, name="smoke.cfg")
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "smoke_trace.csv").exists()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "method=saga\nbatchsize=4\n")
        assert main(["run", "--config", cfg]) == EXIT_USAGE
        assert "batchsize" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,named",
        [
            ("method=saga\nn=6\nd=4\nT=20\n", "b"),
            ("method=page\nb=2\nn=6\nd=4\nT=20\n", "p"),
            ("method=lsvrg\nb=2\nn=6\nd=4\nT=20\n", "p"),
        ],
    )
    def test_missing_hyperparameter_is_one_error_line(self, tmp_path, capsys, text, named):
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), named)
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "text,named",
        [
            ("method=ef21\ncompressor=randk\nk=2\nn=6\nd=4\nclients=2\nT=5\n", "contractive"),
            (MISSING_DATA_CFG, "/no/such/file"),
            ("method=saga\nb=1\nn=0\nd=4\nT=5\n", "n=0"),
            ("method=saga\nb=1\nn=6\nd=0\nT=5\n", "d=0"),
            ("method=saga\nb=2\nn=6\nd=4\nT=5\ntiming=maybe\n", "timing must be on or off"),
            (
                "method=ef21\ncompressor=topk\nk=3\nn=6\nd=4\nclients=2\nT=5\nvalue_bits=-5\n",
                "value_bits must be >= 1, got -5",
            ),
            (
                "method=dasha\ncompressor=randk\nk=3\nn=6\nd=4\nclients=2\nT=5\nindex_bits=0\n",
                "index_bits must be >= 1, got 0",
            ),
            (SAGA_CFG + "problem_seed=-1\n", "problem_seed must be >= 0, got -1"),
            (SAGA_CFG + "dataset=synthetic:6:3:1\nlimit=-1\n", "limit must be >= 1, got -1"),
            (SAGA_CFG + "dataset=synthetic:6:3:1\nlimit=0\n", "limit must be >= 1, got 0"),
            (MISSING_DATA_CFG + "limit=0\n", "limit must be >= 1, got 0"),
            (SAGA_CFG + "dataset=synthetic:6:2:-1\n", "rows, dim >= 1 and seed >= 0"),
            (SAGA_CFG + "dataset=synthetic:6:0:1\n", "rows, dim >= 1 and seed >= 0"),
            (SAGA_CFG + "dataset=synthetic:0:4:1\n", "'synthetic:0:4:1'"),
            (SAGA_CFG + "dataset=synthetic:5:x:1\n", "'synthetic:5:x:1'"),
            (SAGA_CFG + "dataset=synthetic:6:3:1\nforce_dim=0\n", "force_dim must be >= 1, got 0"),
            (MISSING_DATA_CFG + "force_dim=-5\n", "force_dim must be >= 1, got -5"),
        ],
    )
    def test_config_error_is_one_error_line(self, tmp_path, capsys, text, named):
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), named)
        assert not (tmp_path / "t.csv").exists()

    def test_non_finite_feature_value_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "nan.libsvm"
        data.write_text("+1 1:0.5 2:1\n-1 1:nan\n+1 2:1\n-1 2:-1\n")
        cfg = write_cfg(tmp_path, f"method=saga\nb=2\nT=20\ndataset={data}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), "line 2: bad feature token '1:nan'")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("scheduler", ["scheduler=constant\ngamma=0.05\n", "scheduler=adam\n"])
    def test_ef21_randk_rejected_under_every_scheduler(self, tmp_path, capsys, scheduler):
        text = "method=ef21\ncompressor=randk\nk=2\nn=6\nd=4\nclients=2\nT=5\n" + scheduler
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), "contractive")
        assert not (tmp_path / "t.csv").exists()

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, QUICK_CFG + "scheduler=constant\ngamma=1e6\n"
        )
        out = str(tmp_path / "div.csv")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_DIVERGED
        assert "status=diverged" in capsys.readouterr().out

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_CFG)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["run", "--config", cfg, "--out", a, "--seed", "4"])
        main(["run", "--config", cfg, "--out", b, "--seed", "4"])
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestSeedPrecedence:
    # precedence: --seed flag, then config entry, then VRADAPT_SEED, then 0

    def trace_bytes(self, tmp_path, capsys, cfg, extra, name):
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out)] + extra) == EXIT_OK
        capsys.readouterr()
        return out.read_bytes()

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, QUICK_CFG)
        monkeypatch.setenv("VRADAPT_SEED", "9")
        with_env = self.trace_bytes(tmp_path, capsys, cfg, ["--seed", "3"], "a.csv")
        monkeypatch.delenv("VRADAPT_SEED")
        without = self.trace_bytes(tmp_path, capsys, cfg, ["--seed", "3"], "b.csv")
        assert with_env == without

    def test_config_beats_env(self, tmp_path, capsys, monkeypatch):
        seeded = write_cfg(tmp_path, QUICK_CFG + "seed=5\n", name="seeded.cfg")
        plain = write_cfg(tmp_path, QUICK_CFG, name="plain.cfg")
        monkeypatch.setenv("VRADAPT_SEED", "9")
        from_config = self.trace_bytes(tmp_path, capsys, seeded, [], "a.csv")
        monkeypatch.delenv("VRADAPT_SEED")
        explicit = self.trace_bytes(tmp_path, capsys, plain, ["--seed", "5"], "b.csv")
        assert from_config == explicit

    def test_env_beats_default(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, QUICK_CFG)
        monkeypatch.setenv("VRADAPT_SEED", "7")
        from_env = self.trace_bytes(tmp_path, capsys, cfg, [], "a.csv")
        monkeypatch.delenv("VRADAPT_SEED")
        explicit = self.trace_bytes(tmp_path, capsys, cfg, ["--seed", "7"], "b.csv")
        zero = self.trace_bytes(tmp_path, capsys, cfg, ["--seed", "0"], "c.csv")
        assert from_env == explicit
        assert from_env != zero

    @pytest.mark.parametrize(
        "cfg_text,flags,env,named",
        [
            (QUICK_CFG, ["--seed", "-1"], None, "--seed must be a non-negative integer, got -1"),
            (
                QUICK_CFG + "seed=-1\n", [], None,
                "config key 'seed' must be a non-negative integer, got '-1'",
            ),
            (QUICK_CFG, [], "abc", "VRADAPT_SEED must be a non-negative integer, got 'abc'"),
            (QUICK_CFG, [], "-3", "VRADAPT_SEED must be a non-negative integer, got '-3'"),
        ],
    )
    def test_bad_seed_names_its_source(self, tmp_path, capsys, monkeypatch, cfg_text, flags, env, named):
        if env is None:
            monkeypatch.delenv("VRADAPT_SEED", raising=False)
        else:
            monkeypatch.setenv("VRADAPT_SEED", env)
        cfg = write_cfg(tmp_path, cfg_text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv"), *flags]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), named)


class TestSweepCommand:
    def test_writes_one_trace_per_grid_point(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_CFG)
        out_dir = tmp_path / "grid"
        code = main(
            ["sweep", "--config", cfg, "--grid", "b=1,2", "--out-dir", str(out_dir)]
        )
        assert code == EXIT_OK
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "sweep_b1.csv",
            "sweep_b2.csv",
        ]
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("status=") for line in lines)

    def test_rerun_is_deterministic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_CFG)
        d1, d2 = tmp_path / "g1", tmp_path / "g2"
        main(["sweep", "--config", cfg, "--grid", "b=1,2", "--out-dir", str(d1)])
        main(["sweep", "--config", cfg, "--grid", "b=1,2", "--out-dir", str(d2)])
        capsys.readouterr()
        for name in ("sweep_b1.csv", "sweep_b2.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_bad_grid_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_CFG)
        assert main(["sweep", "--config", cfg, "--grid", "batch=1,2"]) == EXIT_USAGE
        assert "batch" in capsys.readouterr().err

    def test_grid_values_coerced_as_in_config_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "method=page\nb=2\np=0.5\nn=6\nd=4\nT=5\n")
        out_dir = tmp_path / "grid"
        grid = ["--grid", "with_replacement=yes,off", "--grid", "p= 0.25"]
        assert main(["sweep", "--config", cfg, *grid, "--out-dir", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "sweep_p0.25_with_replacementFalse.csv",
            "sweep_p0.25_with_replacementTrue.csv",
        ]

    def test_seed_grid_is_honoured(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_CFG)
        out_dir = tmp_path / "grid"
        code = main(["sweep", "--config", cfg, "--grid", "seed=1,2", "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        assert sorted(p.name for p in out_dir.iterdir()) == ["sweep_seed1.csv", "sweep_seed2.csv"]
        for seed in (1, 2):
            single = tmp_path / f"run{seed}.csv"
            main(["run", "--config", cfg, "--out", str(single), "--seed", str(seed)])
            assert (out_dir / f"sweep_seed{seed}.csv").read_bytes() == single.read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_invalid_cell_does_not_sink_the_others(self, tmp_path, capsys, jobs):
        cfg = write_cfg(tmp_path, QUICK_CFG)
        out_dir = tmp_path / "grid"
        flags = ["--grid", "b=0,4", "--jobs", jobs, "--out-dir", str(out_dir)]
        assert main(["sweep", "--config", cfg, *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert_one_error_line(captured, "cell b=0: b must be an integer in [1, 6], got 0")
        assert sorted(p.name for p in out_dir.iterdir()) == ["sweep_b4.csv"]
        assert captured.out.startswith("status=completed")
        # the valid cell's trace is the one a sweep of that cell alone writes
        alone = tmp_path / "alone"
        main(["sweep", "--config", cfg, "--grid", "b=4", "--out-dir", str(alone)])
        capsys.readouterr()
        assert (out_dir / "sweep_b4.csv").read_bytes() == (alone / "sweep_b4.csv").read_bytes()

    def test_every_cell_invalid_writes_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_CFG)
        out_dir = tmp_path / "grid"
        assert main(["sweep", "--config", cfg, "--grid", "b=0,7", "--out-dir", str(out_dir)]) == EXIT_USAGE
        lines = capsys.readouterr().err.strip().splitlines()
        assert [line.split(":")[1] for line in lines] == [" cell b=0", " cell b=7"]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "text,flags,named",
        [
            (QUICK_CFG, ["--grid", "b=1,x"], "bad value for config key 'b'"),
            (QUICK_CFG, ["--grid", "b=1,2", "--jobs", "0"], "--jobs"),
            (QUICK_CFG, ["--jobs", "-2"], "--jobs"),
            (MISSING_DATA_CFG, ["--grid", "b=1,2"], "/no/such/file"),
        ],
    )
    def test_sweep_error_is_one_error_line(self, tmp_path, capsys, text, flags, named):
        cfg = write_cfg(tmp_path, text)
        out_dir = tmp_path / "grid"
        assert main(["sweep", "--config", cfg, *flags, "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), named)
        assert not out_dir.exists()


class TestVerifyCommand:
    FAST = ["--states", "2", "--samples", "1000"]

    def test_single_method_passes(self, capsys):
        code = main(["verify", "--method", "page"] + self.FAST)
        assert code == EXIT_OK
        assert "page: margins PASS" in capsys.readouterr().out

    def test_distributed_method_reports_compressor_contract(self, capsys):
        code = main(["verify", "--method", "ef21"] + self.FAST)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "ef21: margins PASS" in out
        assert "ef21: compressor contract PASS" in out

    @pytest.mark.parametrize("method", ["diana", "dasha"])
    def test_unbiased_compressor_contract_reported(self, capsys, method):
        code = main(["verify", "--method", method] + self.FAST)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert f"{method}: margins PASS" in out
        assert f"{method}: compressor contract PASS (randk, margin=" in out

    def test_perturbed_constant_fails(self, capsys):
        code = main(["verify", "--method", "ef21", "--perturb", "C:0.5"] + self.FAST)
        assert code == EXIT_VERIFY_FAILED
        assert "ef21: margins FAIL" in capsys.readouterr().out

    def test_unknown_method(self, capsys):
        assert main(["verify", "--method", "sarah"] + self.FAST) == EXIT_USAGE
        assert main(["verify"] + self.FAST) == EXIT_USAGE
        capsys.readouterr()

    def test_margin_csv_written(self, tmp_path, capsys):
        out = str(tmp_path / "margins.csv")
        code = main(["verify", "--method", "page", "--out", out] + self.FAST)
        assert code == EXIT_OK
        lines = (tmp_path / "margins.csv").read_text().splitlines()
        assert lines[0] == MARGIN_CSV_HEADER
        assert len(lines) == 3  # one inequality times two states

    def test_bad_perturb_spec(self, capsys):
        code = main(["verify", "--method", "page", "--perturb", "C"] + self.FAST)
        assert code == EXIT_USAGE
        capsys.readouterr()


class TestConstantsCommand:
    def test_full_pass_coupling_is_unit(self, capsys):
        assert main(["constants", "--method", "page", "--b", "8", "--p", "1.0"]) == EXIT_OK
        out = capsys.readouterr().out
        row = out.splitlines()[1].split()
        assert row[0] == "page"
        assert float(row[4]) == 0.0  # B
        assert float(row[6]) == 1.0  # nu

    def test_batch_equal_component_count(self, capsys):
        assert main(["constants", "--method", "saga", "--b", "n", "--n", "10"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split()
        assert float(row[2]) == 0.5  # rho2 = b/(2n) at b = n

    def test_unit_variance_compressor(self, capsys):
        code = main(
            ["constants", "--method", "dasha", "--omega", "1", "--clients", "4"]
        )
        assert code == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split()
        assert float(row[1]) == pytest.approx(1.0 / 3.0, rel=1e-5)

    def test_all_methods_table(self, capsys):
        assert main(["constants", "--all"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10  # header plus nine methods
        assert lines[0].split()[0] == "method"

    def test_method_required(self, capsys):
        assert main(["constants"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("select", [["--method", "ef21"], ["--method", "dasha"], ["--all"]])
    def test_zero_k_is_one_error_line(self, select, capsys):
        assert main(["constants", *select, "--k", "0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert_one_error_line(captured, "k must be >= 1")
        # every row is checked before the header or any row is printed
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--method", "saga", "--b", "20", "--n", "10"], "saga: b must be an integer in [1, 10], got 20"),
            (["--method", "jaguar", "--b", "20", "--d", "10"], "jaguar: b must be an integer in [1, 10], got 20"),
            (["--all", "--b", "101"], "lsvrg: b must be an integer in [1, 100], got 101"),
        ],
    )
    def test_explicit_batch_beyond_size_is_rejected(self, flags, named, capsys):
        assert main(["constants", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert_one_error_line(captured, named)
        assert captured.out == ""

    def test_batch_n_is_each_methods_own_size(self, capsys):
        assert main(["constants", "--all", "--b", "n", "--n", "10", "--d", "5"]) == EXIT_OK
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[1:]}
        assert len(rows) == 9
        assert float(rows["saga"][2]) == 0.5  # rho2 = b/(2n) at b = n = 10
        assert float(rows["sega"][2]) == 0.5  # rho2 = b/(2d) at b = d = 5


    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--method", "sega", "--d", "0"], "sega: --d must be >= 1, got 0"),
            (["--method", "saga", "--n", "0"], "saga: --n must be >= 1, got 0"),
            (["--method", "page", "--b", "x"], "page: --b takes an integer or n, got 'x'"),
            (["--method", "diana", "--clients", "0"], "n_clients must be >= 1, got 0"),
            (["--method", "dasha", "--clients", "-3"], "n_clients must be >= 1, got -3"),
        ],
    )
    def test_bad_flag_is_named(self, flags, named, capsys):
        assert main(["constants", *flags]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), named)

    def test_default_batch_clamped_to_n(self, capsys):
        assert main(["constants", "--method", "saga", "--n", "4"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split()
        assert float(row[2]) == 0.5  # rho2 = b/(2n) at b = n = 4


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,named",
        [(["run"], "--config"), (["verify", "--samples", "abc"], "--samples")],
    )
    def test_parse_error_is_one_error_line(self, argv, named, capsys):
        assert main(argv) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), named)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--method", "saga", "--out"],
            ["verify", "--all", "--out"],
            ["ingest", "--synthetic", "6x2", "--out"],
            ["sweep", "--config", "unread.cfg", "--out-dir"],
        ],
    )
    def test_negative_seed_flag_is_named(self, argv, tmp_path, capsys):
        # checked before the command reads or writes anything
        out = tmp_path / "out"
        assert main([*argv, str(out), "--seed", "-1"]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), "--seed must be a non-negative integer, got -1")
        assert not out.exists()


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "{cfg}", "--out", "{blocked}/trace.csv"],
            ["verify", "--method", "page", "--states", "1", "--samples", "1000",
             "--out", "{blocked}/margins.csv"],
            ["sweep", "--config", "{cfg}", "--out-dir", "{blocked}/sweep"],
            ["ingest", "--synthetic", "6x3", "--out", "{blocked}/data.txt"],
        ],
        ids=["run", "verify", "sweep", "ingest"],
    )
    def test_output_under_a_regular_file_is_one_error_line(self, argv, tmp_path, capsys):
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        cfg = write_cfg(tmp_path, QUICK_CFG)
        assert main([arg.format(cfg=cfg, blocked=blocked) for arg in argv]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), str(blocked))

    @pytest.mark.parametrize("command", ["ingest", "run"])
    @pytest.mark.parametrize("damage", ["truncated", "bad block type"])
    def test_damaged_gzip_dataset_is_one_error_line(self, command, damage, tmp_path, capsys):
        packed = bytearray(gzip.compress(b"+1 1:0.5 3:2\n-1 2:1\n" * 200, mtime=0))
        if damage == "truncated":
            del packed[len(packed) // 2:]
        else:
            packed[10] |= 0b110  # the first deflate block's type bits: 11 is reserved
        data = tmp_path / "a.gz"
        data.write_bytes(bytes(packed))
        if command == "ingest":
            argv = ["ingest", "--data", str(data), "--out", str(tmp_path / "out.txt")]
        else:
            argv = ["run", "--config", write_cfg(tmp_path, f"method=saga\nb=2\nT=5\ndataset={data}\n")]
        assert main(argv) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), f"{data}: damaged gzip data (")


class TestIngestCommand:
    def test_synthetic_generation(self, tmp_path, capsys):
        out = str(tmp_path / "data.txt")
        assert main(["ingest", "--synthetic", "20x8", "--out", out]) == EXIT_OK
        assert capsys.readouterr().out.startswith("rows=20 dim=8 ")
        assert (tmp_path / "data.txt").exists()

    def test_round_trip_through_file(self, tmp_path, capsys):
        first = str(tmp_path / "first.txt")
        main(["ingest", "--synthetic", "15x6", "--out", first])
        second = str(tmp_path / "second.txt")
        assert main(["ingest", "--data", first, "--out", second]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "first.txt").read_text() == (tmp_path / "second.txt").read_text()

    def test_limit_applies(self, tmp_path, capsys):
        src = str(tmp_path / "src.txt")
        main(["ingest", "--synthetic", "20x8", "--out", src])
        out = str(tmp_path / "cut.txt")
        assert main(["ingest", "--data", src, "--limit", "5", "--out", out]) == EXIT_OK
        assert "rows=5 " in capsys.readouterr().out.splitlines()[-1]

    def test_source_required(self, tmp_path, capsys):
        assert main(["ingest", "--out", str(tmp_path / "x.txt")]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_shape_spec(self, tmp_path, capsys):
        code = main(["ingest", "--synthetic", "20by8", "--out", str(tmp_path / "x.txt")])
        assert code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("spec", ["5x0", "0x5", "-2x5", "axb", "5x1.5", "5x", "5x5x5"])
    def test_synthetic_size_below_one_or_not_integer_is_named(self, spec, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert main(["ingest", f"--synthetic={spec}", "--out", str(out)]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), f"--synthetic wants ROWSxDIM, both >= 1, got {spec!r}")
        assert not out.exists()

    @pytest.mark.parametrize("source", [["--synthetic", "6x3"], ["--data", "src.txt"]])
    @pytest.mark.parametrize(
        "flag,value", [("--limit", "-1"), ("--limit", "0"), ("--force-dim", "-5"), ("--force-dim", "0")]
    )
    def test_size_flag_below_one_is_named(self, source, flag, value, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["ingest", "--synthetic", "6x3", "--out", "src.txt"])
        capsys.readouterr()
        assert main(["ingest", *source, flag, value, "--out", "x.txt"]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), f"{flag} must be >= 1, got {value}")
        assert not (tmp_path / "x.txt").exists()


REPO_ROOT = Path(__file__).resolve().parents[1]


def setuptools_builds_wheels():
    """True where an editable pip install can run: setuptools before 70.1
    needs the ``wheel`` package for ``bdist_wheel``; 70.1 ships its own."""
    if importlib.util.find_spec("wheel") is not None:
        return True
    major, minor = importlib.metadata.version("setuptools").split(".")[:2]
    return (int(major), int(minor)) >= (70, 1)


@pytest.fixture
def installed_bin(tmp_path):
    """Install this tree's distribution into a throwaway venv; return its bin/.

    The project is copied first, so the install writes nothing (egg-info,
    build/) into the checkout.
    """
    env_dir = tmp_path / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    # system_site_packages exposes the base interpreter's packages only; when
    # the suite itself runs in a venv, numpy and setuptools live in its
    # site-packages, so make those visible too.
    env_paths = {"base": str(env_dir), "platbase": str(env_dir)}
    purelib = sysconfig.get_path("purelib", vars=env_paths)
    Path(purelib, "parent_env.pth").write_text("\n".join(site.getsitepackages()) + "\n")

    project = tmp_path / "project"
    project.mkdir()
    shutil.copy(REPO_ROOT / "pyproject.toml", project)
    shutil.copytree(REPO_ROOT / "src", project / "src")

    bin_dir = Path(sysconfig.get_path("scripts", vars=env_paths))
    python = str(bin_dir / "python")
    if setuptools_builds_wheels():
        cmd = [python, "-m", "pip", "install", "-e", ".", "--no-build-isolation",
               "--no-index", "--no-deps"]
    else:
        cmd = [python, "-c", "from setuptools import setup; setup()",
               "develop", "--no-deps"]
    # With the project's src/ already on PYTHONPATH, develop skips writing the
    # easy-install.pth entry that lets the script find its metadata.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=project, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        pytest.fail(f"installing the vradapt script failed: {cmd}\n{proc.stderr}")
    return bin_dir


class TestEntryPoints:
    def test_module_invocation(self):
        # the child finds the package where the suite does, in src/
        paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run(
            [sys.executable, "-m", "vradapt", "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "verify" in proc.stdout

    def test_console_script(self, installed_bin):
        path = os.pathsep.join([str(installed_bin), os.environ.get("PATH", os.defpath)])
        env = dict(os.environ, PATH=path)
        script = shutil.which("vradapt", path=path)
        assert script is not None and Path(script).parent == installed_bin
        proc = subprocess.run(["vradapt", "--help"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0
