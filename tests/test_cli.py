import gzip
import hashlib
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

from vradapt import cli, engine, verify
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
        assert capsys.readouterr().out == (
            "status=completed iterations=20 min_grad_norm=0.218338 final_loss=-0.157748 "
            f"grad_calls=46 partial_calls=0 bits=0 trace={out}\n"
        )
        content = (tmp_path / "trace.csv").read_text()
        assert content.startswith(CSV_HEADER + "\n")

    def test_default_trace_name_from_config_stem(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, QUICK_CFG, name="smoke.cfg")
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "smoke_trace.csv").exists()

    def test_config_with_byte_order_mark_runs_as_without(self, tmp_path, capsys):
        plain, marked = str(tmp_path / "plain.csv"), str(tmp_path / "marked.csv")
        assert main(["run", "--config", write_cfg(tmp_path, QUICK_CFG), "--out", plain]) == EXIT_OK
        cfg = write_cfg(tmp_path, "\ufeff" + QUICK_CFG, name="marked.cfg")
        assert main(["run", "--config", cfg, "--out", marked]) == EXIT_OK
        assert Path(marked).read_bytes() == Path(plain).read_bytes()

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
            (
                "method=ef21\ncompressor=TopK\nk=2\nn=6\nd=4\nclients=2\nT=5\n",
                "unknown compressor kind 'TopK'",
            ),
            # the kind is checked before k, which only top-k and rand-k take
            (
                "method=ef21\ncompressor=quantize\nn=12\nd=4\nclients=2\nT=5\n",
                "unknown compressor kind 'quantize'",
            ),
            (
                "method=ef21\ncompressor=\nn=12\nd=4\nclients=2\nT=5\n",
                "unknown compressor kind ''",
            ),
            (MISSING_DATA_CFG, "/no/such/file"),
            ("method=saga\nb=1\nn=0\nd=4\nT=5\n", "n must be >= 1, got 0"),
            ("method=saga\nb=1\nn=6\nd=0\nT=5\n", "d must be >= 1, got 0"),
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
            (SAGA_CFG + "tol=-1\n", "tol must be >= 0 and finite, got -1.0"),
            (
                SAGA_CFG + "dataset=synthetic:6:3:1\nforce_dim=4\n",
                "force_dim does not apply to a synthetic: dataset",
            ),
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

    def test_negative_seed_cell_is_named_and_the_other_writes(self, tmp_path, capsys):
        # numpy's "expected non-negative integer" named no key
        cfg = write_cfg(tmp_path, QUICK_CFG)
        out_dir = tmp_path / "grid"
        code = main(["sweep", "--config", cfg, "--grid", "seed=-1,2", "--out-dir", str(out_dir)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert_one_error_line(captured, "cell seed=-1: seed must be >= 0, got -1")
        assert captured.out.startswith("status=completed ")
        assert [p.name for p in out_dir.iterdir()] == ["sweep_seed2.csv"]

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

    def test_diverged_cell_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_CFG + "scheduler=constant\n")
        out_dir = tmp_path / "grid"
        flags = ["--grid", "gamma=0.1,1e6", "--out-dir", str(out_dir)]
        assert main(["sweep", "--config", cfg, *flags]) == EXIT_DIVERGED
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["status=completed", "status=diverged"]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "sweep_gamma0.1.csv",
            "sweep_gamma1000000.0.csv",
        ]

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
            (QUICK_CFG, ["--grid", "b"], "grid entry must be key=v1,v2,..., got 'b'"),
        ],
    )
    def test_sweep_error_is_one_error_line(self, tmp_path, capsys, text, flags, named):
        cfg = write_cfg(tmp_path, text)
        out_dir = tmp_path / "grid"
        assert main(["sweep", "--config", cfg, *flags, "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), named)
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "grid,named",
        [
            (["b=1,2", "b=3"], "--grid b=3: b is named twice"),
            (["b=1", " b =2"], "--grid  b =2: b is named twice"),
            (["seed=1,1"], "--grid seed=1,1: seed=1 is named twice"),
            (["b=2, 2"], "--grid b=2, 2: b=2 is named twice"),
            (["p=0.5,0.50"], "--grid p=0.5,0.50: p=0.5 is named twice"),
            (
                ["with_replacement=yes,on"],
                "--grid with_replacement=yes,on: with_replacement=True is named twice",
            ),
        ],
    )
    def test_grid_named_twice_is_one_error_line(self, tmp_path, capsys, grid, named):
        # the grid was a dict filled spec by spec: b=1,2 then b=3 ran b=3
        # alone, and seed=1,1 ran one cell twice into one trace file
        cfg = write_cfg(tmp_path, QUICK_CFG)
        out_dir = tmp_path / "grid"
        flags = [arg for spec in grid for arg in ("--grid", spec)]
        assert main(["sweep", "--config", cfg, *flags, "--out-dir", str(out_dir)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert_one_error_line(captured, named)
        assert captured.out == ""
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

    @pytest.mark.parametrize(
        "method,want", [("ef21", "contractive"), ("diana", "unbiased"), ("dasha", "unbiased")]
    )
    def test_contract_follows_the_constant_the_method_reads(self, monkeypatch, capsys, method, want):
        calls = []

        def spy(kind):
            def check(compressor, trials, rng):
                calls.append((kind, compressor.dim))
                return {"passed": True, "margin": 0.0}

            return check

        monkeypatch.setattr(cli, "check_biased_contract", spy("contractive"))
        monkeypatch.setattr(cli, "check_unbiased_contract", spy("unbiased"))
        assert main(["verify", "--method", method, "--states", "1", "--samples", "1000"]) == EXIT_OK
        assert calls == [(want, 10)]
        assert f"{method}: compressor contract PASS" in capsys.readouterr().out

    # the compressor contract reports ``verify`` prints, recorded before the
    # exact check ran ``sample_dense`` under the every-outcome generator: a
    # change to how the contracts are checked must not move a byte of them
    CONTRACT_REPORTS = {
        "ef21": {"kind": "contractive", "delta": 10.0, "margin": -0.04023890025631616,
                 "stderr": 0.0, "trials": 20000, "passed": True},
        "diana": {"kind": "unbiased", "omega": 2.0, "mode": "enumeration",
                  "mean_error": 2.220446049250313e-15, "margin": 0.0, "stderr": 0.0,
                  "passed": True},
    }
    CONTRACT_REPORTS["dasha"] = CONTRACT_REPORTS["diana"]

    @pytest.mark.parametrize("method", ["ef21", "diana", "dasha"])
    def test_printed_contract_report_is_pinned(self, monkeypatch, capsys, method):
        reports = []

        def recording(check):
            def recorded(*args):
                reports.append(check(*args))
                return reports[-1]

            return recorded

        for name in ("check_biased_contract", "check_unbiased_contract"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        assert main(["verify", "--method", method, "--states", "1", "--samples", "1000"]) == EXIT_OK
        capsys.readouterr()
        assert reports == [self.CONTRACT_REPORTS[method]]

    # SHA-256 of the margin CSV ``verify --all`` writes at its defaults (10
    # states x 20000 samples, seed 0), the full margin verification: a
    # change to a sampler, a compressor or the verifier that moves one
    # margin byte of it fails here
    ALL_CSV_SHA256 = "a960ee36b4f6b5110887590debadb89b80addb8269d42bb364a934352d5c312b"

    def test_all_at_defaults_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "margins.csv"
        assert main(["verify", "--all", "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.ALL_CSV_SHA256

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

    def test_perturb_factor_that_is_not_a_number_names_the_flag(self, capsys):
        code = main(["verify", "--method", "ef21", "--perturb", "C:abc"] + self.FAST)
        assert code == EXIT_USAGE
        assert_one_error_line(
            capsys.readouterr(), "--perturb wants NAME:FACTOR with a number, got 'C:abc'"
        )

    @pytest.mark.parametrize("factor", ["nan", "inf"])
    def test_non_finite_perturbation_is_one_error_line(self, factor, capsys):
        code = main(["verify", "--method", "ef21", "--perturb", f"C:{factor}"] + self.FAST)
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert_one_error_line(captured, "A, B, C must be finite and nonnegative")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "spec,named",
        [
            ("C:-1", "--perturb C:-1: A, B, C must be finite and nonnegative"),
            ("rho2:100", "--perturb rho2:100: rho2 must lie in (0, 1], got 5.5"),
            ("A:2,rho1:0", "--perturb A:2,rho1:0: rho1 must lie in (0, 1], got 0.0"),
        ],
    )
    def test_perturbation_out_of_range_names_the_spec(self, spec, named, capsys):
        # the error is about a derived constant (C = -20 for C:-1), so the
        # spec the user gave leads it
        code = main(["verify", "--method", "ef21", "--perturb", spec] + self.FAST)
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert_one_error_line(captured, named)
        assert captured.out == ""

    @pytest.mark.parametrize("spec", ["C:0.5,C:2", "C:2,A:1, C:0.5"])
    def test_constant_named_twice_is_one_error_line(self, spec, capsys):
        # a dict of factors once kept the last one only: C:0.5,C:2 checked
        # C x 2 alone and passed
        code = main(["verify", "--method", "ef21", "--perturb", spec] + self.FAST)
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert_one_error_line(captured, f"--perturb {spec}: C is named twice")
        assert captured.out == ""


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
            (["--method", "ef21", "--d", "10", "--k", "20"], "ef21: k must be an integer in [1, 10], got 20"),
            (["--method", "diana", "--omega", "inf"], "diana: omega must be finite and >= 1, got inf"),
            (["--method", "ef21", "--delta", "inf"], "ef21: delta must be finite and >= 1, got inf"),
            # rho1*rho2 = (1/(2 omega + 1))^2 underflows to 0.0
            (["--method", "dasha", "--omega", "1e200"], "dasha: (B*rho2 + A*C) / (rho1*rho2) must be finite"),
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
        [
            (["run"], "--config"),
            (["verify", "--samples", "abc"], "--samples"),
            # it named the API's state_points
            pytest.param(["verify", "--method", "saga", "--states", "0", "--out", "{out}"],
                         "--states must be >= 1, got 0", id="verify-zero-states"),
            # it named no flag: "need at least 1000 samples per state point"
            pytest.param(["verify", "--method", "saga", "--samples", "999", "--out", "{out}"],
                         "--samples must be >= 1000, got 999", id="verify-few-samples"),
            # either-or flags: both given once ran --all, or ingested --data
            pytest.param(["verify", "--method", "nosuch", "--all"],
                         "--all: not allowed with argument --method", id="verify-both"),
            pytest.param(["constants", "--method", "saga", "--all"],
                         "--all: not allowed with argument --method", id="constants-both"),
            pytest.param(["ingest", "--data", "F", "--synthetic", "50x8", "--out", "{out}"],
                         "--synthetic: not allowed with argument --data", id="ingest-both"),
            pytest.param(["verify"], "one of the arguments --method --all is required",
                         id="verify-neither"),
            pytest.param(["constants"], "one of the arguments --method --all is required",
                         id="constants-neither"),
            pytest.param(["ingest", "--out", "{out}"],
                         "one of the arguments --data --synthetic is required", id="ingest-neither"),
        ],
    )
    def test_parse_error_is_one_error_line(self, argv, named, tmp_path, capsys):
        out = tmp_path / "out.txt"
        assert main([arg.format(out=out) for arg in argv]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), named)
        assert not out.exists()

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

    # sizes whose arrays pass 2**48 bytes, which numpy refuses at once;
    # 10**12 samples (8 TB) could really be allocated under overcommit
    @pytest.mark.parametrize(
        "argv,shape",
        [
            (["verify", "--method", "saga", "--states", "1", "--samples", "100000000000000000"],
             "(100000000000000000,)"),
            (["run", "--config", "{big_n}"], "(100000000000000000, 4)"),
            (["run", "--config", "{big_d}"], "(6, 100000000000000000)"),
        ],
        ids=["verify-samples", "run-n", "run-d"],
    )
    def test_oversized_size_is_one_error_line(self, argv, shape, tmp_path, capsys):
        # it was a traceback ending in numpy's _ArrayMemoryError
        cfgs = {
            "big_n": write_cfg(tmp_path, SAGA_CFG + "n=100000000000000000\nd=4\n", "n.cfg"),
            "big_d": write_cfg(tmp_path, SAGA_CFG + "n=6\nd=100000000000000000\n", "d.cfg"),
        }
        argv = [arg.format(**cfgs) for arg in argv]
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), f"array with shape {shape}")
        # the output opened before the work is removed again
        assert not (tmp_path / "out.csv").exists()

    # sizes past what an array index counts, which numpy refuses with
    # "Maximum allowed dimension exceeded", naming no size
    @pytest.mark.parametrize(
        "argv,named",
        [
            (["verify", "--method", "saga", "--states", "1", "--samples", "100000000000000000000"],
             "--samples is 100000000000000000000: more floats than one array can hold"),
            (["run", "--config", "{big_n}"], "n x d is 100000000000000000000 x 4: "),
            (["run", "--config", "{big_d}"], "n x d is 6 x 100000000000000000000: "),
        ],
        ids=["verify-samples", "run-n", "run-d"],
    )
    def test_size_past_numpys_index_names_its_flag_or_key(self, argv, named, tmp_path, capsys):
        cfgs = {
            "big_n": write_cfg(tmp_path, SAGA_CFG + "n=100000000000000000000\nd=4\n", "n.cfg"),
            "big_d": write_cfg(tmp_path, SAGA_CFG + "n=6\nd=100000000000000000000\n", "d.cfg"),
        }
        argv = [arg.format(**cfgs) for arg in argv]
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), named)
        assert not (tmp_path / "out.csv").exists()

    def test_oversized_sweep_cell_is_invalid_and_the_others_write(self, tmp_path, capsys):
        # the bad cell once sank the sweep before any trace was written
        cfg = write_cfg(tmp_path, QUICK_CFG)
        out_dir = tmp_path / "grid"
        grid = ["--grid", "n=6,100000000000000000"]
        assert main(["sweep", "--config", cfg, *grid, "--out-dir", str(out_dir)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert_one_error_line(captured, "cell n=100000000000000000: Unable to allocate")
        assert captured.out.startswith("status=completed ")
        assert [p.name for p in out_dir.iterdir()] == ["sweep_n6.csv"]


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

    @pytest.mark.parametrize(
        "argv,work",
        [
            (["run", "--config", "{cfg}", "--out", "{blocked}/trace.csv"], (engine, "run")),
            (["verify", "--all", "--out", "{blocked}/margins.csv"], (verify, "assumption_margin")),
            (["sweep", "--config", "{cfg}", "--grid", "b=1,2", "--out-dir", "{blocked}/sweep"],
             (engine, "run")),
        ],
        ids=["run", "verify", "sweep"],
    )
    def test_unwritable_output_fails_before_the_work(self, argv, work, tmp_path, monkeypatch, capsys):
        # run --out into a missing directory once ran every step first
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        cfg = write_cfg(tmp_path, QUICK_CFG)
        calls = []
        module, name = work
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args))
        assert main([arg.format(cfg=cfg, blocked=blocked) for arg in argv]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), str(blocked))
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "{cfg}"],
            ["verify", "--method", "saga", "--samples", "10"],
        ],
        ids=["run", "verify"],
    )
    def test_failed_command_leaves_an_existing_output_as_it_was(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        out.write_text("kept\n")
        cfg = write_cfg(tmp_path, "method=saga\nn=6\nd=4\nT=5\n")  # no b
        assert main([*(arg.format(cfg=cfg) for arg in argv), "--out", str(out)]) == EXIT_USAGE
        capsys.readouterr()
        assert out.read_text() == "kept\n"

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

    @pytest.mark.parametrize(
        "command,name,raw,line",
        [
            ("run", "exp.cfg", b"method=saga\nb=2\nT=5\xff\n", 3),
            ("sweep", "exp.cfg", b"method=saga\r\nb=2\r\xc3\n", 3),
            ("ingest", "a.txt", b"+1 1:1\r-1 2:1\xe2\x82\n", 2),
            ("run", "a.txt", b"+1 1:1\n\xa0-1 2:1\n", 2),
            ("run", "a.gz", gzip.compress(b"+1 1:1\n-1 2:1\n+1 \xff3:1\n", mtime=0), 3),
        ],
        ids=["run-config", "sweep-config", "ingest-data", "run-data", "run-gz-data"],
    )
    def test_file_that_is_not_utf8_names_its_file_and_line(
        self, command, name, raw, line, tmp_path, capsys
    ):
        bad = tmp_path / name
        bad.write_bytes(raw)
        if command == "ingest":
            argv = ["ingest", "--data", str(bad), "--out", str(tmp_path / "out.txt")]
        elif name == "exp.cfg":
            argv = [command, "--config", str(bad)]
        else:
            argv = ["run", "--config", write_cfg(tmp_path, f"method=saga\nb=1\nT=5\ndataset={bad}\n")]
        assert main(argv) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), f"{bad}: line {line}: byte 0x")

    @pytest.mark.parametrize("command", ["ingest", "run"])
    def test_dataset_parse_error_names_its_file(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("+1 1:1\n-1 3.0:1\n")
        if command == "ingest":
            argv = ["ingest", "--data", str(bad), "--out", str(tmp_path / "out.txt")]
        else:
            argv = ["run", "--config", write_cfg(tmp_path, f"method=saga\nb=1\nT=5\ndataset={bad}\n")]
        assert main(argv) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), f"error: {bad}: line 2: bad feature token '3.0:1'")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "{cfg}", "--out", "/dev/full"],
            ["verify", "--method", "page", "--states", "1", "--samples", "1000",
             "--out", "/dev/full"],
            ["ingest", "--synthetic", "6x3", "--out", "/dev/full"],
        ],
        ids=["run", "verify", "ingest"],
    )
    def test_failed_write_names_its_path(self, argv, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_CFG)
        assert main([arg.format(cfg=cfg) for arg in argv]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), "No space left on device: '/dev/full'")


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

    def test_limit_caps_synthetic_rows(self, tmp_path, capsys):
        out = tmp_path / "cut.txt"
        assert main(["ingest", "--synthetic", "100x10", "--limit", "5", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("rows=5 dim=10 ")
        assert len(out.read_text().splitlines()) == 5
        # the first rows of the full draw
        full = tmp_path / "full.txt"
        main(["ingest", "--synthetic", "100x10", "--out", str(full)])
        assert out.read_text().splitlines() == full.read_text().splitlines()[:5]

    def test_force_dim_with_synthetic_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = main(["ingest", "--synthetic", "100x10", "--force-dim", "20", "--out", str(out)])
        assert code == EXIT_USAGE
        assert_one_error_line(capsys.readouterr(), "--force-dim does not apply to --synthetic")
        assert not out.exists()

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
