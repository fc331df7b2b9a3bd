"""``tools/layer_times.py`` prints three timing tables: a setup's steps,
a race step's layers, and the margin check's cost per method with their
steps-weighted geometric mean."""

import json
import math
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vradapt import data
from vradapt.estimators import METHODS

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "layer_times.py"
SETUP = ["read_text", "parse_libsvm", "parse_refused_line", "build", "smoothness", "parse_decimal"]
RACE = [
    "step.saga", "step.page", "step.zerosarah", "draw.b64", "component_rows.b64", "batch_sum.b64",
]


@pytest.fixture(scope="module")
def tool():
    """The tool's globals, read from its file (``tools`` is no package)."""
    return runpy.run_path(str(TOOL), run_name="layer_times")


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), "--repeats", "1", "--seed", "3", *args],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout


@pytest.fixture(scope="module")
def printed():
    """The settings line, then each table's name, unit and (name, value) rows."""
    settings, *blocks = run_tool().split("\n\n")
    tables = {}
    for block in blocks:
        header, *rows = block.splitlines()
        name, unit = header.split()
        tables[name] = unit, [(row, float(value)) for row, value in map(str.split, rows)]
    return settings, tables


def test_settings_and_tables_in_order(printed):
    settings, tables = printed
    assert settings == "# 4000 x 123 file, 1 states x 1000 samples, seed 3, best of 1"
    assert [(name, unit) for name, (unit, _) in tables.items()] == [
        ("setup", "ms"), ("race", "us"), ("verify", "us/sample"),
    ]
    for _, rows in tables.values():
        assert all(value > 0.0 for _, value in rows)


def test_setup_and_race_rows(printed):
    _, tables = printed
    assert [name for name, _ in tables["setup"][1]] == SETUP
    assert [name for name, _ in tables["race"][1]] == RACE


def test_verify_rows_slowest_first_then_weighted(printed, tool):
    _, tables = printed
    *rows, (last, weighted) = tables["verify"][1]
    assert sorted(name for name, _ in rows) == sorted(METHODS)
    times = [us for _, us in rows]
    assert times == sorted(times, reverse=True)
    assert last == "weighted" and min(times) <= weighted <= max(times)
    # the weighted mean of the printed rows, up to their rounding
    steps = tool["STEPS"]
    logs = sum(steps[name] * math.log(us) for name, us in rows)
    assert abs(weighted - math.exp(logs / sum(steps.values()))) <= 2e-3


def test_json_holds_the_same_tables():
    report = json.loads(run_tool("--json"))
    assert {k: report[k] for k in ("rows", "dim", "seed", "repeats", "states", "samples")} == {
        "rows": 4000, "dim": 123, "seed": 3, "repeats": 1, "states": 1, "samples": 1000,
    }
    assert list(report) == [
        "rows", "dim", "seed", "repeats", "states", "samples", "setup", "race", "verify",
    ]
    assert list(report["setup"]) == SETUP and list(report["race"]) == RACE
    *methods, last = report["verify"]
    assert sorted(methods) == sorted(METHODS) and last == "weighted"
    assert all(v > 0.0 for table in ("setup", "race", "verify") for v in report[table].values())


def test_decimal_copy_holds_the_rows_with_seeded_values(tool, tmp_path):
    cols, labels = tool["workloads"].generate_rows(3)
    path = str(tmp_path / "decimal.libsvm")
    tool["write_decimal_copy"](path, cols, labels, 3)
    ds = data.load_libsvm(path)
    assert (ds.n, ds.d) == (4000, 123) and ds.labels.tolist() == labels.tolist()
    assert ds.indices.tolist() == cols.ravel().tolist()
    assert ds.values.tobytes() == np.random.default_rng(3).standard_normal(cols.size).tobytes()


@pytest.mark.parametrize(
    "flag, value, least",
    [("--repeats", "0", 1), ("--states", "0", 1), ("--samples", "10", 1000)],
)
def test_bad_count_is_one_error_line(tool, capsys, flag, value, least):
    # rejected before any work: argparse's exit, no traceback, no table
    with pytest.raises(SystemExit) as exit_info:
        tool["main"]([flag, value])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.endswith(f": error: {flag} must be >= {least}, got {value}\n")
