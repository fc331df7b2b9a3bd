"""``tools/layer_times.py`` prints one timing row per layer of a race step."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "layer_times.py"
LAYERS = [
    "step.saga", "step.page", "step.zerosarah", "component_rows.b64", "batch_sum.b64",
]


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), "--repeats", "1", "--seed", "3", *args],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout


def test_one_repeat_prints_every_layer():
    settings, header, *rows = run_tool().splitlines()
    assert settings == "# 4000 x 123 file, seed 3, best of 1"
    assert header.split() == ["layer", "us"]
    assert [name for name, _ in map(str.split, rows)] == LAYERS
    assert all(float(us) > 0.0 for _, us in map(str.split, rows))


def test_json_holds_the_same_rows():
    report = json.loads(run_tool("--json"))
    assert {k: report[k] for k in ("rows", "dim", "seed", "repeats")} == {
        "rows": 4000, "dim": 123, "seed": 3, "repeats": 1,
    }
    assert list(report["us"]) == LAYERS
    assert all(us > 0.0 for us in report["us"].values())
