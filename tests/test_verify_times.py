"""``tools/verify_times.py`` prints one timing row per method, then
their steps-weighted geometric mean."""

import math
import runpy
import subprocess
import sys
from pathlib import Path

from vradapt.estimators import METHODS

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "verify_times.py"


def _tool_steps():
    """The tool's ``STEPS``, read from its file (``tools`` is no package)."""
    return runpy.run_path(str(TOOL), run_name="verify_times")["STEPS"]


def test_one_state_prints_every_method():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--states", "1", "--samples", "1000", "--repeats", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    settings, header, *rows, last = proc.stdout.splitlines()
    assert settings == "# 1 states x 1000 samples, best of 1"
    assert header.split() == ["method", "us/sample"]
    assert sorted(name for name, _ in map(str.split, rows)) == sorted(METHODS)
    times = [float(us) for _, us in map(str.split, rows)]
    assert all(t > 0.0 for t in times) and times == sorted(times, reverse=True)
    name, us = last.split()
    assert name == "weighted" and min(times) <= float(us) <= max(times)
    # the weighted mean of the printed rows, up to their rounding
    steps = _tool_steps()
    logs = sum(steps[m] * math.log(float(t)) for m, t in map(str.split, rows))
    assert abs(float(us) - math.exp(logs / sum(steps.values()))) <= 2e-3

