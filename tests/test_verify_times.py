"""``tools/verify_times.py`` prints one timing row per method."""

import subprocess
import sys
from pathlib import Path

from vradapt.estimators import METHODS

ROOT = Path(__file__).resolve().parents[1]


def test_one_state_prints_every_method():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "verify_times.py"),
         "--states", "1", "--samples", "1000", "--repeats", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    settings, header, *rows = proc.stdout.splitlines()
    assert settings == "# 1 states x 1000 samples, best of 1"
    assert header.split() == ["method", "us/sample"]
    assert sorted(name for name, _ in map(str.split, rows)) == sorted(METHODS)
    times = [float(us) for _, us in map(str.split, rows)]
    assert all(t > 0.0 for t in times) and times == sorted(times, reverse=True)
