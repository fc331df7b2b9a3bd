"""``tools/setup_times.py`` prints one timing row per setup step."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "setup_times.py"


def test_one_repeat_prints_every_step():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--repeats", "1", "--seed", "3"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    settings, header, *rows = proc.stdout.splitlines()
    assert settings == "# 4000 x 123 file, seed 3, best of 1"
    assert header.split() == ["step", "ms"]
    names = [name for name, _ in map(str.split, rows)]
    assert names == ["read_text", "parse_libsvm", "build", "smoothness"]
    assert all(float(ms) > 0.0 for _, ms in map(str.split, rows))
