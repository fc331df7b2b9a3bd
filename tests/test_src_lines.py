"""``tools/src_lines.py`` counts each module's lines as the file holds them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vradapt"


def test_line_counts_match_the_files():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py"), str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    header, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    modules = sorted(path.name for path in SRC.glob("*.py"))
    assert [name for name, _, _ in rows] == modules
    for name, lines, code in rows:
        assert int(lines) == len((SRC / name).read_text().splitlines()), name
        assert 0 < int(code) <= int(lines), name
    assert total == ["total", *(str(sum(int(row[i]) for row in rows)) for i in (1, 2))]
