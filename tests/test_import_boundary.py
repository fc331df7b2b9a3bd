"""What a command imports: scipy only on the logistic path.

Each test runs a fresh interpreter, since this process has long since
imported scipy, and reads its ``sys.modules``.  The quadratic commands
(``constants``, ``verify``, a quadratic run) load no scipy module, nor
``concurrent.futures``, which only ``sweep --jobs`` needs; ``constants``
loads no ``hashlib`` either, which ``numpy.random`` brings in for the
others.  The first logistic problem built in the process imports scipy,
and a sparse helper called before any problem is built imports it too.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import sys

def loaded(*roots):
    return sorted(m for m in sys.modules if m.split(".")[0] in roots)
"""


def _run_fresh(script, cwd):
    """Run ``script`` after PRELUDE in a new interpreter that imports
    vradapt from this checkout; returns its standard output."""
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(script)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quadratic_commands_load_no_scipy(tmp_path):
    out = _run_fresh(
        """
        import vradapt, vradapt.cli
        from vradapt import cli, engine

        assert cli.main(["constants", "--all"]) == 0
        after_constants = loaded("scipy", "concurrent", "hashlib", "_hashlib")
        assert cli.main(["verify", "--method", "ef21", "--states", "1", "--samples", "1000"]) == 0
        res = engine.run(engine.ExperimentConfig(method="saga", b=2, n=6, d=4, T=20))
        assert res.status == "completed", res.status
        after_quadratic = loaded("scipy", "concurrent")

        cfg = engine.ExperimentConfig(method="saga", b=4, dataset="synthetic:40:6:0", T=20)
        res = engine.run(cfg)
        assert res.status == "completed", res.status
        print("constants", after_constants)
        print("quadratic", after_quadratic)
        print("logistic", "scipy.sparse" in sys.modules, "scipy.special" in sys.modules)
        """,
        tmp_path,
    )
    assert out.splitlines()[-3:] == ["constants []", "quadratic []", "logistic True True"], out


@pytest.mark.parametrize(
    "call, expected",
    [
        ("problems._matvec(indptr, cols, values, np.ones(3), 3)", [6.0, 15.0]),
        ("problems._gather(A, np.diff(indptr), [1])[2]", [4.0, 5.0, 6.0]),
    ],
)
def test_sparse_helper_imports_scipy_on_first_call(tmp_path, call, expected):
    out = _run_fresh(
        f"""
        from types import SimpleNamespace

        import numpy as np
        from vradapt import problems

        before = loaded("scipy")
        indptr, cols, values = np.array([0, 3, 6]), np.tile(np.arange(3), 2), np.arange(1.0, 7.0)
        A = SimpleNamespace(indptr=indptr, indices=cols, data=values)
        print(before, {call}.tolist())
        print(type(problems._sparsetools).__name__, "scipy.sparse" in sys.modules)
        """,
        tmp_path,
    )
    assert out.splitlines() == [f"[] {expected}", "module True"], out
