"""What a command imports: scipy only on the logistic path.

Each test runs a fresh interpreter, since this process has long since
imported scipy, and reads its ``sys.modules``.  The quadratic commands
(``constants``, ``verify``, a quadratic run) load no scipy module, nor
``concurrent.futures``, which only ``sweep --jobs`` needs; ``constants``
loads no ``hashlib`` either, which ``numpy.random`` brings in for the
others, and ``ingest --synthetic`` loads none.  A logistic problem
imports scipy when it is built, and when it is unpickled in a process
that has built none.
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


def test_synthetic_ingest_loads_no_scipy(tmp_path):
    out = _run_fresh(
        """
        from vradapt import cli

        assert cli.main(["ingest", "--synthetic", "40x6", "--out", "synthetic.txt"]) == 0
        print("ingest", loaded("scipy"))
        """,
        tmp_path,
    )
    assert out.splitlines()[-1] == "ingest []", out


def test_unpickled_problem_imports_scipy(tmp_path):
    # one process builds and pickles a problem; a second one, which has
    # built none, unpickles it and calls its oracles
    script = """
        import pickle

        import numpy as np
        from vradapt import data, problems

        x = np.linspace(-1.0, 1.0, 6)
        if {build}:
            prob = problems.logistic_problem(data.synthetic_dataset(40, 6, seed=0))
            with open("problem.pkl", "wb") as f:
                pickle.dump(prob, f)
        else:
            with open("problem.pkl", "rb") as f:
                prob = pickle.load(f)
        print(repr(prob.loss(x)), prob.full_grad(x).tobytes().hex())
        """
    built = _run_fresh(script.format(build=True), tmp_path)
    assert _run_fresh(script.format(build=False), tmp_path) == built
