"""The benchmark's span tracer patches vradapt by attribute name.

``perfbench/tracing.py`` wraps functions in the namespaces that call
them (``estimators.partition_problem``, ``engine.make_estimator``, ...)
and methods on the classes that define them.  Entering its
``installed()`` block looks every such name up, so a rename or a moved
import fails here before it breaks the benchmark.  The tracer is loaded
by path and nothing under ``perfbench/`` is written.
"""

import importlib.util
import sys
from pathlib import Path

from vradapt import engine, estimators, problems

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    # no bytecode cache: the benchmark directory stays as it is
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    names = {(id(owner), attr) for owner, attr, _ in tracing._targets()}
    assert (id(estimators), "partition_problem") in names
    originals = {
        "partition_problem": estimators.partition_problem,
        "make_estimator": engine.make_estimator,
        "full_grad": problems.LogisticProblem.__dict__["full_grad"],
    }
    with tracing.Tracer().installed():
        assert estimators.partition_problem is not originals["partition_problem"]
    assert estimators.partition_problem is originals["partition_problem"]
    assert engine.make_estimator is originals["make_estimator"]
    assert problems.LogisticProblem.__dict__["full_grad"] is originals["full_grad"]
