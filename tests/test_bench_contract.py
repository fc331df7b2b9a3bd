"""The benchmark reads vradapt's results directly.

``perfbench/workloads.py`` builds ``Trace(rows)`` from rows copied with
``dataclasses.replace(row, wall_ms=0.0)``, hashes ``trace_csv_text`` and
``margins_to_csv`` output, reads the run summary's keys and takes the
time per step from the last row's ``wall_ms``.  The first timing chunk
of the race and of verify, and all three of fullpass (EF21, DASHA,
JAGUAR), run here, so a change to any of these fails here before it
breaks the benchmark; their fingerprints are the bytes the benchmark
compares across commits.  The workloads module is loaded by path and
nothing under ``perfbench/`` is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    # no bytecode cache: the benchmark directory stays as it is
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload,fingerprint",
    [
        (
            "race",
            [
                {
                    "iterations": 200,
                    "grad_calls": 54400,
                    "partial_calls": 0,
                    "bits": 0,
                    "trace_sha256": "673178897737bf03da50613bc8562b4989771e9bb20c0e64b37761392c882932",
                },
            ],
        ),
        (
            "verify",
            [
                {
                    "passed": True,
                    "margins_sha256": "73f5f1550e92645574c35bdb6b6d96f53fd5249f2d5cf806ba6d6aa3a1749ca3",
                },
            ],
        ),
        (
            "fullpass",
            [
                {
                    "iterations": 100,
                    "grad_calls": 404000,
                    "partial_calls": 0,
                    "bits": 487360,
                    "trace_sha256": "448b304f04f4b7dec23ab1c8f2b848913d56dcf34900081ca8f31ed3f6941f43",
                },
                {
                    "iterations": 100,
                    "grad_calls": 404000,
                    "partial_calls": 0,
                    "bits": 487360,
                    "trace_sha256": "ad6c10b21ee90072243d99d687e21569082d66f8ff9d663362e329411f8319ef",
                },
                {
                    "iterations": 100,
                    "grad_calls": 4000,
                    "partial_calls": 800,
                    "bits": 0,
                    "trace_sha256": "b57ed1d8de464705f4d29b47cb0af8720d21d0cce8ad1ef021356c35e00b88b0",
                },
            ],
        ),
    ],
)
def test_first_timing_chunk(workloads, workload, fingerprint, tmp_path):
    # ``fingerprint`` lists the expected fingerprints of the first chunks
    bench = workloads.WORKLOADS[workload](0, str(tmp_path))
    bench.setup(reps=1)
    cells = bench.timing_cells()[: len(fingerprint)]
    rnd = workloads.run_round(cells)
    assert rnd.errors == {}
    assert [rnd.fingerprints[name] for name, _, _ in cells] == fingerprint
    assert all(rnd.step_us[name] > 0.0 for name, _, _ in cells)
