"""Print what loading the benchmark's logistic file and building its
problem cost, step by step.

    python tools/setup_times.py [--repeats N] [--seed N]

The file is the one the benchmark's race and fullpass workloads load:
``perfbench.workloads.generate_rows`` at ``--seed``, written by
``write_libsvm_text`` into a temporary directory that is removed after.
Each repeat takes the four steps of a setup in order, each timed alone:

* ``read_text``: the file's text (``data.read_text``);
* ``parse_libsvm``: the dataset from that text;
* ``build``: ``LogisticProblem`` over the dataset;
* ``smoothness``: the new problem's first read of L, its power
  iteration, which a run pays only when its step rule reads L
  (theoretical, tuned, pl).

A row is the best of ``--repeats`` in milliseconds.  The benchmark's
``setup_s`` is ``data.load_libsvm`` plus the build (the first three
rows), so a change to one step can be sized without the benchmark's
noise.  The checkout's ``src/`` is put first on the path, and its
``perfbench/`` next to it, for the file's shape.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from vradapt import data  # noqa: E402
from vradapt.problems import LogisticProblem  # noqa: E402

STEPS = (
    ("read_text", data.read_text),
    ("parse_libsvm", data.parse_libsvm),
    ("build", LogisticProblem),
    ("smoothness", lambda problem: problem.smoothness),
)


def best_ms(path, repeats):
    """Best of ``repeats`` for each step of ``STEPS``, in milliseconds;
    each step takes the previous one's result."""
    best = dict.fromkeys((name for name, _ in STEPS), float("inf"))
    for _ in range(repeats):
        value = path
        for name, step in STEPS:
            started = time.perf_counter()
            value = step(value)
            best[name] = min(best[name], (time.perf_counter() - started) * 1e3)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    cols, labels = workloads.generate_rows(args.seed)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "data.libsvm")
        workloads.write_libsvm_text(path, cols, labels)
        times = best_ms(path, args.repeats)
    print(f"# {workloads.ROWS} x {workloads.DIM} file, seed {args.seed}, best of {args.repeats}")
    print(f"{'step':<14} {'ms':>8}")
    for name, ms in times.items():
        print(f"{name:<14} {ms:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
