"""Print what a race step costs, layer by layer, in microseconds.

    python tools/layer_times.py [--repeats N] [--seed N] [--json]

The file is the one the benchmark's race workload loads:
``perfbench.workloads.generate_rows`` at ``--seed``, written by
``write_libsvm_text`` into a temporary directory that is removed after,
then loaded and built into a ``LogisticProblem`` once, outside the
timing.  The rows:

* ``step.<method>``: one ``step`` of SAGA, PAGE and ZeroSARAH at their
  presets (the race's cells), in us per step over a block of
  ``perfbench.workloads.RACE_CHUNK_T`` steps from zero, each step at
  x - g of the previous estimate g, the draws from ``--seed``; so PAGE's
  full refreshes count at their rate, as in the race;
* ``component_rows.b64``: the gather and the coefficients of a batch of
  64 rows (ZeroSARAH's presets) at two points, the call a ZeroSARAH
  step makes;
* ``batch_sum.b64``: one sum of a coefficient array over those 64 rows.

A row is the best of ``--repeats``; a step row is the block's mean, the
oracle rows the mean of 1000 calls.  ``--json`` prints one JSON object
in place of the table.  The benchmark's tracer does not wrap
``component_rows`` or ``batch_sum``, so these rows show where a race
step spends its time; a change to one layer can be sized without the
benchmark's noise.  The checkout's ``src/`` is put first on the path,
and its ``perfbench/`` next to it, for the file's shape.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from vradapt import data  # noqa: E402
from vradapt.estimators import estimator_class, make_estimator  # noqa: E402
from vradapt.problems import LogisticProblem  # noqa: E402

METHODS = ("saga", "page", "zerosarah")
BATCH, CALLS = 64, 1000


def step_us(problem, method, repeats, seed):
    """Best of ``repeats`` blocks of ``RACE_CHUNK_T`` steps, in us per step."""
    hp = estimator_class(method).presets(problem.n_components)
    best = float("inf")
    for _ in range(repeats):
        est = make_estimator(method, problem, np.zeros(problem.dim), hp)
        rng, x = np.random.default_rng(seed), est.x
        started = time.perf_counter()
        for _ in range(workloads.RACE_CHUNK_T):
            x = x - est.step(x, rng)
        best = min(best, time.perf_counter() - started)
    return best / workloads.RACE_CHUNK_T * 1e6


def oracle_us(problem, repeats, seed):
    """Best of ``repeats`` means over ``CALLS`` calls, in us per call, of
    ``component_rows`` and ``batch_sum`` on one batch of ``BATCH`` rows."""
    rng = np.random.default_rng(seed)
    batch = rng.choice(problem.n_components, BATCH, replace=False)
    x, x_prev = 0.1 * rng.standard_normal((2, problem.dim))
    rows, (coefs, _) = problem.component_rows(batch, x, x_prev)
    calls = {
        f"component_rows.b{BATCH}": lambda: problem.component_rows(batch, x, x_prev),
        f"batch_sum.b{BATCH}": lambda: problem.batch_sum(rows, coefs),
    }
    return {
        name: min(timeit.repeat(call, number=CALLS, repeat=repeats)) / CALLS * 1e6
        for name, call in calls.items()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="print one JSON object, not the table")
    args = parser.parse_args(argv)
    cols, labels = workloads.generate_rows(args.seed)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "data.libsvm")
        workloads.write_libsvm_text(path, cols, labels)
        problem = LogisticProblem(data.load_libsvm(path))
    times = {f"step.{m}": step_us(problem, m, args.repeats, args.seed) for m in METHODS}
    times.update(oracle_us(problem, args.repeats, args.seed))
    if args.json:
        report = {"rows": workloads.ROWS, "dim": workloads.DIM, "seed": args.seed,
                  "repeats": args.repeats, "us": times}
        print(json.dumps(report, indent=2))
        return 0
    print(f"# {workloads.ROWS} x {workloads.DIM} file, seed {args.seed}, best of {args.repeats}")
    print(f"{'layer':<20} {'us':>9}")
    for name, us in times.items():
        print(f"{name:<20} {us:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
