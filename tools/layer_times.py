"""Print what the bench's layers cost: a setup, a race step, a margin sample.

    python tools/layer_times.py [--repeats N] [--seed N] [--states N] [--samples N] [--json]

The file is the one the benchmark's race and fullpass workloads load:
``perfbench.workloads.generate_rows`` at ``--seed``, written once by
``write_libsvm_text`` into a temporary directory that is removed after,
next to a decimal copy: the same rows written by ``data.write_libsvm``
with standard-normal values from ``--seed`` (``%.17g``, so most numbers
go through Python's ``float``).
Three tables follow, each row the best of ``--repeats``:

* ``setup``, in ms, runs first, before anything frees a large block
  (setup time moves with the heap's history): the steps of a setup in
  order, each timed alone on an earlier one's result.  ``read_text``
  (``data.read_text``), ``parse_libsvm`` on its text,
  ``parse_refused_line``, the same text with one ``"\\u3000# header"``
  line prepended (the prepending timed too), which the byte pass
  refuses, so its first block goes through the line parser, ``build``
  (``LogisticProblem`` on ``parse_libsvm``'s dataset) and
  ``smoothness``, the problem's first read of L, which a run pays only
  when its step rule reads L.  The benchmark's ``setup_s`` is
  ``read_text``, ``parse_libsvm`` and ``build``.  Last, after those
  rounds, ``parse_decimal``: ``parse_libsvm`` on the decimal copy's
  text, read once outside the timing.
* ``race``, in us, on the problem built once, outside the timing:
  ``step.<method>`` is one ``step`` of SAGA, PAGE and ZeroSARAH at their
  presets, the mean over ``perfbench.workloads.RACE_CHUNK_T`` steps from
  zero, each at x - g of the previous estimate g, the draws from
  ``engine.run_generator(--seed)`` as in a run, so PAGE's full
  refreshes count at their rate.  ``draw.b64`` (a ZeroSARAH step's
  batch, ``choice(4000, 64, replace=False)`` on that generator, its
  block refills included), ``component_rows.b64`` (the call a ZeroSARAH
  step makes, 64 rows at two points) and ``batch_sum.b64`` (one sum over
  those rows) are each the mean of 1000 calls.
* ``verify``, in us per Monte Carlo sample: ``verify.assumption_margin``
  on each method's ``verify.standard_margin_setup`` fixture (built
  outside the timing) at ``--states`` x ``--samples``, slowest first.
  Each row is the best of ``--repeats`` rounds, the methods taking their
  rounds in turn, and a round repeats the run back to back for at least
  ``ROUND_S`` (20 ms).  The default, 1 x 1000, is what the benchmark's
  verify workload times; ``--states 10`` is its checked round.  The last row, ``weighted``, is
  the rows' geometric mean weighted as the benchmark weighs verify
  ``us_per_step``, by each method's Monte Carlo transitions (``STEPS``).

The benchmark's span tracer wraps neither ``component_rows``,
``batch_sum`` nor a margin sampler's draws; these rows size a change to
one layer without the benchmark's noise.  ``--json`` prints the
settings and the three tables as one JSON object.  The checkout's
``src/`` is put first on the path, and its ``perfbench/`` next to it.
"""

from __future__ import annotations

import argparse
import json
import math
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
from vradapt import data, verify  # noqa: E402
from vradapt.engine import run_generator  # noqa: E402
from vradapt.estimators import METHODS, estimator_class, make_estimator  # noqa: E402
from vradapt.problems import LogisticProblem  # noqa: E402

# a line the byte pass refuses: its block goes through the line parser
REFUSED_LINE = "\u3000# header\n"
# each step: its row, its call, and the row whose result it is called on
SETUP = (
    ("read_text", data.read_text, "path"),
    ("parse_libsvm", data.parse_libsvm, "read_text"),
    ("parse_refused_line", lambda text: data.parse_libsvm(REFUSED_LINE + text), "read_text"),
    ("build", LogisticProblem, "parse_libsvm"),
    ("smoothness", lambda problem: problem.smoothness, "build"),
)
RACE_METHODS = ("saga", "page", "zerosarah")
BATCH, CALLS = 64, 1000
# the least time one timed round of a verify row runs, in s
ROUND_S = 0.02
UNITS = {"setup": "ms", "race": "us", "verify": "us/sample"}
# the benchmark's verify round: every method at its states x samples, and
# EF21 also at its C x 0.5 mutation probe
STEPS = {method: workloads.VERIFY_STATES * workloads.VERIFY_SAMPLES for method in METHODS}
STEPS["ef21"] += workloads.MUTATION_STATES * workloads.MUTATION_SAMPLES


def setup_ms(path, decimal_path, repeats):
    """Best of ``repeats`` for each step of ``SETUP``, then for
    ``parse_decimal``, the parse of ``decimal_path``'s text, in
    milliseconds."""
    best = dict.fromkeys((name for name, _, _ in SETUP), float("inf"))
    for _ in range(repeats):
        results = {"path": path}
        for name, step, arg in SETUP:
            started = time.perf_counter()
            results[name] = step(results[arg])
            best[name] = min(best[name], (time.perf_counter() - started) * 1e3)
    text = data.read_text(decimal_path)
    parse = timeit.repeat(lambda: data.parse_libsvm(text), number=1, repeat=repeats)
    best["parse_decimal"] = min(parse) * 1e3
    return best


def write_decimal_copy(path, cols, labels, seed):
    """Write the rows of ``generate_rows`` to ``path`` by ``data.write_libsvm``,
    with standard-normal values drawn from ``seed``."""
    rows, per_row = cols.shape
    values = np.random.default_rng(seed).standard_normal(cols.size)
    indptr = np.arange(0, cols.size + 1, per_row)
    data.write_libsvm(data.Dataset(indptr, cols.ravel(), values, labels, rows, workloads.DIM), path)


def step_us(problem, method, repeats, seed):
    """Best of ``repeats`` blocks of ``RACE_CHUNK_T`` steps, in us per step."""
    hp = estimator_class(method).presets(problem.n_components)
    best = float("inf")
    for _ in range(repeats):
        est = make_estimator(method, problem, np.zeros(problem.dim), hp)
        rng, x = run_generator(seed), est.x
        started = time.perf_counter()
        for _ in range(workloads.RACE_CHUNK_T):
            x = x - est.step(x, rng)
        best = min(best, time.perf_counter() - started)
    return best / workloads.RACE_CHUNK_T * 1e6


def race_us(path, repeats, seed):
    """The race table: each method's step, then one batch's draw and
    oracle calls, the best of ``repeats`` means over ``CALLS`` calls, in
    us per call."""
    problem = LogisticProblem(data.load_libsvm(path))
    times = {f"step.{m}": step_us(problem, m, repeats, seed) for m in RACE_METHODS}
    rng = run_generator(seed)
    batch = rng.choice(problem.n_components, BATCH, replace=False)
    x, x_prev = 0.1 * rng.standard_normal((2, problem.dim))
    rows, (coefs, _) = problem.component_rows(batch, x, x_prev)
    calls = {
        f"draw.b{BATCH}": lambda: rng.choice(problem.n_components, BATCH, replace=False),
        f"component_rows.b{BATCH}": lambda: problem.component_rows(batch, x, x_prev),
        f"batch_sum.b{BATCH}": lambda: problem.batch_sum(rows, coefs),
    }
    for name, call in calls.items():
        times[name] = min(timeit.repeat(call, number=CALLS, repeat=repeats)) / CALLS * 1e6
    return times


def margin_round(method, states, samples, seed):
    """A call that times one round of back-to-back ``assumption_margin``
    runs on the method's fixture, in us per Monte Carlo sample.  A round
    holds as many runs as take at least ``ROUND_S`` (doubled from one
    until they do): a single run at the default settings is about a
    millisecond, too short to read alone."""
    problem, hp = verify.standard_margin_setup(method)
    timer = timeit.Timer(lambda: verify.assumption_margin(
        method, hp, problem, state_points=states, samples_per_point=samples, seed=seed
    ))
    number = 1
    while timer.timeit(number) < ROUND_S:
        number *= 2
    return lambda: timer.timeit(number) / (number * states * samples) * 1e6


def verify_us(states, samples, repeats, seed):
    """The verify table: each method's best of ``repeats`` rounds, slowest
    first, then ``weighted``, the rows' geometric mean weighted by
    ``STEPS``.  The methods take their rounds in turn, so a burst of load
    on the host costs one round of several rows, not every round of one."""
    rounds = {m: margin_round(m, states, samples, seed) for m in METHODS}
    times = dict.fromkeys(METHODS, float("inf"))
    for _ in range(repeats):
        for m, timed in rounds.items():
            times[m] = min(times[m], timed())
    logs = sum(STEPS[m] * math.log(t) for m, t in times.items())
    table = {m: times[m] for m in sorted(times, key=times.get, reverse=True)}
    table["weighted"] = math.exp(logs / sum(STEPS[m] for m in times))
    return table


def main(argv=None):
    # no usage line: a bad flag ends in the one ``error:`` line
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], usage=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--states", type=int, default=1)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--json", action="store_true", help="print one JSON object, not the tables")
    args = parser.parse_args(argv)
    for flag, least in (("repeats", 1), ("states", 1), ("samples", 1000)):
        if getattr(args, flag) < least:
            parser.error(f"--{flag} must be >= {least}, got {getattr(args, flag)}")
    cols, labels = workloads.generate_rows(args.seed)
    with tempfile.TemporaryDirectory() as workdir:
        path, decimal_path = (os.path.join(workdir, f"{name}.libsvm") for name in ("data", "decimal"))
        workloads.write_libsvm_text(path, cols, labels)
        write_decimal_copy(decimal_path, cols, labels, args.seed)
        tables = {"setup": setup_ms(path, decimal_path, args.repeats)}
        tables["race"] = race_us(path, args.repeats, args.seed)
    tables["verify"] = verify_us(args.states, args.samples, args.repeats, args.seed)
    settings = {"rows": workloads.ROWS, "dim": workloads.DIM, "seed": args.seed,
                "repeats": args.repeats, "states": args.states, "samples": args.samples}
    if args.json:
        print(json.dumps({**settings, **tables}, indent=2))
        return 0
    print(f"# {workloads.ROWS} x {workloads.DIM} file, {args.states} states x {args.samples} "
          f"samples, seed {args.seed}, best of {args.repeats}")
    for table, times in tables.items():
        print(f"\n{table:<20} {UNITS[table]:>10}")
        for name, value in times.items():
            print(f"{name:<20} {value:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
