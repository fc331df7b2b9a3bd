"""Print the Monte Carlo cost of the margin check, method by method.

    python tools/verify_times.py [--states N] [--samples N] [--repeats N] [--seed N]

For each method, ``verify.assumption_margin`` runs on the method's
standard fixture (``verify.standard_margin_setup``, built once, outside
the timing) at N states x N samples per state.  The default, 1 x 1000,
is what the benchmark's verify workload times (``us_per_step`` comes
from its 1-state chunks, ``Verify.timing_cells``); ``--states 10`` is
its checked round.  Work done once per state (the estimate error and
``sigma_sq`` at the state, the sampler's shared oracle values) weighs
ten times as much per sample at 1 state as at 10.  A row is the best
of ``--repeats`` runs, in microseconds per sample, slowest method first.

Almost all of that time is spent in each state's ``sampler`` and its
draws, which the benchmark's span tracer does not wrap, so its
per-layer numbers do not show which method a verify run spends its
time on; these rows do.  The checkout's ``src/`` is put first on the
path.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vradapt import verify  # noqa: E402
from vradapt.estimators import METHODS  # noqa: E402


def us_per_sample(method, states, samples, repeats, seed):
    """Best of ``repeats`` timed ``assumption_margin`` runs, in us per
    Monte Carlo sample."""
    problem, hp = verify.standard_margin_setup(method)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        verify.assumption_margin(
            method, hp, problem, state_points=states, samples_per_point=samples, seed=seed
        )
        best = min(best, time.perf_counter() - started)
    return best / (states * samples) * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=1)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    times = {
        method: us_per_sample(method, args.states, args.samples, args.repeats, args.seed)
        for method in METHODS
    }
    print(f"# {args.states} states x {args.samples} samples, best of {args.repeats}")
    print(f"{'method':<10} {'us/sample':>10}")
    for method in sorted(times, key=times.get, reverse=True):
        print(f"{method:<10} {times[method]:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
