"""vradapt benchmark: one command, three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload race --seed 0 --seconds 5 --trace 0

It imports vradapt from ``src/`` of that checkout, never from an
installed copy, and writes its inputs and span dumps under
``.perfbench_out/``.  Human-readable metric lines and a JSON report come
first; the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones of a traced round.  See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import os

# Single process, single BLAS thread: the calls are small, and extra
# threads on a shared 2-core machine only add noise.  Set before numpy
# loads so that the BLAS library reads them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "us_per_step": "us",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("race", "fullpass", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path and import vradapt from
    it; refuse to measure anything else."""
    if not (SRC / "vradapt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vradapt sources at {SRC / 'vradapt'}")
    sys.path.insert(0, str(SRC))
    import vradapt

    if Path(vradapt.__file__).resolve().parent != (SRC / "vradapt").resolve():
        raise SystemExit(f"perfbench: imported vradapt from {vradapt.__file__}, not {SRC}")


def machine_record():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "processes": 1,
    }


def ledger(workload, fingerprints):
    """The algorithmic ledger of one round: exact counts."""
    cells = [f for f in fingerprints.values() if f and "iterations" in f]
    out = {}
    if cells:
        out["iters_to_tol"] = sum(f["iterations"] for f in cells)
        out["oracle_calls"] = sum(f["grad_calls"] + f["partial_calls"] for f in cells)
    if workload == "fullpass":
        out["bits_sent"] = sum(f["bits"] for f in cells)
    return out


def steps_of(wl, fingerprints):
    """Estimator steps in one round: optimizer iterations, or Monte Carlo
    transitions for verify."""
    return sum(wl.steps(name, f) for name, f in fingerprints.items() if f)


def count_failures(rounds):
    """Failed cells: those that reported issues, plus those whose
    fingerprint differs from the first round's."""
    first = rounds[0].fingerprints
    failed = 0
    for rnd in rounds:
        for name, fingerprint in rnd.fingerprints.items():
            if name in rnd.errors:
                for issue in rnd.errors[name]:
                    print(f"FAIL {name}: {issue}", file=sys.stderr)
                failed += 1
            elif fingerprint != first[name]:
                print(f"FAIL {name}: fingerprint differs from the first round", file=sys.stderr)
                failed += 1
    return failed


def method_of(cell):
    """Cells named ``<method>/...`` share their method's step cost: the
    race's two schedulers change only the step size, the mutation probe
    only the constants it checks against, a timing chunk only the
    iteration budget."""
    return cell.split("/")[0]


def step_ratios(rounds):
    """Per method: each timed cell's time per step (us) over the mean
    reference time (ms) measured just before and after it."""
    out = {}
    for rnd in rounds:
        for name, step_us in rnd.step_us.items():
            if step_us is not None and name in rnd.reference_ms:
                out.setdefault(method_of(name), []).append(step_us / rnd.reference_ms[name])
    return out


def method_weights(wl, fingerprints):
    """Per method: its estimator steps in the workload's round."""
    weights = {}
    for name, fingerprint in fingerprints.items():
        if fingerprint:
            method = method_of(name)
            weights[method] = weights.get(method, 0) + wl.steps(name, fingerprint)
    return weights


def us_per_step(ratios, weights, nominal_ms):
    """Per method, the median of its step-to-reference ratios, scaled to
    the reference kernel's nominal time; then their geometric mean
    weighted by each method's share of the workload's steps."""
    terms = [
        (weights[m], math.log(statistics.median(r) * nominal_ms))
        for m, r in ratios.items()
        if r and weights.get(m)
    ]
    if not terms:
        return float("nan")
    return math.exp(sum(w * x for w, x in terms) / sum(w for w, _ in terms))


def end_to_end(workload, wl, rounds, timed, setup_pairs, nominal_ms, report):
    """Gated metrics, plus the reported figures that follow the seed's
    data: round time, the ledger, the adaptive-vs-theoretical finding."""
    first = rounds[0].fingerprints
    wall_s = statistics.median(r.wall_s for r in rounds)
    report["findings"] = wl.findings(first)
    reported = {"wall_s": (wall_s, "s")}
    units = {"iters_to_tol": "count", "oracle_calls": "count", "bits_sent": "bit"}
    for name, value in ledger(workload, first).items():
        reported[name] = (value, units[name])
    if "adaptive_iter_ratio" in report["findings"]:
        reported["adaptive_iter_ratio"] = (report["findings"]["adaptive_iter_ratio"], "ratio")
    for name, (value, unit) in reported.items():
        print(f"{workload} {name} = {value} {unit}")
    ratios = step_ratios(timed)
    weights = method_weights(wl, first)
    report["step_to_reference"] = {
        m: {"timed_cells": len(r), "median": statistics.median(r), "weight": weights.get(m)}
        for m, r in ratios.items()
    }
    setup_ratios = [t / ref for t, ref in setup_pairs]
    return {
        "setup_s": statistics.median(setup_ratios) * nominal_ms,
        "us_per_step": us_per_step(ratios, weights, nominal_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, END_TO_END_UNITS


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import tracing
    from workloads import T_MAX, TRACED_T_MAX, WORKLOADS, Reference, measure, run_round

    machine = machine_record()
    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    cells = wl.cells(TRACED_T_MAX if args.trace else T_MAX)
    if args.trace:
        wl.setup(reps=1)
        untraced = run_round(cells)
        tracer = tracing.Tracer()
        with tracer.installed():
            wl.setup(reps=1)
            traced = run_round(cells)
        tracer.save(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.npz")
        rounds = timed = [untraced, traced]
        setup_pairs = []
    else:
        reference = Reference(wl.SMALL_OPS_REFERENCE)
        reference.time_ms()  # warm-up
        setup_pairs = []

        def setup_hook(reps):
            """Set up ``reps`` times next to one reference run, so that
            set-up too is timed against the machine's speed of the moment;
            set-up runs before, between and after the cells."""

            def hook():
                ref_ms = reference.time_ms()
                setup_pairs.extend((t, ref_ms) for t in wl.setup(reps))
                return ref_ms

            return hook

        setup_hook(wl.SETUP_REPS)()
        rounds = [run_round(cells, setup_hook(wl.SETUP_BETWEEN))]
        timing_cells = wl.timing_cells()
        timed = measure(timing_cells, args.seconds, reference.time_ms)
        setup_hook(wl.SETUP_REPS)()

    failed = count_failures(rounds)
    attempted = len(cells) * len(rounds)
    if not args.trace:
        failed += count_failures(timed)
        attempted += len(timing_cells) * len(timed)
    first = rounds[0].fingerprints
    steps = steps_of(wl, first)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine,
        "rounds": len(rounds),
        "timed_rounds": len(timed),
        "round_wall_s": [r.wall_s for r in rounds],
        "cell_s": rounds[0].cell_s,
        "setup_reps": len(setup_pairs),
        "reference_ms": sorted(ms for r in timed for ms in r.reference_ms.values())[::10],
        "fingerprints": first,
    }
    if args.trace:
        report["traced_fingerprints_match"] = traced.fingerprints == untraced.fingerprints
        values = tracing.per_layer_metrics(
            tracer, steps, args.workload == "verify", untraced.wall_s, traced.wall_s
        )
        units = tracing.per_layer_metric_units()
    else:
        values, units = end_to_end(
            args.workload, wl, rounds, timed, setup_pairs, reference.nominal_ms, report
        )

    for name, value in values.items():
        print(f"{args.workload} {name} = {value} {units[name]}")
    print(f"{args.workload} failed_ops = {failed} of {attempted} cells attempted")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
