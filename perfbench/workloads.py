"""The three workloads, their inputs and their correctness checks.

Every workload is a closed loop: one process runs its cells one after
another, and one pass over all cells is a round.  Inputs come only from
the seed.  ``race`` and ``fullpass`` generate a 4000x123 sparse binary
logistic dataset, write it as libsvm text and hand vradapt only that
file; ``verify`` uses the package's own fixed 20x10 quadratic fixtures,
so its seed drives only the Monte Carlo sampling.

A cell fails when it raises, when vradapt reports a result that the
benchmark's own checks reject, or when a later round does not reproduce
the first round's ledger fingerprint.  Failed cells are counted, never
hidden.

Besides its fingerprint, every cell yields its time per estimator step:
the optimizer cells run with ``timing=on`` and take it from their trace
(estimator construction is not in it); a Monte Carlo cell is timed as a
whole.  Every cell is run between two runs of a reference kernel, whose
time tracks the machine's speed at that moment (see README.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import os
import sys
import time
import traceback

import numpy as np
import scipy.sparse

from vradapt import data, engine, estimators, problems, verify

ROWS, DIM, NNZ_PER_ROW = 4000, 123, 14
TOL = 1e-3
T_MAX = 300_000
# Traced runs stop each optimizer cell here if it has not converged, so
# that the untraced reference round and the traced round of race (whose
# ZeroSARAH cells need 23000-43000 iterations) fit in about a minute.
TRACED_T_MAX = 10_000
CADENCE = 10
CLIENTS, K = 10, 7
VALUE_BITS = INDEX_BITS = 32
VERIFY_STATES = 10
VERIFY_SAMPLES = 1000
MUTATION_STATES, MUTATION_SAMPLES = 2, 2000
# Set-up repetitions before and after the rounds, and between cells.
LOGISTIC_SETUP_REPS, LOGISTIC_SETUP_BETWEEN = 4, 1
QUADRATIC_SETUP_REPS, QUADRATIC_SETUP_BETWEEN = 25, 5
MUTATION_CELL = "ef21/C*0.5"
# Timing chunks of race and fullpass: each method run for a fixed number
# of iterations, without tolerance, round-robin for --seconds.
RACE_CHUNK_T, FULLPASS_CHUNK_T = 200, 100
REFERENCE_SEED = 20251104
REFERENCE_BATCHES, REFERENCE_BATCH = 27, 252
REFERENCE_SMALL_STEPS, REFERENCE_SMALL_DIM, REFERENCE_SMALL_K = 400, 10, 3
# Each part of the reference kernel takes about this long at the fast
# phase of a shared 2-core x86-64 VM; timings are reported as at the
# machine speed where it takes exactly this long.
REFERENCE_PART_MS = 3.0


class Reference:
    """A fixed kernel of the same kind of work as the workloads' steps:
    CSR row gathers at the race's batch size, small dense products and
    the call overhead of numpy and scipy, on a fixed 4000x123 matrix with
    NNZ_PER_ROW entries per row; and, with ``small_ops``, top-k steps on
    10-vectors, for the Monte Carlo cells' interpreter-bound d=10 work.
    It uses no code of vradapt, so a change to the program cannot change
    its time; the machine's speed can, and does so by nearly the same
    factor as for the program's steps run just before or after it."""

    def __init__(self, small_ops):
        rng = np.random.default_rng(REFERENCE_SEED)
        cols = np.sort(rng.random((ROWS, DIM)).argsort(axis=1)[:, :NNZ_PER_ROW], axis=1)
        nnz = ROWS * NNZ_PER_ROW
        self.X = scipy.sparse.csr_matrix(
            (np.ones(nnz), cols.ravel(), np.arange(0, nnz + 1, NNZ_PER_ROW)), shape=(ROWS, DIM)
        )
        self.w0 = rng.standard_normal(DIM)
        self.batches = [rng.integers(0, ROWS, REFERENCE_BATCH) for _ in range(REFERENCE_BATCHES)]
        self.small = rng.standard_normal((20, REFERENCE_SMALL_DIM)) if small_ops else None
        self.nominal_ms = REFERENCE_PART_MS * (2 if small_ops else 1)

    def time_ms(self):
        started = time.perf_counter()
        w = self.w0
        for idx in self.batches:
            rows = self.X[idx]
            w = w - 1e-3 * (rows.T @ (rows @ w)) / REFERENCE_BATCH
            np.linalg.norm(w)
        if self.small is not None:
            v = self.small[0]
            for i in range(REFERENCE_SMALL_STEPS):
                g = 0.5 * v + self.small[i % len(self.small)]
                top = np.argpartition(np.abs(g), -REFERENCE_SMALL_K)[-REFERENCE_SMALL_K:]
                c = np.zeros(REFERENCE_SMALL_DIM)
                c[top] = g[top]
                v = v - 0.01 * c
        return (time.perf_counter() - started) * 1e3


def generate_rows(seed):
    """Binary rows with NNZ_PER_ROW active features and labels planted by
    a noisy linear model (about a quarter positive): the shape of the
    first 4000 rows of the adult-income libsvm file.  Returns the active
    feature indices, shape (ROWS, NNZ_PER_ROW), and +/-1 labels."""
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(DIM) / math.sqrt(NNZ_PER_ROW)
    cols = np.empty((ROWS, NNZ_PER_ROW), dtype=np.int64)
    labels = np.empty(ROWS)
    for i in range(ROWS):
        cols[i] = np.sort(rng.choice(DIM, size=NNZ_PER_ROW, replace=False))
        margin = 2.0 * w_true[cols[i]].sum() - 1.15
        labels[i] = 1.0 if rng.random() < 1.0 / (1.0 + math.exp(-margin)) else -1.0
    return cols, labels


def write_libsvm_text(path, cols, labels):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row, y in zip(cols, labels):
            feats = " ".join(f"{j + 1}:1" for j in row)
            fh.write(f"{'+1' if y > 0 else '-1'} {feats}\n")


def dense_grad_norm(X, y, x):
    """||grad f(x)|| of the mean logistic loss, in plain dense numpy."""
    m = y * (X @ x)
    s = np.exp(-np.logaddexp(0.0, m))  # 1 / (1 + exp(m)), without overflow
    return float(np.linalg.norm(X.T @ (-y * s) / len(y)))


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Round:
    def __init__(self):
        self.wall_s = 0.0
        self.cell_s = {}
        self.fingerprints = {}
        self.errors = {}
        # cell name -> microseconds per estimator step
        self.step_us = {}
        # cell name -> mean reference time (ms) just before and after it
        self.reference_ms = {}


def run_round(cells, hook=None):
    """Run every cell once.  A cell is a (name, function, steps) triple;
    the function returns (fingerprint, issues, step_us), where step_us is
    None for a cell that makes ``steps`` steps of equal work and is
    timed as a whole.  Errors are caught per cell, so one bad cell does
    not sink the others.  ``hook`` is called before every cell and after
    the last, outside all timing, and returns a reference time in ms.
    The round's wall time is the sum of its cells' times."""
    rnd = Round()
    before = hook() if hook else None
    for name, run, steps in cells:
        started = time.perf_counter()
        try:
            fingerprint, issues, step_us = run()
        except Exception:  # noqa: BLE001 - a failing cell is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            fingerprint, step_us = None, None
            issues = ["raised " + traceback.format_exc(limit=1).splitlines()[-1]]
        rnd.cell_s[name] = time.perf_counter() - started
        if fingerprint and step_us is None:
            step_us = rnd.cell_s[name] / steps * 1e6
        rnd.step_us[name] = step_us
        rnd.fingerprints[name] = fingerprint
        if issues:
            rnd.errors[name] = issues
        if hook:
            after = hook()
            rnd.reference_ms[name] = (before + after) / 2
            before = after
    rnd.wall_s = sum(rnd.cell_s.values())
    return rnd


def measure(cells, seconds, hook):
    """Whole rounds until the next one would end past ``seconds``; always
    at least one, so a round longer than ``seconds`` runs exactly once."""
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(run_round(cells, hook))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


class LogisticWorkload:
    """Shared by ``race`` and ``fullpass``: one dataset, optimizer cells
    run to gradient norm TOL, checked against a dense reference."""

    SETUP_REPS, SETUP_BETWEEN = LOGISTIC_SETUP_REPS, LOGISTIC_SETUP_BETWEEN
    SMALL_OPS_REFERENCE = False

    def __init__(self, seed, workdir):
        self.seed = seed
        cols, self.y = generate_rows(seed)
        self.X = np.zeros((ROWS, DIM))
        self.X[np.arange(ROWS)[:, None], cols] = 1.0
        self.path = os.path.join(workdir, f"data_seed{seed}.libsvm")
        write_libsvm_text(self.path, cols, self.y)
        self.problem = None

    def setup(self, reps=LOGISTIC_SETUP_REPS):
        """Load the file and build the problem ``reps`` times; returns the
        time of each repetition and keeps the last problem."""
        times = []
        for _ in range(reps):
            started = time.perf_counter()
            ds = data.load_libsvm(self.path)
            self.problem = problems.logistic_problem(ds)
            times.append(time.perf_counter() - started)
        return times

    def config(self, t_max, tol=TOL, **kwargs):
        return engine.ExperimentConfig(
            T=t_max, cadence=CADENCE, tol=tol, seed=self.seed, timing="on", **kwargs
        )

    def chunk_configs(self):
        return self.cell_configs()

    def timing_cells(self):
        """The cells again, cut to ``self.CHUNK_T`` iterations without a
        tolerance: same steps, same per-step work."""
        return [
            self.cell(f"{name}/chunk", self.config(self.CHUNK_T, tol=0.0, **kwargs))
            for name, kwargs in self.chunk_configs()
        ]

    def cells(self, t_max):
        return [self.cell(name, self.config(t_max, **kwargs)) for name, kwargs in self.cell_configs()]

    def cell(self, name, cfg):
        def run():
            res = engine.run(cfg, problem=self.problem)
            s = res.summary
            rows = res.trace.rows
            # timing only fills wall_ms; with it zeroed the CSV is the
            # byte-stable timing=off trace
            untimed = engine.Trace([dataclasses.replace(r, wall_ms=0.0) for r in rows])
            fingerprint = {
                "iterations": s["iterations"],
                "grad_calls": s["grad_calls"],
                "partial_calls": s["partial_calls"],
                "bits": s["bits"],
                "trace_sha256": _sha256(engine.trace_csv_text(untimed)),
            }
            # the last row is recorded after the last step
            step_us = rows[-1].wall_ms * 1e3 / max(s["iterations"], 1)
            return fingerprint, self.check(cfg, res), step_us

        return name, run, None

    @staticmethod
    def steps(name, fingerprint):
        """Estimator steps a cell made: its optimizer iterations."""
        return fingerprint["iterations"]

    def check(self, cfg, res):
        """Issues with one cell's result.  A cell that reached a budget
        below T_MAX (a traced run) is checked on its ledger only."""
        issues = []
        if res.status == "converged":
            if engine.iterations_to_tolerance(res.trace, TOL) != res.summary["iterations"]:
                issues.append("trace and summary disagree on iterations to tolerance")
            norm = dense_grad_norm(self.X, self.y, res.final_x)
            if not norm <= TOL:
                issues.append(f"dense gradient norm {norm!r} at final_x exceeds {TOL}")
        elif not (res.status == "completed" and cfg.T < T_MAX):
            issues.append(f"status {res.status} after {res.summary['iterations']} iterations")
            return issues
        if cfg.method in estimators.DISTRIBUTED_METHODS:
            expected = CLIENTS * DIM * VALUE_BITS + res.summary["iterations"] * CLIENTS * K * (
                VALUE_BITS + INDEX_BITS
            )
            if res.summary["bits"] != expected:
                issues.append(f"bits {res.summary['bits']} != ledger {expected}")
        elif res.summary["bits"] != 0:
            issues.append(f"non-distributed method sent {res.summary['bits']} bits")
        return issues


class Race(LogisticWorkload):
    METHODS = ("saga", "page", "zerosarah")
    SCHEDULERS = ("adaptive", "theoretical")
    CHUNK_T = RACE_CHUNK_T

    def cell_configs(self):
        return [
            (f"{m}/{s}", dict(method=m, presets=True, scheduler=s))
            for m in self.METHODS
            for s in self.SCHEDULERS
        ]

    def chunk_configs(self):
        """One chunk per method: the two schedulers differ only in step
        size, not in the work of a step."""
        return [(m, dict(method=m, presets=True, scheduler="adaptive")) for m in self.METHODS]

    def findings(self, fingerprints):
        """Adaptive vs theoretical iterations per method and their
        geometric-mean ratio; reported, not gated."""
        ratios = {}
        for m in self.METHODS:
            a, t = fingerprints.get(f"{m}/adaptive"), fingerprints.get(f"{m}/theoretical")
            if a and t:
                ratios[m] = a["iterations"] / t["iterations"]
        out = {"adaptive_over_theoretical": ratios}
        if len(ratios) == len(self.METHODS):
            out["adaptive_iter_ratio"] = math.exp(
                sum(math.log(r) for r in ratios.values()) / len(ratios)
            )
        return out


class Fullpass(LogisticWorkload):
    CHUNK_T = FULLPASS_CHUNK_T

    def cell_configs(self):
        dist = dict(clients=CLIENTS, k=K, scheduler="adaptive")
        return [
            ("ef21/topk", dict(method="ef21", compressor="topk", **dist)),
            ("dasha/randk", dict(method="dasha", compressor="randk", **dist)),
            ("jaguar/b8", dict(method="jaguar", b=8, scheduler="adaptive")),
        ]

    def findings(self, fingerprints):
        return {}


class Verify:
    """``verify --all``: all nine methods at VERIFY_STATES frozen states,
    then the EF21 C x 0.5 mutation probe, which must fail."""

    SETUP_REPS, SETUP_BETWEEN = QUADRATIC_SETUP_REPS, QUADRATIC_SETUP_BETWEEN
    SMALL_OPS_REFERENCE = True

    def __init__(self, seed, workdir):
        self.seed = seed
        self.fixtures = None

    def setup(self, reps=QUADRATIC_SETUP_REPS):
        times = []
        for _ in range(reps):
            started = time.perf_counter()
            self.fixtures = {m: verify.standard_margin_setup(m) for m in estimators.METHODS}
            times.append(time.perf_counter() - started)
        return times

    @staticmethod
    def steps(name, fingerprint):
        """Estimator steps a cell made: its Monte Carlo transitions."""
        if name == MUTATION_CELL:
            return MUTATION_STATES * MUTATION_SAMPLES
        return VERIFY_STATES * VERIFY_SAMPLES

    def _fingerprint(self, report):
        buf = io.StringIO()
        verify.margins_to_csv(report, buf)
        return {"passed": report.passed, "margins_sha256": _sha256(buf.getvalue())}

    def margin_cell(self, name, method, states, gated=True):
        """``assumption_margin`` of one method at ``states`` states; a
        gated cell must PASS."""

        def run():
            problem, hp = self.fixtures[method]
            report = verify.assumption_margin(
                method, hp, problem, state_points=states,
                samples_per_point=VERIFY_SAMPLES, seed=self.seed,
            )
            worst = report.worst()
            issues = [] if report.passed or not gated else [
                f"margins FAIL: state {worst.state_point}, inequality {worst.inequality}, "
                f"margin {worst.margin!r}, stderr {worst.stderr!r}"
            ]
            return self._fingerprint(report), issues, None

        return name, run, states * VERIFY_SAMPLES

    def cells(self, t_max):
        """The Monte Carlo cells have no iteration budget; ``t_max`` is
        ignored."""

        def mutation():
            problem, hp = self.fixtures["ef21"]
            reg = estimators.constants("ef21", d=problem.dim, k=hp["k"])
            report = verify.assumption_margin(
                "ef21", hp, problem, state_points=MUTATION_STATES,
                samples_per_point=MUTATION_SAMPLES, seed=self.seed,
                constants_override=reg.scaled({"C": 0.5}),
            )
            issues = ["C x 0.5 mutation was not detected"] if report.passed else []
            return self._fingerprint(report), issues, None

        return [self.margin_cell(m, m, VERIFY_STATES) for m in estimators.METHODS] + [
            (MUTATION_CELL, mutation, MUTATION_STATES * MUTATION_SAMPLES)
        ]

    def timing_cells(self):
        """Each method at its first state only: the same transitions, a
        tenth of the work, so that the reference runs close around each.
        Their verdict is not gated; the round's cells carry it."""
        return [self.margin_cell(f"{m}/chunk", m, 1, gated=False) for m in estimators.METHODS]

    def findings(self, fingerprints):
        return {}


WORKLOADS = {"race": Race, "fullpass": Fullpass, "verify": Verify}
