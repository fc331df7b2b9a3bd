"""Experiment engine: estimator + step-size rule + problem, iterated to a
budget, with a per-iteration trace of losses, gradient norms, estimate
norms and errors, step sizes, and oracle/communication counters.

Config files are plain ``key=value`` lines (``#`` comments allowed).
Documented keys:

  problem     logistic | quadratic (inferred from ``dataset`` when absent)
  dataset     libsvm path, or ``synthetic:<rows>:<dim>:<seed>``
  limit       use only the first N dataset rows
  force_dim   fix the feature dimension when parsing the dataset
  n, d        quadratic fixture size (components, dimension)
  problem_seed, eig_lo, eig_hi, cond   quadratic fixture generation
  method      lsvrg | saga | page | zerosarah | ef21 | diana | dasha | sega | jaguar
  b, p, k, clients, compressor, scheme, with_replacement,
  value_bits, index_bits          estimator hyperparameters, as the
              method's class declares them, with its defaults (``hyperparams``)
  presets     true -> the method's class's ``presets`` for n components
  scheduler   theoretical | tuned | adaptive | adam | constant | pl
  alpha, multiplier, gamma, lr, mu    scheduler parameters
  T           iteration budget, an integer >= 0
  seed        run seed (uint64)
  cadence     record every k-th iteration
  tol         stop early once the exact gradient norm is <= this
              (>= 0 and finite; 0 never stops)
  timing      on | off; off writes wall_ms = 0 so traces are byte-stable
"""

from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import check_count, check_positive, check_sizes, csv_layout, load_libsvm, opened
from .data import check_floats, synthetic_dataset
from .estimators import estimator_class, make_estimator
from .problems import logistic_problem, make_quadratic
from .schedulers import (
    AdamState,
    AdaptiveAccumulator,
    FixedStep,
    nu_of,
    theoretical_gamma_nonconvex,
    theoretical_gamma_pl,
    tuned_gamma,
)

SCHEDULERS = ("theoretical", "tuned", "adaptive", "adam", "constant", "pl")


@dataclass
class ExperimentConfig:
    method: str = ""
    problem: str = ""
    dataset: str = ""
    limit: int | None = None
    force_dim: int | None = None
    n: int = 20
    d: int = 10
    problem_seed: int = 0
    eig_lo: float = 0.5
    eig_hi: float = 2.0
    cond: float = 1.0
    b: int | None = None
    p: float | None = None
    k: int | None = None
    clients: int | None = None
    compressor: str | None = None
    scheme: str | None = None
    with_replacement: bool | None = None
    value_bits: int | None = None
    index_bits: int | None = None
    presets: bool = False
    scheduler: str = "theoretical"
    alpha: float = 0.33
    multiplier: float = 1.0
    gamma: float | None = None
    lr: float = 0.001
    mu: float | None = None
    T: int = 100
    seed: int = 0
    cadence: int = 1
    tol: float = 0.0
    timing: str = "off"


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# each key's coercion, read off its annotation ("int", "float | None", ...)
_COERCE = {"int": int, "float": float, "bool": _parse_bool, "str": str}
_KEY_TYPES = {
    f.name: _COERCE[f.type.partition(" |")[0]] for f in dataclasses.fields(ExperimentConfig)
}


def config_from_mapping(mapping):
    """Build a config from string key/value pairs, with typed coercion.
    Unknown keys raise, naming the key."""
    cfg = ExperimentConfig()
    for key, raw in mapping.items():
        if key not in _KEY_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        value = raw.strip() if isinstance(raw, str) else raw
        try:
            value = _KEY_TYPES[key](value)
        except ValueError as exc:
            raise ValueError(f"bad value for config key {key!r}: {raw!r}") from exc
        setattr(cfg, key, value)
    return cfg


def parse_config_pairs(text):
    """key=value lines to a string dict; # comments and blanks skipped."""
    pairs = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def build_problem(config):
    """Materialize the objective described by a config."""
    kind = config.problem
    if not kind:
        kind = "logistic" if config.dataset else "quadratic"
    if kind == "quadratic":
        if config.problem_seed < 0:
            raise ValueError(f"problem_seed must be >= 0, got {config.problem_seed}")
        check_floats({"n": config.n, "d": config.d})
        return make_quadratic(
            config.n,
            config.d,
            seed=config.problem_seed,
            eig_range=(config.eig_lo, config.eig_hi),
            cond=config.cond,
        )
    if kind != "logistic":
        raise ValueError(f"unknown problem kind {config.problem!r}")
    if not config.dataset:
        raise ValueError("logistic problem needs a dataset= entry")
    check_sizes({"limit": config.limit, "force_dim": config.force_dim})
    if config.dataset.startswith("synthetic:"):
        try:
            rows, dim, seed = (int(x) for x in config.dataset.split(":")[1:])
        except ValueError:
            rows = dim = seed = -1
        if rows < 1 or dim < 1 or seed < 0:
            raise ValueError(
                "dataset must be synthetic:<rows>:<dim>:<seed> with rows, dim >= 1 "
                f"and seed >= 0, got {config.dataset!r}"
            )
        if config.force_dim is not None:
            raise ValueError("force_dim does not apply to a synthetic: dataset")
        # rows are drawn one after another from one generator, so the
        # first `limit` of them are the whole of a shorter draw
        ds = synthetic_dataset(min(rows, config.limit or rows), dim=dim, seed=seed)
    else:
        ds = load_libsvm(config.dataset, force_dim=config.force_dim, limit=config.limit)
    return logistic_problem(ds)


# config keys named apart from the hyperparameter they set
_HYPERPARAM_KEYS = {"n_clients": "clients"}


def estimator_hyperparams(config, problem):
    """The hyperparameters ``make_estimator`` gets: the method's presets
    (with ``presets``), overridden by every hyperparameter it declares
    that the config sets."""
    cls = estimator_class(config.method)
    hp = cls.presets(problem.n_components) if config.presets else {}
    for name in cls.hyperparams:
        value = getattr(config, _HYPERPARAM_KEYS.get(name, name))
        if value is not None:
            hp[name] = value
    return hp


def validate(config, problem):
    """Check a config against its problem without any gradient pass:
    resolve the hyperparameters, build the registration the method's
    class checks them by, and set up the step-size rule, which checks
    the scheduler's parameters.  Returns the hyperparameters and the
    rule; raises ValueError naming what is wrong."""
    cls = estimator_class(config.method)
    if config.T < 0:
        raise ValueError("T must be >= 0")
    if config.T % 1 != 0:
        raise ValueError(f"T must be an integer, got {config.T}")
    check_count("cadence", config.cadence)
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    if not 0.0 <= config.tol < math.inf:
        raise ValueError(f"tol must be >= 0 and finite, got {config.tol}")
    if config.timing not in ("on", "off"):
        raise ValueError(f"timing must be on or off, got {config.timing!r}")
    if not isinstance(config.presets, bool):
        raise ValueError(f"presets must be true or false, got {config.presets!r}")
    hp = estimator_hyperparams(config, problem)
    _, registered = cls.settings(problem, hp)
    return hp, _step_rule(config, registered, problem)


@dataclass(frozen=True, slots=True)
class TraceRow:
    """One recorded iteration.  Its fields, in order, are the trace CSV's
    columns (``CSV_HEADER``, written by ``csv_layout``); the loss and
    gradient norm are exact, ``est_err`` is the distance of the estimate
    from the exact gradient, the error the registered constants bound,
    and ``wall_ms`` is read before the row's own gradient pass."""

    t: int
    loss: float
    grad_norm: float
    est_norm: float
    est_err: float
    gamma: float
    grad_calls: int
    partial_calls: int
    bits: int
    wall_ms: float


_FIELDS = [f.name for f in dataclasses.fields(TraceRow)]
# the cumulative counters, adjacent fields
_COUNTERS = slice(_FIELDS.index("grad_calls"), _FIELDS.index("bits") + 1)


class Trace(Sequence):
    """A run's recorded rows, held as one column per ``TraceRow`` field,
    in field order: an ``array('q')`` for an int field and an
    ``array('d')`` for a float field, 80 bytes a row.  A column that
    meets a value its array cannot hold, such as an int past int64,
    becomes a list and keeps every value as given.  ``columns`` maps
    each field name to its column, read-only.

    A trace is a read-only sequence of its rows and builds each
    ``TraceRow`` on access: an index builds one row, a slice a list of
    them, iteration each in turn; equality is the rows'.  ``rows`` is
    the trace itself.  ``Trace(rows)`` appends each row of an iterable
    in turn.  ``append`` checks a row against the column tails:
    iterations strictly increase and the cumulative counters never
    fall."""

    def __init__(self, rows=()):
        self._columns = [
            array("q" if f.type == "int" else "d") for f in dataclasses.fields(TraceRow)
        ]
        for row in rows:
            self.append(row)

    @property
    def columns(self):
        return dict(zip(_FIELDS, self._columns))

    @property
    def rows(self):
        return self

    def append(self, row):
        self._append_values(_trace_values(row))

    def _append_values(self, values):
        """``append`` for a row's values in field order, unbuilt."""
        columns = self._columns
        if columns[0]:
            if values[0] <= columns[0][-1]:
                raise ValueError("trace iterations must be strictly increasing")
            for value, column in zip(values[_COUNTERS], columns[_COUNTERS]):
                if value < column[-1]:
                    raise ValueError("cumulative counters must be nondecreasing")
        for i, value in enumerate(values):
            try:
                columns[i].append(value)
            except (OverflowError, TypeError):
                columns[i] = [*columns[i], value]

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return TraceRow(*(column[index] for column in self._columns))

    def __iter__(self):
        return map(TraceRow, *self._columns)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class RunResult:
    config: ExperimentConfig
    final_x: np.ndarray
    trace: Trace
    status: str  # completed | converged | stationary | diverged | invalid (sweep cells)
    summary: dict


CSV_HEADER = ",".join(_FIELDS)
_TRACE_LINE, _trace_values = csv_layout(TraceRow)


def trace_to_csv(trace, sink):
    """Write a trace as CSV.  sink is a path or a writable text handle;
    floats are printed at 17 significant digits and lines end with LF.
    """
    with opened(sink, "w") as handle:
        handle.write(CSV_HEADER + "\n")
        for values in zip(*trace.columns.values()):
            handle.write(_TRACE_LINE % values)


def trace_csv_text(trace):
    buffer = io.StringIO()
    trace_to_csv(trace, buffer)
    return buffer.getvalue()


def parse_trace_csv(source):
    """Inverse of trace_to_csv; source is a path or readable handle."""
    with opened(source) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected trace header")
    trace = Trace()
    coerce = [_COERCE[f.type] for f in dataclasses.fields(TraceRow)]
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(coerce):
            raise ValueError(f"bad trace row: {line!r}")
        trace.append(TraceRow(*(convert(part) for convert, part in zip(coerce, parts))))
    return trace


def iterations_to_tolerance(trace, tol):
    """First recorded iteration whose exact gradient norm is <= tol."""
    tol = check_positive("tol", tol)
    for t, grad_norm in zip(trace.columns["t"], trace.columns["grad_norm"]):
        if grad_norm <= tol:
            return t
    return None


def _step_rule(config, registered, problem):
    """The configured step-size rule, built from the registered
    constants and the problem's known constants (see ``schedulers``)."""
    kind = config.scheduler
    if kind == "adaptive":
        return AdaptiveAccumulator(nu_of(registered), config.alpha)
    if kind == "adam":
        return AdamState(problem.dim, lr=config.lr)
    if kind == "constant":
        if config.gamma is None:
            raise ValueError("scheduler=constant needs gamma > 0")
        return FixedStep(check_positive("gamma", config.gamma))
    if kind == "pl":
        mu = config.mu if config.mu is not None else problem.pl_constant
        if mu is None:
            raise ValueError("scheduler=pl needs mu (or a problem with a known one)")
        return FixedStep(theoretical_gamma_pl(registered, problem.smoothness, mu))
    if kind == "tuned":
        return FixedStep(tuned_gamma(registered, problem.smoothness, config.multiplier))
    if kind == "theoretical":
        return FixedStep(theoretical_gamma_nonconvex(registered, problem.smoothness))
    raise ValueError(f"unknown scheduler {config.scheduler!r}")


def _norm(v):
    """Euclidean norm of a 1-D float vector: sqrt(v . v), the expression
    ``np.linalg.norm`` evaluates for one, bit for bit, without its
    dispatch, which costs more than a short vector's product."""
    return math.sqrt(v.dot(v))


# one ``integers`` call of ``run_generator`` draws this many batches
BLOCK_ROWS = 256


def _blocked(n, b):
    """Whether ``choice(n, b, replace=False)`` takes a block: integers with
    0 < b <= n and b(b - 1) <= 2n (a row is kept with probability about
    exp(-b(b - 1)/2n))."""
    integers = isinstance(n, (int, np.integer)) and isinstance(b, (int, np.integer))
    return integers and 0 < b <= n and b * (b - 1) <= 2 * n


@functools.cache
def _block_generator():
    """``run_generator``'s class, built at first use: reading ``np.random``
    at import would load ``hashlib`` for every command."""

    class BlockGenerator(np.random.Generator):
        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            self.blocks = {}  # (n, b) -> an iterator over the block's rows

        def choice(self, a, size=None, replace=True, p=None, axis=0, shuffle=True):
            if replace or p is not None or not shuffle or not _blocked(a, size):
                return super().choice(a, size, replace, p, axis, shuffle)
            try:
                return next(self.blocks[a, size])
            except (KeyError, StopIteration):
                rows = self.integers(0, a, (BLOCK_ROWS, size))
                redraw = np.arange(BLOCK_ROWS)
                while redraw.size:
                    ordered = np.sort(rows[redraw], axis=1)
                    redraw = redraw[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)]
                    rows[redraw] = self.integers(0, a, (redraw.size, size))
                self.blocks[a, size] = rows = iter(rows)
                return next(rows)

    return BlockGenerator


def run_generator(seed):
    """The generator ``run`` steps with: ``np.random.default_rng(seed)``,
    but ``choice(n, b, replace=False)`` with ``_blocked(n, b)`` returns the
    next row of a ``BLOCK_ROWS``-row block kept for (n, b).  The block is
    ``integers(0, n, (BLOCK_ROWS, b))``, a row with a repeat drawn again
    until it has none: a uniform ordered b-tuple of distinct indices, the
    law of ``choice``.  Every other draw is numpy's."""
    return _block_generator()(np.random.PCG64(seed))


@np.errstate(over="ignore", invalid="ignore")
def run(config, problem=None):
    """Iterate x^{t+1} = x^t - gamma_t g^t for T steps (or until the
    tolerance, a stationary start, or divergence).  The exact gradient
    norm is computed out of band at the trace cadence and never touches
    the estimator's oracle counters.  Overflow on the way to divergence
    is silent: the status reports it.

    ``problem`` overrides the config's problem description with an
    already built objective (handy for fixtures with known optima).
    """
    if problem is None:
        problem = build_problem(config)
    hp, rule = validate(config, problem)
    rng = run_generator(config.seed)
    x = np.zeros(problem.dim)
    est = make_estimator(config.method, problem, x, hp)
    timing = config.timing == "on"
    started = time.perf_counter()

    trace = Trace()

    def record(t, g, gamma):
        """Append iteration t's row, its clock read before the exact loss
        and gradient at x; ``g`` is the estimate at x, or None for the
        final row, whose estimate columns read 0.0.  Returns the gradient
        norm."""
        wall = (time.perf_counter() - started) * 1e3 if timing else 0.0
        loss, grad = problem.loss(x), problem.full_grad(x)
        grad_norm = _norm(grad)
        if g is None:
            est_norm = est_err = 0.0
        else:
            est_norm, est_err = _norm(g), _norm(g - grad)
        counters = (est.grad_calls, est.partial_calls, est.bits)
        trace._append_values((t, loss, grad_norm, est_norm, est_err, gamma, *counters, wall))
        return grad_norm

    status = "completed"
    g = est.g
    t = 0
    while t < config.T:
        gamma_t, update = rule.advance(g)
        if t % config.cadence == 0:
            grad_norm = record(t, g, float(gamma_t))
            if config.tol > 0.0 and grad_norm <= config.tol:
                status = "converged"
                break
        if rule.stationary:
            status = "stationary"
            break
        x = x + update
        # NaN and inf entries make the norm NaN or inf, which fail too
        if not _norm(x) <= 1e12:
            status = "diverged"
            break
        g = est.step(x, rng)
        t += 1

    if status != "diverged" and (len(trace) == 0 or trace.columns["t"][-1] != t):
        record(t, None, 0.0)

    summary = {
        "status": status,
        "iterations": t,
        # the trace holds row 0 at least; np.min, unlike min, gives nan
        # if any norm is nan
        "min_grad_norm": float(np.min(trace.columns["grad_norm"])),
        "final_loss": trace.columns["loss"][-1],
        "grad_calls": est.grad_calls,
        "partial_calls": est.partial_calls,
        "bits": est.bits,
    }
    return RunResult(config=config, final_x=x, trace=trace, status=status, summary=summary)


def _derived_seed(base_seed, combo):
    import hashlib  # here, not at the top: it loads OpenSSL, which constants never needs

    text = str(base_seed) + "".join(f"|{k}={v!r}" for k, v in combo)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _sweep_configs(base, grid):
    if not grid:
        return [base]
    keys = sorted(grid)
    configs = []
    for values in itertools.product(*(grid[k] for k in keys)):
        combo = tuple(zip(keys, values))
        cfg = dataclasses.replace(base, **dict(combo))
        if "seed" not in grid:
            cfg.seed = _derived_seed(base.seed, combo)
        configs.append(cfg)
    return configs


def _run_cell(config):
    try:
        return run(config)
    except (OSError, ValueError, MemoryError) as exc:
        return RunResult(config, None, Trace(), "invalid", {"status": "invalid", "error": str(exc)})


def sweep(base, grid, jobs=1):
    """Run the Cartesian product of grid overrides on top of base.

    A ``seed`` grid key sets each cell's seed as given.  Otherwise every
    grid point gets its own seed derived by hashing the base seed with
    the sorted key/value combination.  Either way results are independent
    of execution order and of jobs.  A cell whose config is rejected
    (OSError or ValueError) or whose sizes cannot be allocated
    (MemoryError) does not stop the others: its result has status
    ``invalid``, no trace, and the message in ``summary["error"]``.
    """
    configs = _sweep_configs(base, grid)
    if jobs <= 1 or len(configs) <= 1:
        return [_run_cell(cfg) for cfg in configs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_cell, configs))
