"""Experiment engine: estimator + step-size rule + problem, iterated to a
budget, with a per-iteration trace of losses, gradient norms, step sizes,
and oracle/communication counters.

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
              method's class declares them (``hyperparams``)
  presets     true -> the method's class's ``presets`` for n components
  scheduler   theoretical | tuned | adaptive | adam | constant | pl
  alpha, multiplier, gamma, lr, mu    scheduler parameters
  T           iteration budget
  seed        run seed (uint64)
  cadence     record every k-th iteration
  tol         stop early once the exact gradient norm falls below this
  timing      on | off; off writes wall_ms = 0 so traces are byte-stable
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import check_sizes, load_libsvm, opened, synthetic_dataset
from .estimators import estimator_class, make_estimator
from .problems import logistic_problem, make_quadratic
from .schedulers import (
    AdamState,
    AdaptiveAccumulator,
    adam_baseline_step,
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
    clients: int = 10
    compressor: str = "identity"
    scheme: str = "contiguous"
    with_replacement: bool = False
    value_bits: int = 32
    index_bits: int = 32
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

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)


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


def parse_config_text(text):
    return config_from_mapping(parse_config_pairs(text))


def load_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def build_problem(config):
    """Materialize the objective described by a config."""
    kind = config.problem
    if not kind:
        kind = "logistic" if config.dataset else "quadratic"
    if kind == "quadratic":
        if config.problem_seed < 0:
            raise ValueError(f"problem_seed must be >= 0, got {config.problem_seed}")
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
        if config.limit is not None:
            # rows are drawn one after another from one generator, so the
            # first `limit` of them are the whole of a shorter draw
            rows = min(rows, config.limit)
        ds = synthetic_dataset(rows, dim=dim, seed=seed, nnz_per_row=min(14, dim))
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
    if config.cadence < 1:
        raise ValueError("cadence must be >= 1")
    if config.timing not in ("on", "off"):
        raise ValueError(f"timing must be on or off, got {config.timing!r}")
    hp = estimator_hyperparams(config, problem)
    _, registered = cls.settings(problem, hp)
    return hp, _Stepper(config, registered, problem)


@dataclass(frozen=True)
class TraceRow:
    t: int
    loss: float
    grad_norm: float
    est_norm: float
    gamma: float
    grad_calls: int
    partial_calls: int
    bits: int
    wall_ms: float


@dataclass
class Trace:
    rows: list = field(default_factory=list)

    def append(self, row):
        if self.rows:
            last = self.rows[-1]
            if row.t <= last.t:
                raise ValueError("trace iterations must be strictly increasing")
            if (
                row.grad_calls < last.grad_calls
                or row.partial_calls < last.partial_calls
                or row.bits < last.bits
            ):
                raise ValueError("cumulative counters must be nondecreasing")
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def grad_norms(self):
        return np.array([r.grad_norm for r in self.rows])

    def gammas(self):
        return np.array([r.gamma for r in self.rows])


@dataclass
class RunResult:
    config: ExperimentConfig
    final_x: np.ndarray
    trace: Trace
    status: str  # completed | converged | stationary | diverged | invalid (sweep cells)
    summary: dict


CSV_HEADER = "t,loss,grad_norm,est_norm,gamma,grad_calls,partial_calls,bits,wall_ms"


def _fmt(value):
    return "%.17g" % value


def trace_to_csv(trace, sink):
    """Write a trace as CSV.  sink is a path or a writable text handle;
    floats are printed at 17 significant digits and lines end with LF.
    """
    with opened(sink, "w") as handle:
        handle.write(CSV_HEADER + "\n")
        for r in trace:
            handle.write(
                f"{r.t},{_fmt(r.loss)},{_fmt(r.grad_norm)},{_fmt(r.est_norm)},"
                f"{_fmt(r.gamma)},{r.grad_calls},{r.partial_calls},{r.bits},{_fmt(r.wall_ms)}\n"
            )


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
        if len(parts) != 9:
            raise ValueError(f"bad trace row: {line!r}")
        trace.append(TraceRow(*(convert(part) for convert, part in zip(coerce, parts))))
    return trace


def iterations_to_tolerance(trace, tol):
    """First recorded iteration whose exact gradient norm is <= tol."""
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    for row in trace:
        if row.grad_norm <= tol:
            return row.t
    return None


class _Stepper:
    """Resolves the configured step-size rule to a per-iteration gamma."""

    def __init__(self, config, registered, problem):
        self.kind = config.scheduler
        if self.kind not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {config.scheduler!r}")
        self.acc = None
        self.adam = None
        self.gamma = None
        if self.kind == "adaptive":
            self.acc = AdaptiveAccumulator(nu_of(registered), config.alpha)
        elif self.kind == "adam":
            self.adam = AdamState(problem.dim, lr=config.lr)
        elif self.kind == "constant":
            if config.gamma is None or config.gamma <= 0.0:
                raise ValueError("scheduler=constant needs gamma > 0")
            self.gamma = config.gamma
        elif self.kind == "pl":
            mu = config.mu if config.mu is not None else problem.pl_constant
            if mu is None:
                raise ValueError("scheduler=pl needs mu (or a problem with a known one)")
            self.gamma = theoretical_gamma_pl(registered, problem.smoothness, mu)
        elif self.kind == "tuned":
            self.gamma = tuned_gamma(registered, problem.smoothness, config.multiplier)
        else:
            self.gamma = theoretical_gamma_nonconvex(registered, problem.smoothness)

    def advance(self, g):
        """Returns (gamma_t, update_vector or None)."""
        if self.acc is not None:
            return self.acc.gamma(g), None
        if self.adam is not None:
            return self.adam.lr, adam_baseline_step(self.adam, g)
        return self.gamma, None

    @property
    def stationary(self):
        return self.acc is not None and self.acc.stationary


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
    hp, stepper = validate(config, problem)
    rng = np.random.default_rng(config.seed)
    x = np.zeros(problem.dim)
    est = make_estimator(config.method, problem, x, hp)
    timing = config.timing == "on"
    started = time.perf_counter()

    trace = Trace()

    def record(t, loss, grad_norm, est_norm, gamma, wall):
        counters = (est.grad_calls, est.partial_calls, est.bits)
        trace.append(TraceRow(t, loss, grad_norm, est_norm, gamma, *counters, wall))

    status = "completed"
    g = est.estimate
    t = 0
    while t < config.T:
        gamma_t, update = stepper.advance(g)
        if t % config.cadence == 0:
            loss, grad = problem.loss_and_grad(x)
            grad_norm = float(np.linalg.norm(grad))
            wall = (time.perf_counter() - started) * 1e3 if timing else 0.0
            record(t, loss, grad_norm, float(np.linalg.norm(g)), float(gamma_t), wall)
            if config.tol > 0.0 and grad_norm <= config.tol:
                status = "converged"
                break
        if stepper.stationary:
            status = "stationary"
            break
        x = x + update if update is not None else x - gamma_t * g
        # NaN and inf entries make the norm NaN or inf, which fail too
        if not np.linalg.norm(x) <= 1e12:
            status = "diverged"
            break
        g = est.step(x, rng)
        t += 1

    if status != "diverged" and (len(trace) == 0 or trace.rows[-1].t != t):
        wall = (time.perf_counter() - started) * 1e3 if timing else 0.0
        loss, grad = problem.loss_and_grad(x)
        record(t, loss, float(np.linalg.norm(grad)), 0.0, 0.0, wall)

    norms = trace.grad_norms()
    summary = {
        "status": status,
        "iterations": t,
        "min_grad_norm": float(norms.min()) if len(norms) else float("nan"),
        "final_loss": trace.rows[-1].loss if len(trace) else float("nan"),
        "grad_calls": est.grad_calls,
        "partial_calls": est.partial_calls,
        "bits": est.bits,
    }
    return RunResult(config=config, final_x=x, trace=trace, status=status, summary=summary)


def _derived_seed(base_seed, combo):
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
        cfg = base.replace(**dict(combo))
        if "seed" not in grid:
            cfg.seed = _derived_seed(base.seed, combo)
        configs.append(cfg)
    return configs


def _run_cell(config):
    try:
        return run(config)
    except (OSError, ValueError) as exc:
        return RunResult(config, None, Trace(), "invalid", {"status": "invalid", "error": str(exc)})


def sweep(base, grid, jobs=1):
    """Run the Cartesian product of grid overrides on top of base.

    A ``seed`` grid key sets each cell's seed as given.  Otherwise every
    grid point gets its own seed derived by hashing the base seed with
    the sorted key/value combination.  Either way results are independent
    of execution order and of jobs.  A cell whose config is rejected
    (OSError or ValueError) does not stop the others: its result has
    status ``invalid``, no trace, and the message in
    ``summary["error"]``.
    """
    configs = _sweep_configs(base, grid)
    if jobs <= 1 or len(configs) <= 1:
        return [_run_cell(cfg) for cfg in configs]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_cell, configs))
