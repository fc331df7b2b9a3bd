"""Stochastic gradient estimators with registered recursion constants.

Every estimator is a stateful object built from a starting point by one
full gradient pass (so the initial estimate is exact and the auxiliary
error starts at zero); each step takes the next iterate and returns the
next estimate g^t.  ``GradientEstimator`` owns that lifecycle; a method
writes only its update rule and what it keeps of the opening pass.  The
client-server methods (EF21, DIANA, DASHA) run one recursion on
(n_clients, d) client arrays and differ only in the message each client
compresses and the damping of the state it moves by it
(``_ClientServerEstimator``).

Each method registers a tuple (rho1, rho2, A, B, C) describing the two
coupled error recursions its update rule satisfies:

    E[ ||g^t - grad f(x^t)||^2 ]  <=  (1-rho1) ||g^{t-1} - grad f(x^{t-1})||^2
                                       + A * sigma^2_{t-1}
                                       + B * L^2 ||x^t - x^{t-1}||^2
    E[ sigma^2_t ]                <=  (1-rho2) sigma^2_{t-1}
                                       + C * L^2 ||x^t - x^{t-1}||^2

where sigma^2 is the method's auxiliary error (table staleness, shift
mismatch, retained compression error, ...) and L is the uniform
component smoothness bound.  The tuples depend only on method
hyperparameters, never on L or data; the verify module validates them
empirically.

``ESTIMATORS`` is the method table: each class declares what the rest of
the package knows about its method (see ``GradientEstimator``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .compressors import (
    _SUBSET_TABLE_BYTES, _EveryOutcome, _draw_subsets, _outcome_count, make_compressor,
)
from .data import check_count
from .problems import _ordered_sum, _point, partition_problem


@dataclass(frozen=True)
class VRConstants:
    """Coefficients of the two error recursions (see module docstring),
    with a finite ``coupling`` ratio."""

    rho1: float
    rho2: float
    A: float
    B: float
    C: float

    def __post_init__(self):
        if not 0.0 < self.rho1 <= 1.0:
            raise ValueError(f"rho1 must lie in (0, 1], got {self.rho1}")
        if not 0.0 < self.rho2 <= 1.0:
            raise ValueError(f"rho2 must lie in (0, 1], got {self.rho2}")
        if not all(0.0 <= v < math.inf for v in (self.A, self.B, self.C)):
            raise ValueError(f"A, B, C must be finite and nonnegative, got {self}")
        # rho1*rho2 can underflow to 0.0, and B*rho2 + A*C overflow to inf
        if not (self.rho1 * self.rho2 > 0.0 and self.coupling < math.inf):
            raise ValueError(f"(B*rho2 + A*C) / (rho1*rho2) must be finite, got {self}")

    @property
    def coupling(self):
        """(B*rho2 + A*C) / (rho1*rho2): the ratio through which the
        constants enter every step-size rule (``schedulers``)."""
        return (self.B * self.rho2 + self.A * self.C) / (self.rho1 * self.rho2)

    def scaled(self, factors):
        """Copy with some fields multiplied, e.g. {"C": 0.5}.  Used by the
        verifier's mutation mode and the PL step-size rule."""
        for name in factors:
            if name not in ("rho1", "rho2", "A", "B", "C"):
                raise ValueError(f"unknown constant {name!r}")
        return replace(self, **{name: getattr(self, name) * m for name, m in factors.items()})


def _require(condition, message):
    if not condition:
        raise ValueError(message)


def _check_batch(b, name, size):
    """b, an integer in [1, size]; the size (``name``: n or d) is checked
    first, and None puts no bound on b."""
    size = math.inf if size is None else check_count(name, size)
    _require(b is not None, "batch size b is required")
    return check_count("b", b, size)


def _check_prob(p):
    _require(p is not None and 0.0 < p <= 1.0, f"p must lie in (0, 1], got {p}")
    return float(p)


def _quality(name, value, d, k):
    """delta or omega (``name``), given directly or as d/k for integers
    d and k with k in [1, d], checked finite and >= 1."""
    if value is None and d is not None and k is not None:
        d = check_count("d", d)
        check_count("k", k)
        check_count("k", k, d)
        value = d / k
    _require(
        value is not None and 1.0 <= value < math.inf,
        f"{name} must be finite and >= 1, got {value}",
    )
    return value


def _check_clients(n):
    _require(n is not None, "n_clients is required for client-server methods")
    return check_count("n_clients", n)


def _draw_batch(rng, n, b, with_replacement=False):
    """b uniform indices below n: with replacement, or else b distinct
    ones by ``rng.choice``.  On a plain ``Generator``, as the verifier's
    trajectory and direct ``step`` callers pass, that is numpy's O(b)
    draw; on ``engine.run_generator``, which ``engine.run`` passes, it is
    the next row of a block of such draws where b(b - 1) <= 2n."""
    if with_replacement:
        return rng.integers(0, n, size=b)
    return rng.choice(n, b, replace=False)


def _draw_batches(rng, n, b, S, with_replacement=False):
    """S independent batches, one per row of an (S, b) index array: b
    uniform draws with replacement, or else b distinct indices drawn
    uniformly, one ``compressors._draw_subsets`` block."""
    if with_replacement:
        return rng.integers(0, n, size=(S, b))
    return _draw_subsets(rng, n, b, (S,))


def _batch_mean(X, batches):
    """The mean of each batch's rows of X, (n, d) and (S, b) -> (S, d):
    ``X[batches].mean(axis=1)`` bit for bit, as numpy's mean also adds
    the slots in order onto +0.0 (a column of -0.0 means +0.0).  The rows
    are gathered batch slot first, (b, S, d), the layout ``_ordered_sum``
    adds."""
    return _ordered_sum(X.take(batches.T, axis=0), 0.0) / batches.shape[1]


def _table_sigma(rows, batches):
    """Table staleness after each batch's rows are refreshed: the per-row
    squared gaps ``rows`` with the batch's rows zeroed, averaged over all
    rows."""
    stale = np.tile(rows, (len(batches), 1))
    stale[np.arange(len(batches))[:, None], batches] = 0.0
    return stale.sum(axis=1) / len(rows)


class GradientEstimator:
    """Common state: current point, current estimate, oracle ledger.

    The base class owns the lifecycle.  ``__init__`` books the opening
    full pass (``grad_calls`` = n) and takes g^0 from ``_opening_pass()``,
    by default ``full_grad`` at the starting point.  ``step(x_t, rng)``
    coerces x_t, takes g^t from ``_update(x_t, rng)``, stores g^t and a
    copy of x_t, and returns g^t.  ``g`` is the current estimate,
    ``registered`` the registered tuple and ``sigma_sq()`` 0.0.  A method
    writes:

    * ``_update(x_t, rng)``: with ``self.x`` and ``self.g`` still the
      previous point and estimate, update the method memory and the
      oracle-call ledger from fresh randomness and return g^t;
    * ``_opening_pass()``, if it keeps memory: build it from the full
      pass at ``self.x`` and return g^0;
    * ``sampler(x_cand)``: the pure, vectorised counterpart for the
      Monte Carlo verifier.  It computes, once, every oracle value that
      the draws from the current state to ``x_cand`` share, and returns
      ``draw(rng, S)``: S independent draws of ``step(x_cand, rng)`` from
      that state, which stays as it is (ledger included).  ``draw``
      returns ``(G, sigma)``: the S next estimates, shape (S, d), and the
      auxiliary error ``sigma_sq()`` would report after each, shape (S,);
      it may be called any number of times.  A sampler reads the state
      as it was when it was built, and is valid until the next ``step``.
      A client-server method's draws add per-client rows, gathered
      from a table of every outcome or compressed per draw (see
      ``_ClientServerEstimator``).  The others keep dense stacks (on the
      20x10 verify fixtures a row of a 256-draw block costs about
      0.19 us for SAGA and 0.17 us for SEGA, stepping a clone 27 us and
      18 us; numpy 2.4 on a shared 2-core x86-64 VM): each draw only
      gathers or masks the shared values.  The randomness is drawn
      in whole arrays, so the stream differs from S calls of ``step``,
      not the distribution;
    * ``sigma_sq()``, if it has an auxiliary sequence: its auxiliary
      error at the current state (diagnostic; may cost a full pass, so
      the optimizer loop never calls it).

    Its entry in the method table: ``method``; ``hyperparams`` (name ->
    default, None if required); ``size``, what bounds its batch (``"n"``
    components or ``"d"`` coordinates); ``registration(**hp)``, its
    checked tuple; ``settings(problem, hp)``, the checked constructor
    arguments and tuple, with no gradient pass; ``presets(n)``; the
    verifier's ``alignment``, ``probe_state``, ``fixture`` and
    ``fixture_eigs`` (see ``verify``).
    """

    hyperparams = {"b": None}
    size = "n"
    alignment = "prev"
    probe_state = None
    fixture_eigs = (0.5, 2.0)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # step, sigma_sq and clone are entered on every subclass that has
        # them, inherited or not, so that tools which patch a method on the
        # class defining it (perfbench's span tracer) find one per estimator
        for name in ("step", "sigma_sq", "clone"):
            if name not in cls.__dict__ and hasattr(cls, name):
                setattr(cls, name, getattr(cls, name))

    @staticmethod
    def presets(n):
        return {}

    @classmethod
    def settings(cls, problem, hp):
        """(constructor keyword arguments, registered tuple) for ``hp``,
        defaults filled in, checked by the registration at the problem's size."""
        values = {name: hp.get(name, default) for name, default in cls.hyperparams.items()}
        replace = values.get("with_replacement", False)
        _require(isinstance(replace, bool), f"with_replacement must be true or false, got {replace!r}")
        size = problem.dim if cls.size == "d" else problem.n_components
        registered = cls.registration(**values, **{cls.size: size})
        values["b"] = int(values["b"])  # checked integral by the registration
        return values, registered

    def __init__(self, problem, x0, registered, **settings):
        self.problem = problem
        self.x = _point(x0, problem.dim).copy()
        self.registered = registered
        self.__dict__.update(settings)
        self.grad_calls = problem.n_components
        self.partial_calls = 0
        self.bits_dense = 0
        self.bits_compressed = 0
        self.g = self._opening_pass()

    def _opening_pass(self):
        return self.problem.full_grad(self.x)

    def step(self, x_t, rng):
        x_t = np.asarray(x_t, dtype=float)
        self.g = self._update(x_t, rng)
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        return 0.0

    @property
    def bits(self):
        return self.bits_dense + self.bits_compressed

    def clone(self):
        """Independent copy of the state: arrays are copied; the problem,
        client groups, client pass and compressor, which no step mutates,
        are shared."""
        twin = object.__new__(type(self))
        twin.__dict__.update(
            {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}
        )
        return twin


class LSVRG(GradientEstimator):
    """Loopless anchor-point estimator: occasional full refresh at a
    stored anchor, corrected by fresh batch differences."""

    method = "lsvrg"
    hyperparams = {"b": None, "p": None, "with_replacement": False}
    fixture = {"b": 4, "p": 0.25}

    @staticmethod
    def presets(n):
        return {"b": math.ceil(n ** (2.0 / 3.0)), "p": n ** (-1.0 / 3.0)}

    @staticmethod
    def registration(b=None, p=None, n=None, **_):
        b, p = _check_batch(b, "n", n), _check_prob(p)
        return VRConstants(1.0, p / 2.0, 2.0 / b, 2.0 / b, 1.0 + 2.0 / p)

    def _opening_pass(self):
        self.anchor = self.x.copy()
        self.anchor_grad = self.problem.full_grad(self.x)
        return self.anchor_grad.copy()

    def _update(self, x_t, rng):
        problem = self.problem
        if rng.random() < self.p:
            # the anchor snaps to the PREVIOUS iterate, then gets a full pass
            self.anchor = self.x.copy()
            self.anchor_grad = problem.full_grad(self.anchor)
            self.grad_calls += problem.n_components
        batch = _draw_batch(rng, problem.n_components, self.b, self.with_replacement)
        rows, (cur, anc) = problem.component_rows(batch, x_t, self.anchor)
        self.grad_calls += 2 * self.b
        return self.anchor_grad + problem.batch_sum(rows, cur - anc) / self.b

    def sigma_sq(self):
        diff = self.problem.all_component_grads(self.anchor) - self.problem.all_component_grads(self.x)
        return float((diff * diff).sum(axis=1).mean())

    def sampler(self, x_cand):
        problem = self.problem
        at_cand = problem.all_component_grads(x_cand)
        # a refresh snaps the anchor to the current point
        gaps_kept = at_cand - problem.all_component_grads(self.anchor)
        gaps_fresh = at_cand - problem.all_component_grads(self.x)
        grad_fresh = problem.full_grad(self.x)
        sigma_fresh = (gaps_fresh * gaps_fresh).sum(axis=1).mean()
        sigma_kept = (gaps_kept * gaps_kept).sum(axis=1).mean()

        def draw(rng, S):
            refresh = rng.random(S) < self.p
            batches = _draw_batches(rng, problem.n_components, self.b, S, self.with_replacement)
            G = np.where(
                refresh[:, None],
                grad_fresh + _batch_mean(gaps_fresh, batches),
                self.anchor_grad + _batch_mean(gaps_kept, batches),
            )
            return G, np.where(refresh, sigma_fresh, sigma_kept)

        return draw


class _TableEstimator(GradientEstimator):
    """A gradient table held as coefficients: ``coefs[i]`` holds the
    coefficient of the last gradient of f_i seen (``Problem``), one float
    per component on a linear model (n floats, not one per stored entry
    of A) and a (d,) row on the quadratic.  A step reads and writes back
    its batch's coefficients by index and sums each difference over the
    gathered rows with one ``problem.batch_sum`` call, so a stored entry
    v enters as v * (c - c'): on binary values that is v * c - v * c' bit
    for bit, on others it may round apart in the last bit.  ``table`` is
    the dense (n, d) view for diagnostics and the verifier, built from
    ``coefs`` on each read: each row is ``component_grads`` at the
    component's last-seen point, bit for bit."""

    def _opening_pass(self):
        n = self.problem.n_components
        rows, (self.coefs,) = self.problem.component_rows(np.arange(n), self.x)
        self.table_mean = self.problem.batch_sum(rows, self.coefs) / n
        return self.table_mean.copy()

    @property
    def table(self):
        return self.problem.dense_rows(np.arange(self.problem.n_components), self.coefs)

    def sigma_sq(self):
        diff = self.problem.all_component_grads(self.x) - self.table
        return float((diff * diff).sum(axis=1).mean())


class SAGA(_TableEstimator):
    """Gradient-table estimator; sampled rows are re-evaluated at the
    current point and written back after each estimate.  The table holds
    coefficients (see ``_TableEstimator``)."""

    method = "saga"
    fixture = {"b": 4}

    @staticmethod
    def presets(n):
        return {"b": math.ceil(n ** (2.0 / 3.0))}

    @staticmethod
    def registration(*, n, b=None, **_):
        b = _check_batch(b, "n", n)
        return VRConstants(
            1.0,
            b / (2.0 * n),
            (1.0 / b) * (1.0 + b / (2.0 * n)),
            (2.0 / b) * (1.0 + 2.0 * n / b),
            2.0 * n / b,
        )

    def _update(self, x_t, rng):
        problem = self.problem
        batch = _draw_batch(rng, problem.n_components, self.b)
        rows, (cur,) = problem.component_rows(batch, x_t)
        self.grad_calls += self.b
        change = problem.batch_sum(rows, cur - self.coefs[batch])
        g = self.table_mean + change / self.b
        self.coefs[batch] = cur
        self.table_mean = self.table_mean + change / problem.n_components
        return g

    def sampler(self, x_cand):
        gaps = self.problem.all_component_grads(x_cand) - self.table
        rows = (gaps * gaps).sum(axis=1)

        def draw(rng, S):
            batches = _draw_batches(rng, self.problem.n_components, self.b, S)
            return self.table_mean + _batch_mean(gaps, batches), _table_sigma(rows, batches)

        return draw


class PAGE(GradientEstimator):
    """Coin-flip estimator: full pass with probability p, otherwise the
    previous estimate corrected by batch differences."""

    method = "page"
    hyperparams = LSVRG.hyperparams
    alignment = "none"
    fixture = {"b": 4, "p": 0.2}
    presets = staticmethod(LSVRG.presets)

    @staticmethod
    def registration(b=None, p=None, n=None, **_):
        b, p = _check_batch(b, "n", n), _check_prob(p)
        return VRConstants(p, 1.0, 0.0, (1.0 - p) / b, 0.0)

    def _update(self, x_t, rng):
        problem = self.problem
        if rng.random() < self.p:
            g = problem.full_grad(x_t)
            self.grad_calls += problem.n_components
            return g
        batch = _draw_batch(rng, problem.n_components, self.b, self.with_replacement)
        rows, (cur, prev) = problem.component_rows(batch, x_t, self.x)
        self.grad_calls += 2 * self.b
        return self.g + problem.batch_sum(rows, cur - prev) / self.b

    def sampler(self, x_cand):
        problem = self.problem
        diffs = problem.all_component_grads(x_cand) - problem.all_component_grads(self.x)
        grad_cand = problem.full_grad(x_cand)

        def draw(rng, S):
            refresh = rng.random(S) < self.p
            batches = _draw_batches(rng, problem.n_components, self.b, S, self.with_replacement)
            G = np.where(refresh[:, None], grad_cand, self.g + _batch_mean(diffs, batches))
            return G, np.zeros(S)

        return draw


class ZeroSARAH(_TableEstimator):
    """Difference-chain estimator with a gradient table but no full
    refresh after the first pass; the table correction is mixed in with
    weight lambda = b/(2n).  The chain mean over a batch, of cur - prev,
    and lambda times the control mean over the same rows, of prev - old,
    are one mean, of (cur - prev) + lambda (prev - old): one batch sum.
    The table holds coefficients (see ``_TableEstimator``)."""

    method = "zerosarah"
    fixture = {"b": 4}

    @staticmethod
    def presets(n):
        return {"b": math.ceil(math.sqrt(n))}

    @staticmethod
    def registration(*, n, b=None, **_):
        b = _check_batch(b, "n", n)
        lam = b / (2.0 * n)
        return VRConstants(lam, lam, lam, 2.0 / b, 2.0 * n / b)

    def _update(self, x_t, rng):
        problem = self.problem
        lam = self.b / (2.0 * problem.n_components)
        batch = _draw_batch(rng, problem.n_components, self.b)
        rows, (cur, prev) = problem.component_rows(batch, x_t, self.x)
        self.grad_calls += 2 * self.b
        old = self.coefs[batch]
        mixed = problem.batch_sum(rows, (cur - prev) + lam * (prev - old))
        change = problem.batch_sum(rows, cur - old)
        g = mixed / self.b + (1.0 - lam) * self.g + lam * self.table_mean
        self.coefs[batch] = cur
        self.table_mean = self.table_mean + change / problem.n_components
        return g

    def sampler(self, x_cand):
        problem = self.problem
        lam = self.b / (2.0 * problem.n_components)
        at_cand = problem.all_component_grads(x_cand)
        at_prev = problem.all_component_grads(self.x)
        table = self.table
        mixed_gaps, stale = (at_cand - at_prev) + lam * (at_prev - table), at_cand - table
        rows = (stale * stale).sum(axis=1)

        def draw(rng, S):
            batches = _draw_batches(rng, problem.n_components, self.b, S)
            G = _batch_mean(mixed_gaps, batches) + (1.0 - lam) * self.g + lam * self.table_mean
            return G, _table_sigma(rows, batches)

        return draw


_COMPRESSOR_KINDS = {
    "delta": "a contractive compressor (topk or identity)",
    "omega": "an unbiased compressor (randk or identity)",
}


class _ClientServerEstimator(GradientEstimator):
    """The simulated client/server methods: one recursion, in which a
    method sets only the message a client sends and the damping of the
    state it moves by it.

    Clients are index groups over a partition of the components
    (``groups``); the server weights each client by its share of the
    components (``weights``), the plain average for equal groups.
    ``problem.group_grads(groups)`` builds, once, the client pass that
    gives every client's gradient in one call.

    State is held as (n_clients, d) arrays, row j for client j:
    ``client_grads`` (the gradients at the current point) and
    ``client_state`` (each client's running estimate of its gradient;
    DIANA's shift); ``server_state`` is their share-weighted sum.  A
    step compresses every client's ``_message(grads)`` (by default the
    residual against its state), computed from the client pass, in one
    ``compressor.sample_dense`` call, so a random compressor draws
    client by client from one rng.  With ``agg`` the share-weighted sum
    of the compressed messages, the estimate is ``server_state + agg``
    and the client states move by ``_damp(dense)``; a step also moves
    the server state by ``_damp(agg)``.  EF21 and DASHA move by the
    messages themselves (damping 1: ``server_state`` is the estimate);
    DIANA divides them by omega + 1.  Reductions over clients run in
    client order, so aggregation is bitwise reproducible.

    A sampler makes the client pass and the message once.  A draw adds
    ``_client_rows`` client by client from -0.0, (n_clients, S, d + 1):
    each client's weighted message after compression, then its weighted
    squared gap to its gradient after it; the sums a step makes, bit for
    bit.  A message compresses to one of C outcomes: the
    ``_subset_table`` kept sets of ``RandK``, or 1 for a compressor that
    draws nothing (``compressors._outcome_count``).  Where C is known and
    the (n_clients, C, d + 1) table fits ``_SUBSET_TABLE_BYTES``, the
    sampler lists every outcome once when it is made (``_EveryOutcome``),
    and a draw gathers the rows its ``rng.integers(0, C, size=(S,
    n_clients))`` picks, the call the step's ``sample_dense`` makes (none
    for C = 1, whose one outcome serves every draw).  Otherwise each draw
    compresses the message's (S, n_clients, d) broadcast.

    The initial pass is sent dense (d values per client); afterwards
    each client sends k (index, value) pairs per step, in a separate
    ledger.  ``quality`` names the compressor constant the method's
    registration reads (delta or omega); a compressor without it, or of
    another dimension than the problem, is rejected before the initial
    pass.
    """

    hyperparams = {
        "n_clients": 10,
        "compressor": "identity",
        "k": None,
        "value_bits": 32,
        "index_bits": 32,
        "scheme": "contiguous",
    }
    size = "d"

    @classmethod
    def settings(cls, problem, hp):
        """The client groups, the compressor (built from its name and k if
        named) and the bit widths, checked; the tuple its quality registers."""
        hp = {**cls.hyperparams, **hp}
        groups = partition_problem(problem, _check_clients(hp["n_clients"]), hp["scheme"])
        compressor = hp["compressor"]
        if isinstance(compressor, str):
            compressor = make_compressor(compressor, problem.dim, hp["k"])
        _require(
            hasattr(compressor, cls.quality),
            f"{cls.method} needs {_COMPRESSOR_KINDS[cls.quality]}",
        )
        _require(
            compressor.dim == problem.dim,
            f"compressor dim is {compressor.dim}, problem dim is {problem.dim}",
        )
        bits = {name: check_count(name, hp[name]) for name in ("value_bits", "index_bits")}
        quality = {cls.quality: getattr(compressor, cls.quality)}
        registered = cls.registration(**quality, n_clients=len(groups))
        return dict(groups=groups, compressor=compressor, **bits), registered

    def _opening_pass(self):
        problem = self.problem
        self.weights = np.array([len(g) / problem.n_components for g in self.groups])
        # every client's local gradient at x, stacked (n_clients, d);
        # callers keep the ledger
        self._client_grads = problem.group_grads(self.groups)
        # the initial full pass, each client's gradient sent dense
        self.client_grads = self._client_grads(self.x)
        self.bits_dense += self.n_clients * problem.dim * self.value_bits
        self.client_state = self.client_grads.copy()
        self.server_state = self._server_sum(self.client_state)
        return self.server_state.copy()

    @property
    def n_clients(self):
        return len(self.groups)

    def _message(self, grads):
        return grads - self.client_state

    def _damp(self, moved):
        return moved

    def _weighted(self, per_client, out=None):
        """Each client's values times its share, written C-ordered (or
        into ``out``) with the client axis moved first (``np.moveaxis``
        as a bare transpose): (..., n_clients, d) -> (n_clients, ..., d)."""
        client_first = per_client.transpose(-2, *range(per_client.ndim - 2), -1)
        weights = self.weights.reshape((-1,) + (1,) * (per_client.ndim - 1))
        return np.multiply(weights, client_first, out=out, order="C")

    def _server_sum(self, per_client):
        """Share-weighted sum over the client axis, in client order from
        -0.0: (..., n_clients, d) -> (..., d).  ``_weighted`` writes the
        product in the layout ``problems._ordered_sum`` adds uncopied."""
        return _ordered_sum(self._weighted(per_client), -0.0)

    def _client_error(self, gaps):
        """Share-weighted mean squared client gap, (..., n_clients, d) ->
        (...), summed client by client in order."""
        return self._server_sum((gaps * gaps).sum(axis=-1)[..., None])[..., 0]

    def _update(self, x_t, rng):
        grads = self._client_grads(x_t)
        dense = self.compressor.sample_dense(self._message(grads), rng)
        agg = self._server_sum(dense)
        # the estimate uses the PRE-update server state, so an identity
        # compressor telescopes back to the exact gradient
        g = self.server_state + agg
        self.client_state = self.client_state + self._damp(dense)
        self.server_state = self.server_state + self._damp(agg)
        self.client_grads = grads
        self.grad_calls += self.problem.n_components
        self.bits_compressed += (
            self.n_clients * self.compressor.k * (self.value_bits + self.index_bits)
        )
        return g

    def sigma_sq(self):
        return float(self._client_error(self.client_state - self.client_grads))

    def sampler(self, x_cand):
        grads = self._client_grads(x_cand)
        message = self._message(grads)
        n, d = message.shape
        count = _outcome_count(self.compressor)
        table = None
        if count is not None and n * count * (d + 1) * message.itemsize <= _SUBSET_TABLE_BYTES:
            table = self._client_rows(grads, message, count, _EveryOutcome()).reshape(n * count, d + 1)
            offsets = np.arange(0, n * count, count)[:, None]
        randomized = self.compressor.randomized

        def draw(rng, S):
            if table is None:
                rows = self._client_rows(grads, message, S, rng)
            else:
                # a compressor that draws nothing has one outcome, the same in
                # every draw: one row of picks, drawn from no rng, serves all S
                picks = rng.integers(0, count, size=(S, n)) if randomized else np.zeros((1, n), int)
                # (n, S) flat rows, or (n, 1): the gather comes out client first
                rows = table.take(picks.T + offsets, axis=0)
            sums = _ordered_sum(rows, -0.0)
            G, sigma = np.empty((S, d)), np.empty(S)
            np.add(self.server_state, sums[:, :d], out=G)
            sigma[:] = sums[:, d]
            return G, sigma

        return draw

    def _client_rows(self, grads, message, count, rng):
        """The (n_clients, count, d + 1) rows the sampler adds, client first:
        row [j, c] is client j's weighted message under the c-th of ``count``
        compressions drawn from ``rng``, then its weighted squared gap to its
        gradient after it."""
        n, d = message.shape
        dense = self.compressor.sample_dense(np.broadcast_to(message, (count, n, d)), rng)
        rows = np.empty((n, count, d + 1))
        self._weighted(dense, out=rows[..., :d])
        # the gaps take a step's operations in its order, in place, as the
        # compressed messages are not read again
        gaps = self._damp(dense)
        np.add(self.client_state, gaps, out=gaps)
        gaps -= grads
        gaps *= gaps
        self._weighted(gaps.sum(axis=-1)[..., None], out=rows[..., d:])
        return rows


class EF21(_ClientServerEstimator):
    """Error-feedback estimator: each client pushes a compressed
    correction toward its local gradient; the server accumulates."""

    method = "ef21"
    quality = "delta"
    alignment = "next"
    probe_state = 1
    fixture = {"n_clients": 10, "compressor": "topk", "k": 1}
    # an equal-curvature quadratic (every component eigenvalue equal): the
    # client errors line up and the adversarial probe state has
    # analytically known margins; on a generic spectrum the probe's
    # discriminating power is not guaranteed
    fixture_eigs = (2.0, 2.0)

    @staticmethod
    def registration(delta=None, d=None, k=None, **_):
        delta = _quality("delta", delta, d, k)
        return VRConstants(
            1.0, (delta + 1.0) / (2.0 * delta * delta), 1.0, 0.0, 2.0 * delta
        )


class DIANA(_ClientServerEstimator):
    """Shift-compensated unbiased-compression estimator: clients
    compress the residual against a slowly moving local shift, their
    ``client_state``, which moves by 1/(omega+1) of the message."""

    method = "diana"
    quality = "omega"
    alignment = "cross"
    fixture = {"n_clients": 10, "compressor": "randk", "k": 5}

    @staticmethod
    def registration(omega=None, d=None, k=None, n_clients=None, **_):
        omega, n = _quality("omega", omega, d, k), _check_clients(n_clients)
        return VRConstants(
            1.0,
            1.0 / (2.0 * (1.0 + omega)),
            omega / n,
            2.0 * omega * (omega + 1.0) / n,
            2.0 * (omega + 1.0),
        )

    def _damp(self, moved):
        return moved / (self.compressor.omega + 1.0)

    def shift_mismatch(self, x):
        """Mean squared client-gradient-to-shift distance at an arbitrary
        point, with the shifts as they currently stand.  This is the
        auxiliary quantity the estimate-error recursion couples to."""
        return float(self._client_error(self._client_grads(x) - self.client_state))


class DASHA(_ClientServerEstimator):
    """Momentum-compressed difference estimator: clients compress the
    gradient difference damped by 1/(2*omega+1) of their own estimate
    error, so nothing dense is ever sent after the first pass."""

    method = "dasha"
    quality = "omega"
    fixture = DIANA.fixture

    @staticmethod
    def registration(omega=None, d=None, k=None, n_clients=None, **_):
        omega, n = _quality("omega", omega, d, k), _check_clients(n_clients)
        t = 2.0 * omega + 1.0
        return VRConstants(
            1.0 / t, 1.0 / t, 2.0 * omega / (t * t * n), 2.0 * omega / n, 2.0 * omega
        )

    def _message(self, grads):
        prev = self.client_grads
        eta = 1.0 / (2.0 * self.compressor.omega + 1.0)
        return grads - prev - eta * (self.client_state - prev)


class SEGA(GradientEstimator):
    """Coordinate-sketch estimator: a memory vector is refreshed on the
    sampled coordinates from the previous point, and the estimate
    upweights the fresh coordinates of the current point by d/b."""

    method = "sega"
    size = "d"
    fixture = {"b": 3}

    @staticmethod
    def registration(*, d, b=None, **_):
        b = _check_batch(b, "d", d)
        return VRConstants(1.0, b / (2.0 * d), d / b, (d * d) / (b * b), 3.0 * d / b)

    def _opening_pass(self):
        self.memory = self.problem.full_grad(self.x)
        return self.memory.copy()

    def _update(self, x_t, rng):
        problem = self.problem
        coords = _draw_batch(rng, problem.dim, self.b)
        self.memory[coords] = problem.partials(self.x, coords)
        cur = problem.partials(x_t, coords)
        self.partial_calls += 2 * self.b
        g = self.memory.copy()
        g[coords] += (problem.dim / self.b) * (cur - self.memory[coords])
        return g

    def sigma_sq(self):
        diff = self.memory - self.problem.full_grad(self.x)
        return float((diff * diff).sum())

    def sampler(self, x_cand):
        problem = self.problem
        d = problem.dim
        # every coordinate's partial is its full_grad entry, bit for bit
        at_prev = problem.full_grad(self.x)
        at_cand = problem.full_grad(x_cand)
        fresh = at_prev + (d / self.b) * (at_cand - at_prev)

        def draw(rng, S):
            sampled = _draw_subsets(rng, d, self.b, (S,), mask=True)
            memory = np.where(sampled, at_prev, self.memory)
            gaps = memory - at_cand
            return np.where(sampled, fresh, memory), (gaps * gaps).sum(axis=1)

        return draw


class JAGUAR(GradientEstimator):
    """Coordinate-overwrite estimator: sampled coordinates of the
    previous estimate are replaced with fresh partial derivatives."""

    method = "jaguar"
    size = "d"
    alignment = "none"
    fixture = SEGA.fixture

    @staticmethod
    def registration(*, d, b=None, **_):
        b = _check_batch(b, "d", d)
        return VRConstants(b / (2.0 * d), 1.0, 0.0, 3.0 * d / b, 0.0)

    def _update(self, x_t, rng):
        problem = self.problem
        coords = _draw_batch(rng, problem.dim, self.b)
        fresh = problem.partials(x_t, coords)
        self.partial_calls += self.b
        g = self.g.copy()
        g[coords] = fresh
        return g

    def sampler(self, x_cand):
        # every coordinate's partial is its full_grad entry, bit for bit
        grad_cand = self.problem.full_grad(x_cand)

        def draw(rng, S):
            sampled = _draw_subsets(rng, self.problem.dim, self.b, (S,), mask=True)
            return np.where(sampled, grad_cand, self.g), np.zeros(S)

        return draw


ESTIMATORS = {
    cls.method: cls
    for cls in (LSVRG, SAGA, PAGE, ZeroSARAH, EF21, DIANA, DASHA, SEGA, JAGUAR)
}
METHODS = tuple(ESTIMATORS)
DISTRIBUTED_METHODS = tuple(
    m for m, cls in ESTIMATORS.items() if issubclass(cls, _ClientServerEstimator)
)


def estimator_class(method):
    """The method table's entry for ``method``."""
    _require(method in ESTIMATORS, f"unknown method {method!r}")
    return ESTIMATORS[method]


def constants(method, **hp) -> VRConstants:
    """Registered recursion constants for a method: its class's
    ``registration``, which checks the hyperparameters it reads (lsvrg,
    page: b, p and optionally n; saga, zerosarah: b, n; sega, jaguar: b,
    d; ef21: delta or d, k; diana, dasha: omega or d, k, and n_clients).
    sigma^2 is normalized 1/n over components (or clients)."""
    return estimator_class(method).registration(**hp)


def make_estimator(method, problem, x0, hyperparams=None):
    """Build an initialized estimator.  ``hyperparams`` maps names the
    method's class declares (``hyperparams``) to values, and a name it
    does not declare is an error; its ``settings`` checks them before the
    one full gradient pass that makes the estimate exact.  A
    ``compressor`` is a compressor or a name (topk|randk|identity)."""
    cls = estimator_class(method)
    hyperparams = hyperparams or {}
    for name in hyperparams:
        _require(name in cls.hyperparams, f"{method} takes no hyperparameter {name!r}")
    settings, registered = cls.settings(problem, hyperparams)
    return cls(problem, x0, registered, **settings)
