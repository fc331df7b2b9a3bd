"""Stochastic gradient estimators with registered recursion constants.

Every estimator is a stateful object built from a starting point by one
full gradient pass (so the initial estimate is exact and the auxiliary
error starts at zero); ``GradientEstimator`` lists the methods each one
defines.  The client-server methods (EF21, DIANA, DASHA) hold per-client
state as (n_clients, d) arrays, so ``step`` and ``step_batch`` share
the same whole-array algebra.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compressors import dense_bits_cost, make_compressor
from .problems import dense_rows, partition_problem

METHODS = (
    "lsvrg",
    "saga",
    "page",
    "zerosarah",
    "ef21",
    "diana",
    "dasha",
    "sega",
    "jaguar",
)

DISTRIBUTED_METHODS = ("ef21", "diana", "dasha")
COORDINATE_METHODS = ("sega", "jaguar")


@dataclass(frozen=True)
class VRConstants:
    """Coefficients of the two error recursions (see module docstring)."""

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
        if min(self.A, self.B, self.C) < 0.0:
            raise ValueError("A, B, C must be nonnegative")

    def scaled(self, factors):
        """Copy with some fields multiplied, e.g. {"C": 0.5}.  Used by the
        verifier's mutation mode."""
        values = {f: getattr(self, f) for f in ("rho1", "rho2", "A", "B", "C")}
        for name, mult in factors.items():
            if name not in values:
                raise ValueError(f"unknown constant {name!r}")
            values[name] *= mult
        return VRConstants(**values)


def _require(condition, message):
    if not condition:
        raise ValueError(message)


def _check_batch(b, n):
    _require(b is not None, "batch size b is required")
    _require(int(b) == b and 1 <= b <= n, f"b must be an integer in [1, {n}], got {b}")
    return int(b)


def _check_prob(p):
    _require(p is not None and 0.0 < p <= 1.0, f"p must lie in (0, 1], got {p}")
    return float(p)


def _compression_quality(hp, name):
    """delta or omega (``name``), given directly or as d/k, checked >= 1."""
    value = hp.get(name)
    if value is None and "d" in hp and "k" in hp:
        _require(hp["k"] >= 1, f"k must be >= 1, got {hp['k']}")
        value = hp["d"] / hp["k"]
    _require(value is not None and value >= 1.0, f"{name} must be >= 1, got {value}")
    return value


def constants(method, **hp) -> VRConstants:
    """Registered recursion constants for a method.

    Required hyperparameters: lsvrg/page need b and p (b validated
    against n when n is given); saga/zerosarah need b and n; sega/jaguar
    need b and d; ef21 needs delta (or d and k); diana/dasha need omega
    (or d and k) and n_clients.  The auxiliary error sigma^2 is the
    1/n-normalized mean over components (or clients), which is the
    normalization these tuples are registered against.
    """
    method = method.lower()
    if method == "lsvrg":
        b = _check_batch(hp["b"], hp.get("n", float("inf")))
        p = _check_prob(hp.get("p"))
        return VRConstants(1.0, p / 2.0, 2.0 / b, 2.0 / b, 1.0 + 2.0 / p)
    if method == "saga":
        n = int(hp["n"])
        b = _check_batch(hp["b"], n)
        return VRConstants(
            1.0,
            b / (2.0 * n),
            (1.0 / b) * (1.0 + b / (2.0 * n)),
            (2.0 / b) * (1.0 + 2.0 * n / b),
            2.0 * n / b,
        )
    if method == "page":
        b = _check_batch(hp["b"], hp.get("n", float("inf")))
        p = _check_prob(hp.get("p"))
        return VRConstants(p, 1.0, 0.0, (1.0 - p) / b, 0.0)
    if method == "zerosarah":
        n = int(hp["n"])
        b = _check_batch(hp["b"], n)
        return VRConstants(
            b / (2.0 * n), b / (2.0 * n), b / (2.0 * n), 2.0 / b, 2.0 * n / b
        )
    if method == "ef21":
        delta = _compression_quality(hp, "delta")
        return VRConstants(
            1.0, (delta + 1.0) / (2.0 * delta * delta), 1.0, 0.0, 2.0 * delta
        )
    if method in ("diana", "dasha"):
        omega = _compression_quality(hp, "omega")
        n = int(hp.get("n_clients") or hp.get("n") or 0)
        _require(n >= 1, "n_clients is required for client-server methods")
        if method == "diana":
            return VRConstants(
                1.0,
                1.0 / (2.0 * (1.0 + omega)),
                omega / n,
                2.0 * omega * (omega + 1.0) / n,
                2.0 * (omega + 1.0),
            )
        t = 2.0 * omega + 1.0
        return VRConstants(
            1.0 / t, 1.0 / t, 2.0 * omega / (t * t * n), 2.0 * omega / n, 2.0 * omega
        )
    if method in ("sega", "jaguar"):
        d = int(hp["d"])
        b = _check_batch(hp["b"], d)
        if method == "sega":
            return VRConstants(
                1.0, b / (2.0 * d), d / b, (d * d) / (b * b), 3.0 * d / b
            )
        return VRConstants(b / (2.0 * d), 1.0, 0.0, 3.0 * d / b, 0.0)
    raise ValueError(f"unknown method {method!r}")


def _draw_batch(rng, n, b, with_replacement=False):
    """b uniform indices below n: with replacement, or else b distinct
    ones (``Generator.choice`` draws them in O(b) for b much below n)."""
    if with_replacement:
        return rng.integers(0, n, size=b)
    return rng.choice(n, b, replace=False)


def _draw_batches(rng, n, b, S, with_replacement=False):
    """S independent batches, one per row of an (S, b) index array: b
    uniform draws with replacement, or else the first b positions of an
    argsort of uniforms, b distinct indices drawn uniformly."""
    if with_replacement:
        return rng.integers(0, n, size=(S, b))
    return rng.random((S, n)).argsort(axis=1)[:, :b]


def _colsum(cols, values, dim):
    """Column sums of support-aligned rows, (b, width) -> (dim,), padding
    column ``dim`` dropped.  bincount adds each column's entries in row
    order, starting from +0.0, as numpy's axis-0 sum of the dense (b, dim)
    stack does for dim > 1; rows never hold -0.0, so the two agree bit
    for bit.  (At dim == 1 numpy sums the contiguous axis pairwise.)"""
    return np.bincount(cols.ravel(), values.ravel(), minlength=dim + 1)[:dim]


def _batch_mask(batches, n):
    mask = np.zeros((len(batches), n), dtype=bool)
    np.put_along_axis(mask, batches, True, axis=1)
    return mask


def _table_sigma(gaps, batches):
    """Table staleness after each batch's rows are refreshed: the per-row
    squared gaps with the batch's rows zeroed, averaged over all rows."""
    rows = (gaps * gaps).sum(axis=1)
    stale = np.tile(rows, (len(batches), 1))
    np.put_along_axis(stale, batches, 0.0, axis=1)
    return stale.sum(axis=1) / len(rows)


def _copied(value):
    return value.copy() if isinstance(value, np.ndarray) else value


class GradientEstimator:
    """Common state: current point, current estimate, oracle ledger.

    Every estimator defines:

    * ``step(x_t, rng)``: consume the next iterate and fresh randomness,
      update the method memory and oracle-call ledger, return the new
      estimate g^t;
    * ``step_batch(x_cand, rng, S)``: the pure, vectorised counterpart
      for the Monte Carlo verifier, S independent draws of
      ``step(x_cand, rng)`` from the current state, which stays as it is
      (ledger included).  Returns ``(G, sigma)``: the S next estimates,
      shape (S, d), and the auxiliary error ``sigma_sq()`` would report
      after each, shape (S,).  Oracle values that every draw shares are
      computed once per call; each draw only gathers or masks them.  The
      randomness is drawn in whole arrays, so the stream differs from S
      calls of ``step``, not the distribution;
    * ``sigma_sq()``: the method's auxiliary error at the current state
      (diagnostic; may cost a full pass, so the optimizer loop never
      calls it);
    * ``constants()``: the ``VRConstants`` registered for its settings.
    """

    method = "?"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # step, sigma_sq and clone are entered on every subclass that has
        # them, inherited or not, so that tools which patch a method on the
        # class defining it (perfbench's span tracer) find one per estimator
        for name in ("step", "sigma_sq", "clone"):
            if name not in cls.__dict__ and hasattr(cls, name):
                setattr(cls, name, getattr(cls, name))

    def __init__(self, problem, x0):
        self.problem = problem
        self.x = np.array(x0, dtype=float, copy=True)
        if self.x.shape != (problem.dim,):
            raise ValueError(f"x0 must have shape ({problem.dim},)")
        self.g = None
        self.grad_calls = 0
        self.partial_calls = 0
        self.bits_dense = 0
        self.bits_compressed = 0

    @property
    def estimate(self):
        """Current gradient estimate g^t."""
        return self.g

    @property
    def bits(self):
        return self.bits_dense + self.bits_compressed

    def clone(self):
        """Independent copy of the state: arrays are copied; the problem,
        client groups, client pass and compressor, which no step mutates,
        are shared."""
        twin = object.__new__(type(self))
        twin.__dict__.update({k: _copied(v) for k, v in vars(self).items()})
        return twin


class LSVRG(GradientEstimator):
    """Loopless anchor-point estimator: occasional full refresh at a
    stored anchor, corrected by fresh batch differences."""

    method = "lsvrg"

    def __init__(self, problem, x0, b, p, with_replacement=False):
        super().__init__(problem, x0)
        n = problem.n_components
        self.b = _check_batch(b, n)
        self.p = _check_prob(p)
        self.with_replacement = bool(with_replacement)
        self.anchor = self.x.copy()
        self.anchor_grad = problem.full_grad(self.x)
        self.grad_calls += n
        self.g = self.anchor_grad.copy()

    def step(self, x_t, rng):
        problem = self.problem
        if rng.random() < self.p:
            # the anchor snaps to the PREVIOUS iterate, then gets a full pass
            self.anchor = self.x.copy()
            self.anchor_grad = problem.full_grad(self.anchor)
            self.grad_calls += problem.n_components
        x_t = np.asarray(x_t, dtype=float)
        batch = _draw_batch(rng, problem.n_components, self.b, self.with_replacement)
        cols, (cur, anc) = problem.component_rows(batch, x_t, self.anchor)
        self.grad_calls += 2 * self.b
        self.g = self.anchor_grad + _colsum(cols, cur - anc, problem.dim) / self.b
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        diff = self.problem.all_component_grads(self.anchor) - self.problem.all_component_grads(self.x)
        return float((diff * diff).sum(axis=1).mean())

    def constants(self):
        return constants("lsvrg", b=self.b, p=self.p, n=self.problem.n_components)

    def step_batch(self, x_cand, rng, S):
        problem = self.problem
        refresh = rng.random(S) < self.p
        batches = _draw_batches(rng, problem.n_components, self.b, S, self.with_replacement)
        at_cand = problem.all_component_grads(x_cand)
        # a refresh snaps the anchor to the current point
        gaps_kept = at_cand - problem.all_component_grads(self.anchor)
        gaps_fresh = at_cand - problem.all_component_grads(self.x)
        G = np.where(
            refresh[:, None],
            problem.full_grad(self.x) + gaps_fresh[batches].mean(axis=1),
            self.anchor_grad + gaps_kept[batches].mean(axis=1),
        )
        sigma = np.where(
            refresh,
            (gaps_fresh * gaps_fresh).sum(axis=1).mean(),
            (gaps_kept * gaps_kept).sum(axis=1).mean(),
        )
        return G, sigma


class _TableEstimator(GradientEstimator):
    """A gradient table held on the components' support: ``rows`` beside
    ``cols``, both (n, width), row i holding the last gradient of f_i
    seen, at the columns ``cols[i]`` (``problem.component_rows``'
    layout).  Steps gather and write back whole rows; ``table`` is the
    dense (n, d) view for diagnostics and the verifier."""

    def __init__(self, problem, x0, b):
        super().__init__(problem, x0)
        n = problem.n_components
        self.b = _check_batch(b, n)
        self.cols, (self.rows,) = problem.component_rows(np.arange(n), self.x)
        self.grad_calls += n
        self.table_mean = _colsum(self.cols, self.rows, problem.dim) / n
        self.g = self.table_mean.copy()

    @property
    def table(self):
        """The table as a dense (n, d) array, built on every read."""
        return dense_rows(self.cols, self.rows, self.problem.dim)

    def sigma_sq(self):
        diff = self.problem.all_component_grads(self.x) - self.table
        return float((diff * diff).sum(axis=1).mean())


class SAGA(_TableEstimator):
    """Gradient-table estimator; sampled rows are re-evaluated at the
    current point and written back after each estimate.  The table is
    support-aligned (see ``_TableEstimator``)."""

    method = "saga"

    def step(self, x_t, rng):
        problem = self.problem
        x_t = np.asarray(x_t, dtype=float)
        batch = _draw_batch(rng, problem.n_components, self.b)
        cols, (cur,) = problem.component_rows(batch, x_t)
        self.grad_calls += self.b
        change = _colsum(cols, cur - self.rows[batch], problem.dim)
        self.g = self.table_mean + change / self.b
        self.rows[batch] = cur
        self.table_mean = self.table_mean + change / problem.n_components
        self.x = x_t.copy()
        return self.g

    def constants(self):
        return constants("saga", b=self.b, n=self.problem.n_components)

    def step_batch(self, x_cand, rng, S):
        batches = _draw_batches(rng, self.problem.n_components, self.b, S)
        gaps = self.problem.all_component_grads(x_cand) - self.table
        return self.table_mean + gaps[batches].mean(axis=1), _table_sigma(gaps, batches)


class PAGE(GradientEstimator):
    """Coin-flip estimator: full pass with probability p, otherwise the
    previous estimate corrected by batch differences."""

    method = "page"

    def __init__(self, problem, x0, b, p, with_replacement=False):
        super().__init__(problem, x0)
        self.b = _check_batch(b, problem.n_components)
        self.p = _check_prob(p)
        self.with_replacement = bool(with_replacement)
        self.g = problem.full_grad(self.x)
        self.grad_calls += problem.n_components

    def step(self, x_t, rng):
        problem = self.problem
        x_t = np.asarray(x_t, dtype=float)
        if rng.random() < self.p:
            self.g = problem.full_grad(x_t)
            self.grad_calls += problem.n_components
        else:
            batch = _draw_batch(rng, problem.n_components, self.b, self.with_replacement)
            cols, (cur, prev) = problem.component_rows(batch, x_t, self.x)
            self.grad_calls += 2 * self.b
            self.g = self.g + _colsum(cols, cur - prev, problem.dim) / self.b
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        return 0.0

    def constants(self):
        return constants("page", b=self.b, p=self.p, n=self.problem.n_components)

    def step_batch(self, x_cand, rng, S):
        problem = self.problem
        refresh = rng.random(S) < self.p
        batches = _draw_batches(rng, problem.n_components, self.b, S, self.with_replacement)
        diffs = problem.all_component_grads(x_cand) - problem.all_component_grads(self.x)
        G = np.where(
            refresh[:, None], problem.full_grad(x_cand), self.g + diffs[batches].mean(axis=1)
        )
        return G, np.zeros(S)


class ZeroSARAH(_TableEstimator):
    """Difference-chain estimator with a gradient table but no full
    refresh after the first pass; the table correction is mixed in with
    weight lambda = b/(2n).  The table is support-aligned (see
    ``_TableEstimator``)."""

    method = "zerosarah"

    def __init__(self, problem, x0, b):
        super().__init__(problem, x0, b)
        self.lam = self.b / (2.0 * problem.n_components)

    def step(self, x_t, rng):
        problem = self.problem
        d = problem.dim
        x_t = np.asarray(x_t, dtype=float)
        batch = _draw_batch(rng, problem.n_components, self.b)
        cols, (cur, prev) = problem.component_rows(batch, x_t, self.x)
        self.grad_calls += 2 * self.b
        old = self.rows[batch]
        chain = _colsum(cols, cur - prev, d) / self.b
        control = _colsum(cols, prev - old, d) / self.b + self.table_mean
        self.g = chain + (1.0 - self.lam) * self.g + self.lam * control
        self.rows[batch] = cur
        self.table_mean = self.table_mean + _colsum(cols, cur - old, d) / problem.n_components
        self.x = x_t.copy()
        return self.g

    def constants(self):
        return constants("zerosarah", b=self.b, n=self.problem.n_components)

    def step_batch(self, x_cand, rng, S):
        problem = self.problem
        batches = _draw_batches(rng, problem.n_components, self.b, S)
        at_cand = problem.all_component_grads(x_cand)
        at_prev = problem.all_component_grads(self.x)
        table = self.table
        chain = (at_cand - at_prev)[batches].mean(axis=1)
        control = (at_prev - table)[batches].mean(axis=1) + self.table_mean
        G = chain + (1.0 - self.lam) * self.g + self.lam * control
        return G, _table_sigma(at_cand - table, batches)


class _ClientServerEstimator(GradientEstimator):
    """Shared plumbing for the simulated client/server methods.

    Clients are index groups over a partition of the components
    (``groups``); the server aggregate weights each client by its share
    of the components (``weights``), which reduces to the plain average
    for equal groups.  ``problem.group_grads(groups)`` builds, once, the
    client pass that gives every client's gradient in one call.

    Per-client state is held as (n_clients, d) arrays, row j for client
    j: ``client_grads`` (each client's gradient at the current point)
    and the method's memory (``client_state`` or ``shifts``).  A step is
    whole-array algebra on one stacked client pass, and one
    ``compressor.sample_dense`` call compresses every client's message,
    row j for client j, so a random compressor draws client by client,
    in client order, from one rng.  Every reduction over clients also
    runs in client order, so aggregation is bitwise reproducible.  The
    initial state is communicated dense (d values per client, no
    indices); afterwards each client sends k (index, value) pairs per
    step, and the two ledgers stay separate so that claim can be
    audited.
    """

    needs_unbiased = False

    def __init__(self, problem, x0, groups, compressor, value_bits=32, index_bits=32):
        super().__init__(problem, x0)
        if self.needs_unbiased and not getattr(compressor, "unbiased", False):
            raise ValueError("this method needs an unbiased compressor")
        self.groups = groups
        self.weights = np.array([len(g) / problem.n_components for g in groups])
        # every client's local gradient at x, stacked (n_clients, d);
        # callers keep the ledger
        self._client_grads = problem.group_grads(groups)
        self.compressor = compressor
        self.value_bits = int(value_bits)
        self.index_bits = int(index_bits)
        # the initial full pass, each client's gradient sent dense
        self.client_grads = self._client_grads(self.x)
        self.grad_calls += problem.n_components
        self.bits_dense += self.n_clients * dense_bits_cost(problem.dim, self.value_bits)

    @property
    def n_clients(self):
        return len(self.groups)

    def _compress(self, messages, rng):
        """Every client's message compressed, dense, (n_clients, d), and
        the k (index, value) pairs each client sends counted."""
        self.bits_compressed += (
            self.n_clients * self.compressor.k * (self.value_bits + self.index_bits)
        )
        return self.compressor.sample_dense(messages, rng)

    def _compress_batch(self, messages, rng, S):
        """Dense compressor outputs for S independent draws of every
        client's message; messages (n_clients, d) -> (S, n_clients, d)."""
        return self.compressor.sample_dense(np.broadcast_to(messages, (S,) + messages.shape), rng)

    def _server_sum(self, per_client):
        """Share-weighted sum over the client axis, in client order:
        (..., n_clients, d) -> (..., d).  cumsum accumulates client by
        client; .sum(axis=-2) does too, except when d == 1 makes the
        client axis the contiguous one and numpy sums it pairwise."""
        return np.cumsum(self.weights[:, None] * per_client, axis=-2)[..., -1, :]

    def _client_error(self, gaps):
        """Share-weighted mean squared client gap, (..., n_clients, d) ->
        (...), summed client by client in order."""
        per_client = (gaps * gaps).sum(axis=-1)
        return sum(w * per_client[..., j] for j, w in enumerate(self.weights))


class _ClientStateEstimator(_ClientServerEstimator):
    """Client j keeps ``client_state[j]``, its running estimate of its
    own gradient, and moves it by the compressed message it sends; the
    server adds the share-weighted messages to g, so g stays the
    share-weighted sum of the client states.  A method defines the
    messages the clients compress: ``_message(grads)``, (n_clients, d),
    from the client gradients at the next point."""

    def __init__(self, problem, x0, groups, compressor, value_bits=32, index_bits=32):
        super().__init__(problem, x0, groups, compressor, value_bits, index_bits)
        self.client_state = self.client_grads.copy()
        self.g = self._server_sum(self.client_state)

    def step(self, x_t, rng):
        x_t = np.asarray(x_t, dtype=float)
        grads = self._client_grads(x_t)
        self.grad_calls += self.problem.n_components
        dense = self._compress(self._message(grads), rng)
        self.client_state = self.client_state + dense
        self.client_grads = grads
        self.g = self.g + self._server_sum(dense)
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        return float(self._client_error(self.client_state - self.client_grads))

    def step_batch(self, x_cand, rng, S):
        grads = self._client_grads(x_cand)
        dense = self._compress_batch(self._message(grads), rng, S)
        sigma = self._client_error(self.client_state + dense - grads)
        return self.g + self._server_sum(dense), sigma


class EF21(_ClientStateEstimator):
    """Error-feedback estimator: each client pushes a compressed
    correction toward its local gradient; the server accumulates."""

    method = "ef21"

    def _message(self, grads):
        return grads - self.client_state

    def constants(self):
        _require(
            hasattr(self.compressor, "delta"),
            "ef21 needs a contractive compressor (topk or identity)",
        )
        return constants("ef21", delta=self.compressor.delta)


class DIANA(_ClientServerEstimator):
    """Shift-compensated unbiased-compression estimator: clients
    compress the residual against a slowly moving local shift."""

    method = "diana"
    needs_unbiased = True

    def __init__(self, problem, x0, groups, compressor, value_bits=32, index_bits=32):
        super().__init__(problem, x0, groups, compressor, value_bits, index_bits)
        self.omega = float(compressor.omega)
        self.shifts = self.client_grads.copy()
        self.server_shift = self._server_sum(self.shifts)
        self.g = self.server_shift.copy()

    def step(self, x_t, rng):
        x_t = np.asarray(x_t, dtype=float)
        grads = self._client_grads(x_t)
        self.grad_calls += self.problem.n_components
        dense = self._compress(grads - self.shifts, rng)
        agg = self._server_sum(dense)
        self.shifts = self.shifts + dense / (self.omega + 1.0)
        self.client_grads = grads
        # estimate uses the PRE-update server shift, so an identity
        # compressor telescopes back to the exact gradient
        self.g = self.server_shift + agg
        self.server_shift = self.server_shift + agg / (self.omega + 1.0)
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        return float(self._client_error(self.shifts - self.client_grads))

    def shift_mismatch(self, x):
        """Mean squared client-gradient-to-shift distance at an arbitrary
        point, with the shifts as they currently stand.  This is the
        auxiliary quantity the estimate-error recursion couples to."""
        return float(self._client_error(self._client_grads(x) - self.shifts))

    def constants(self):
        return constants("diana", omega=self.omega, n_clients=self.n_clients)

    def step_batch(self, x_cand, rng, S):
        grads = self._client_grads(x_cand)
        dense = self._compress_batch(grads - self.shifts, rng, S)
        G = self.server_shift + self._server_sum(dense)
        return G, self._client_error(self.shifts + dense / (self.omega + 1.0) - grads)


class DASHA(_ClientStateEstimator):
    """Momentum-compressed difference estimator: clients compress the
    gradient difference damped by 1/(2*omega+1) of their own estimate
    error, so nothing dense is ever sent after the first pass."""

    method = "dasha"
    needs_unbiased = True

    def __init__(self, problem, x0, groups, compressor, value_bits=32, index_bits=32):
        super().__init__(problem, x0, groups, compressor, value_bits, index_bits)
        self.omega = float(compressor.omega)
        self.eta = 1.0 / (2.0 * self.omega + 1.0)

    def _message(self, grads):
        prev = self.client_grads
        return grads - prev - self.eta * (self.client_state - prev)

    def constants(self):
        return constants("dasha", omega=self.omega, n_clients=self.n_clients)


class SEGA(GradientEstimator):
    """Coordinate-sketch estimator: a memory vector is refreshed on the
    sampled coordinates from the previous point, and the estimate
    upweights the fresh coordinates of the current point by d/b."""

    method = "sega"

    def __init__(self, problem, x0, b):
        super().__init__(problem, x0)
        self.b = _check_batch(b, problem.dim)
        self.memory = problem.full_grad(self.x)
        self.grad_calls += problem.n_components
        self.g = self.memory.copy()

    def step(self, x_t, rng):
        problem = self.problem
        x_t = np.asarray(x_t, dtype=float)
        coords = _draw_batch(rng, problem.dim, self.b)
        self.memory[coords] = problem.partials(self.x, coords)
        cur = problem.partials(x_t, coords)
        self.partial_calls += 2 * self.b
        g = self.memory.copy()
        g[coords] += (problem.dim / self.b) * (cur - self.memory[coords])
        self.g = g
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        diff = self.memory - self.problem.full_grad(self.x)
        return float((diff * diff).sum())

    def constants(self):
        return constants("sega", b=self.b, d=self.problem.dim)

    def step_batch(self, x_cand, rng, S):
        problem = self.problem
        d = problem.dim
        sampled = _batch_mask(_draw_batches(rng, d, self.b, S), d)
        at_prev = problem.partials(self.x, np.arange(d))
        at_cand = problem.partials(x_cand, np.arange(d))
        memory = np.where(sampled, at_prev, self.memory)
        G = np.where(sampled, at_prev + (d / self.b) * (at_cand - at_prev), memory)
        gaps = memory - problem.full_grad(x_cand)
        return G, (gaps * gaps).sum(axis=1)


class JAGUAR(GradientEstimator):
    """Coordinate-overwrite estimator: sampled coordinates of the
    previous estimate are replaced with fresh partial derivatives."""

    method = "jaguar"

    def __init__(self, problem, x0, b):
        super().__init__(problem, x0)
        self.b = _check_batch(b, problem.dim)
        self.g = problem.full_grad(self.x)
        self.grad_calls += problem.n_components

    def step(self, x_t, rng):
        problem = self.problem
        x_t = np.asarray(x_t, dtype=float)
        coords = _draw_batch(rng, problem.dim, self.b)
        fresh = problem.partials(x_t, coords)
        self.partial_calls += self.b
        g = self.g.copy()
        g[coords] = fresh
        self.g = g
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        return 0.0

    def constants(self):
        return constants("jaguar", b=self.b, d=self.problem.dim)

    def step_batch(self, x_cand, rng, S):
        d = self.problem.dim
        sampled = _batch_mask(_draw_batches(rng, d, self.b, S), d)
        return np.where(sampled, self.problem.partials(x_cand, np.arange(d)), self.g), np.zeros(S)


def make_estimator(method, problem, x0, hyperparams=None, **kwargs):
    """Build an initialized estimator.

    Hyperparameter keys by method: b, p, with_replacement (batch
    methods); b (coordinate methods, bounded by the dimension);
    n_clients, compressor (topk|randk|identity), k, value_bits,
    index_bits, scheme (client-server methods).  The construction runs
    one full gradient pass, so the estimate starts exact.
    """
    hp = dict(hyperparams or {})
    hp.update(kwargs)
    method = method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "lsvrg":
        return LSVRG(problem, x0, hp.get("b"), hp.get("p"), hp.get("with_replacement", False))
    if method == "saga":
        return SAGA(problem, x0, hp.get("b"))
    if method == "page":
        return PAGE(problem, x0, hp.get("b"), hp.get("p"), hp.get("with_replacement", False))
    if method == "zerosarah":
        return ZeroSARAH(problem, x0, hp.get("b"))
    if method == "sega":
        return SEGA(problem, x0, hp.get("b"))
    if method == "jaguar":
        return JAGUAR(problem, x0, hp.get("b"))
    # client-server methods
    n_clients = int(hp.get("n_clients", 10))
    groups = partition_problem(problem, n_clients, hp.get("scheme", "contiguous"))
    comp = hp.get("compressor") or "identity"
    if isinstance(comp, str):
        comp = make_compressor(comp, problem.dim, hp.get("k"))
    common = dict(
        value_bits=hp.get("value_bits", 32), index_bits=hp.get("index_bits", 32)
    )
    if method == "ef21":
        return EF21(problem, x0, groups, comp, **common)
    if method == "diana":
        return DIANA(problem, x0, groups, comp, **common)
    return DASHA(problem, x0, groups, comp, **common)
