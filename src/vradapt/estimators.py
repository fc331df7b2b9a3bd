"""Stochastic gradient estimators with registered recursion constants.

Every estimator is a stateful object built from a starting point by one
full gradient pass (so the initial estimate is exact and the auxiliary
error starts at zero).  ``step(x_t, rng)`` consumes the next iterate and
fresh randomness, updates the method memory and oracle-call ledger, and
returns the new estimate g^t.

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

from .compressors import bits_cost, dense_bits_cost, make_compressor
from .problems import partition_problem

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
        delta = hp.get("delta")
        if delta is None and "d" in hp and "k" in hp:
            delta = hp["d"] / hp["k"]
        _require(delta is not None and delta >= 1.0, f"delta must be >= 1, got {delta}")
        return VRConstants(
            1.0, (delta + 1.0) / (2.0 * delta * delta), 1.0, 0.0, 2.0 * delta
        )
    if method in ("diana", "dasha"):
        omega = hp.get("omega")
        if omega is None and "d" in hp and "k" in hp:
            omega = hp["d"] / hp["k"]
        _require(omega is not None and omega >= 1.0, f"omega must be >= 1, got {omega}")
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
    if with_replacement:
        return rng.integers(0, n, size=b)
    return rng.permutation(n)[:b]


class GradientEstimator:
    """Common state: current point, current estimate, oracle ledger."""

    method = "?"

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

    def step(self, x_t, rng):
        raise NotImplementedError

    def sigma_sq(self):
        """The method's auxiliary error at the current state (diagnostic;
        may cost a full pass, so the optimizer loop never calls it)."""
        raise NotImplementedError

    def constants(self):
        raise NotImplementedError

    def clone(self):
        """Independent deep copy; used to freeze states for verification."""
        raise NotImplementedError

    def _copy_base(self, other):
        other.problem = self.problem
        other.x = self.x.copy()
        other.g = self.g.copy()
        other.grad_calls = self.grad_calls
        other.partial_calls = self.partial_calls
        other.bits_dense = self.bits_dense
        other.bits_compressed = self.bits_compressed
        return other


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
        g_cur = problem.component_grads(batch, x_t)
        g_anc = problem.component_grads(batch, self.anchor)
        self.grad_calls += 2 * self.b
        self.g = self.anchor_grad + (g_cur - g_anc).mean(axis=0)
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        diff = self.problem.all_component_grads(self.anchor) - self.problem.all_component_grads(self.x)
        return float((diff * diff).sum(axis=1).mean())

    def constants(self):
        return constants("lsvrg", b=self.b, p=self.p, n=self.problem.n_components)

    def clone(self):
        c = object.__new__(LSVRG)
        self._copy_base(c)
        c.b, c.p, c.with_replacement = self.b, self.p, self.with_replacement
        c.anchor = self.anchor.copy()
        c.anchor_grad = self.anchor_grad.copy()
        return c


class SAGA(GradientEstimator):
    """Gradient-table estimator; sampled rows are re-evaluated at the
    current point and written back after each estimate."""

    method = "saga"

    def __init__(self, problem, x0, b):
        super().__init__(problem, x0)
        n = problem.n_components
        self.b = _check_batch(b, n)
        self.table = problem.all_component_grads(self.x)
        self.grad_calls += n
        self.table_mean = self.table.mean(axis=0)
        self.g = self.table_mean.copy()

    def step(self, x_t, rng):
        problem = self.problem
        x_t = np.asarray(x_t, dtype=float)
        batch = _draw_batch(rng, problem.n_components, self.b)
        g_cur = problem.component_grads(batch, x_t)
        self.grad_calls += self.b
        old_rows = self.table[batch]
        self.g = self.table_mean + (g_cur - old_rows).mean(axis=0)
        self.table[batch] = g_cur
        self.table_mean = self.table_mean + (g_cur - old_rows).sum(axis=0) / problem.n_components
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        diff = self.problem.all_component_grads(self.x) - self.table
        return float((diff * diff).sum(axis=1).mean())

    def constants(self):
        return constants("saga", b=self.b, n=self.problem.n_components)

    def clone(self):
        c = object.__new__(SAGA)
        self._copy_base(c)
        c.b = self.b
        c.table = self.table.copy()
        c.table_mean = self.table_mean.copy()
        return c


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
            g_cur = problem.component_grads(batch, x_t)
            g_prev = problem.component_grads(batch, self.x)
            self.grad_calls += 2 * self.b
            self.g = self.g + (g_cur - g_prev).mean(axis=0)
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        return 0.0

    def constants(self):
        return constants("page", b=self.b, p=self.p, n=self.problem.n_components)

    def clone(self):
        c = object.__new__(PAGE)
        self._copy_base(c)
        c.b, c.p, c.with_replacement = self.b, self.p, self.with_replacement
        return c


class ZeroSARAH(GradientEstimator):
    """Difference-chain estimator with a gradient table but no full
    refresh after the first pass; the table correction is mixed in with
    weight lambda = b/(2n)."""

    method = "zerosarah"

    def __init__(self, problem, x0, b):
        super().__init__(problem, x0)
        n = problem.n_components
        self.b = _check_batch(b, n)
        self.lam = self.b / (2.0 * n)
        self.table = problem.all_component_grads(self.x)
        self.grad_calls += n
        self.table_mean = self.table.mean(axis=0)
        self.g = self.table_mean.copy()

    def step(self, x_t, rng):
        problem = self.problem
        x_t = np.asarray(x_t, dtype=float)
        batch = _draw_batch(rng, problem.n_components, self.b)
        g_cur = problem.component_grads(batch, x_t)
        g_prev = problem.component_grads(batch, self.x)
        self.grad_calls += 2 * self.b
        old_rows = self.table[batch]
        chain = (g_cur - g_prev).mean(axis=0)
        control = (g_prev - old_rows).mean(axis=0) + self.table_mean
        self.g = chain + (1.0 - self.lam) * self.g + self.lam * control
        self.table[batch] = g_cur
        self.table_mean = self.table_mean + (g_cur - old_rows).sum(axis=0) / problem.n_components
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        diff = self.problem.all_component_grads(self.x) - self.table
        return float((diff * diff).sum(axis=1).mean())

    def constants(self):
        return constants("zerosarah", b=self.b, n=self.problem.n_components)

    def clone(self):
        c = object.__new__(ZeroSARAH)
        self._copy_base(c)
        c.b, c.lam = self.b, self.lam
        c.table = self.table.copy()
        c.table_mean = self.table_mean.copy()
        return c


class _ClientServerEstimator(GradientEstimator):
    """Shared plumbing for the simulated client/server methods.

    Clients are sub-problems over a partition of the components; the
    server aggregate weights each client by its share of the components,
    which reduces to the plain average for equal shards.  Client order
    is fixed, so aggregation is bitwise reproducible.  The initial state
    is communicated dense (d values per client); afterwards clients only
    send compressed messages, and the two ledgers stay separate so that
    claim can be audited.
    """

    def __init__(self, problem, x0, client_problems, compressor, value_bits=32, index_bits=32):
        super().__init__(problem, x0)
        if not client_problems:
            raise ValueError("at least one client problem is required")
        total = sum(cp.n_components for cp in client_problems)
        if total != problem.n_components:
            raise ValueError(
                f"client shards hold {total} components, problem has {problem.n_components}"
            )
        self.clients = list(client_problems)
        self.weights = np.array(
            [cp.n_components / problem.n_components for cp in self.clients]
        )
        self.compressor = compressor
        self.value_bits = int(value_bits)
        self.index_bits = int(index_bits)

    @property
    def n_clients(self):
        return len(self.clients)

    def _client_pass(self, x):
        grads = [cp.full_grad(x) for cp in self.clients]
        self.grad_calls += self.problem.n_components
        return grads

    def _init_dense_broadcast(self):
        self.bits_dense += self.n_clients * dense_bits_cost(self.problem.dim, self.value_bits)

    def _count_message(self, message):
        self.bits_compressed += bits_cost(message, self.value_bits, self.index_bits)

    def _copy_distributed(self, other):
        self._copy_base(other)
        other.clients = self.clients
        other.weights = self.weights
        other.compressor = self.compressor
        other.value_bits = self.value_bits
        other.index_bits = self.index_bits
        return other


class EF21(_ClientServerEstimator):
    """Error-feedback estimator: each client pushes a compressed
    correction toward its local gradient; the server accumulates."""

    method = "ef21"

    def __init__(self, problem, x0, client_problems, compressor, value_bits=32, index_bits=32):
        super().__init__(problem, x0, client_problems, compressor, value_bits, index_bits)
        grads = self._client_pass(self.x)
        self.client_state = [u.copy() for u in grads]
        self.client_grads = grads
        self._init_dense_broadcast()
        self.g = sum(w * s for w, s in zip(self.weights, self.client_state))

    def step(self, x_t, rng):
        x_t = np.asarray(x_t, dtype=float)
        update = np.zeros(self.problem.dim)
        for j, cp in enumerate(self.clients):
            u = cp.full_grad(x_t)
            message = self.compressor.compress(u - self.client_state[j], rng)
            self._count_message(message)
            dense = message.to_dense()
            self.client_state[j] = self.client_state[j] + dense
            self.client_grads[j] = u
            update += self.weights[j] * dense
        self.grad_calls += self.problem.n_components
        self.g = self.g + update
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        return float(
            sum(
                w * ((s - u) ** 2).sum()
                for w, s, u in zip(self.weights, self.client_state, self.client_grads)
            )
        )

    def constants(self):
        return constants("ef21", delta=self.compressor.delta)

    def clone(self):
        c = object.__new__(EF21)
        self._copy_distributed(c)
        c.client_state = [s.copy() for s in self.client_state]
        c.client_grads = [u.copy() for u in self.client_grads]
        return c


class DIANA(_ClientServerEstimator):
    """Shift-compensated unbiased-compression estimator: clients
    compress the residual against a slowly moving local shift."""

    method = "diana"

    def __init__(self, problem, x0, client_problems, compressor, value_bits=32, index_bits=32):
        super().__init__(problem, x0, client_problems, compressor, value_bits, index_bits)
        if not getattr(compressor, "unbiased", False):
            raise ValueError("this method needs an unbiased compressor")
        self.omega = float(compressor.omega)
        grads = self._client_pass(self.x)
        self.shifts = [u.copy() for u in grads]
        self.client_grads = grads
        self._init_dense_broadcast()
        self.server_shift = sum(w * h for w, h in zip(self.weights, self.shifts))
        self.g = self.server_shift.copy()

    def step(self, x_t, rng):
        x_t = np.asarray(x_t, dtype=float)
        agg = np.zeros(self.problem.dim)
        for j, cp in enumerate(self.clients):
            u = cp.full_grad(x_t)
            message = self.compressor.compress(u - self.shifts[j], rng)
            self._count_message(message)
            dense = message.to_dense()
            agg += self.weights[j] * dense
            self.shifts[j] = self.shifts[j] + dense / (self.omega + 1.0)
            self.client_grads[j] = u
        self.grad_calls += self.problem.n_components
        # estimate uses the PRE-update server shift, so an identity
        # compressor telescopes back to the exact gradient
        self.g = self.server_shift + agg
        self.server_shift = self.server_shift + agg / (self.omega + 1.0)
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        return float(
            sum(
                w * ((h - u) ** 2).sum()
                for w, h, u in zip(self.weights, self.shifts, self.client_grads)
            )
        )

    def shift_mismatch(self, x):
        """Mean squared client-gradient-to-shift distance at an arbitrary
        point, with the shifts as they currently stand.  This is the
        auxiliary quantity the estimate-error recursion couples to."""
        return float(
            sum(
                w * ((cp.full_grad(x) - h) ** 2).sum()
                for w, cp, h in zip(self.weights, self.clients, self.shifts)
            )
        )

    def constants(self):
        return constants("diana", omega=self.omega, n_clients=self.n_clients)

    def clone(self):
        c = object.__new__(DIANA)
        self._copy_distributed(c)
        c.omega = self.omega
        c.shifts = [h.copy() for h in self.shifts]
        c.client_grads = [u.copy() for u in self.client_grads]
        c.server_shift = self.server_shift.copy()
        return c


class DASHA(_ClientServerEstimator):
    """Momentum-compressed difference estimator: clients compress the
    gradient difference damped by 1/(2*omega+1) of their own estimate
    error, so nothing dense is ever sent after the first pass."""

    method = "dasha"

    def __init__(self, problem, x0, client_problems, compressor, value_bits=32, index_bits=32):
        super().__init__(problem, x0, client_problems, compressor, value_bits, index_bits)
        if not getattr(compressor, "unbiased", False):
            raise ValueError("this method needs an unbiased compressor")
        self.omega = float(compressor.omega)
        self.eta = 1.0 / (2.0 * self.omega + 1.0)
        grads = self._client_pass(self.x)
        self.client_state = [u.copy() for u in grads]
        self.prev_grads = grads
        self._init_dense_broadcast()
        self.g = sum(w * s for w, s in zip(self.weights, self.client_state))

    def step(self, x_t, rng):
        x_t = np.asarray(x_t, dtype=float)
        agg = np.zeros(self.problem.dim)
        for j, cp in enumerate(self.clients):
            u = cp.full_grad(x_t)
            momentum = u - self.prev_grads[j] - self.eta * (self.client_state[j] - self.prev_grads[j])
            message = self.compressor.compress(momentum, rng)
            self._count_message(message)
            dense = message.to_dense()
            self.client_state[j] = self.client_state[j] + dense
            agg += self.weights[j] * dense
            self.prev_grads[j] = u
        self.grad_calls += self.problem.n_components
        self.g = self.g + agg
        self.x = x_t.copy()
        return self.g

    def sigma_sq(self):
        return float(
            sum(
                w * ((s - u) ** 2).sum()
                for w, s, u in zip(self.weights, self.client_state, self.prev_grads)
            )
        )

    def constants(self):
        return constants("dasha", omega=self.omega, n_clients=self.n_clients)

    def clone(self):
        c = object.__new__(DASHA)
        self._copy_distributed(c)
        c.omega, c.eta = self.omega, self.eta
        c.client_state = [s.copy() for s in self.client_state]
        c.prev_grads = [u.copy() for u in self.prev_grads]
        return c


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

    def clone(self):
        c = object.__new__(SEGA)
        self._copy_base(c)
        c.b = self.b
        c.memory = self.memory.copy()
        return c


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

    def clone(self):
        c = object.__new__(JAGUAR)
        self._copy_base(c)
        c.b = self.b
        return c


def make_estimator(method, problem, x0, hyperparams=None, **kwargs):
    """Build an initialized estimator.

    Hyperparameter keys by method: b, p, with_replacement (batch
    methods); b (coordinate methods, bounded by the dimension);
    n_clients, compressor (topk|randk|identity), k, value_bits,
    index_bits, scheme (client-server methods).  Client shards may be
    supplied directly via ``client_problems``.  The construction runs
    one full gradient pass, so the estimate starts exact.
    """
    hp = dict(hyperparams or {})
    hp.update(kwargs)
    method = method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "lsvrg":
        return LSVRG(problem, x0, hp["b"], hp["p"], hp.get("with_replacement", False))
    if method == "saga":
        return SAGA(problem, x0, hp["b"])
    if method == "page":
        return PAGE(problem, x0, hp["b"], hp["p"], hp.get("with_replacement", False))
    if method == "zerosarah":
        return ZeroSARAH(problem, x0, hp["b"])
    if method == "sega":
        return SEGA(problem, x0, hp["b"])
    if method == "jaguar":
        return JAGUAR(problem, x0, hp["b"])
    # client-server methods
    clients = hp.get("client_problems")
    if clients is None:
        n_clients = int(hp.get("n_clients", 10))
        clients = partition_problem(problem, n_clients, hp.get("scheme", "contiguous"))
    comp = hp.get("compressor") or "identity"
    if isinstance(comp, str):
        comp = make_compressor(comp, problem.dim, hp.get("k"))
    common = dict(
        value_bits=hp.get("value_bits", 32), index_bits=hp.get("index_bits", 32)
    )
    if method == "ef21":
        return EF21(problem, x0, clients, comp, **common)
    if method == "diana":
        return DIANA(problem, x0, clients, comp, **common)
    return DASHA(problem, x0, clients, comp, **common)


def init(method, problem, hyperparams, x0):
    """Functional alias for make_estimator (state-style interface)."""
    return make_estimator(method, problem, x0, hyperparams)


def sigma_sq(state):
    return state.sigma_sq()


def _expect_method(state, method):
    if state.method != method:
        raise ValueError(f"state is for {state.method!r}, not {method!r}")


def step_lsvrg(state, x_t, rng):
    _expect_method(state, "lsvrg")
    return state.step(x_t, rng)


def step_saga(state, x_t, rng):
    _expect_method(state, "saga")
    return state.step(x_t, rng)


def step_page(state, x_t, rng):
    _expect_method(state, "page")
    return state.step(x_t, rng)


def step_zerosarah(state, x_t, rng):
    _expect_method(state, "zerosarah")
    return state.step(x_t, rng)


def _check_clients(state, client_problems):
    if client_problems is not None and len(client_problems) != state.n_clients:
        raise ValueError(
            f"state has {state.n_clients} clients, got {len(client_problems)}"
        )


def step_ef21(state, x_t, client_problems=None, compressor=None, rng=None):
    _expect_method(state, "ef21")
    _check_clients(state, client_problems)
    if compressor is not None:
        state.compressor = compressor
    return state.step(x_t, rng)


def step_diana(state, x_t, client_problems=None, compressor=None, rng=None):
    _expect_method(state, "diana")
    _check_clients(state, client_problems)
    if compressor is not None:
        state.compressor = compressor
    if rng is None:
        raise ValueError("randomized compression needs an rng")
    return state.step(x_t, rng)


def step_dasha(state, x_t, client_problems=None, compressor=None, rng=None):
    _expect_method(state, "dasha")
    _check_clients(state, client_problems)
    if compressor is not None:
        state.compressor = compressor
    if rng is None:
        raise ValueError("randomized compression needs an rng")
    return state.step(x_t, rng)


def step_sega(state, x_t, rng):
    _expect_method(state, "sega")
    return state.step(x_t, rng)


def step_jaguar(state, x_t, rng):
    _expect_method(state, "jaguar")
    return state.step(x_t, rng)
