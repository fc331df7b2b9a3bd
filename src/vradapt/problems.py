"""Finite-sum objectives with full, component, and coordinate gradient oracles.

Every objective here has the form

    f(x) = (1/n) * sum_i f_i(x)

and exposes, next to the plain loss, three gradient oracles: the full
gradient, per-component gradients, and per-coordinate partial derivatives
of f.  Instances are immutable after construction, so they can be shared
freely between concurrent runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit


class Problem:
    """Base class for averaged finite-sum objectives.

    Subclasses must set ``dim``, ``n_components``, ``smoothness`` and
    implement the component oracles.  ``smoothness`` is the uniform
    component smoothness bound: every f_i (and hence f) has an
    L-Lipschitz gradient with this L.
    """

    dim: int
    n_components: int
    smoothness: float
    pl_constant: float | None = None
    f_star: float | None = None
    x_opt: np.ndarray | None = None

    # --- component oracles (subclass responsibility) ---

    def component_loss(self, i: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def component_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def component_grads(self, indices, x: np.ndarray) -> np.ndarray:
        """Stack of component gradients, shape (len(indices), dim)."""
        return np.stack([self.component_grad(i, x) for i in np.asarray(indices)])

    # --- derived oracles ---

    def loss(self, x: np.ndarray) -> float:
        return float(
            np.mean([self.component_loss(i, x) for i in range(self.n_components)])
        )

    def all_component_grads(self, x: np.ndarray) -> np.ndarray:
        return self.component_grads(np.arange(self.n_components), x)

    def batch_grad(self, indices, x: np.ndarray) -> np.ndarray:
        """Average gradient over a batch of component indices."""
        return self.component_grads(indices, x).mean(axis=0)

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        return self.all_component_grads(x).mean(axis=0)

    def partial(self, x: np.ndarray, coord: int) -> float:
        """Coordinate derivative of the full objective."""
        return float(self.full_grad(x)[coord])

    def partials(self, x: np.ndarray, coords) -> np.ndarray:
        """Several coordinate derivatives at the same point.

        Cheaper than repeated ``partial`` calls for objectives where the
        expensive part of the gradient is shared between coordinates.
        """
        return np.array([self.partial(x, int(j)) for j in np.asarray(coords)])

    def curvature_matvec(self, v: np.ndarray) -> np.ndarray:
        """Product with the curvature upper-bound matrix whose largest
        eigenvalue equals ``smoothness``.  Used by power iteration."""
        raise NotImplementedError

    def subset(self, indices) -> "Problem":
        """New problem over a subset of the components."""
        raise NotImplementedError


@dataclass(frozen=True)
class QuadraticSpec:
    """Recipe for a synthetic quadratic with analytically known constants.

    ``eigenvalues`` holds one diagonal Hessian spectrum per component,
    shape (n, d).  All components share the optimum ``x_star``; the
    per-component value offsets are drawn from ``shift_seed`` so that
    losses differ between components while gradients stay affine.
    """

    eigenvalues: np.ndarray
    x_star: np.ndarray
    shift_seed: int = 0


class QuadraticProblem(Problem):
    """f_i(x) = 0.5 (x - x*)^T diag(eigs_i) (x - x*) + c_i."""

    def __init__(self, eigenvalues, x_star, shifts):
        eigs = np.atleast_2d(np.asarray(eigenvalues, dtype=float))
        if eigs.size == 0 or np.any(eigs <= 0):
            raise ValueError("component eigenvalues must be positive")
        self.eigs = eigs
        self.n_components, self.dim = eigs.shape
        self.x_star = np.asarray(x_star, dtype=float).reshape(self.dim)
        self.shifts = np.asarray(shifts, dtype=float).reshape(self.n_components)
        self.mean_eigs = eigs.mean(axis=0)
        self._max_eigs = eigs.max(axis=0)
        self.smoothness = float(eigs.max())
        self.pl_constant = float(self.mean_eigs.min())
        self.f_star = float(self.shifts.mean())
        self.x_opt = self.x_star.copy()

    def component_loss(self, i, x):
        z = np.asarray(x, dtype=float) - self.x_star
        return float(0.5 * (self.eigs[i] * z * z).sum() + self.shifts[i])

    def loss(self, x):
        z = np.asarray(x, dtype=float) - self.x_star
        return float(0.5 * (self.mean_eigs * z * z).sum() + self.f_star)

    def component_grad(self, i, x):
        z = np.asarray(x, dtype=float) - self.x_star
        return self.eigs[i] * z

    def component_grads(self, indices, x):
        z = np.asarray(x, dtype=float) - self.x_star
        return self.eigs[np.asarray(indices)] * z

    def all_component_grads(self, x):
        z = np.asarray(x, dtype=float) - self.x_star
        return self.eigs * z

    def full_grad(self, x):
        z = np.asarray(x, dtype=float) - self.x_star
        return self.mean_eigs * z

    def partial(self, x, coord):
        return float(self.mean_eigs[coord] * (x[coord] - self.x_star[coord]))

    def partials(self, x, coords):
        coords = np.asarray(coords)
        return self.mean_eigs[coords] * (np.asarray(x, dtype=float)[coords] - self.x_star[coords])

    def curvature_matvec(self, v):
        return self._max_eigs * np.asarray(v, dtype=float)

    def subset(self, indices):
        idx = np.asarray(indices)
        return QuadraticProblem(self.eigs[idx], self.x_star, self.shifts[idx])


def quadratic_problem(spec: QuadraticSpec) -> QuadraticProblem:
    """Build the quadratic objective described by ``spec``.

    Raises ValueError when any eigenvalue is nonpositive.
    """
    eigs = np.atleast_2d(np.asarray(spec.eigenvalues, dtype=float))
    shifts = np.random.default_rng(spec.shift_seed).standard_normal(eigs.shape[0])
    return QuadraticProblem(eigs, spec.x_star, shifts)


def make_quadratic(n_components, dim, seed=0, eig_range=(0.5, 2.0), cond=1.0):
    """Convenience fixture: seeded random spectra and optimum.

    ``eig_range=(L, L)`` gives the equal-curvature variant where every
    component Hessian is L times the identity.  ``cond`` > 1 scales the
    coordinates geometrically so the averaged objective has roughly that
    condition number; without it, averaging n random spectra washes the
    conditioning out and iterates converge too fast for long-horizon
    rate measurements.
    """
    rng = np.random.default_rng(seed)
    lo, hi = eig_range
    if not 0 < lo <= hi:
        raise ValueError("eigenvalue range must be positive and ordered")
    if cond < 1.0:
        raise ValueError(f"cond must be >= 1, got {cond}")
    if lo == hi:
        eigs = np.full((n_components, dim), float(lo))
    else:
        eigs = rng.uniform(lo, hi, size=(n_components, dim))
    if cond > 1.0 and dim > 1:
        scales = cond ** (-np.arange(dim) / (dim - 1))
        eigs = eigs * scales
    x_star = rng.standard_normal(dim)
    shifts = rng.standard_normal(n_components)
    return QuadraticProblem(eigs, x_star, shifts)


class LogisticProblem(Problem):
    """Binary logistic regression over a sparse design matrix.

    f_i(x) = log(1 + exp(-b_i <a_i, x>)) with labels b_i in {-1, +1};
    the objective is the average over rows.  The smoothness constant is
    the largest eigenvalue of (1/(4n)) A^T A, found by power iteration
    at construction (200 iterations, seeded start).

    Storage, built once and shared by every oracle:

    * ``X``: the rows as a CSR matrix (n x d); ``loss`` and the curvature
      product read it.
    * ``XT``: A^T as a CSR matrix (d x n), a transposed view of A's CSC
      arrays, one stored row per feature; ``full_grad``, ``partials``
      and the curvature product read it.
    * ``_cols``, ``_vals``: the rows padded to a common width (at least
      1), int32 column indices and float values; padding points at an
      extra column ``d`` with value 0.0.  ``component_grads`` gathers
      batches from these, with x extended by a trailing 0.0.

    Every oracle result is bit-identical, down to the sign of zeros, to
    the plain scipy CSR expressions (``X[idx]`` -> ``.multiply`` ->
    ``.toarray()``, ``X.T @ w``, a per-column ``getcol`` loop): each sum
    runs left to right over a row's stored entries, in the order of the
    sparse kernels, and gradient entries land on +0.0 as in scipy's
    sparse-to-dense conversion.  Reordering a sum (BLAS on a dense copy,
    ``.sum(axis=1)``, ``np.add.reduceat``) moves results in the last bit
    and with them every trace hash.
    """

    POWER_ITERATIONS = 200

    def __init__(self, dataset):
        n = dataset.n
        if n == 0:
            raise ValueError("dataset is empty")
        labels = np.asarray(dataset.labels, dtype=float)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1/+1; normalize the dataset first")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(row) for row in dataset.indices], out=indptr[1:])
        X = csr_matrix(
            (
                np.concatenate(dataset.values).astype(float),
                np.concatenate(dataset.indices).astype(np.int64),
                indptr,
            ),
            shape=(n, dataset.d),
        )
        self._build(X, labels)

    def _build(self, X, y):
        self.X = X
        self.y = y
        self.n_components, self.dim = X.shape
        self.XT = X.tocsc().T
        lengths = np.diff(X.indptr)
        width = max(1, int(lengths.max()))
        filled = np.arange(width) < lengths[:, None]
        self._cols = np.full((self.n_components, width), self.dim, dtype=np.int32)
        self._cols[filled] = X.indices
        self._vals = np.zeros((self.n_components, width))
        self._vals[filled] = X.data
        self.smoothness = estimate_smoothness(self, self.POWER_ITERATIONS, seed=0)

    def _margins(self, x):
        return self.y * (self.X @ np.asarray(x, dtype=float))

    def loss(self, x):
        return float(np.logaddexp(0.0, -self._margins(x)).mean())

    def component_loss(self, i, x):
        m = self.y[i] * float(self.X.getrow(i) @ np.asarray(x, dtype=float))
        return float(np.logaddexp(0.0, -m))

    def component_grad(self, i, x):
        row = self.X.getrow(i)
        m = self.y[i] * float(row @ np.asarray(x, dtype=float))
        g = np.zeros(self.dim)
        g[row.indices] = -self.y[i] * expit(-m) * row.data
        return g

    def component_grads(self, indices, x):
        idx = np.asarray(indices)
        cols = self._cols[idx]
        vals = self._vals[idx]
        y = self.y[idx]
        xe = np.append(np.asarray(x, dtype=float), 0.0)
        # cumsum accumulates left to right like the CSR row kernel;
        # .sum(axis=1) would sum pairwise and differ in the last bit
        m = y * np.cumsum(vals * xe[cols], axis=1)[:, -1]
        scaled = vals * (-y * expit(-m))[:, None]
        # sparse-to-dense accumulates into +0.0, which turns -0.0 into +0.0
        scaled += 0.0
        out = np.zeros((len(idx), self.dim + 1))
        out[np.arange(len(idx))[:, None], cols] = scaled
        return out[:, : self.dim]

    def all_component_grads(self, x):
        return self.component_grads(np.arange(self.n_components), x)

    def full_grad(self, x):
        w = -self.y * expit(-self._margins(x))
        return (self.XT @ w) / self.n_components

    def partials(self, x, coords):
        w = -self.y * expit(-self._margins(x))
        return (self.XT[np.asarray(coords, dtype=np.intp)] @ w) / self.n_components

    def partial(self, x, coord):
        return float(self.partials(x, [coord])[0])

    def curvature_matvec(self, v):
        return (self.XT @ (self.X @ np.asarray(v, dtype=float))) / (4.0 * self.n_components)

    def subset(self, indices):
        idx = np.asarray(indices)
        if len(idx) == 0:
            raise ValueError("dataset is empty")
        sub = object.__new__(LogisticProblem)
        sub._build(self.X[idx], self.y[idx])
        return sub


def logistic_problem(dataset) -> LogisticProblem:
    """Logistic regression objective over a parsed dataset."""
    return LogisticProblem(dataset)


def estimate_smoothness(problem, iterations, seed=0):
    """Largest eigenvalue of the problem's curvature bound, by power iteration.

    Deterministic given the seed.  Returns 0.0 for a vanishing curvature
    operator.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(problem.dim)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = np.ones(problem.dim)
        norm = np.linalg.norm(v)
    v /= norm
    estimate = 0.0
    for _ in range(iterations):
        w = problem.curvature_matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        estimate = float(v @ w)
        v = w / norm
    return float(estimate)


def partition_problem(problem, n_clients, scheme="contiguous"):
    """Split the component index set across clients.

    ``contiguous`` gives ceiling-split blocks, e.g. 10 components over 3
    clients -> sizes (4, 3, 3); ``round-robin`` deals indices out in
    turn.  The size-weighted average of client gradients reproduces the
    global gradient.
    """
    n = problem.n_components
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if n_clients > n:
        raise ValueError(
            f"cannot split {n} components across {n_clients} clients"
        )
    if scheme == "contiguous":
        base, rem = divmod(n, n_clients)
        groups = []
        start = 0
        for j in range(n_clients):
            size = base + (1 if j < rem else 0)
            groups.append(np.arange(start, start + size))
            start += size
    elif scheme == "round-robin":
        groups = [np.arange(j, n, n_clients) for j in range(n_clients)]
    else:
        raise ValueError(f"unknown partition scheme: {scheme!r}")
    return [problem.subset(g) for g in groups]
