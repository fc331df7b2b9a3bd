"""Finite-sum objectives with full, component, and coordinate gradient oracles.

Every objective here has the form

    f(x) = (1/n) * sum_i f_i(x)

and exposes, next to the plain loss, three gradient oracles: the full
gradient, per-component gradients, and per-coordinate partial derivatives
of f.  Instances are immutable after construction, so they can be shared
freely between concurrent runs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, vstack
from scipy.special import expit


class Problem:
    """Base class for averaged finite-sum objectives.

    Subclasses set ``dim``, ``n_components`` and ``smoothness`` and
    implement every oracle at a point x:

    * ``loss(x)``: the objective f(x);
    * ``component_rows(indices, *points)``: the batch's gradients on
      its support, ``(cols, [rows at each point])``: ``cols`` is an
      (len(indices), width) int array of columns, and row i of each
      ``rows`` array holds component i's gradient entries at those
      columns.  Columns equal to ``dim`` are padding (value +0.0);
    * ``component_grads(indices, x)``: gradient stack, (len(indices), dim),
      the dense scatter of ``component_rows``;
    * ``all_component_grads(x)``: the stack over all n components;
    * ``full_grad(x)``: the gradient of f;
    * ``loss_and_grad(x)``: ``(loss(x), full_grad(x))`` from one pass,
      each bit-equal to its own oracle;
    * ``partials(x, coords)``: coordinate derivatives of f;
    * ``curvature_matvec(v)``: product with the curvature upper-bound
      matrix whose largest eigenvalue equals ``smoothness`` (used by
      power iteration);
    * ``group_grads(groups)``: built once per list of component index
      groups, a function x -> (len(groups), dim) whose row j is the
      gradient of the average of f_i over group j.

    ``smoothness`` is the uniform component smoothness bound: every f_i
    (and hence f) has an L-Lipschitz gradient with this L.
    """

    dim: int
    n_components: int
    smoothness: float
    pl_constant: float | None = None
    f_star: float | None = None
    x_opt: np.ndarray | None = None


def dense_rows(cols, rows, dim):
    """Scatter support-aligned rows, (b, width) each, into a dense
    (b, dim) array; padding columns (``dim``) are dropped."""
    out = np.zeros((len(cols), dim + 1))
    out[np.arange(len(cols))[:, None], cols] = rows
    return out[:, :dim]


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

    def loss(self, x):
        z = np.asarray(x, dtype=float) - self.x_star
        return float(0.5 * (self.mean_eigs * z * z).sum() + self.f_star)

    @cached_property
    def _cols(self):
        # every component's support is every column
        return np.broadcast_to(np.arange(self.dim), self.eigs.shape)

    def component_rows(self, indices, *points):
        idx = np.asarray(indices)
        eigs = self.eigs[idx]
        return self._cols[idx], [eigs * (np.asarray(x, dtype=float) - self.x_star) for x in points]

    def component_grads(self, indices, x):
        # the support is every column, so the rows are already dense
        return self.component_rows(indices, x)[1][0]

    def all_component_grads(self, x):
        z = np.asarray(x, dtype=float) - self.x_star
        return self.eigs * z

    def full_grad(self, x):
        z = np.asarray(x, dtype=float) - self.x_star
        return self.mean_eigs * z

    def loss_and_grad(self, x):
        return self.loss(x), self.full_grad(x)

    def partials(self, x, coords):
        coords = np.asarray(coords)
        return self.mean_eigs[coords] * (np.asarray(x, dtype=float)[coords] - self.x_star[coords])

    def curvature_matvec(self, v):
        return self._max_eigs * np.asarray(v, dtype=float)

    def group_grads(self, groups):
        means = np.array([self.eigs[g].mean(axis=0) for g in groups])
        return lambda x: means * (np.asarray(x, dtype=float) - self.x_star)


def make_quadratic(n_components, dim, seed=0, eig_range=(0.5, 2.0), cond=1.0):
    """Convenience fixture: seeded random spectra and optimum.

    ``eig_range=(L, L)`` gives the equal-curvature variant where every
    component Hessian is L times the identity.  ``cond`` > 1 scales the
    coordinates geometrically so the averaged objective has roughly that
    condition number; without it, averaging n random spectra washes the
    conditioning out and iterates converge too fast for long-horizon
    rate measurements.
    """
    if n_components < 1:
        raise ValueError(f"quadratic needs n >= 1 components, got n={n_components}")
    if dim < 1:
        raise ValueError(f"quadratic needs d >= 1 dimensions, got d={dim}")
    rng = np.random.default_rng(seed)
    lo, hi = eig_range
    if not 0 < lo <= hi < np.inf:
        raise ValueError("eigenvalue range must be positive, finite and ordered")
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
    at construction (200 iterations, seeded start), which stops as soon
    as its unit vector repeats exactly: the estimate is then the 200th
    iteration's, read off the cycle (``estimate_smoothness``).

    Storage, built once and shared by every oracle:

    * ``X``: the dataset's CSR arrays (``indptr``, ``indices``,
      ``values``) as a CSR matrix (n x d), not concatenated again
      (scipy may narrow the index arrays to int32); the margin pass of
      ``loss``, ``full_grad``, ``loss_and_grad``, ``partials`` and
      ``group_grads``, and the curvature product read it.
    * ``XT``: A^T as a CSR matrix (d x n), a transposed view of A's CSC
      arrays, one stored row per feature; ``full_grad``,
      ``loss_and_grad``, ``partials`` and the curvature product read it.
    * ``_cols``, ``_vals``: the rows padded to a common width (at least
      1), int32 column indices and float values; padding points at an
      extra column ``d`` with value 0.0.  ``component_rows`` gathers a
      batch from these once for all its points, with x extended by a
      trailing 0.0, and returns the gathered ``_cols`` as the support;
      ``component_grads`` scatters its rows to dense.

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
        self.X = X = csr_matrix(
            (np.asarray(dataset.values, dtype=float), dataset.indices, dataset.indptr),
            shape=(n, dataset.d),
        )
        self.y = labels
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

    def loss_and_grad(self, x):
        m = self._margins(x)
        w = -self.y * expit(-m)
        return float(np.logaddexp(0.0, -m).mean()), (self.XT @ w) / self.n_components

    def component_rows(self, indices, *points):
        idx = np.asarray(indices)
        cols = self._cols[idx]
        vals = self._vals[idx]
        y = self.y[idx]
        rows = []
        for x in points:
            xe = np.append(np.asarray(x, dtype=float), 0.0)
            # cumsum accumulates left to right like the CSR row kernel;
            # .sum(axis=1) would sum pairwise and differ in the last bit
            m = y * np.cumsum(vals * xe[cols], axis=1)[:, -1]
            scaled = vals * (-y * expit(-m))[:, None]
            # sparse-to-dense accumulates into +0.0, which turns -0.0 into +0.0
            scaled += 0.0
            rows.append(scaled)
        return cols, rows

    def component_grads(self, indices, x):
        cols, (rows,) = self.component_rows(indices, x)
        return dense_rows(cols, rows, self.dim)

    def all_component_grads(self, x):
        return self.component_grads(np.arange(self.n_components), x)

    def full_grad(self, x):
        w = -self.y * expit(-self._margins(x))
        return (self.XT @ w) / self.n_components

    def partials(self, x, coords):
        # each entry of the whole product X^T w is the row sum that
        # X^T[coords] @ w gives, in the same order; the one product costs
        # less than scipy's fancy row gather
        w = -self.y * expit(-self._margins(x))
        return (self.XT @ w)[np.asarray(coords, dtype=np.intp)] / self.n_components

    def curvature_matvec(self, v):
        return (self.XT @ (self.X @ np.asarray(v, dtype=float))) / (4.0 * self.n_components)

    def group_grads(self, groups):
        """One stacked CSR, (len(groups) * dim) x n, holds each group's Xᵀ
        (``X[g].tocsc().T``, columns mapped back to global rows), so one
        margin pass and one product give every row, each sum in the order
        ``full_grad`` on the group's rows alone would run it."""
        shape = (self.dim, self.n_components)
        blocks = []
        for g in map(np.asarray, groups):
            local = self.X[g].tocsc()
            blocks.append(csr_matrix((local.data, g[local.indices], local.indptr), shape=shape))
        stacked = vstack(blocks, format="csr")
        sizes = np.array([len(g) for g in groups], dtype=float)[:, None]

        def grads(x):
            w = -self.y * expit(-self._margins(x))
            return (stacked @ w).reshape(len(sizes), self.dim) / sizes

        return grads


def logistic_problem(dataset) -> LogisticProblem:
    """Logistic regression objective over a parsed dataset."""
    return LogisticProblem(dataset)


def estimate_smoothness(problem, iterations, seed=0):
    """Largest eigenvalue of the problem's curvature bound, by power iteration.

    Deterministic given the seed.  Returns 0.0 for a vanishing curvature
    operator.  Each iteration is a function of its unit vector v alone:
    once v repeats exactly (iteration i equals iteration j) the loop
    cycles with period i - j, and the last iteration's estimate is read
    off the cycle.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(problem.dim)
    v /= np.linalg.norm(v)
    seen, estimates = {}, []
    for i in range(iterations):
        j = seen.setdefault(v.tobytes(), i)
        if j < i:
            return estimates[j + (iterations - 1 - j) % (i - j)]
        w = problem.curvature_matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        estimates.append(float(v @ w))
        v = w / norm
    return estimates[-1]


def partition_problem(problem, n_clients, scheme="contiguous"):
    """Split the component index set across clients: one ascending int
    array of component indices per client.

    ``contiguous`` gives ceiling-split blocks, e.g. 10 components over 3
    clients -> sizes (4, 3, 3); ``round-robin`` deals indices out in
    turn.  The size-weighted average of the rows of
    ``problem.group_grads(groups)`` reproduces the global gradient.
    """
    n = problem.n_components
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if n_clients > n:
        raise ValueError(
            f"cannot split {n} components across {n_clients} clients"
        )
    if scheme == "contiguous":
        return np.array_split(np.arange(n), n_clients)
    if scheme == "round-robin":
        return [np.arange(j, n, n_clients) for j in range(n_clients)]
    raise ValueError(f"unknown partition scheme: {scheme!r}")
