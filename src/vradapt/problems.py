"""Finite-sum objectives with full, component, and coordinate gradient oracles.

Every objective here has the form

    f(x) = (1/n) * sum_i f_i(x)

and exposes, next to the plain loss, three gradient oracles: the full
gradient, per-component gradients, and per-coordinate partial derivatives
of f.  Instances do not change after construction, so they can be shared
freely between concurrent runs; the one exception is the logistic
problem's scratch space, which each thread keeps for itself: its batch
matrices and its last margin pass.
"""

from __future__ import annotations

import threading
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
    * ``partials(x, coords)``: coordinate derivatives of f, each
      bit-equal to that entry of ``full_grad(x)``;
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
    the largest eigenvalue of (1/(4n)) A^T A, found at construction by
    200 power iterations from a seeded start (``_power_iteration``).

    ``loss`` and ``loss_and_grad`` both take the loss from the margins m
    as mean(max(-m, 0) + log1p(exp(-|m|))), one vectorised expression
    (``_mean_logistic_loss``).  That is the formula inside
    ``np.logaddexp(0, -m)``, which makes scalar libm calls per entry;
    numpy's vectorised ``exp`` and ``log1p`` take about a fifth of its
    time (4000 margins, x86-64) and round differently, by at most 2 ulp
    per entry (equal at m = +-0, +-inf, nan and +-710).  The gradients
    stay on ``expit``.

    Storage, built once and shared by every oracle:

    * ``X``: the dataset's CSR arrays (``indptr``, ``indices``,
      ``values``) as a CSR matrix (n x d), not concatenated again
      (scipy may narrow the index arrays to int32); the margin pass
      (``_margin_pass``) and the power iteration read it.
    * ``XT``: A^T as a CSR matrix (d x n), a transposed view of A's CSC
      arrays, one stored row per feature; ``full_grad``,
      ``loss_and_grad`` and the power iteration read it.  ``partials``
      copies the stored entries of the sampled features' rows, in
      order, from slices of its arrays into a CSR batch matrix, b x n
      (``_column_batch``), and applies it to w: only the b sampled
      column sums, each in the order of ``XT @ w``, at a cost that
      follows those columns' own entry counts.
    * ``_cols``, ``_vals``: the rows padded to a common width (at least
      1), int32 column indices and float values; padding points at an
      extra column ``d`` with value 0.0.  ``component_rows`` gathers a
      batch from these into a CSR batch matrix, b x (d + 1), and takes
      every point's margins from one product with the (d + 1, points)
      stack of the points, whose row ``d`` is 0.0; it returns a copy of
      the gathered ``_cols`` as the support and fresh row arrays.
      ``component_grads`` scatters its rows to dense.

    Besides these, each thread keeps its own scratch
    (``threading.local``): batch matrices, one per batch size for rows
    and one for columns, built on first use and overwritten by that
    thread's next ``component_rows`` or ``partials`` call with that
    size; and its last margin pass, m = y * (X @ x) and the weights
    w = -y * expit(-m), keyed by x's bytes.  ``loss``, ``full_grad``,
    ``loss_and_grad``, ``partials`` and every ``group_grads`` function
    read the pass, so the oracles called at one point pass over the rows
    once (a trace record after a step, SEGA's partials at its previous
    point).  The scratch is the only state an instance changes after
    construction.

    Every gradient oracle result is bit-identical, down to the sign of
    zeros, to the plain scipy CSR expressions (``X[idx]`` -> ``.multiply``
    -> ``.toarray()``, ``X.T @ w``, a per-column ``getcol`` loop): each
    sum runs left to right over a row's stored entries, in the order of
    the sparse kernels, and gradient entries land on +0.0 as in scipy's
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
        self._scratch = _Scratch()
        self.smoothness = self._power_iteration()

    def __getstate__(self):
        # the scratch is per thread, and a threading.local does not pickle
        return {**vars(self), "_scratch": None}

    def __setstate__(self, state):
        vars(self).update(state, _scratch=_Scratch())

    def _power_iteration(self, iterations=POWER_ITERATIONS):
        """Largest eigenvalue of (1/(4n)) A^T A after ``iterations``
        power iterations from a seeded start; 0.0 if the product vanishes.

        Each iteration is a function of its unit vector v alone: once v
        repeats exactly (iteration i equals iteration j) the loop cycles
        with period i - j, and the last iteration's estimate is read off
        the cycle.
        """
        v = np.random.default_rng(0).standard_normal(self.dim)
        v /= np.linalg.norm(v)
        seen, estimates = {}, []
        for i in range(iterations):
            j = seen.setdefault(v.tobytes(), i)
            if j < i:
                return estimates[j + (iterations - 1 - j) % (i - j)]
            w = (self.XT @ (self.X @ v)) / (4.0 * self.n_components)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                return 0.0
            estimates.append(float(v @ w))
            v = w / norm
        return estimates[-1]

    def _margin_pass(self, x):
        """``(m, w)`` at x: the margins m = y * (X @ x) and the weights
        w = -y * expit(-m), whose column sums over n are the gradient.
        This thread keeps the pass for the last x, keyed by x's bytes, so
        the oracles called at one point share one pass, and an x changed
        in place is passed again."""
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        scratch = self._scratch
        if scratch.key != key:
            m = self.y * (self.X @ x)
            scratch.key, scratch.margins = key, (m, -self.y * expit(-m))
        return scratch.margins

    def loss(self, x):
        return _mean_logistic_loss(self._margin_pass(x)[0])

    def loss_and_grad(self, x):
        m, w = self._margin_pass(x)
        return _mean_logistic_loss(m), (self.XT @ w) / self.n_components

    def _batch_matrix(self, size):
        """This thread's CSR matrix, size x (d + 1), for batches of
        ``size`` padded rows; ``component_rows`` overwrites its data and
        indices on each call."""
        matrices = self._scratch.rows
        if size not in matrices:
            width = self._cols.shape[1]
            nnz = size * width
            matrices[size] = csr_matrix(
                (np.zeros(nnz), np.zeros(nnz, dtype=np.int32), np.arange(0, nnz + 1, width)),
                shape=(size, self.dim + 1),
            )
        return matrices[size]

    def _column_batch(self, coords):
        """This thread's CSR matrix, len(coords) x n, for batches of that
        many features, holding ``XT``'s rows ``coords``: their stored
        entries, in order, copied from slices of ``XT``'s arrays.  The
        call replaces its index and value arrays and rewrites its row
        pointers; building a CSR matrix per call would cost more than
        ``XT @ w``."""
        size = len(coords)
        matrices = self._scratch.columns
        if size not in matrices:
            matrices[size] = batch = csr_matrix((size, self.n_components))
            batch.indptr = np.zeros(size + 1, dtype=self.XT.indptr.dtype)
        batch = matrices[size]
        starts = self.XT.indptr[coords]
        lengths = self.XT.indptr[coords + 1] - starts
        np.cumsum(lengths, out=batch.indptr[1:])
        # each gathered entry's position in XT's arrays
        at = np.arange(batch.indptr[-1]) + np.repeat(starts - batch.indptr[:-1], lengths)
        batch.indices = self.XT.indices[at]
        batch.data = self.XT.data[at]
        return batch

    def component_rows(self, indices, *points):
        idx = np.asarray(indices)
        batch = self._batch_matrix(len(idx))
        cols = batch.indices.reshape(len(idx), self._cols.shape[1])
        vals = batch.data.reshape(cols.shape)
        np.take(self._cols, idx, axis=0, out=cols)
        np.take(self._vals, idx, axis=0, out=vals)
        xe = np.zeros((self.dim + 1, len(points)))
        for j, x in enumerate(points):
            xe[: self.dim, j] = x
        # the CSR kernel sums each row left to right from 0.0, the order
        # of X @ x; a dense or pairwise sum would differ in the last bit
        y = self.y[idx]
        m = y * (batch @ xe).T
        scaled = vals * (-y * expit(-m))[:, :, None]
        # sparse-to-dense accumulates into +0.0, which turns -0.0 into +0.0
        scaled += 0.0
        return cols.copy(), list(scaled)

    def component_grads(self, indices, x):
        cols, (rows,) = self.component_rows(indices, x)
        return dense_rows(cols, rows, self.dim)

    def all_component_grads(self, x):
        return self.component_grads(np.arange(self.n_components), x)

    def full_grad(self, x):
        return (self.XT @ self._margin_pass(x)[1]) / self.n_components

    def partials(self, x, coords):
        # the CSR kernel sums each gathered row left to right from +0.0,
        # as XT @ w sums that feature's row
        batch = self._column_batch(np.asarray(coords, dtype=np.intp))
        return (batch @ self._margin_pass(x)[1]) / self.n_components

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
            w = self._margin_pass(x)[1]
            return (stacked @ w).reshape(len(sizes), self.dim) / sizes

        return grads


class _Scratch(threading.local):
    """A logistic problem's per-thread scratch: the batch matrices by
    batch size, ``rows`` for ``component_rows`` and ``columns`` for
    ``partials``, and the last margin pass with its key."""

    def __init__(self):
        self.rows = {}
        self.columns = {}
        self.key = self.margins = None


def _mean_logistic_loss(m):
    """mean(log(1 + exp(-m))) over the margins m, stable at any m."""
    return float((np.maximum(-m, 0.0) + np.log1p(np.exp(-np.abs(m)))).mean())


def logistic_problem(dataset) -> LogisticProblem:
    """Logistic regression objective over a parsed dataset."""
    return LogisticProblem(dataset)


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
