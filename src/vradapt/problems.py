"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) with full, component
and coordinate gradient oracles (``Problem``).

A problem does not change after construction, so concurrent runs may
share one; ``LogisticProblem`` names what it builds on first use.  Only
the logistic problem runs on scipy (``_import_scipy``).
"""

from __future__ import annotations

import functools

import numpy as np

from .data import check_count

_sparsetools = csr_matrix = None


def _import_scipy():
    """Bind the two names above, None at import, to ``scipy.sparse``'s
    objects.  ``LogisticProblem`` calls it when one is built or
    unpickled, so ``import vradapt``, quadratic problems and the commands
    that use only them (``verify``, ``constants``, a quadratic ``run``)
    load no scipy, which would be most of a short command's start-up
    time and memory.  Each call binds the names again, so a name patched before a
    problem is built is not kept."""
    global _sparsetools, csr_matrix
    from scipy.sparse import _sparsetools, csr_matrix


class Problem:
    """Base class for averaged finite-sum objectives.

    Subclasses provide ``dim``, ``n_components`` and ``smoothness`` and
    every oracle but ``all_component_grads``; each oracle takes only a
    point of shape (dim,) (``_point``).

    A component gradient is a coefficient times a fixed map: grad f_i(x)
    = J_i^T c_i(x), with J_i the row a_i and c_i(x) one scalar on a
    linear model, J_i the identity and c_i(x) the (dim,) gradient on the
    quadratic.  The batch oracles work on coefficients, so a caller that
    keeps or differences gradients keeps or differences coefficients,
    and sums a batch once:

    * ``loss(x)``, ``full_grad(x)``: the objective f and its gradient;
    * ``component_rows(indices, *points)``: ``(rows, coefs)``, the
      batch's rows gathered once and, for each point, the coefficients
      there, shape (len(points), len(indices)) or, on the quadratic,
      (len(points), len(indices), dim);
    * ``batch_sum(rows, coefs)``: for one point's coefficients, the
      (dim,) sum of J_i^T coefs[i] in batch order (``_ordered_sum``,
      ``_rmatvec``); a repeated index adds twice;
    * ``dense_rows(indices, coefs)``: the gradients J_i^T coefs[i],
      (len(indices), dim); ``component_grads(indices, x)`` and
      ``all_component_grads(x)``: those at x, for a batch or all n;
    * ``partials(x, coords)``: coordinate derivatives of f, each
      bit-equal to that entry of ``full_grad(x)``;
    * ``group_grads(groups)``: for disjoint component index groups, a
      function x -> (len(groups), dim) whose row j is the gradient of
      the average of f_i over group j.

    ``smoothness`` is the uniform component smoothness bound L: every
    f_i has an L-Lipschitz gradient.  Only the fixed steps taken from L
    (``engine._step_rule``) and the verifier read it.
    """

    dim: int
    n_components: int
    smoothness: float
    pl_constant: float | None = None
    f_star: float | None = None
    x_opt: np.ndarray | None = None

    def all_component_grads(self, x):
        return self.component_grads(np.arange(self.n_components), x)


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
        if not self.smoothness < np.inf:  # nan and inf pass the check above
            raise ValueError("component eigenvalues must be finite")
        self.pl_constant = float(self.mean_eigs.min())
        self.f_star = float(self.shifts.mean())
        self.x_opt = self.x_star.copy()

    def loss(self, x):
        z = _point(x, self.dim) - self.x_star
        return float(0.5 * (self.mean_eigs * z * z).sum() + self.f_star)

    def component_rows(self, indices, *points):
        rows = np.asarray(indices)
        eigs = self.eigs[rows]
        return rows, np.array([eigs * (_point(x, self.dim) - self.x_star) for x in points])

    def batch_sum(self, rows, coefs):
        """Column sums of the (len(rows), dim) coefficients (``_ordered_sum``)."""
        return _ordered_sum(_point(coefs, len(rows), self.dim), 0.0)

    def dense_rows(self, indices, coefs):
        return np.reshape(coefs, (len(indices), self.dim)).copy()

    def component_grads(self, indices, x):
        # take gives the rows fancy indexing does, with less overhead a call
        return self.eigs.take(indices, axis=0) * (_point(x, self.dim) - self.x_star)

    def full_grad(self, x):
        return self.mean_eigs * (_point(x, self.dim) - self.x_star)

    def partials(self, x, coords):
        coords = np.asarray(coords)
        return self.mean_eigs[coords] * (_point(x, self.dim)[coords] - self.x_star[coords])

    def group_grads(self, groups):
        means = np.array([self.eigs[g].mean(axis=0) for g in groups])
        return lambda x: means * (_point(x, self.dim) - self.x_star)


def make_quadratic(n_components, dim, seed=0, eig_range=(0.5, 2.0), cond=1.0):
    """Convenience fixture: seeded random spectra and optimum.

    ``eig_range=(L, L)`` gives the equal-curvature variant where every
    component Hessian is L times the identity.  ``cond`` > 1 scales the
    coordinates geometrically so the averaged objective has roughly that
    condition number; without it, averaging n random spectra washes the
    conditioning out and iterates converge too fast for long-horizon
    rate measurements.
    """
    n_components, dim = check_count("n", n_components), check_count("d", dim)
    rng = np.random.default_rng(seed)
    lo, hi = eig_range
    if not 0 < lo <= hi < np.inf:
        raise ValueError("eigenvalue range must be positive, finite and ordered")
    if not 1.0 <= cond < np.inf:
        raise ValueError(f"cond must be >= 1 and finite, got {cond}")
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
    """Binary logistic regression over a sparse design matrix A:
    f_i(x) = log(1 + exp(-y_i <a_i, x>)) with labels y_i in {-1, +1}.

    A component's coefficient (``Problem``) is its loss weight
    -y_i * sigma(-y_i <a_i, x>) (``_logistic_weights``), one float, so a
    table over every component holds n floats.  Products with A run
    ``_matvec``, products with A^T ``_rmatvec``, and a batch's rows come
    from ``_gather``: a batch costs its own stored entries, and every
    gradient oracle equals the plain scipy CSR expression bit for bit
    (those three and ``_scatter`` say how).  Storage, unpadded:

    * ``X``: the dataset's CSR arrays as a CSR matrix (n x d), not copied
      (scipy may narrow the index arrays to int32), and ``_row_nnz``,
      its stored entries per row.  Until ``partials`` is called, ``X``
      holds the only copy of A.
    * ``XT``, ``_col_nnz``: A^T as a CSR matrix (d x n), a transposed
      view of A's CSC arrays, and its stored entries per row, built on
      the first ``partials`` call (JAGUAR, SEGA), the one oracle that
      gathers features; a run that never calls it holds no second copy.
    * ``smoothness``: L, computed on the first read, so a run whose step
      rule reads L pays once, an adaptive, Adam or constant run never.
    * ``_scratch``: the last margin pass (``_margin_pass``), which
      ``loss``, ``full_grad``, ``partials`` and every ``group_grads``
      function read, so the oracles called at one point pass over the
      rows once (a trace record after a step, SEGA's partials at its
      previous point).

    ``XT``, L and ``_scratch`` are all an instance builds after
    construction, so threads may share one: ``_scratch`` is one
    immutable pair replaced whole, and two threads that race to build L
    or ``XT`` build equal values.  ``__init__`` and ``__setstate__`` run
    ``_import_scipy`` before anything else.
    """

    POWER_ITERATIONS = 200

    def __init__(self, dataset):
        _import_scipy()
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
        self._row_nnz = np.diff(X.indptr)
        self._scratch = None

    def __setstate__(self, state):
        _import_scipy()
        self.__dict__.update(state)

    @functools.cached_property
    def smoothness(self):
        """L, computed on first read (``_power_iteration``)."""
        return self._power_iteration()

    @functools.cached_property
    def XT(self):
        """A^T as a CSR matrix (d x n), built on first use (``partials``)."""
        return self.X.tocsc().T

    @functools.cached_property
    def _col_nnz(self):
        return np.diff(self.XT.indptr)

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
        X, n = self.X, self.n_components
        for i in range(iterations):
            j = seen.setdefault(v.tobytes(), i)
            if j < i:
                return estimates[j + (iterations - 1 - j) % (i - j)]
            Xv = _matvec(X.indptr, X.indices, X.data, v, self.dim)
            w = _rmatvec(X.indptr, X.indices, X.data, Xv, self.dim) / (4.0 * n)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                return 0.0
            estimates.append(float(v @ w))
            v = w / norm
        return estimates[-1]

    def _margin_pass(self, x):
        """``(m, w)`` at x: the margins m = y * (X @ x) and the weights
        w = -y * sigma(-m), kept in ``_scratch`` as ``(key, (m, w))``,
        keyed by x's bytes.  It is read once and replaced whole, so a
        thread gets arrays of its own key, and an x changed in place is
        passed again; x is checked first, so a point of another shape
        with the same bytes raises."""
        x = _point(x, self.dim)
        key = x.tobytes()
        scratch = self._scratch
        if scratch is None or scratch[0] != key:
            X = self.X
            m = self.y * _matvec(X.indptr, X.indices, X.data, x, self.dim)
            scratch = self._scratch = (key, (m, _logistic_weights(self.y, m)))
        return scratch[1]

    def loss(self, x):
        return _mean_logistic_loss(self._margin_pass(x)[0])

    def component_rows(self, indices, *points):
        indices = np.asarray(indices, dtype=np.intp)
        rows = _gather(self.X, self._row_nnz, indices)
        sums = np.zeros((len(points), len(indices)))
        for x, out in zip(points, sums):
            _matvec(*rows, x, self.dim, out)
        y = self.y[indices]
        return rows, _logistic_weights(y, y * sums)

    def batch_sum(self, rows, coefs):
        """(d,): ``X[idx].T @ coefs`` for the gathered rows ``(indptr,
        cols, values)`` of ``X[idx]``, which are the CSC arrays of
        ``X[idx].T``: ``_rmatvec``, which checks coefs against them."""
        return _rmatvec(*rows, coefs, self.dim)

    def dense_rows(self, indices, coefs):
        return _scatter(_gather(self.X, self._row_nnz, indices), coefs, self.dim)

    def component_grads(self, indices, x):
        # scatter the rows component_rows gathered, not a second gather
        rows, (coefs,) = self.component_rows(indices, x)
        return _scatter(rows, coefs, self.dim)

    def full_grad(self, x):
        X, w = self.X, self._margin_pass(x)[1]
        return _rmatvec(X.indptr, X.indices, X.data, w, self.dim) / self.n_components

    def partials(self, x, coords):
        w, n = self._margin_pass(x)[1], self.n_components
        return _matvec(*_gather(self.XT, self._col_nnz, coords), w, n) / n

    def group_grads(self, groups):
        """One product over X's own arrays gives every group's gradient:
        each stored entry's column index is offset by ``dim`` times its
        row's group, so group j's sums land in block j of the product, and
        rows in no group land in one more block, which is dropped.  Each
        group's rows are added in ascending row order, as ``full_grad`` on
        the group's rows alone adds them, whatever order the group lists
        them in.  A row can land in one block only, so overlapping groups
        and repeated indices raise ValueError."""
        X, d, k = self.X, self.dim, len(groups)
        owner = np.full(self.n_components, k)
        for j, g in enumerate(groups):
            owner[g] = j
        sizes = np.array([len(g) for g in groups], dtype=float)[:, None]
        if np.count_nonzero(owner < k) != sizes.sum():
            raise ValueError("group_grads needs disjoint groups without repeated indices")
        # the kernel takes one index type: X's, unless the blocks outgrow it
        dtype = np.promote_types(X.indptr.dtype, np.min_scalar_type((k + 1) * d))
        indptr = X.indptr.astype(dtype, copy=False)
        cols = np.repeat((owner * d).astype(dtype), self._row_nnz)
        cols += X.indices

        def grads(x):
            w = self._margin_pass(x)[1]
            return _rmatvec(indptr, cols, X.data, w, (k + 1) * d)[:-d].reshape(k, d) / sizes

        return grads


def _scatter(rows, coefs, dim):
    """The gathered rows ``(indptr, cols, values)``, row k times
    ``coefs[k]``, dense: (len(coefs), dim) zeros with each product at
    its row and column, a -0.0 product as +0.0, as sparse-to-dense
    conversion accumulates onto +0.0."""
    indptr, cols, values = rows
    lengths = np.diff(indptr)
    out = np.zeros((len(lengths), dim))
    scaled = values * np.repeat(coefs, lengths) + 0.0
    out[np.repeat(np.arange(len(lengths)), lengths), cols] = scaled
    return out


def _gather(A, nnz, rows):
    """Rows ``rows`` of the CSR matrix A, whose rows hold ``nnz`` stored
    entries each: the CSR arrays ``(indptr, cols, values)`` of
    ``A[rows]``, by ``csr_row_index``, the gather behind ``A[rows]``, of
    which this is the only caller.  The gather checks no bounds, so the
    rows are checked here; a negative row counts from the end."""
    rows = np.asarray(rows, dtype=np.intp)
    lengths = nnz[rows]  # IndexError outside [-n, n), as A[rows]
    rows = (rows % len(nnz)).astype(A.indptr.dtype)
    indptr = np.zeros(len(rows) + 1, dtype=A.indptr.dtype)
    np.add.accumulate(lengths, out=indptr[1:])
    cols = np.empty(indptr[-1], dtype=A.indices.dtype)
    values = np.empty(indptr[-1], dtype=A.data.dtype)
    _sparsetools.csr_row_index(len(rows), rows, A.indptr, A.indices, A.data, cols, values)
    return indptr, cols, values


def _ordered_sum(A, start):
    """The slabs of A along axis 0 added in order onto ``start``: (m, ...)
    -> (...), each entry the running sum ``cumsum`` ends on from a
    ``start`` slab.  A start of -0.0 leaves every first slab as it is
    (+0.0 would turn a column of -0.0 into +0.0); only where NaNs of both
    signs meet in one entry may the NaN that survives differ.

    The in-order rule every dense batch, client and Monte Carlo sum keeps:
    any other order (numpy's pairwise sum, BLAS) moves results in the
    last bit, and with them every pinned trace hash.  A caller puts the
    summed axis first.  numpy adds a contiguous reduced axis pairwise and
    a strided one slab by slab, so the sum is one reduce over a C-ordered
    copy of A, which adds m whole slabs one after another; a caller that
    makes A in that layout skips the copy.  Where a slab holds one
    element, the summed axis is the contiguous one, so the sum is a
    ``cumsum`` from a ``start`` slab; elsewhere the cheaper reduce.
    """
    A = np.ascontiguousarray(A)
    if A.size == len(A):  # one element per slab, or no slabs
        head = np.full((1, *A.shape[1:]), start)
        return np.cumsum(np.concatenate((head, A)), axis=0)[-1]
    return np.add.reduce(A, axis=0, initial=start)


def _point(v, *shape):
    """v as a float array of shape ``shape``, (n,) for a point;
    ValueError for any other shape."""
    v = np.asarray(v, dtype=float)
    if v.shape != shape:
        raise ValueError(f"point of shape {v.shape}, need {shape}")
    return v


def _matvec(indptr, indices, data, v, n_cols, out=None):
    """A @ v for the CSR matrix A with arrays ``(indptr, indices, data)``
    and ``n_cols`` columns, by ``csr_matvec``, the kernel scipy's ``A @ v``
    runs, called without the operator's dispatch, which costs more than
    a batch's product.  The kernel adds each row's terms left to right
    onto ``out``, zeros (fresh if not given), so each sum starts from
    +0.0, and the margins are those of ``X @ x`` and ``X[idx] @ x`` bit
    for bit.  It checks no bounds, so v is checked here.  The only
    caller of that kernel."""
    v = _point(v, n_cols)
    if out is None:
        out = np.zeros(len(indptr) - 1)
    _sparsetools.csr_matvec(len(indptr) - 1, n_cols, indptr, indices, data, v, out)
    return out


def _rmatvec(indptr, indices, data, w, n_out):
    """A.T @ w for the CSR matrix A with arrays ``(indptr, indices, data)``
    and column indices below ``n_out``, by ``csc_matvec``, the kernel
    behind scipy's ``A.T @ w``: those arrays are A.T's CSC arrays.  The
    kernel adds A's rows in order, each term onto its column's entry of
    fresh zeros, so each entry's sum runs in row order from +0.0, the
    order ``_matvec`` runs on A.T's own CSR arrays: ``X.T @ w``,
    ``XT @ w`` and a batch's ``X[idx].T @ c`` bit for bit.  The one A^T
    kernel: ``full_grad``, ``group_grads``, the power iteration and
    ``batch_sum`` run it.  It checks no bounds, so w is checked here."""
    w = _point(w, len(indptr) - 1)
    out = np.zeros(n_out)
    _sparsetools.csc_matvec(n_out, len(w), indptr, indices, data, w, out)
    return out


# 0-d arrays: numpy converts a Python float on every call, an array never
_MINUS_ONE, _EXP_CAP = np.array(-1.0), np.array(709.78)


def _logistic_weights(y, m):
    """The loss weights -y * sigma(-m) at the margins m, one expression:
    y / (-1 - exp(m)), which is -y / (1 + exp(m)) bit for bit, as y is
    +-1.  exp's argument is capped at 709.78, where it is still finite,
    so no margin warns of overflow (the cap is cheaper than
    ``np.errstate``, and one expression than in-place ``out=`` steps): a
    weight past it is about 5.6e-309 with -y's sign, not a zero.  With
    numpy's ``exp`` a run loads no ``scipy.special``, whose sigmoid
    rounds apart."""
    return y / (_MINUS_ONE - np.exp(np.minimum(m, _EXP_CAP)))


def _mean_logistic_loss(m):
    """mean(log(1 + exp(-m))) over the margins m, stable at any m:
    mean(log1p(exp(-|m|)) - min(m, 0)), the formula inside
    ``np.logaddexp(0, -m)`` as one vectorised expression, not scalar
    libm calls per entry; it rounds apart by at most 2 ulp per entry."""
    return float((np.log1p(np.exp(-np.abs(m))) - np.minimum(m, 0.0)).mean())


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
    n_clients = check_count("n_clients", n_clients)
    if n_clients > n:
        raise ValueError(
            f"cannot split {n} components across {n_clients} clients"
        )
    if scheme == "contiguous":
        return np.array_split(np.arange(n), n_clients)
    if scheme == "round-robin":
        return [np.arange(j, n, n_clients) for j in range(n_clients)]
    raise ValueError(f"unknown partition scheme: {scheme!r}")
