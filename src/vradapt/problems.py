"""Finite-sum objectives with full, component, and coordinate gradient oracles.

Every objective here has the form

    f(x) = (1/n) * sum_i f_i(x)

and exposes, next to the plain loss, three gradient oracles: the full
gradient, per-component gradients, and per-coordinate partial derivatives
of f.  Instances do not change after construction, so they can be shared
freely between concurrent runs; the exceptions are the logistic
problem's last margin pass, one immutable pair that is replaced whole
and that threads may share, and its L and A^T, each built on first use.

Only the logistic problem runs on scipy, and on ``scipy.sparse`` alone.
Its two scipy names are bound to None at import and to scipy's own
objects by ``_import_scipy``, which ``LogisticProblem`` runs first thing
when one is built or unpickled, so ``import vradapt``, quadratic
problems and the commands that use only them (``verify``, ``constants``,
a quadratic ``run``) load no scipy, and a logistic run loads no
``scipy.special``: its sigmoid is numpy's (``_logistic_weights``).
"""

from __future__ import annotations

import functools

import numpy as np

from .data import check_count

_sparsetools = csr_matrix = None


def _import_scipy():
    """Bind the two scipy names above to ``scipy.sparse``'s objects:
    about 0.3 s cold, once per process, as later calls find the module
    loaded.  Each call binds them again, so a name patched before a
    problem is built is not kept."""
    global _sparsetools, csr_matrix
    from scipy.sparse import _sparsetools, csr_matrix


class Problem:
    """Base class for averaged finite-sum objectives.

    Subclasses provide ``dim``, ``n_components`` and ``smoothness`` and
    implement every oracle at a point x but ``all_component_grads``,
    which is defined here; each oracle takes only a point of shape
    (dim,) (``_point``).

    A component gradient is a coefficient times a fixed map: grad f_i(x)
    = J_i^T c_i(x).  On a linear model J_i is the row a_i and c_i(x) one
    scalar; on the quadratic J_i is the identity and c_i(x) the (dim,)
    gradient itself.  The batch oracles work on coefficients, so a
    caller that keeps or differences gradients keeps or differences
    coefficients, and sums a batch once:

    * ``loss(x)``: the objective f(x);
    * ``component_rows(indices, *points)``: ``(rows, coefs)``, the
      batch's rows gathered once and, for each point, the coefficients
      c_i there: an array ``coefs`` of shape (len(points), len(indices))
      on a linear model, (len(points), len(indices), dim) on the
      quadratic;
    * ``batch_sum(rows, coefs)``: for one such coefficient array over
      the gathered rows, (len(indices),) or (len(indices), dim), the
      (dim,) sum sum_i J_i^T coefs[i], each entry added in batch order
      from +0.0; a repeated index adds twice;
    * ``dense_rows(indices, coefs)``: the gradients J_i^T coefs[i],
      dense, (len(indices), dim);
    * ``component_grads(indices, x)``: gradient stack, (len(indices), dim),
      ``dense_rows`` at the coefficients at x;
    * ``all_component_grads(x)``: the stack over all n components;
    * ``full_grad(x)``: the gradient of f;
    * ``partials(x, coords)``: coordinate derivatives of f, each
      bit-equal to that entry of ``full_grad(x)``;
    * ``group_grads(groups)``: built once per list of disjoint
      component index groups, a function x -> (len(groups), dim) whose
      row j is the gradient of the average of f_i over group j.

    ``smoothness`` is the uniform component smoothness bound: every f_i
    (and hence f) has an L-Lipschitz gradient with this L.  Only the
    fixed steps taken from L read it (``engine._step_rule``: theoretical,
    tuned, pl) and the verifier; the quadratic sets it when built, the
    logistic problem computes it on the first read.
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
        # the coefficients are the gradients: J_i is the identity
        rows = np.asarray(indices)
        eigs = self.eigs[rows]
        return rows, np.array([eigs * (_point(x, self.dim) - self.x_star) for x in points])

    def batch_sum(self, rows, coefs):
        """Column sums of the (len(rows), dim) coefficients, in row order
        from +0.0 (``_ordered_sum``)."""
        return _ordered_sum(_point(coefs, len(rows), self.dim), 0.0)

    def dense_rows(self, indices, coefs):
        return np.reshape(coefs, (len(indices), self.dim)).copy()

    def component_grads(self, indices, x):
        # take gives the rows fancy indexing does, about 1 us sooner (20 x 10)
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
    """Binary logistic regression over a sparse design matrix.

    f_i(x) = log(1 + exp(-b_i <a_i, x>)) with labels b_i in {-1, +1};
    the objective is the average over rows.  The smoothness constant is
    the largest eigenvalue of (1/(4n)) A^T A, found by 200 power
    iterations from a seeded start (``_power_iteration``) on the first
    read of ``smoothness`` and kept (``functools.cached_property``): a
    run whose step rule reads L pays for it once per problem, and an
    adaptive, Adam or constant run never does.

    ``loss`` takes the loss from the margins m as mean(log1p(exp(-|m|))
    - min(m, 0)), one vectorised expression over the margins the pass
    keeps (``_mean_logistic_loss``).  That is the formula inside
    ``np.logaddexp(0, -m)``, which makes scalar libm calls per entry;
    numpy's vectorised ``exp`` and ``log1p`` take about a fifth of its
    time (4000 margins, x86-64) and round differently, by at most 2 ulp
    per entry (equal at m = +-0, +-inf, nan and +-710).
    The loss weights take numpy's ``exp`` too (``_logistic_weights``),
    and differ from ``scipy.special``'s sigmoid in the same way.

    scipy (``csr_matrix`` and the kernels of ``_sparsetools``, both from
    ``scipy.sparse``) comes from one import, ``_import_scipy``, which
    ``__init__`` and ``__setstate__`` run before anything else, so an
    instance built or unpickled in a process that has not imported scipy
    finds it bound; every helper these methods call runs after it.

    Storage, shared by every oracle; no layout is padded:

    * ``X``: the dataset's CSR arrays (``indptr``, ``indices``,
      ``values``) as a CSR matrix (n x d), not concatenated again
      (scipy may narrow the index arrays to int32), built at
      construction.  Its stored entries are the only copy of A the
      problem holds until ``partials`` is called: every product with
      all of A or A^T reads them, and ``component_rows`` gathers the
      batch's rows from them, which ``batch_sum`` then reads.
    * ``_row_nnz``: the stored entries per row of ``X``.
    * ``XT``, ``_col_nnz``: A^T as a CSR matrix (d x n), a transposed
      view of A's CSC arrays, one stored row per feature, and its
      stored entries per row.  They are built on the first ``partials``
      call (JAGUAR, SEGA), the one oracle that gathers features, and
      kept (``functools.cached_property``); a run that never calls it
      holds no second copy of A.

    Every product reads CSR arrays, after a check of the vector's
    shape, and calls scipy's C kernel without the operator's dispatch:
    a product with A (the margin pass, a batch's margins) is
    ``_matvec``, the kernel behind ``X @ x``; a product with A^T is
    ``_rmatvec``, the kernel behind ``X.T @ w``, which adds each
    feature's terms in row order from +0.0, so its sums are ``XT @ w``'s
    bit for bit.  ``_rmatvec`` is the one A^T kernel: ``full_grad``,
    each ``group_grads`` stack and the power iteration's second product
    run it on X's own arrays, ``batch_sum`` on a batch's rows.
    ``_gather`` takes a batch of rows of either matrix as CSR arrays of
    its own, with the gather behind ``X[idx]``.  A component's
    coefficient is its loss weight -y_i * sigma(-y_i * <a_i, x>)
    (``_logistic_weights``), one float, so a table over every component
    holds n of them, and ``batch_sum`` adds one coefficient array over
    the gathered rows, ``X[idx].T @ c``; a step that sums several
    differences (ZeroSARAH's two) calls it once for each.  So a batch
    costs its own entries, a row with every feature costs only its own
    step, and every sum runs left to right from +0.0 in the order of
    ``X @ x``, ``XT @ w`` and ``X[idx].T @ c``.

    ``_scratch`` is the last margin pass, the margins m = y * (X @ x)
    and weights w = -y * sigma(-m), keyed by x's bytes: one immutable
    pair, replaced whole, that threads may share and a copy carries.
    ``loss``, ``full_grad``, ``partials`` and every ``group_grads``
    function read it, so the oracles called at one point pass over the
    rows once (a trace record after a step, SEGA's partials at its
    previous point).
    It and the lazy L and ``XT`` are the only things an instance builds
    after construction; two threads that race to build L or ``XT`` build
    equal values.

    Every gradient oracle result is bit-identical, down to the sign of
    zeros, to the plain scipy CSR expressions (``X[idx]`` -> ``.multiply``
    -> ``.toarray()``, ``X.T @ w``, ``X[idx].T @ c``, a per-column
    ``getcol`` loop): each sum runs left to right over a row's stored
    entries, in the order of the sparse kernels, and gradient entries
    land on +0.0 as in scipy's sparse-to-dense conversion.  Reordering a
    sum (BLAS on a dense copy, ``.sum(axis=1)``, ``np.add.reduceat``)
    moves results in the last bit and with them every trace hash.
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
        w = -y * sigma(-m), whose column sums over n are the gradient.
        The pair ``(key, (m, w))`` for the last x, keyed by x's bytes,
        is read once and replaced whole, so a thread gets arrays of its
        own key, and an x changed in place is passed again; x is checked
        first, so a point of another shape with the same bytes raises."""
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
    ``A[rows]``, each row's stored entries in order.

    The only caller of ``csr_row_index``, scipy's private gather behind
    ``A[rows]``.  The gather checks no bounds, so the rows are checked
    here; a negative row counts from the end, as in ``A[rows]``.
    """
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

    The layout rule: a caller puts the summed axis first.  numpy adds a
    contiguous reduced axis pairwise, and a strided one slab by slab, so
    the sum is one reduce over a C-ordered copy of A, in which numpy adds
    m whole contiguous slabs one after another; a caller that makes A in
    that layout skips the copy.  Where a slab holds one element, the
    summed axis is the contiguous one, so the sum is a ``cumsum`` from a
    ``start`` slab (a reduce costs about a third of the ``cumsum``).
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
    runs, called without the operator's dispatch (about 3 us a product).
    The kernel adds each row's terms left to right onto ``out``, zeros (a
    fresh array if not given), so each sum starts from +0.0; it checks no
    bounds, so v is checked here.  The only caller of that kernel."""
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
    order ``_matvec`` runs on A.T's own CSR arrays.  It checks no
    bounds, so w is checked here.  The only caller of that kernel."""
    w = _point(w, len(indptr) - 1)
    out = np.zeros(n_out)
    _sparsetools.csc_matvec(n_out, len(w), indptr, indices, data, w, out)
    return out


# 0-d arrays: numpy takes them about 0.2 us a call sooner than floats
_MINUS_ONE, _EXP_CAP = np.array(-1.0), np.array(709.78)


def _logistic_weights(y, m):
    """The loss weights -y * sigma(-m) at the margins m, one expression:
    y / (-1 - exp(m)), which is -y / (1 + exp(m)) bit for bit, as y is
    +-1.  exp's argument is capped at 709.78, where it is still finite,
    so no margin warns of overflow (by timeit the cap costs less than
    ``np.errstate``): a weight past it is about 5.6e-309 with -y's sign,
    not a zero.  By timeit the expression is also cheaper than in-place
    ``out=`` steps at a (2, 64) batch, and as cheap at 4000 rows."""
    return y / (_MINUS_ONE - np.exp(np.minimum(m, _EXP_CAP)))


def _mean_logistic_loss(m):
    """mean(log(1 + exp(-m))) over the margins m, stable at any m:
    mean(log1p(exp(-|m|)) - min(m, 0))."""
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
