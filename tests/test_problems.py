import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigsh
from scipy.special import expit

from vradapt.data import Dataset, parse_libsvm, synthetic_dataset
from vradapt.problems import (
    LogisticProblem,
    QuadraticProblem,
    estimate_smoothness,
    logistic_problem,
    make_quadratic,
    partition_problem,
)


def toy_dataset():
    text = "\n".join(
        [
            "+1 1:0.5 3:2.0",
            "-1 2:1.0 3:-0.5",
            "+1 1:-1.0",
            "-1 1:0.25 2:0.75 3:1.5",
            "+1 3:1.0",
        ]
    )
    return parse_libsvm(text)


class TestQuadratic:
    def test_diag_example(self):
        # single component, Hessian diag(1, 4), optimum at the origin
        prob = QuadraticProblem(np.array([[1.0, 4.0]]), np.zeros(2), np.zeros(1))
        x = np.array([1.0, 1.0])
        assert np.array_equal(prob.full_grad(x), np.array([1.0, 4.0]))
        assert prob.smoothness == 4.0
        assert prob.loss(x) == pytest.approx(0.5 * (1 + 4))

    def test_optimum(self):
        prob = make_quadratic(8, 5, seed=2)
        assert np.allclose(prob.full_grad(prob.x_opt), 0.0, atol=1e-14)
        assert prob.loss(prob.x_opt) == pytest.approx(prob.f_star)
        # any other point is worse
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = prob.x_opt + rng.standard_normal(5)
            assert prob.loss(x) > prob.f_star

    def test_component_rows_are_dense_rows(self):
        prob = make_quadratic(6, 4, seed=1)
        rng = np.random.default_rng(4)
        x, z = rng.standard_normal(4), rng.standard_normal(4)
        idx = np.array([5, 0, 2, 2])
        cols, (at_x, at_z) = prob.component_rows(idx, x, z)
        assert np.array_equal(cols, np.tile(np.arange(4), (4, 1)))
        _assert_bit_equal(at_x, prob.component_grads(idx, x))
        _assert_bit_equal(at_z, prob.all_component_grads(z)[idx])
        loss, grad = prob.loss_and_grad(x)
        assert loss == prob.loss(x)
        _assert_bit_equal(grad, prob.full_grad(x))

    def test_component_oracles_agree(self):
        prob = make_quadratic(6, 4, seed=1)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4)
        stacked = prob.all_component_grads(x)
        for i in range(6):
            assert np.allclose(stacked[i], prob.eigs[i] * (x - prob.x_star))
        assert np.allclose(stacked.mean(axis=0), prob.full_grad(x))

    def test_partials_match_full_grad(self):
        prob = make_quadratic(6, 4, seed=1)
        x = np.random.default_rng(4).standard_normal(4)
        full = prob.full_grad(x)
        for j in range(4):
            assert prob.partials(x, [j])[0] == pytest.approx(full[j])
        assert np.allclose(prob.partials(x, np.array([0, 2, 3])), full[[0, 2, 3]])

    def test_pl_constant_is_min_mean_eig(self):
        prob = make_quadratic(7, 3, seed=5)
        # the averaged Hessian is diagonal with the columnwise eigen-mean
        assert prob.pl_constant == pytest.approx(prob.eigs.mean(axis=0).min())
        # PL inequality holds with that constant
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.standard_normal(3)
            gap = prob.loss(x) - prob.f_star
            sq = float(prob.full_grad(x) @ prob.full_grad(x))
            assert gap <= sq / (2 * prob.pl_constant) + 1e-12

    def test_spec_constructor(self):
        prob = QuadraticProblem(
            np.array([[1.0, 2.0], [3.0, 0.5]]), np.array([1.0, -1.0]), np.zeros(2)
        )
        assert prob.n_components == 2
        assert prob.dim == 2
        assert prob.smoothness == 3.0
        assert np.allclose(prob.full_grad(prob.x_opt), 0.0)

    def test_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(ValueError):
            QuadraticProblem(np.array([[1.0, 0.0]]), np.zeros(2), np.zeros(1))
        with pytest.raises(ValueError):
            make_quadratic(3, 2, eig_range=(-1.0, 2.0))

    def test_equal_curvature_variant(self):
        prob = make_quadratic(5, 4, seed=0, eig_range=(2.0, 2.0))
        assert np.all(prob.eigs == 2.0)
        assert prob.smoothness == 2.0

    def test_cond_scales_coordinates(self):
        prob = make_quadratic(50, 6, seed=0, cond=100.0)
        means = prob.eigs.mean(axis=0)
        ratio = means.max() / means.min()
        # geometric coordinate scaling: achieved conditioning near target
        assert 25.0 < ratio < 400.0
        with pytest.raises(ValueError):
            make_quadratic(5, 4, cond=0.5)

    def test_subset(self):
        # group_grads over a component subset: the mean of its gradients
        prob = make_quadratic(9, 4, seed=8)
        x = np.random.default_rng(9).standard_normal(4)
        rows = prob.group_grads([np.array([2, 5, 6]), np.array([0])])(x)
        stack = prob.all_component_grads(x)
        assert rows.shape == (2, 4)
        assert np.allclose(rows[0], stack[[2, 5, 6]].mean(axis=0))
        assert np.allclose(rows[1], stack[0])


class TestLogistic:
    def test_loss_at_zero_is_log_two(self):
        prob = logistic_problem(toy_dataset())
        assert prob.loss(np.zeros(prob.dim)) == pytest.approx(np.log(2.0))

    def test_single_sample_gradient(self):
        # one row a=(1), label +1: grad at 0 is -0.5
        ds = parse_libsvm("+1 1:1.0")
        prob = logistic_problem(ds)
        assert prob.full_grad(np.zeros(1)) == pytest.approx(np.array([-0.5]))

    def test_gradient_matches_dense_formula(self):
        ds = toy_dataset()
        prob = logistic_problem(ds)
        X = np.zeros((ds.n, ds.d))
        for i in range(ds.n):
            row = slice(ds.indptr[i], ds.indptr[i + 1])
            X[i, ds.indices[row]] = ds.values[row]
        y = ds.labels
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(ds.d)
            margins = y * (X @ x)
            weights = -y / (1.0 + np.exp(margins))
            expected = X.T @ weights / ds.n
            assert np.allclose(prob.full_grad(x), expected, atol=1e-12)

    def test_component_and_partial_oracles(self):
        ds = toy_dataset()
        prob = logistic_problem(ds)
        x = np.random.default_rng(2).standard_normal(ds.d)
        stacked = prob.all_component_grads(x)
        assert np.allclose(stacked.mean(axis=0), prob.full_grad(x), atol=1e-12)
        full = prob.full_grad(x)
        for j in range(ds.d):
            assert prob.partials(x, [j])[0] == pytest.approx(full[j], abs=1e-12)

    def test_smoothness_is_top_gram_eigenvalue(self):
        ds = toy_dataset()
        prob = logistic_problem(ds)
        X = np.zeros((ds.n, ds.d))
        for i in range(ds.n):
            row = slice(ds.indptr[i], ds.indptr[i + 1])
            X[i, ds.indices[row]] = ds.values[row]
        gram = X.T @ X / (4.0 * ds.n)
        expected = float(np.linalg.eigvalsh(gram).max())
        assert prob.smoothness == pytest.approx(expected, rel=1e-6)

    def test_rejects_bad_labels(self):
        ds = toy_dataset()
        bad = Dataset(
            indptr=ds.indptr, indices=ds.indices, values=ds.values,
            labels=np.array([1.0, -1.0, 2.0, 1.0, -1.0]), n=ds.n, d=ds.d,
        )
        with pytest.raises(ValueError):
            LogisticProblem(bad)

    def test_subset(self):
        # group_grads over a component subset: the mean of its gradients
        prob = logistic_problem(toy_dataset())
        x = np.random.default_rng(5).standard_normal(prob.dim)
        rows = prob.group_grads([np.array([0, 3]), np.array([4])])(x)
        stack = prob.all_component_grads(x)
        assert rows.shape == (2, prob.dim)
        assert np.allclose(rows[0], stack[[0, 3]].mean(axis=0), atol=1e-12)
        assert np.allclose(rows[1], stack[4], atol=1e-12)


class TestSmoothness:
    def test_diag_example_converges_tightly(self):
        # well-separated spectrum: power iteration is effectively exact
        prob = QuadraticProblem(np.array([[1.0, 4.0]]), np.zeros(2), np.zeros(1))
        assert estimate_smoothness(prob, 100, seed=0) == pytest.approx(4.0, abs=1e-9)

    def test_identity_hessian(self):
        prob = QuadraticProblem(np.ones((3, 4)), np.zeros(4), np.zeros(3))
        assert estimate_smoothness(prob, 10, seed=1) == pytest.approx(1.0, abs=1e-12)

    def test_random_spectrum_within_one_percent(self):
        # near-degenerate top eigenvalues converge slowly; the contract
        # is a 1% estimate, not exactness
        prob = make_quadratic(6, 5, seed=3)
        est = estimate_smoothness(prob, 100, seed=0)
        assert est == pytest.approx(float(prob.eigs.max()), rel=0.01)
        assert est <= float(prob.eigs.max()) + 1e-12

    def test_deterministic_given_seed(self):
        prob = make_quadratic(6, 5, seed=3)
        assert estimate_smoothness(prob, 50, seed=7) == estimate_smoothness(
            prob, 50, seed=7
        )

    def test_iterations_validated(self):
        prob = make_quadratic(3, 2)
        with pytest.raises(ValueError):
            estimate_smoothness(prob, 0)

    def test_logistic_against_sparse_eigensolver(self):
        ds = parse_libsvm(
            "\n".join(
                "+1 %d:1.0 %d:0.5" % (i % 5 + 1, i % 5 + 4) for i in range(7)
            ),
            force_dim=9,
        )
        prob = logistic_problem(ds)
        X = csr_matrix(
            (
                ds.values,
                ds.indices,
                ds.indptr,
            ),
            shape=(ds.n, ds.d),
        )
        gram = (X.T @ X).toarray() / (4.0 * ds.n)
        top = float(eigsh(gram, k=1, return_eigenvectors=False)[0])
        assert prob.smoothness == pytest.approx(top, rel=1e-6)


def _plain_power_iteration(problem, iterations, seed=0):
    """``estimate_smoothness`` as a plain loop that runs every iteration;
    also returns the unit vector each iteration starts from."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(problem.dim)
    v /= np.linalg.norm(v)
    estimate, states = 0.0, []
    for _ in range(iterations):
        states.append(v.tobytes())
        w = problem.curvature_matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, states
        estimate = float(v @ w)
        v = w / norm
    return estimate, states


def _first_repeat(states):
    """(start, period) of the first exact repeat of the unit vector."""
    seen = {}
    for i, state in enumerate(states):
        if state in seen:
            return seen[state], i - seen[state]
        seen[state] = i
    return None


class TestPowerIterationStop:
    """The early stop at a repeated unit vector gives, bit for bit, what
    running every iteration gives."""

    @pytest.mark.parametrize(
        "seed,start,period", [(0, 27, 1), (1, 26, 2)], ids=["period-1", "period-2"]
    )
    def test_logistic_cycles(self, seed, start, period):
        prob = logistic_problem(synthetic_dataset(40, dim=6, seed=seed, nnz_per_row=3))
        full, states = _plain_power_iteration(prob, LogisticProblem.POWER_ITERATIONS)
        assert _first_repeat(states) == (start, period)
        assert prob.smoothness.hex() == full.hex()
        # fewer iterations than the cycle start, the start itself, each
        # phase of the cycle, and more than the default
        for iterations in (1, 5, start, start + 1, start + 2, start + 3, 64, 65, 201):
            want, _ = _plain_power_iteration(prob, iterations)
            assert estimate_smoothness(prob, iterations).hex() == want.hex(), iterations

    def test_cycle_from_the_first_iteration(self):
        prob = QuadraticProblem(np.ones((3, 4)), np.zeros(4), np.zeros(3))
        want, states = _plain_power_iteration(prob, 200)
        assert _first_repeat(states) == (0, 1)
        for iterations in (1, 2, 200):
            assert estimate_smoothness(prob, iterations).hex() == want.hex()

    def test_zero_operator(self):
        prob = logistic_problem(parse_libsvm("+1\n-1\n+1", force_dim=3))
        assert _plain_power_iteration(prob, 200)[0] == 0.0
        assert prob.smoothness == 0.0
        assert estimate_smoothness(prob, 1) == 0.0


class TestPartition:
    def test_contiguous_sizes(self):
        prob = make_quadratic(10, 3, seed=0)
        groups = partition_problem(prob, 3)
        assert [len(g) for g in groups] == [4, 3, 3]
        assert all(g.dtype.kind == "i" for g in groups)

    def test_contiguous_covers_in_order(self):
        prob = make_quadratic(10, 3, seed=0)
        groups = partition_problem(prob, 3)
        assert np.array_equal(np.concatenate(groups), np.arange(10))

    def test_round_robin(self):
        prob = make_quadratic(7, 3, seed=0)
        groups = partition_problem(prob, 3, scheme="round-robin")
        assert [g.tolist() for g in groups] == [[0, 3, 6], [1, 4], [2, 5]]

    def test_weighted_client_average_is_full_gradient(self):
        x = np.random.default_rng(3).standard_normal(30)
        for prob in (make_quadratic(10, 3, seed=4), logistic_problem(_ragged_dataset(3))):
            for scheme in ("contiguous", "round-robin"):
                groups = partition_problem(prob, 3, scheme)
                rows = prob.group_grads(groups)(x[: prob.dim])
                weights = [len(g) / prob.n_components for g in groups]
                assert rows.shape == (3, prob.dim)
                weighted = sum(w * r for w, r in zip(weights, rows))
                assert np.allclose(weighted, prob.full_grad(x[: prob.dim]))

    def test_errors(self):
        prob = make_quadratic(4, 2, seed=0)
        with pytest.raises(ValueError, match="n_clients must be >= 1"):
            partition_problem(prob, 0)
        with pytest.raises(ValueError, match="cannot split 4 components across 5 clients"):
            partition_problem(prob, 5)
        with pytest.raises(ValueError, match="unknown partition scheme"):
            partition_problem(prob, 2, scheme="striped")


class _ReferenceLogistic:
    """The logistic oracles as plain scipy CSR expressions: an
    element-by-element CSR build, ``X[idx]`` -> ``.multiply`` ->
    ``.toarray()``, ``X.T @ w``, a per-column ``getcol`` loop, and
    per-group problems copied row by row through ``getrow`` (the reference
    for ``group_grads``).  LogisticProblem must agree with these bit for
    bit."""

    def __init__(self, dataset):
        data, indices, indptr = [], [], [0]
        for i in range(dataset.n):
            row = slice(dataset.indptr[i], dataset.indptr[i + 1])
            indices.extend(int(j) for j in dataset.indices[row])
            data.extend(float(v) for v in dataset.values[row])
            indptr.append(len(indices))
        self.X = csr_matrix(
            (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
            shape=(dataset.n, dataset.d),
        )
        self.y = np.asarray(dataset.labels, dtype=float)
        self.n_components, self.dim = self.X.shape
        self.smoothness = estimate_smoothness(self, LogisticProblem.POWER_ITERATIONS, seed=0)

    def _weights(self, sub, y, x):
        return -y * expit(-(y * (sub @ x)))

    def component_grads(self, idx, x):
        sub = self.X[np.asarray(idx)]
        return sub.multiply(self._weights(sub, self.y[idx], x)[:, None]).toarray()

    def full_grad(self, x):
        return np.asarray(self.X.T @ self._weights(self.X, self.y, x)).ravel() / self.n_components

    def partials(self, x, coords):
        w = self._weights(self.X, self.y, x)
        X_csc = self.X.tocsc()
        out = np.empty(len(coords))
        for pos, j in enumerate(coords):
            out[pos] = float((X_csc.getcol(int(j)).T @ w)[0]) / self.n_components
        return out

    def curvature_matvec(self, v):
        return np.asarray(self.X.T @ (self.X @ v)).ravel() / (4.0 * self.n_components)

    def subset(self, idx):
        rows = [self.X.getrow(int(i)) for i in idx]
        return _ReferenceLogistic(
            Dataset(
                indptr=np.cumsum([0] + [r.nnz for r in rows]),
                indices=np.concatenate([r.indices for r in rows]).astype(np.int64),
                values=np.concatenate([r.data for r in rows]).astype(float),
                labels=self.y[idx].copy(),
                n=len(idx),
                d=self.dim,
            )
        )


def _assert_bit_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _on_support(dense, cols):
    """Entries of dense (b, d) rows at support columns (b, width); the
    padding column d reads +0.0."""
    padded = np.hstack([dense, np.zeros((len(dense), 1))])
    return np.take_along_axis(padded, np.asarray(cols, dtype=np.intp), axis=1)


def _assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        _assert_bit_equal(getattr(got, name), getattr(want, name))
    assert got.shape == want.shape


def _ragged_dataset(seed, n=60, d=30):
    """Rows of 0 to 12 entries with mixed-sign values and explicit zeros
    of both signs."""
    rng = np.random.default_rng(seed)
    indices, values = [], []
    for i in range(n):
        size = 0 if i % 17 == 5 else int(rng.integers(0, 13))
        indices.append(np.sort(rng.choice(d, size=size, replace=False)).astype(np.int64))
        vals = rng.standard_normal(size)
        vals[rng.random(size) < 0.15] = 0.0
        vals[rng.random(size) < 0.1] = -0.0
        values.append(vals)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    indptr = np.cumsum([0] + [len(row) for row in indices])
    return Dataset(indptr, np.concatenate(indices), np.concatenate(values), labels, n, d)


_EDGE_DATASETS = {
    "toy": toy_dataset,
    "empty-row": lambda: parse_libsvm("+1 1:0.5 3:2.0\n-1\n+1 2:-1.0 3:0\n-1 1:0 2:-0 3:0"),
    "all-empty": lambda: parse_libsvm("+1\n-1\n+1", force_dim=3),
    "ragged": lambda: _ragged_dataset(0),
}


class TestLogisticMatchesScipyReference:
    @pytest.fixture(params=sorted(_EDGE_DATASETS))
    def pair(self, request):
        ds = _EDGE_DATASETS[request.param]()
        return LogisticProblem(ds), _ReferenceLogistic(ds)

    @staticmethod
    def _points(dim, seed):
        rng = np.random.default_rng(seed)
        yield np.zeros(dim)
        yield -np.zeros(dim)
        for scale in (0.1, 1.0, 30.0, 1e3):
            for _ in range(5):
                yield scale * rng.standard_normal(dim)

    def test_csr_and_smoothness(self, pair):
        prob, ref = pair
        _assert_same_csr(prob.X, ref.X)
        assert prob.smoothness == ref.smoothness

    def test_component_grads(self, pair):
        prob, ref = pair
        n = prob.n_components
        rng = np.random.default_rng(1)
        batches = [
            np.array([0]),
            np.array([n - 1]),
            np.arange(n),
            rng.permutation(n),
            rng.permutation(n)[: max(1, n // 2)],
            np.array([0, 0, n - 1, n - 1, n - 1]),
            rng.integers(0, n, size=2 * n),
        ]
        for x in self._points(prob.dim, seed=2):
            for idx in batches:
                _assert_bit_equal(prob.component_grads(idx, x), ref.component_grads(idx, x))
            _assert_bit_equal(prob.all_component_grads(x), ref.component_grads(np.arange(n), x))

    def test_component_rows(self, pair):
        # the support is the row's stored columns, padded with column d;
        # each point's rows are the dense gradients' entries there, bit
        # for bit, and one call over several points equals single calls
        prob, ref = pair
        n, d = prob.n_components, prob.dim
        rng = np.random.default_rng(6)
        batches = [np.array([0]), np.arange(n), rng.permutation(n), rng.integers(0, n, size=2 * n)]
        points = list(self._points(d, seed=7))
        for idx in batches:
            cols, rows = prob.component_rows(idx, *points)
            assert len(rows) == len(points)
            for k, i in enumerate(idx):
                stored = ref.X.indices[ref.X.indptr[i]:ref.X.indptr[i + 1]]
                assert np.array_equal(cols[k][: len(stored)], stored)
                assert np.all(cols[k][len(stored):] == d)
            for x, got in zip(points, rows):
                _assert_bit_equal(got, _on_support(ref.component_grads(idx, x), cols))
                _assert_bit_equal(got, prob.component_rows(idx, x)[1][0])

    def test_component_rows_outlive_later_calls(self, pair):
        # component_rows reuses one batch matrix per batch size: the cols
        # and rows of one call must not move when later calls, of the
        # same size or another, overwrite that matrix
        prob, _ = pair
        n, d = prob.n_components, prob.dim
        rng = np.random.default_rng(9)
        idx = rng.permutation(n)
        cols, rows = prob.component_rows(idx, rng.standard_normal(d), rng.standard_normal(d))
        kept = cols.copy(), [r.copy() for r in rows]
        for later in (idx[::-1], np.roll(idx, 1), np.array([n - 1]), np.repeat(idx, 2)):
            prob.component_rows(later, rng.standard_normal(d), rng.standard_normal(d))
            _assert_bit_equal(cols, kept[0])
            for got, want in zip(rows, kept[1]):
                _assert_bit_equal(got, want)

    def test_component_rows_from_concurrent_threads(self, pair):
        # each thread has its own batch matrices, so threads sharing one
        # instance (more threads than cores, switching as often as the
        # interpreter allows) get the rows a single thread gets
        prob, _ = pair
        n, d = prob.n_components, prob.dim
        rng = np.random.default_rng(10)
        jobs = [(rng.integers(0, n, size=n), rng.standard_normal(d)) for _ in range(8)]
        want = [prob.component_rows(idx, x) for idx, x in jobs]
        bad = []

        def work(k):
            (want_cols, (want_rows,)) = want[k]
            for _ in range(100):
                cols, (rows,) = prob.component_rows(*jobs[k])
                if not (np.array_equal(cols, want_cols) and np.array_equal(rows, want_rows)):
                    bad.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_pickled_copy_has_its_own_batch_matrices(self, pair):
        prob, _ = pair
        n, d = prob.n_components, prob.dim
        x = np.random.default_rng(11).standard_normal(d)
        want = prob.component_rows(np.arange(n), x)
        twin = pickle.loads(pickle.dumps(prob))
        got = twin.component_rows(np.arange(n), x)
        assert twin._batch_matrix(n) is not prob._batch_matrix(n)
        for a, b in zip((got[0], *got[1]), (want[0], *want[1])):
            _assert_bit_equal(a, b)
        _assert_bit_equal(copy.deepcopy(prob).full_grad(x), prob.full_grad(x))

    def test_loss_and_grad(self, pair):
        prob, ref = pair
        for x in self._points(prob.dim, seed=8):
            loss, grad = prob.loss_and_grad(x)
            assert isinstance(loss, float)
            _assert_bit_equal(loss, prob.loss(x))
            _assert_bit_equal(grad, prob.full_grad(x))
            _assert_bit_equal(grad, ref.full_grad(x))

    def test_full_grad_and_partials(self, pair):
        prob, ref = pair
        d = prob.dim
        rng = np.random.default_rng(3)
        coord_sets = [np.array([0]), np.arange(d), rng.permutation(d), np.array([d - 1, 0, d - 1])]
        for x in self._points(d, seed=4):
            _assert_bit_equal(prob.full_grad(x), ref.full_grad(x))
            for coords in coord_sets:
                _assert_bit_equal(prob.partials(x, coords), ref.partials(x, coords))

    def test_subset(self, pair):
        # each group_grads row is the reference problem over that group
        # of rows alone, for both schemes and 1, 2 and n clients
        prob, ref = pair
        n = prob.n_components
        for scheme in ("contiguous", "round-robin"):
            for n_clients in sorted({1, min(2, n), n}):
                groups = partition_problem(prob, n_clients, scheme)
                shards = [ref.subset(g) for g in groups]
                grads = prob.group_grads(groups)
                for x in self._points(prob.dim, seed=5):
                    _assert_bit_equal(grads(x), np.array([s.full_grad(x) for s in shards]))
