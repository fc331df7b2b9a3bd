import copy
import itertools
import pickle
import sys
import threading

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigsh
from scipy.special import expit

from vradapt import problems
from vradapt.data import Dataset, parse_libsvm, synthetic_dataset
from vradapt.estimators import make_estimator
from vradapt.problems import (
    LogisticProblem,
    QuadraticProblem,
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

    def test_points_of_another_shape_are_rejected(self):
        # a (d, 1) point broadcast against the (d,) optimum: loss summed a
        # (d, d) array (128.88 where the (d,) point gives 13.05) and
        # full_grad returned one
        prob = make_quadratic(20, 10, seed=0)
        n, d = prob.n_components, prob.dim
        oracles = {
            "loss": prob.loss,
            "full_grad": prob.full_grad,
            "partials": lambda x: prob.partials(x, [0, 1]),
            "group_grads": prob.group_grads(partition_problem(prob, 3)),
            "component_rows": lambda x: prob.component_rows(np.arange(n), np.zeros(d), x),
            "component_grads": lambda x: prob.component_grads([0, 1], x),
            "all_component_grads": prob.all_component_grads,
        }
        for x in (np.ones((d, 1)), np.ones(d + 1), np.ones((1, d)), 1.0):
            for name, oracle in oracles.items():
                with pytest.raises(ValueError, match=rf"^point of shape .*, need \({d},\)$"):
                    oracle(x)
                    pytest.fail(f"{name} took a point of shape {np.shape(x)}")
        assert prob.loss(np.ones(d)) == prob.loss([1.0] * d)

    @pytest.mark.parametrize("quadratic", [True, False])
    def test_all_component_grads_is_the_full_index_stack(self, quadratic):
        prob = make_quadratic(9, 4, seed=3) if quadratic else logistic_problem(_ragged_dataset(1))
        x = np.random.default_rng(6).standard_normal(prob.dim)
        got = prob.all_component_grads(x)
        assert got.shape == (prob.n_components, prob.dim)
        _assert_bit_equal(got, prob.component_grads(np.arange(prob.n_components), x))
        if quadratic:
            _assert_bit_equal(got, prob.eigs * (x - prob.x_star))

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
        # the coefficients are the gradients, one (d,) row per index, and
        # batch_sum adds them in batch order, a repeated index twice
        prob = make_quadratic(6, 4, seed=1)
        rng = np.random.default_rng(4)
        x, z = rng.standard_normal(4), rng.standard_normal(4)
        idx = np.array([5, 0, 2, 2])
        rows, (at_x, at_z) = prob.component_rows(idx, x, z)
        _assert_bit_equal(at_x, prob.component_grads(idx, x))
        _assert_bit_equal(at_z, prob.all_component_grads(z)[idx])
        _assert_bit_equal(prob.dense_rows(idx, at_x), prob.component_grads(idx, x))
        stack = [at_x - at_z, at_x, -np.zeros((4, 4))]
        _assert_bit_equal(prob.batch_sum(rows, stack), [_row_order_sum(c) for c in stack])
        loss, grad = prob.loss(x), prob.full_grad(x)
        assert loss == prob.loss(x)
        _assert_bit_equal(grad, prob.full_grad(x))

    @pytest.mark.parametrize("d", [1, 3])
    def test_batch_sum_adds_in_row_order(self, d):
        # at d == 1 the row axis is the contiguous one, which numpy's sum
        # adds pairwise: batch_sum still adds row by row from +0.0
        prob = make_quadratic(200, d, seed=2)
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 200, size=150)
        rows, coefs = prob.component_rows(idx, *rng.standard_normal((3, d)))
        _assert_bit_equal(prob.batch_sum(rows, coefs), [_row_order_sum(c) for c in coefs])
        if d == 1:
            assert not np.array_equal(prob.batch_sum(rows, coefs), coefs.sum(axis=1))
        for bad in (coefs[0], coefs[:, 1:], coefs[..., None]):
            with pytest.raises(ValueError, match=r"^stack of shape"):
                prob.batch_sum(rows, bad)

    def test_component_oracles_agree(self):
        prob = make_quadratic(6, 4, seed=1)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4)
        stacked = prob.all_component_grads(x)
        for i in range(6):
            assert np.allclose(stacked[i], prob.eigs[i] * (x - prob.x_star))
        assert np.allclose(stacked.mean(axis=0), prob.full_grad(x))

    def test_partials_match_full_grad(self):
        # bit for bit: SEGA's and JAGUAR's samplers read full_grad for
        # every partial
        prob = make_quadratic(6, 4, seed=1)
        x = np.random.default_rng(4).standard_normal(4)
        coord_sets = [[j] for j in range(4)] + [np.array([0, 2, 3]), np.arange(4), np.array([3, 0, 3])]
        for point in (x, prob.x_star, -np.zeros(4)):
            full = prob.full_grad(point)
            for coords in coord_sets:
                _assert_bit_equal(prob.partials(point, coords), full[coords])

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
        # nan passes a <= 0 test, and gave smoothness nan; inf gave inf
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^component eigenvalues must be finite$"):
                QuadraticProblem([[1.0, bad]], [0.0, 0.0], [0.0])

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

    @pytest.mark.parametrize(
        "margin,loss",
        [
            (0.0, np.log(2.0)),
            (-0.0, np.log(2.0)),
            (np.inf, 0.0),
            (-np.inf, np.inf),
            (710.0, np.exp(-710.0)),
            (-710.0, 710.0),
            (np.nan, np.nan),
        ],
    )
    def test_loss_of_one_margin(self, margin, loss):
        # one row a = (1), label +1: the margin is x itself
        prob = LogisticProblem(parse_libsvm("+1 1:1.0"))
        x = np.array([margin])
        # assert_array_equal counts nan as equal to nan
        np.testing.assert_array_equal(prob.loss(x), loss)
        np.testing.assert_array_equal((prob.loss(x), prob.full_grad(x))[0], loss)

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

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="^dataset is empty$"):
            LogisticProblem(parse_libsvm(""))

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
    def test_well_separated_spectrum_converges_tightly(self):
        # A^T A / (4n) = diag(1, 4) / 8: power iteration is effectively exact
        prob = logistic_problem(parse_libsvm("+1 1:1\n-1 2:2"))
        assert prob.smoothness == pytest.approx(0.5, abs=1e-12)

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


def _gram_product(problem):
    """v -> (1/(4n)) A^T (A v), the product ``_power_iteration`` forms."""
    return lambda v: (problem.XT @ (problem.X @ v)) / (4.0 * problem.n_components)


def _plain_power_iteration(product, dim, iterations):
    """``LogisticProblem._power_iteration`` over ``product`` as a plain
    loop that runs every iteration; also returns the unit vector each
    iteration starts from."""
    v = np.random.default_rng(0).standard_normal(dim)
    v /= np.linalg.norm(v)
    estimate, states = 0.0, []
    for _ in range(iterations):
        states.append(v.tobytes())
        w = product(v)
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
        product = _gram_product(prob)
        full, states = _plain_power_iteration(product, prob.dim, LogisticProblem.POWER_ITERATIONS)
        assert _first_repeat(states) == (start, period)
        assert prob.smoothness.hex() == full.hex()
        # fewer iterations than the cycle start, the start itself, each
        # phase of the cycle, and more than the default
        for iterations in (1, 5, start, start + 1, start + 2, start + 3, 64, 65, 201):
            want, _ = _plain_power_iteration(product, prob.dim, iterations)
            assert prob._power_iteration(iterations).hex() == want.hex(), iterations

    def test_cycle_from_the_first_iteration(self):
        # one unit row per feature: A^T A / (4n) = I / 16
        prob = logistic_problem(parse_libsvm("+1 1:1\n-1 2:1\n+1 3:1\n-1 4:1"))
        want, states = _plain_power_iteration(_gram_product(prob), prob.dim, 200)
        assert _first_repeat(states) == (0, 1)
        assert want == pytest.approx(1.0 / 16.0, abs=1e-12)
        for iterations in (1, 2, 200):
            assert prob._power_iteration(iterations).hex() == want.hex()

    def test_zero_operator(self):
        prob = logistic_problem(parse_libsvm("+1\n-1\n+1", force_dim=3))
        assert _plain_power_iteration(_gram_product(prob), prob.dim, 200)[0] == 0.0
        assert prob.smoothness == 0.0
        assert prob._power_iteration(1) == 0.0


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
    bit, except ``loss``, the plain ``np.logaddexp`` mean, which it
    matches within 4 eps relative (its own expression rounds
    differently)."""

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

    @property
    def smoothness(self):
        return _plain_power_iteration(self.gram_product, self.dim, LogisticProblem.POWER_ITERATIONS)[0]

    def loss(self, x):
        return float(np.logaddexp(0.0, -(self.y * (self.X @ x))).mean())

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

    def gram_product(self, v):
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


def _row_order_sum(rows, start=0.0):
    """The sum of ``rows`` over the first axis, one row after another
    onto ``start``."""
    total = np.full(np.shape(rows)[1:], start)
    for row in rows:
        total = total + row
    return total


class TestOrderedSum:
    """``_ordered_sum`` is, byte for byte, the running sum over axis 0
    from its start, on any trailing shape and memory layout, with -0.0
    and +-inf entries; numpy's own sum adds some of these pairwise or
    from +0.0."""

    @staticmethod
    def _block(rng, shape, kind):
        # every column of one kind: finite over 16 decades, all -0.0,
        # mixed +-0.0, finite with +-inf (whose sum may be NaN), or finite
        # with a few NaNs
        A = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        u = rng.random(shape)
        if kind == "negative-zeros":
            A[...] = -0.0
        elif kind == "signed-zeros":
            A = np.where(u < 0.5, 0.0, -0.0)
        elif kind == "infinities":
            A[u < 0.2], A[u > 0.8] = np.inf, -np.inf
        elif kind == "nans":
            A[u < 0.02] = np.nan
        return A

    @staticmethod
    def _layouts(A):
        # C order (summed axis first, no copy), Fortran order, the last
        # two axes swapped in memory, and the summed axis last in memory
        # (a view of the layout a caller moves its axis out of)
        transposed = np.swapaxes(np.swapaxes(A, -1, -2).copy(), -1, -2)
        summed_last = np.moveaxis(np.moveaxis(A, 0, -1).copy(), -1, 0)
        return A, np.asfortranarray(A), transposed, summed_last

    @pytest.mark.parametrize("start", [0.0, -0.0])
    @pytest.mark.parametrize("k", [1, 2, 10, 123])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_equals_running_sum(self, k, start):
        rng = np.random.default_rng(k)
        kinds = ("finite", "negative-zeros", "signed-zeros", "infinities", "nans")
        for lead, kind in itertools.product(((), (1,), (256,)), kinds):
            A = self._block(rng, (37,) + lead + (k,), kind)
            want = _row_order_sum(A, start)
            for layout in self._layouts(A):
                got = problems._ordered_sum(layout, start)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (lead, kind)

    @pytest.mark.parametrize("shape", [(37, 2, 3, 5), (37, 4, 1, 1)])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_several_trailing_axes(self, shape):
        rng = np.random.default_rng(len(shape))
        for kind in ("finite", "signed-zeros", "infinities", "nans"):
            A = self._block(rng, shape, kind)
            want = _row_order_sum(A, -0.0)
            for layout in self._layouts(A):
                assert problems._ordered_sum(layout, -0.0).tobytes() == want.tobytes(), kind

    @pytest.mark.parametrize("m", [9, 37])
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_one_value_per_slab_is_still_summed_in_order(self, shape, m):
        # where each slab holds one value, the summed axis is the
        # contiguous one and numpy's reduce would add it pairwise
        A = np.random.default_rng(1).standard_normal((m,) + shape + (1,))
        want = _row_order_sum(A, -0.0)
        assert np.add.reduce(A, axis=0).tobytes() != want.tobytes()
        assert problems._ordered_sum(A, -0.0).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(0,), (0, 1), (0, 4), (0, 3, 1), (0, 3, 4), (5, 2, 0)])
    def test_empty_axis_sums_to_start(self, shape):
        got = problems._ordered_sum(np.ones(shape), -0.0)
        want = np.full(shape[1:], -0.0)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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


def _dominant_dataset(seed, n=80, groups=4, size=4):
    """One-hot groups of ``size`` features with one category in about
    nine rows of ten, like a census file's, plus a feature in every row:
    column counts from n down to a few."""
    rng = np.random.default_rng(seed)
    picks = np.where(rng.random((n, groups)) < 0.9, 0, rng.integers(1, size, (n, groups)))
    cols = np.hstack([np.zeros((n, 1), dtype=np.int64), 1 + size * np.arange(groups) + picks])
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    indptr = np.arange(n + 1, dtype=np.int64) * cols.shape[1]
    return Dataset(indptr, cols.ravel(), np.ones(cols.size), labels, n, 1 + groups * size)


_EDGE_DATASETS = {
    "toy": toy_dataset,
    "empty-row": lambda: parse_libsvm("+1 1:0.5 3:2.0\n-1\n+1 2:-1.0 3:0\n-1 1:0 2:-0 3:0"),
    "all-empty": lambda: parse_libsvm("+1\n-1\n+1", force_dim=3),
    "ragged": lambda: _ragged_dataset(0),
    "dominant": lambda: _dominant_dataset(0),
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
            np.array([-1, -n, 0]),
        ]
        for x in self._points(prob.dim, seed=2):
            for idx in batches:
                _assert_bit_equal(prob.component_grads(idx, x), ref.component_grads(idx, x))
            _assert_bit_equal(prob.all_component_grads(x), ref.component_grads(np.arange(n), x))

    def test_component_rows(self, pair):
        # the rows are X[idx]'s CSR arrays; each point's coefficients are
        # the reference's loss weights there, bit for bit, one call over
        # several points equals single calls, and dense_rows turns them
        # into the reference's dense gradients
        prob, ref = pair
        n = prob.n_components
        rng = np.random.default_rng(6)
        batches = [
            np.array([0]),
            np.arange(n),
            rng.permutation(n),
            rng.integers(0, n, size=2 * n),
            np.array([-1, -n, 0]),
            np.array([], dtype=np.intp),
        ]
        points = list(self._points(prob.dim, seed=7))
        for idx in batches:
            rows, coefs = prob.component_rows(idx, *points)
            assert coefs.shape == (len(points), len(idx))
            sub = ref.X[idx]
            for got, name in zip(rows, ("indptr", "indices", "data")):
                _assert_bit_equal(got, getattr(sub, name))
            for x, got in zip(points, coefs):
                _assert_bit_equal(got, ref._weights(sub, ref.y[idx], x))
                _assert_bit_equal(got, prob.component_rows(idx, x)[1][0])
                _assert_bit_equal(prob.dense_rows(idx, got), ref.component_grads(idx, x))

    def test_dense_rows(self, pair):
        # any coefficients, signed zeros, huge and tiny values included:
        # X[idx].multiply(coefs[:, None]).toarray(), bit for bit
        prob, ref = pair
        n = prob.n_components
        rng = np.random.default_rng(23)
        for idx in (np.arange(n), rng.integers(-n, n, size=2 * n), np.array([], dtype=np.intp)):
            for coefs in (
                rng.standard_normal(len(idx)),
                np.where(rng.random(len(idx)) < 0.5, 0.0, -0.0),
                rng.choice([1e300, -1e-300, 3.0, -0.0], size=len(idx)),
            ):
                want = ref.X[idx].multiply(coefs[:, None]).toarray()
                _assert_bit_equal(prob.dense_rows(idx, coefs), want)

    def test_batch_sum(self, pair):
        # scipy's X[idx].T @ C.T, bit for bit, signs of zero too, for
        # stacks of 1 to 4 coefficient arrays: the coefficients at two
        # points, their differences, signed zeros and random values; a
        # repeated index adds its row twice, a negative one counts from
        # the end
        prob, ref = pair
        n, d = prob.n_components, prob.dim
        rng = np.random.default_rng(24)
        x, z = rng.standard_normal(d), 30.0 * rng.standard_normal(d)
        batches = [
            np.arange(n),
            rng.permutation(n),
            np.array([0, 0, n - 1, n - 1, n - 1]),
            rng.integers(0, n, size=2 * n),
            np.array([-1, -n, 0, -1]),
            np.array([], dtype=np.intp),
        ]
        for idx in batches:
            rows, (cur, prev) = prob.component_rows(idx, x, z)
            b = len(idx)
            for C in (
                cur[None],
                np.array([cur - prev, prev, -np.zeros(b)]),
                np.where(rng.random((2, b)) < 0.5, 0.0, -0.0),
                rng.standard_normal((4, b)),
            ):
                got = prob.batch_sum(rows, C)
                assert got.shape == (len(C), d)
                _assert_bit_equal(got, (ref.X[idx].T @ C.T).T)

    def test_component_rows_outlive_later_calls(self, pair):
        # the rows and coefficients of one call must not move when later
        # calls, of the same size or another, run
        prob, _ = pair
        n, d = prob.n_components, prob.dim
        rng = np.random.default_rng(9)
        idx = rng.permutation(n)
        points = rng.standard_normal(d), rng.standard_normal(d)
        rows, coefs = prob.component_rows(idx, *points)
        kept = [a.copy() for a in (*rows, coefs)]
        for later in (idx[::-1], np.roll(idx, 1), np.array([n - 1]), np.repeat(idx, 2)):
            prob.component_rows(later, rng.standard_normal(d), rng.standard_normal(d))
            for got, want in zip((*rows, coefs), kept):
                _assert_bit_equal(got, want)

    def test_component_rows_from_concurrent_threads(self, pair):
        # the margin pass is one pair replaced whole, read with its key, so
        # threads sharing one instance, each at its own point (more
        # threads than cores, switching as often as the interpreter
        # allows), get the rows, loss, gradient and partials a single
        # thread gets
        prob, _ = pair
        n, d = prob.n_components, prob.dim
        rng = np.random.default_rng(10)
        jobs = [
            (rng.integers(0, n, size=n), rng.standard_normal(d), rng.integers(0, d, size=d))
            for _ in range(8)
        ]

        def results(idx, x, coords):
            rows, coefs = prob.component_rows(idx, x)
            batch = [*rows, coefs, prob.batch_sum(rows, coefs), prob.dense_rows(idx, coefs[0])]
            loss, grad = prob.loss(x), prob.full_grad(x)
            return [*batch, np.array(loss), grad, prob.partials(x, coords)]

        want = [results(*job) for job in jobs]
        bad = []

        def work(k):
            for _ in range(100):
                if not all(map(np.array_equal, results(*jobs[k]), want[k])):
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

    def test_pickled_copy_has_its_own_scratch(self, pair):
        prob, _ = pair
        n, d = prob.n_components, prob.dim
        x = np.random.default_rng(11).standard_normal(d)
        want = prob.component_rows(np.arange(n), x)
        twin = pickle.loads(pickle.dumps(prob))
        got = twin.component_rows(np.arange(n), x)
        for a, b in zip((*got[0], got[1]), (*want[0], want[1])):
            _assert_bit_equal(a, b)
        # a copy, pickled or deep, has its own scratch: a margin pass of
        # its own at the same point
        coords = np.arange(d)
        for clone in (twin, copy.deepcopy(prob)):
            _assert_bit_equal(clone.partials(x, coords), prob.partials(x, coords))
            _assert_bit_equal(clone.full_grad(x), prob.full_grad(x))
            assert clone._scratch is not prob._scratch
            assert clone._margin_pass(x)[1] is not prob._margin_pass(x)[1]

    def test_copy_carries_the_margin_pass(self, pair):
        # a copy made right after a pass carries that pass: its oracles at
        # that point and at another are the parent's, bit for bit, and its
        # own pass elsewhere leaves the parent's pair as it was
        prob, _ = pair
        rng = np.random.default_rng(12)
        x, y = rng.standard_normal(prob.dim), rng.standard_normal(prob.dim)
        coords = np.arange(prob.dim)

        def oracles(p, z):
            return [np.array(p.loss(z)), p.full_grad(z), p.partials(z, coords)]

        want = {z.tobytes(): oracles(prob, z) for z in (x, y)}
        prob.full_grad(x)
        for clone in (pickle.loads(pickle.dumps(prob)), copy.deepcopy(prob)):
            kept = prob._scratch
            assert clone._scratch[0] == kept[0] == x.tobytes()
            for z in (x, y):
                for got, expected in zip(oracles(clone, z), want[z.tobytes()]):
                    _assert_bit_equal(got, expected)
            assert clone._scratch[0] == y.tobytes()
            assert prob._scratch is kept

    def test_loss_within_four_eps_of_logaddexp(self, pair):
        prob, ref = pair
        for x in self._points(prob.dim, seed=8):
            got, want = prob.loss(x), ref.loss(x)
            assert got == want or abs(got - want) <= 4 * np.finfo(float).eps * abs(want)

    def test_loss_and_grad(self, pair):
        prob, ref = pair
        for x in self._points(prob.dim, seed=8):
            loss, grad = prob.loss(x), prob.full_grad(x)
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

    @pytest.mark.parametrize("name", sorted(_EDGE_DATASETS))
    def test_partials_first_on_a_fresh_problem(self, name):
        # partials as the first call on a problem: bit for bit, signs of
        # zero too, the reference's per-column sums and full_grad's entries
        ds = _EDGE_DATASETS[name]()
        fresh, ref = LogisticProblem(ds), _ReferenceLogistic(ds)
        d = ref.dim
        counts = np.diff(ref.X.tocsc().indptr)
        rng = np.random.default_rng(13)
        coord_sets = [
            np.array([0]),
            np.arange(d),
            rng.permutation(d),
            np.array([d - 1, 0, d - 1]),
            np.array([], dtype=np.intp),
        ]
        for x in self._points(d, seed=14):
            for coords in coord_sets:
                prob = copy.deepcopy(fresh)
                got = prob.partials(x, coords)
                _assert_bit_equal(got, ref.partials(x, coords))
                _assert_bit_equal(got, prob.full_grad(x)[coords])
                # the gather holds the sampled columns' entries, no more
                gathered = problems._gather(prob.XT, prob._col_nnz, coords)
                assert gathered[2].size == counts[coords].sum()

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


class TestGather:
    """``problems._gather``, ``problems._matvec`` and
    ``LogisticProblem.batch_sum``, the callers of scipy's private
    kernels, against the public expressions they stand for, bit for bit:
    ``X[rows]`` and ``XT[coords]`` (indptr, indices, data) and every
    ``@`` product (``batch_sum`` in ``test_batch_sum``).  A scipy change
    to those kernels fails here instead of moving bits."""

    @pytest.mark.parametrize("name", sorted(_EDGE_DATASETS))
    def test_matches_public_expressions(self, name):
        prob = LogisticProblem(_EDGE_DATASETS[name]())
        rng = np.random.default_rng(19)
        for A, nnz in ((prob.X, prob._row_nnz), (prob.XT, prob._col_nnz)):
            m, k = A.shape
            vectors = [rng.standard_normal(k), np.zeros(k), -np.zeros(k)]
            batches = [
                np.arange(m),
                rng.permutation(m),
                rng.integers(0, m, size=2 * m),
                np.array([m - 1, m - 1, 0, m - 1]),
                np.array([-1, 0, -m]),
                np.array([], dtype=np.intp),
            ]
            for rows in batches:
                gathered = problems._gather(A, nnz, rows)
                sub = A[rows]
                for got, name in zip(gathered, ("indptr", "indices", "data")):
                    _assert_bit_equal(got, getattr(sub, name))
                for v in vectors:
                    _assert_bit_equal(problems._matvec(*gathered, v, k), sub @ v)

    @pytest.mark.parametrize("name", sorted(_EDGE_DATASETS))
    def test_full_products_match_public_operator(self, name):
        # the margin pass, full_grad, each group_grads row and the power
        # iteration, at a random point, at -0.0 and at a strided point
        prob = LogisticProblem(_EDGE_DATASETS[name]())
        n, d = prob.n_components, prob.dim
        groups = partition_problem(prob, min(n, 3), "round-robin")
        grads = prob.group_grads(groups)
        rng = np.random.default_rng(22)
        for x in (rng.standard_normal(d), -np.zeros(d), rng.standard_normal(2 * d)[::2]):
            nm, w = prob._margin_pass(x)
            _assert_bit_equal(nm, -prob.y * (prob.X @ x))
            _assert_bit_equal(w, -prob.y * expit(nm))
            _assert_bit_equal(prob.full_grad(x), (prob.XT @ w) / n)
            rows = [(prob.X[g].tocsc().T @ w[g]) / len(g) for g in groups]
            _assert_bit_equal(grads(x), np.array(rows))
        for iterations in (1, 7, LogisticProblem.POWER_ITERATIONS):
            want, _ = _plain_power_iteration(_gram_product(prob), d, iterations)
            assert prob._power_iteration(iterations).hex() == want.hex()

    def test_inputs_are_checked(self):
        # the kernels check no bounds: rows outside [-n, n), points of
        # another shape and coefficient stacks of another shape raise, at
        # every oracle, also right after a pass at a point of the same
        # bytes; a strided point reads as its copy
        prob = LogisticProblem(_ragged_dataset(0))
        n, d = prob.n_components, prob.dim
        for rows in ([n], [-n - 1]):
            with pytest.raises(IndexError):
                prob.component_rows(np.array(rows), np.zeros(d))
            with pytest.raises(IndexError):
                prob.dense_rows(np.array(rows), np.zeros(1))
        rows, coefs = prob.component_rows(np.arange(5), np.zeros(d), np.ones(d))
        for bad in (coefs[0], coefs[:, 1:], np.zeros((2, 6)), coefs[..., None], 1.0):
            with pytest.raises(ValueError, match=r"^stack of shape .*, need \(k, 5\)$"):
                prob.batch_sum(rows, bad)
        oracles = {
            "loss": prob.loss,
            "full_grad": prob.full_grad,
            "partials": lambda x: prob.partials(x, np.arange(d)),
            "group_grads": prob.group_grads(partition_problem(prob, 3)),
            "component_rows": lambda x: prob.component_rows(np.arange(n), x),
        }
        for x in (np.zeros(d + 1), np.zeros((d, 1)), 0.0):
            for name, oracle in oracles.items():
                prob.loss(np.zeros(d))
                with pytest.raises(ValueError, match="point of shape"):
                    oracle(x)
                    pytest.fail(f"{name} took a point of shape {np.shape(x)}")
        strided = np.random.default_rng(21).standard_normal(2 * d)[::2]
        got = prob.component_rows(np.arange(n), strided)
        want = prob.component_rows(np.arange(n), strided.copy())
        for a, b in zip((*got[0], got[1]), (*want[0], want[1])):
            _assert_bit_equal(a, b)

    def test_flat_sums_equal_padded_sums_at_signed_zeros(self):
        # The padded layout this replaced added a 0.0 * 0.0 term after
        # each row's entries, which could only turn a -0.0 sum into +0.0.
        # The kernel starts every sum from +0.0, so no sum is -0.0: at
        # zeros of either sign each row sums to +0.0 (its margin is -0.0
        # on rows labelled -1, either way), the flat sums equal the
        # padded ones bit for bit, and so do the gradients
        ds = _ragged_dataset(0)
        prob, ref = LogisticProblem(ds), _ReferenceLogistic(ds)
        n, d = prob.n_components, prob.dim
        width = int(prob._row_nnz.max())
        indices, data = [], []
        for i in range(n):
            stored = slice(ref.X.indptr[i], ref.X.indptr[i + 1])
            pad = width - (stored.stop - stored.start)
            indices += [*ref.X.indices[stored], *[d] * pad]
            data += [*ref.X.data[stored], *[0.0] * pad]
        padded = csr_matrix((data, indices, np.arange(n + 1) * width), shape=(n, d + 1))
        mixed = np.where(np.random.default_rng(20).random(d) < 0.5, 0.0, -0.0)
        for x in (-np.zeros(d), mixed):
            sums = problems._matvec(*problems._gather(prob.X, prob._row_nnz, np.arange(n)), x, d)
            assert not np.signbit(sums).any()
            _assert_bit_equal(sums, padded @ np.append(x, 0.0))
            _assert_bit_equal(-(prob.y * sums), prob._margin_pass(x)[0])
            _assert_bit_equal(prob.all_component_grads(x), ref.component_grads(np.arange(n), x))
            _assert_bit_equal(prob.full_grad(x), ref.full_grad(x))
            _assert_bit_equal(prob.partials(x, np.arange(d)), ref.partials(x, np.arange(d)))


class TestMarginPass:
    """The oracles at one point share one margin pass: X @ x and one
    ``expit`` over the rows, counted here through ``problems.expit``."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []

        def counting(v):
            calls.append(len(v))
            return expit(v)

        monkeypatch.setattr(problems, "expit", counting)
        return calls

    @pytest.fixture
    def prob(self):
        return LogisticProblem(_ragged_dataset(0))

    def _oracles(self, prob):
        grads = prob.group_grads(partition_problem(prob, 3))
        return [
            prob.loss,
            prob.full_grad,
            lambda x: (prob.loss(x), prob.full_grad(x)),
            lambda x: prob.partials(x, [0, 2, 2]),
            grads,
        ]

    def test_one_pass_per_point(self, prob, passes):
        oracles = self._oracles(prob)
        rng = np.random.default_rng(15)
        x, z = rng.standard_normal(prob.dim), rng.standard_normal(prob.dim)
        # every oracle first once, then x again (an equal copy) after z
        for point, order in ((x, oracles), (z, oracles[::-1]), (x.copy(), oracles[2:] + oracles[:2])):
            before = len(passes)
            for oracle in order:
                oracle(point)
                assert len(passes) == before + 1
        assert passes == [prob.n_components] * 3

    def test_shared_pass_gives_fresh_results(self, prob, passes):
        # each oracle read after the others equals its result on a fresh
        # problem at the same point
        x = np.random.default_rng(16).standard_normal(prob.dim)
        shared = [f(x) for f in self._oracles(prob)]
        for k, got in enumerate(shared):
            alone = self._oracles(copy.deepcopy(prob))[k](x)
            if isinstance(got, tuple):
                _assert_bit_equal(got[0], alone[0])
                got, alone = got[1], alone[1]
            _assert_bit_equal(got, alone)

    def test_point_changed_in_place_is_passed_again(self, prob, passes):
        ref = _ReferenceLogistic(_ragged_dataset(0))
        x = np.random.default_rng(17).standard_normal(prob.dim)
        prob.full_grad(x)
        x[3] += 0.5
        _assert_bit_equal(prob.full_grad(x), ref.full_grad(x))
        _assert_bit_equal(prob.partials(x, [3]), ref.partials(x, [3]))
        x[3] = -0.0 if x[3] == 0.0 else 0.0
        _assert_bit_equal((prob.loss(x), prob.full_grad(x))[1], ref.full_grad(x))
        assert len(passes) == 3

    def test_sega_step_takes_one_pass(self, prob, passes):
        # a step reads partials at its previous point and at the new one;
        # the previous point's pass is the one its last step took
        rng = np.random.default_rng(18)
        est = make_estimator("sega", prob, np.zeros(prob.dim), {"b": 3})
        for _ in range(5):
            before = len(passes)
            est.step(rng.standard_normal(prob.dim), rng)
            assert len(passes) == before + 1
