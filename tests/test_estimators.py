import numpy as np
import pytest

from vradapt.compressors import RandK, TopK, dense_bits_cost
from vradapt.data import synthetic_dataset
from vradapt.estimators import (
    DISTRIBUTED_METHODS,
    ESTIMATORS,
    METHODS,
    VRConstants,
    _draw_batch,
    constants,
    make_estimator,
)
from vradapt.problems import QuadraticProblem, dense_rows, logistic_problem, make_quadratic


class ScriptedRng:
    """Replays a fixed script of coin flips, batch draws and uniform
    arrays (a random compressor's draw) so each estimator update can be
    checked against hand arithmetic."""

    def __init__(self, coins=(), batches=(), uniforms=()):
        self._coins = list(coins)
        self._batches = [list(b) for b in batches]
        self._uniforms = [np.asarray(u, dtype=float) for u in uniforms]

    def random(self, size=None):
        if size is None:
            return self._coins.pop(0)
        u = self._uniforms.pop(0)
        assert u.shape == np.empty(size).shape
        return u

    def integers(self, low, high, size=None):
        return np.array(self._batches.pop(0), dtype=np.int64)

    def choice(self, n, size, replace=False):
        return np.array(self._batches.pop(0), dtype=np.int64)


def default_hp(method, problem):
    return {
        "lsvrg": {"b": 2, "p": 0.25},
        "saga": {"b": 2},
        "page": {"b": 2, "p": 0.5},
        "zerosarah": {"b": 2},
        "ef21": {"n_clients": 2, "compressor": "topk", "k": 2},
        "diana": {"n_clients": 2, "compressor": "randk", "k": 2},
        "dasha": {"n_clients": 2, "compressor": "randk", "k": 2},
        "sega": {"b": 2},
        "jaguar": {"b": 2},
    }[method]


def reference_clients(est):
    """One quadratic per client over the estimator's index groups: the
    per-client reference, built apart from the client pass under test."""
    p = est.problem
    return [QuadraticProblem(p.eigs[g], p.x_star, p.shifts[g]) for g in est.groups]


@pytest.fixture
def quad():
    return make_quadratic(6, 4, seed=0)


class TestConstantsRegistry:
    def test_page_full_pass_every_step(self):
        c = constants("page", b=8, p=1.0)
        assert (c.rho1, c.rho2, c.A, c.B, c.C) == (1.0, 1.0, 0.0, 0.0, 0.0)

    def test_lsvrg_single_sample(self):
        c = constants("lsvrg", b=1, p=1.0)
        assert (c.rho1, c.rho2, c.A, c.B, c.C) == (1.0, 0.5, 2.0, 2.0, 3.0)

    def test_jaguar_full_coordinate_batch(self):
        c = constants("jaguar", b=5, d=5)
        assert (c.rho1, c.rho2, c.A, c.B, c.C) == (0.5, 1.0, 0.0, 3.0, 0.0)

    def test_saga_full_batch(self):
        c = constants("saga", b=10, n=10)
        assert c.rho2 == 0.5
        assert c.A == pytest.approx(0.15)
        assert c.B == pytest.approx(0.6)
        assert c.C == 2.0

    def test_zerosarah_values(self):
        c = constants("zerosarah", b=2, n=10)
        assert (c.rho1, c.rho2, c.A) == (0.1, 0.1, 0.1)
        assert (c.B, c.C) == (1.0, 10.0)

    def test_dasha_unit_omega(self):
        c = constants("dasha", omega=1.0, n_clients=4)
        assert c.rho1 == pytest.approx(1.0 / 3.0)
        assert c.rho2 == pytest.approx(1.0 / 3.0)
        assert c.A == pytest.approx(2.0 / 36.0)
        assert c.B == pytest.approx(0.5)
        assert c.C == 2.0

    def test_ef21_delta_two(self):
        c = constants("ef21", delta=2.0)
        assert (c.rho1, c.rho2) == (1.0, 0.375)
        assert (c.A, c.B, c.C) == (1.0, 0.0, 4.0)

    def test_ef21_delta_from_sparsity(self):
        assert constants("ef21", d=10, k=5) == constants("ef21", delta=2.0)

    def test_diana_values(self):
        c = constants("diana", omega=1.0, n_clients=4)
        assert (c.rho1, c.rho2) == (1.0, 0.25)
        assert c.A == pytest.approx(0.25)
        assert c.B == pytest.approx(1.0)
        assert c.C == 4.0

    def test_sega_values(self):
        c = constants("sega", b=2, d=6)
        assert c.rho2 == pytest.approx(1.0 / 6.0)
        assert (c.A, c.B, c.C) == (3.0, 9.0, 9.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            constants("saga", b=11, n=10)
        with pytest.raises(ValueError):
            constants("saga", b=0, n=10)
        with pytest.raises(ValueError):
            constants("page", b=2, p=0.0)
        with pytest.raises(ValueError):
            constants("lsvrg", b=2, p=1.5)
        with pytest.raises(ValueError):
            constants("sega", b=7, d=6)
        with pytest.raises(ValueError):
            constants("ef21", delta=0.5)
        with pytest.raises(ValueError):
            constants("diana", omega=2.0)
        with pytest.raises(ValueError):
            constants("dasha", omega=0.5, n_clients=4)
        with pytest.raises(ValueError):
            constants("sarah")

    @pytest.mark.parametrize("method", ["ef21", "diana", "dasha"])
    def test_nonpositive_k_is_named(self, method):
        for k in (0, -2):
            with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
                constants(method, d=10, k=k, n_clients=4)

    @pytest.mark.parametrize("method", ["diana", "dasha"])
    def test_nonpositive_n_clients_is_named(self, method):
        for n_clients in (0, -3):
            with pytest.raises(ValueError, match=f"n_clients must be >= 1, got {n_clients}"):
                constants(method, omega=2.0, n_clients=n_clients)

    def test_tuple_validation(self):
        with pytest.raises(ValueError):
            VRConstants(0.0, 0.5, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            VRConstants(1.0, 1.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            VRConstants(1.0, 0.5, -1.0, 1.0, 1.0)

    def test_scaled_copy(self):
        c = constants("ef21", delta=2.0)
        m = c.scaled({"C": 0.5})
        assert m.C == 2.0 and m.A == c.A and c.C == 4.0
        with pytest.raises(ValueError):
            c.scaled({"D": 2.0})


class TestExactAtInit:
    @pytest.mark.parametrize("method", METHODS)
    def test_step_at_same_point_recovers_gradient(self, method, quad):
        x0 = np.array([0.5, -1.0, 0.25, 2.0])
        est = make_estimator(method, quad, x0, default_hp(method, quad))
        full = quad.full_grad(x0)
        assert np.allclose(est.estimate, full, atol=1e-14)
        rng = np.random.default_rng(0)
        g = est.step(x0, rng)
        assert float(np.abs(g - full).max()) <= 1e-12

    @pytest.mark.parametrize("method", METHODS)
    def test_sigma_sq_zero_after_init(self, method, quad):
        x0 = np.zeros(4)
        est = make_estimator(method, quad, x0, default_hp(method, quad))
        assert est.sigma_sq() == pytest.approx(0.0, abs=1e-14)


class TestLSVRG:
    def test_scripted_two_steps(self, quad):
        x0 = np.zeros(4)
        x1 = np.array([0.1, -0.2, 0.3, 0.0])
        x2 = np.array([0.2, 0.1, -0.1, 0.4])
        est = make_estimator("lsvrg", quad, x0, {"b": 2, "p": 0.25})
        G0 = quad.all_component_grads(x0)
        G1 = quad.all_component_grads(x1)
        G2 = quad.all_component_grads(x2)

        # coin 0.9 >= p: keep the anchor at x0, batch {1, 3}
        rng = ScriptedRng(coins=[0.9], batches=[[1, 3]])
        g = est.step(x1, rng)
        want = G0.mean(axis=0) + (G1[[1, 3]] - G0[[1, 3]]).mean(axis=0)
        assert np.allclose(g, want, atol=1e-14)
        assert est.grad_calls == 6 + 4

        # coin 0.1 < p: anchor snaps to the previous iterate x1 first
        rng = ScriptedRng(coins=[0.1], batches=[[0, 4]])
        g = est.step(x2, rng)
        want = G1.mean(axis=0) + (G2[[0, 4]] - G1[[0, 4]]).mean(axis=0)
        assert np.allclose(g, want, atol=1e-14)
        assert est.grad_calls == 10 + 6 + 4
        assert np.array_equal(est.anchor, x1)

    def test_sigma_sq_is_mean_anchor_gap(self, quad):
        x0 = np.zeros(4)
        x1 = np.ones(4)
        est = make_estimator("lsvrg", quad, x0, {"b": 2, "p": 0.25})
        rng = ScriptedRng(coins=[0.9], batches=[[0, 1]])
        est.step(x1, rng)
        diff = quad.all_component_grads(x0) - quad.all_component_grads(x1)
        want = float((diff**2).sum(axis=1).mean())
        assert est.sigma_sq() == pytest.approx(want, rel=1e-12)


class TestSAGA:
    def test_scripted_two_steps(self, quad):
        x0 = np.zeros(4)
        x1 = np.array([0.1, -0.2, 0.3, 0.0])
        x2 = np.array([0.2, 0.1, -0.1, 0.4])
        est = make_estimator("saga", quad, x0, {"b": 2})
        G0 = quad.all_component_grads(x0)
        G1 = quad.all_component_grads(x1)
        G2 = quad.all_component_grads(x2)

        rng = ScriptedRng(batches=[[2, 5]])
        g = est.step(x1, rng)
        want = G0.mean(axis=0) + (G1[[2, 5]] - G0[[2, 5]]).mean(axis=0)
        assert np.allclose(g, want, atol=1e-14)
        assert est.grad_calls == 6 + 2

        # table now holds rows {2,5} at x1, the rest still at x0
        table = G0.copy()
        table[[2, 5]] = G1[[2, 5]]
        rng = ScriptedRng(batches=[[2, 0]])
        g = est.step(x2, rng)
        want = table.mean(axis=0) + (G2[[2, 0]] - table[[2, 0]]).mean(axis=0)
        assert np.allclose(g, want, atol=1e-13)
        table[[2, 0]] = G2[[2, 0]]
        assert np.allclose(est.table, table, atol=1e-14)
        assert np.allclose(est.table_mean, table.mean(axis=0), atol=1e-13)

    @pytest.mark.parametrize("method", ["saga", "zerosarah"])
    def test_dense_table_built_once_per_state(self, method, quad):
        est = make_estimator(method, quad, np.zeros(4), {"b": 2})
        first = est.table
        assert est.table is first
        twin = est.clone()
        twin.step(np.full(4, 0.3), np.random.default_rng(0))
        assert est.table is first
        assert np.array_equal(twin.table, dense_rows(twin.cols, twin.rows, 4))
        assert not np.array_equal(twin.table, first)
        est.step(np.full(4, -0.3), np.random.default_rng(0))
        assert np.array_equal(est.table, dense_rows(est.cols, est.rows, 4))
        assert not np.array_equal(est.table, first)

    def test_old_rows_used_not_fresh(self, quad):
        # the correction must subtract the STORED rows; re-sampling the same
        # batch twice in a row exposes any confusion with fresh gradients
        x0 = np.zeros(4)
        x1 = np.ones(4)
        est = make_estimator("saga", quad, x0, {"b": 1})
        G0 = quad.all_component_grads(x0)
        G1 = quad.all_component_grads(x1)
        est.step(x1, ScriptedRng(batches=[[3]]))
        g = est.step(x1, ScriptedRng(batches=[[3]]))
        table = G0.copy()
        table[3] = G1[3]
        want = table.mean(axis=0) + (G1[3] - table[3])
        assert np.allclose(g, want, atol=1e-13)


class TestPAGE:
    def test_batch_then_refresh(self, quad):
        x0 = np.zeros(4)
        x1 = np.array([0.1, -0.2, 0.3, 0.0])
        x2 = np.array([0.2, 0.1, -0.1, 0.4])
        est = make_estimator("page", quad, x0, {"b": 2, "p": 0.5})
        G0 = quad.all_component_grads(x0)
        G1 = quad.all_component_grads(x1)

        rng = ScriptedRng(coins=[0.9], batches=[[1, 4]])
        g = est.step(x1, rng)
        want = G0.mean(axis=0) + (G1[[1, 4]] - G0[[1, 4]]).mean(axis=0)
        assert np.allclose(g, want, atol=1e-14)
        assert est.grad_calls == 6 + 4

        rng = ScriptedRng(coins=[0.1])
        g = est.step(x2, rng)
        assert np.allclose(g, quad.full_grad(x2), atol=1e-14)
        assert est.grad_calls == 10 + 6

    def test_sigma_sq_always_zero(self, quad):
        est = make_estimator("page", quad, np.zeros(4), {"b": 2, "p": 0.5})
        est.step(np.ones(4), ScriptedRng(coins=[0.9], batches=[[0, 1]]))
        assert est.sigma_sq() == 0.0


class TestZeroSARAH:
    def test_scripted_replay(self, quad):
        x0 = np.zeros(4)
        x1 = np.array([0.1, -0.2, 0.3, 0.0])
        x2 = np.array([0.2, 0.1, -0.1, 0.4])
        est = make_estimator("zerosarah", quad, x0, {"b": 2})
        lam = 2 / 12
        G0 = quad.all_component_grads(x0)
        G1 = quad.all_component_grads(x1)
        G2 = quad.all_component_grads(x2)

        table = G0.copy()
        table_mean = table.mean(axis=0)
        g_prev = table_mean.copy()
        est.step(x1, ScriptedRng(batches=[[0, 3]]))
        chain = (G1[[0, 3]] - G0[[0, 3]]).mean(axis=0)
        control = (G0[[0, 3]] - table[[0, 3]]).mean(axis=0) + table_mean
        g_want = chain + (1 - lam) * g_prev + lam * control
        assert np.allclose(est.estimate, g_want, atol=1e-14)
        table[[0, 3]] = G1[[0, 3]]
        table_mean = table.mean(axis=0)

        g = est.step(x2, ScriptedRng(batches=[[3, 4]]))
        chain = (G2[[3, 4]] - G1[[3, 4]]).mean(axis=0)
        control = (G1[[3, 4]] - table[[3, 4]]).mean(axis=0) + table_mean
        g_want = chain + (1 - lam) * g_want + lam * control
        assert np.allclose(g, g_want, atol=1e-13)

    def test_no_full_pass_after_init(self, quad):
        est = make_estimator("zerosarah", quad, np.zeros(4), {"b": 2})
        assert est.grad_calls == 6
        rng = np.random.default_rng(0)
        for t in range(5):
            est.step(np.full(4, 0.1 * t), rng)
        assert est.grad_calls == 6 + 5 * 4


class TestSEGA:
    def test_memory_refreshes_at_previous_point(self, quad):
        x0 = np.zeros(4)
        x1 = np.array([0.1, -0.2, 0.3, 0.0])
        x2 = np.array([0.2, 0.1, -0.1, 0.4])
        est = make_estimator("sega", quad, x0, {"b": 2})

        est.step(x1, ScriptedRng(batches=[[1, 3]]))
        memory = quad.full_grad(x0)
        g_want = memory.copy()
        g_want[[1, 3]] += 2.0 * (quad.partials(x1, [1, 3]) - memory[[1, 3]])
        assert np.allclose(est.estimate, g_want, atol=1e-14)
        assert est.partial_calls == 4

        # on the next step coords {0,1} of the memory are refreshed at x1,
        # the point of the PREVIOUS step, before the estimate is formed
        est.step(x2, ScriptedRng(batches=[[0, 1]]))
        memory[[0, 1]] = quad.partials(x1, [0, 1])
        g_want = memory.copy()
        g_want[[0, 1]] += 2.0 * (quad.partials(x2, [0, 1]) - memory[[0, 1]])
        assert np.allclose(est.estimate, g_want, atol=1e-14)
        assert np.allclose(est.memory, memory, atol=1e-14)
        assert est.partial_calls == 8

    def test_conditional_mean_by_enumeration(self):
        prob = make_quadratic(5, 3, seed=1)
        x0 = np.array([0.3, -0.4, 0.2])
        x1 = np.array([-0.1, 0.5, 0.6])
        base = make_estimator("sega", prob, x0, {"b": 1})
        outcomes = []
        for c in range(3):
            est = base.clone()
            outcomes.append(est.step(x1, ScriptedRng(batches=[[c]])))
        avg = np.mean(outcomes, axis=0)
        h = base.memory
        want = prob.full_grad(x1) - (1 - 1 / 3) * (prob.full_grad(x0) - h)
        assert np.allclose(avg, want, atol=1e-13)

    def test_batch_bounded_by_dimension(self, quad):
        with pytest.raises(ValueError):
            make_estimator("sega", quad, np.zeros(4), {"b": 5})


class TestJAGUAR:
    def test_overwrites_sampled_coordinates(self, quad):
        x0 = np.zeros(4)
        x1 = np.array([0.1, -0.2, 0.3, 0.0])
        est = make_estimator("jaguar", quad, x0, {"b": 2})
        g0 = quad.full_grad(x0)
        g = est.step(x1, ScriptedRng(batches=[[2, 0]]))
        want = g0.copy()
        want[[2, 0]] = quad.partials(x1, [2, 0])
        assert np.allclose(g, want, atol=1e-14)
        assert est.partial_calls == 2
        assert est.grad_calls == 6

    def test_conditional_mean_by_enumeration(self):
        prob = make_quadratic(5, 3, seed=1)
        x0 = np.array([0.3, -0.4, 0.2])
        x1 = np.array([-0.1, 0.5, 0.6])
        base = make_estimator("jaguar", prob, x0, {"b": 1})
        outcomes = []
        for c in range(3):
            est = base.clone()
            outcomes.append(est.step(x1, ScriptedRng(batches=[[c]])))
        avg = np.mean(outcomes, axis=0)
        want = (1 / 3) * prob.full_grad(x1) + (1 - 1 / 3) * base.estimate
        assert np.allclose(avg, want, atol=1e-13)

    def test_batch_bounded_by_dimension(self, quad):
        with pytest.raises(ValueError):
            make_estimator("jaguar", quad, np.zeros(4), {"b": 5})


class TestEF21:
    def test_identity_compressor_tracks_exactly(self, quad):
        est = make_estimator(
            "ef21", quad, np.zeros(4), {"n_clients": 2, "compressor": "identity"}
        )
        rng = np.random.default_rng(0)
        for t in range(1, 4):
            x = np.full(4, 0.2 * t)
            g = est.step(x, rng)
            assert np.allclose(g, quad.full_grad(x), atol=1e-13)

    def test_topk_single_client_replay(self, quad):
        x0 = np.zeros(4)
        x1 = np.array([0.4, -0.1, 0.2, -0.6])
        est = make_estimator(
            "ef21",
            quad,
            x0,
            {"n_clients": 1, "compressor": TopK(1, 4)},
        )
        state = quad.full_grad(x0)
        u = quad.full_grad(x1)
        j = int(np.argmax(np.abs(u - state)))
        g = est.step(x1, np.random.default_rng(0))
        want = state.copy()
        want[j] = u[j]
        assert np.allclose(g, want, atol=1e-14)
        assert np.allclose(est.client_state[0], want, atol=1e-14)

    def test_sigma_sq_is_weighted_state_gap(self, quad):
        est = make_estimator(
            "ef21", quad, np.zeros(4), {"n_clients": 2, "compressor": "topk", "k": 1}
        )
        x1 = np.array([0.4, -0.1, 0.2, -0.6])
        est.step(x1, np.random.default_rng(0))
        want = sum(
            w * float(((s - cp.full_grad(x1)) ** 2).sum())
            for w, s, cp in zip(est.weights, est.client_state, reference_clients(est))
        )
        assert est.sigma_sq() == pytest.approx(want, rel=1e-12)


class TestDIANA:
    def test_rejects_biased_compressor(self, quad):
        with pytest.raises(ValueError):
            make_estimator(
                "diana", quad, np.zeros(4), {"n_clients": 2, "compressor": "topk", "k": 2}
            )

    def test_identity_compressor_tracks_exactly(self, quad):
        est = make_estimator(
            "diana", quad, np.zeros(4), {"n_clients": 2, "compressor": "identity"}
        )
        rng = np.random.default_rng(0)
        for t in range(1, 4):
            x = np.full(4, 0.2 * t)
            g = est.step(x, rng)
            assert np.allclose(g, quad.full_grad(x), atol=1e-13)

    def test_randk_single_client_replay(self, quad):
        x0 = np.zeros(4)
        x1 = np.array([0.4, -0.1, 0.2, -0.6])
        est = make_estimator(
            "diana",
            quad,
            x0,
            {"n_clients": 1, "compressor": RandK(2, 4)},
        )
        shift = quad.full_grad(x0)
        server = shift.copy()
        u = quad.full_grad(x1)
        # keep coordinates {0, 2}; RandK scales the survivors by d/k = 2
        g = est.step(x1, ScriptedRng(uniforms=[[[0.1, 0.6, 0.2, 0.7]]]))
        dense = np.zeros(4)
        dense[[0, 2]] = 2.0 * (u - shift)[[0, 2]]
        assert np.allclose(g, server + dense, atol=1e-14)
        omega = 2.0
        assert np.allclose(est.client_state[0], shift + dense / (omega + 1), atol=1e-14)
        assert np.allclose(est.server_state, server + dense / (omega + 1), atol=1e-14)

    def test_shift_mismatch_matches_manual_sum(self, quad):
        est = make_estimator(
            "diana", quad, np.zeros(4), {"n_clients": 3, "compressor": "randk", "k": 2}
        )
        est.step(np.ones(4), np.random.default_rng(1))
        y = np.array([0.5, 0.1, -0.3, 0.2])
        want = sum(
            w * float(((cp.full_grad(y) - h) ** 2).sum())
            for w, cp, h in zip(est.weights, reference_clients(est), est.client_state)
        )
        assert est.shift_mismatch(y) == pytest.approx(want, rel=1e-12)


class TestDASHA:
    def test_rejects_biased_compressor(self, quad):
        with pytest.raises(ValueError):
            make_estimator(
                "dasha", quad, np.zeros(4), {"n_clients": 2, "compressor": "topk", "k": 2}
            )

    def test_identity_compressor_tracks_exactly(self, quad):
        est = make_estimator(
            "dasha", quad, np.zeros(4), {"n_clients": 2, "compressor": "identity"}
        )
        rng = np.random.default_rng(0)
        for t in range(1, 4):
            x = np.full(4, 0.2 * t)
            g = est.step(x, rng)
            assert np.allclose(g, quad.full_grad(x), atol=1e-13)

    def test_randk_single_client_replay(self, quad):
        x0 = np.zeros(4)
        x1 = np.array([0.4, -0.1, 0.2, -0.6])
        x2 = np.array([-0.2, 0.3, 0.1, 0.5])
        est = make_estimator(
            "dasha",
            quad,
            x0,
            {"n_clients": 1, "compressor": RandK(2, 4)},
        )
        omega = 2.0
        eta = 1.0 / (2.0 * omega + 1.0)
        state = quad.full_grad(x0)
        prev = state.copy()
        g_prev = state.copy()

        # each step's uniforms argsort to the kept coordinates first
        for x, kept, uniforms in (
            (x1, [1, 3], [0.6, 0.1, 0.7, 0.2]),
            (x2, [0, 1], [0.1, 0.2, 0.6, 0.7]),
        ):
            u = quad.full_grad(x)
            momentum = u - prev - eta * (state - prev)
            dense = np.zeros(4)
            dense[kept] = 2.0 * momentum[kept]
            g = est.step(x, ScriptedRng(uniforms=[[uniforms]]))
            state = state + dense
            g_prev = g_prev + dense
            prev = u
            assert np.allclose(g, g_prev, atol=1e-14)
            assert np.allclose(est.client_state[0], state, atol=1e-14)
            assert np.allclose(est.client_grads[0], prev, atol=1e-14)


def client_loop_steps(method, est0, xs, rng):
    """The EF21/DIANA/DASHA updates written client by client on lists of
    vectors, from the state ``est0`` holds at construction: yields the
    estimate, the per-client memory (EF21/DASHA state, DIANA shifts) and
    sigma^2 after each step."""
    weights, compressor = est0.weights, est0.compressor
    clients = reference_clients(est0)
    grads = [cp.full_grad(est0.x) for cp in clients]
    memory = [u.copy() for u in grads]
    g = sum(w * m for w, m in zip(weights, memory))
    server_shift = g.copy()
    omega = getattr(compressor, "omega", 1.0)
    eta = 1.0 / (2.0 * omega + 1.0)
    for x in xs:
        update = np.zeros(len(x))
        for j, cp in enumerate(clients):
            u = cp.full_grad(x)
            if method == "dasha":
                residual = u - grads[j] - eta * (memory[j] - grads[j])
            else:
                residual = u - memory[j]
            dense = compressor.compress(residual, rng).to_dense()
            memory[j] = memory[j] + (dense / (omega + 1.0) if method == "diana" else dense)
            grads[j] = u
            update += weights[j] * dense
        if method == "diana":
            g = server_shift + update
            server_shift = server_shift + update / (omega + 1.0)
        else:
            g = g + update
        sigma = sum(w * ((m - u) ** 2).sum() for w, m, u in zip(weights, memory, grads))
        yield g, memory, sigma


class TestClientArraysMatchClientLoop:
    """The (n_clients, d) array form of each client-server step gives
    bit for bit what the client-by-client loop gives, including at
    d = 1, where numpy would sum the client axis pairwise."""

    @pytest.mark.parametrize("method,hp", [
        ("ef21", {"compressor": "topk", "k": 1}),
        ("diana", {"compressor": "randk", "k": 1}),
        ("dasha", {"compressor": "randk", "k": 1}),
    ])
    @pytest.mark.parametrize("n,d,n_clients", [(6, 4, 3), (27, 1, 9)])
    def test_steps_bit_equal(self, method, hp, n, d, n_clients):
        problem = make_quadratic(n, d, seed=2)
        hp = dict(hp, n_clients=n_clients, scheme="round-robin")
        est = make_estimator(method, problem, np.zeros(d), hp)
        walk = np.random.default_rng(4)
        xs = [walk.standard_normal(d) for _ in range(6)]
        reference = client_loop_steps(method, est.clone(), xs, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for x, (g, memory, sigma) in zip(xs, reference):
            assert np.array_equal(est.step(x, rng), g)
            assert np.array_equal(est.client_state, np.array(memory))
            assert est.sigma_sq() == sigma


def dense_reference_steps(method, problem, hp, xs, rng):
    """LSVRG, SAGA, PAGE and ZeroSARAH written on dense (b, d) gradient
    stacks and a dense (n, d) table, from x = xs[0]: yields the estimate,
    the table and its running mean (None without one) and grad_calls
    after each step.  The
    batches come from the estimators' own sampler, so both consume one
    stream."""
    n, b, p = problem.n_components, hp["b"], hp.get("p")
    replace = hp.get("with_replacement", False)
    x, calls = xs[0], n
    table = table_mean = anchor = None
    if method in ("saga", "zerosarah"):
        table = problem.all_component_grads(x)
        table_mean = table.mean(axis=0)
        g = table_mean.copy()
    elif method == "lsvrg":
        anchor, anchor_grad = x.copy(), problem.full_grad(x)
        g = anchor_grad.copy()
    else:
        g = problem.full_grad(x)
    for x_t in xs[1:]:
        if method == "lsvrg":
            if rng.random() < p:
                anchor, anchor_grad = x.copy(), problem.full_grad(x)
                calls += n
            batch = _draw_batch(rng, n, b, replace)
            cur, anc = problem.component_grads(batch, x_t), problem.component_grads(batch, anchor)
            g = anchor_grad + (cur - anc).mean(axis=0)
            calls += 2 * b
        elif method == "page":
            if rng.random() < p:
                g = problem.full_grad(x_t)
                calls += n
            else:
                batch = _draw_batch(rng, n, b, replace)
                cur, prev = problem.component_grads(batch, x_t), problem.component_grads(batch, x)
                g = g + (cur - prev).mean(axis=0)
                calls += 2 * b
        else:
            batch = _draw_batch(rng, n, b)
            cur, old = problem.component_grads(batch, x_t), table[batch]
            if method == "saga":
                g = table_mean + (cur - old).mean(axis=0)
                calls += b
            else:
                prev = problem.component_grads(batch, x)
                lam = b / (2.0 * n)
                control = (prev - old).mean(axis=0) + table_mean
                g = (cur - prev).mean(axis=0) + (1.0 - lam) * g + lam * control
                calls += 2 * b
            table[batch] = cur
            table_mean = table_mean + (cur - old).sum(axis=0) / n
        x = x_t
        yield g, None if table is None else table.copy(), table_mean, calls


def _bit_equal(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestSupportStepsMatchDenseAlgebra:
    """The support-aligned steps (column sums over the batch's support,
    row-aligned tables) give bit for bit what the dense algebra gives,
    over 200 steps on a sparse logistic problem and a dense quadratic."""

    CASES = [
        ("lsvrg", {"b": 8, "p": 0.2}),
        ("lsvrg", {"b": 8, "p": 0.2, "with_replacement": True}),
        ("saga", {"b": 8}),
        ("page", {"b": 8, "p": 0.2}),
        ("page", {"b": 8, "p": 0.2, "with_replacement": True}),
        ("zerosarah", {"b": 8}),
    ]

    @staticmethod
    def problem(kind):
        if kind == "logistic":
            return logistic_problem(synthetic_dataset(300, dim=40, seed=3, nnz_per_row=14))
        return make_quadratic(40, 10, seed=3, cond=100.0)

    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    @pytest.mark.parametrize(
        "method,hp", CASES, ids=[f"{m}-{i}" for i, (m, _) in enumerate(CASES)]
    )
    def test_200_steps_bit_equal(self, kind, method, hp):
        problem = self.problem(kind)
        walk = np.random.default_rng(5)
        xs = np.cumsum(0.1 * walk.standard_normal((201, problem.dim)), axis=0)
        est = make_estimator(method, problem, xs[0], hp)
        reference = dense_reference_steps(method, problem, hp, xs, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for x, (g, table, table_mean, calls) in zip(xs[1:], reference):
            assert _bit_equal(est.step(x, rng), g)
            assert est.grad_calls == calls
            if table is not None:
                assert _bit_equal(est.table, table)
                assert _bit_equal(est.table_mean, table_mean)


class TestCountersAndBits:
    def test_init_costs_one_full_pass(self, quad):
        for method in METHODS:
            est = make_estimator(method, quad, np.zeros(4), default_hp(method, quad))
            assert est.grad_calls == 6, method
            assert est.partial_calls == 0, method

    def test_distributed_init_broadcast_is_dense(self, quad):
        est = make_estimator(
            "ef21",
            quad,
            np.zeros(4),
            {"n_clients": 2, "compressor": "topk", "k": 1, "value_bits": 32},
        )
        assert est.bits_dense == 2 * dense_bits_cost(4, 32)
        assert est.bits_compressed == 0

    def test_compressed_step_cost(self, quad):
        est = make_estimator(
            "ef21",
            quad,
            np.zeros(4),
            {"n_clients": 2, "compressor": "topk", "k": 1, "value_bits": 32,
             "index_bits": 32},
        )
        rng = np.random.default_rng(0)
        est.step(np.ones(4), rng)
        assert est.bits_compressed == 2 * 1 * 64
        est.step(np.full(4, 0.5), rng)
        assert est.bits_compressed == 4 * 64
        assert est.bits_dense == 2 * dense_bits_cost(4, 32)
        assert est.bits == est.bits_dense + est.bits_compressed

    def test_per_step_gradient_counts(self, quad):
        rng = np.random.default_rng(0)
        x = np.ones(4)
        saga = make_estimator("saga", quad, np.zeros(4), {"b": 2})
        saga.step(x, rng)
        assert saga.grad_calls == 6 + 2

        zs = make_estimator("zerosarah", quad, np.zeros(4), {"b": 2})
        zs.step(x, rng)
        assert zs.grad_calls == 6 + 4

        for method in DISTRIBUTED_METHODS:
            est = make_estimator(
                method, quad, np.zeros(4), {"n_clients": 3, "compressor": "identity"}
            )
            est.step(x, rng)
            assert est.grad_calls == 6 + 6, method

        sega = make_estimator("sega", quad, np.zeros(4), {"b": 3})
        sega.step(x, rng)
        assert (sega.grad_calls, sega.partial_calls) == (6, 6)

        jag = make_estimator("jaguar", quad, np.zeros(4), {"b": 3})
        jag.step(x, rng)
        assert (jag.grad_calls, jag.partial_calls) == (6, 3)


class TestClone:
    @pytest.mark.parametrize("method", METHODS)
    def test_clone_is_independent_and_equivalent(self, method, quad):
        x0 = np.zeros(4)
        est = make_estimator(method, quad, x0, default_hp(method, quad))
        est.step(np.full(4, 0.3), np.random.default_rng(5))
        twin = est.clone()

        x_next = np.full(4, -0.2)
        g_orig = est.step(x_next, np.random.default_rng(7))
        # the original moved; the clone must still be at the old point
        assert np.allclose(twin.x, np.full(4, 0.3))
        g_twin = twin.step(x_next, np.random.default_rng(7))
        assert np.allclose(g_orig, g_twin, atol=1e-15)


class RecordingRng:
    """A seeded generator that keeps every array it hands out, so that
    each row of a batched draw can be read back and replayed."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def random(self, size=None):
        out = self._rng.random(size)
        self.draws.append(("random", out))
        return out

    def integers(self, low, high, size=None):
        out = self._rng.integers(low, high, size=size)
        self.draws.append(("integers", out))
        return out


def first_b(uniforms, b):
    """The subset an argsort-of-uniforms draw keeps."""
    return np.argsort(uniforms)[:b]


# (method, hyperparameters) pairs whose step_batch rows are replayed:
# every method, LSVRG and PAGE with and without replacement, and every
# compressor each client-server method accepts
BATCH_CASES = [
    ("lsvrg", {"b": 2, "p": 0.5}),
    ("lsvrg", {"b": 3, "p": 0.5, "with_replacement": True}),
    ("saga", {"b": 2}),
    ("page", {"b": 2, "p": 0.5}),
    ("page", {"b": 3, "p": 0.5, "with_replacement": True}),
    ("zerosarah", {"b": 2}),
    ("ef21", {"n_clients": 3, "compressor": "topk", "k": 2}),
    ("ef21", {"n_clients": 2, "compressor": "topk", "k": 1, "scheme": "round-robin"}),
    ("ef21", {"n_clients": 3, "compressor": "identity"}),
    ("diana", {"n_clients": 3, "compressor": "randk", "k": 2}),
    ("diana", {"n_clients": 3, "compressor": "identity"}),
    ("dasha", {"n_clients": 3, "compressor": "randk", "k": 2}),
    ("dasha", {"n_clients": 3, "compressor": "identity"}),
    ("sega", {"b": 2}),
    ("jaguar", {"b": 2}),
]


def replay_scripts(est, draws, S):
    """Per row of a step_batch draw, the ScriptedRng that makes ``step``
    take the same coin, batch, coordinates or compressor subsets."""
    draws = list(draws)
    coins = [None] * S
    if est.method in ("lsvrg", "page"):
        kind, values = draws.pop(0)
        assert kind == "random" and values.shape == (S,)
        coins = list(values)
    if est.method in DISTRIBUTED_METHODS:
        if not est.compressor.randomized:
            assert draws == []
            return [ScriptedRng() for _ in range(S)]
        (kind, u), = draws
        assert kind == "random" and u.shape == (S, est.n_clients, est.problem.dim)
        return [ScriptedRng(uniforms=[u[s]]) for s in range(S)]
    (kind, values), = draws
    if getattr(est, "with_replacement", False):
        assert kind == "integers" and values.shape == (S, est.b)
        batches = list(values)
    else:
        assert kind == "random"
        batches = [first_b(row, est.b) for row in values]
    return [
        ScriptedRng(coins=[] if c is None else [c], batches=[batch])
        for c, batch in zip(coins, batches)
    ]


def state_of(est):
    """The attributes a step may change; the dense ``table`` a table
    estimator caches is derived from its ``rows`` and ``cols``, which
    are compared, and is checked against them instead."""
    if "table" in vars(est):
        assert np.array_equal(est.table, dense_rows(est.cols, est.rows, est.problem.dim))
    return {
        k: [np.copy(a) for a in v] if isinstance(v, list) else np.copy(v)
        for k, v in vars(est).items()
        if k not in ("problem", "clients", "compressor", "table")
    }


class TestStepBatch:
    """Each row of ``step_batch`` is what ``step`` would return from the
    same state with the same coin, batch and compressor draws, so the
    verifier samples exactly the update rule the optimizer runs."""

    S = 16

    @pytest.mark.parametrize(
        "method,hp", BATCH_CASES, ids=[f"{m}-{i}" for i, (m, _) in enumerate(BATCH_CASES)]
    )
    def test_rows_replay_through_step(self, method, hp, quad):
        est = make_estimator(method, quad, np.zeros(4), hp)
        walk = np.random.default_rng(3)
        for x in (np.full(4, 0.3), np.array([0.5, -0.2, 0.1, 0.4])):
            est.step(x, walk)
        x_cand = np.array([-0.1, 0.6, 0.25, -0.3])
        before = state_of(est)

        rng = RecordingRng(11)
        G, sigma = est.step_batch(x_cand, rng, self.S)
        assert G.shape == (self.S, 4) and sigma.shape == (self.S,)

        after = state_of(est)
        assert after.keys() == before.keys()
        for key in before:
            assert np.array_equal(np.asarray(after[key]), np.asarray(before[key])), key

        scripts = replay_scripts(est, rng.draws, self.S)
        if method in ("lsvrg", "page"):
            outcomes = {bool(c < est.p) for c in rng.draws[0][1]}
            assert outcomes == {True, False}
        for s, script in enumerate(scripts):
            twin = est.clone()
            g = twin.step(x_cand, script)
            assert np.allclose(G[s], g, rtol=1e-12, atol=1e-15), s
            assert np.allclose(sigma[s], twin.sigma_sq(), rtol=1e-12, atol=1e-15), s


class TestConstruction:
    def test_unknown_method(self, quad):
        with pytest.raises(ValueError):
            make_estimator("sarah", quad, np.zeros(4), {"b": 2})

    def test_x0_shape_checked(self, quad):
        with pytest.raises(ValueError):
            make_estimator("saga", quad, np.zeros(3), {"b": 2})

    @pytest.mark.parametrize(
        "method,hp",
        [("saga", {}), ("zerosarah", {}), ("sega", {}), ("jaguar", {}),
         ("lsvrg", {"b": 2}), ("page", {"b": 2}), ("page", {"p": 0.5})],
    )
    def test_missing_batch_or_probability_is_value_error(self, method, hp, quad):
        with pytest.raises(ValueError, match="required|p must"):
            make_estimator(method, quad, np.zeros(4), hp)

    def test_estimator_constants_round_trip(self, quad):
        for method in METHODS:
            est = make_estimator(method, quad, np.zeros(4), default_hp(method, quad))
            c = est.constants()
            assert isinstance(c, VRConstants)
        est = make_estimator(
            "ef21", quad, np.zeros(4), {"n_clients": 2, "compressor": "topk", "k": 2}
        )
        assert est.constants() == constants("ef21", delta=2.0)
        est = make_estimator(
            "diana", quad, np.zeros(4), {"n_clients": 2, "compressor": "randk", "k": 2}
        )
        assert est.constants() == constants("diana", omega=2.0, n_clients=2)

    def test_method_groups(self):
        assert METHODS == (
            "lsvrg", "saga", "page", "zerosarah", "ef21", "diana", "dasha", "sega", "jaguar"
        )
        assert DISTRIBUTED_METHODS == ("ef21", "diana", "dasha")
        assert all(ESTIMATORS[m].method == m for m in METHODS)
