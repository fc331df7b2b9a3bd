import numpy as np
import pytest

from vradapt.compressors import IdentityCompressor, RandK, TopK, dense_bits_cost
from vradapt.estimators import (
    COORDINATE_METHODS,
    DISTRIBUTED_METHODS,
    METHODS,
    VRConstants,
    constants,
    init,
    make_estimator,
    sigma_sq,
    step_dasha,
    step_diana,
    step_ef21,
    step_jaguar,
    step_lsvrg,
    step_page,
    step_saga,
    step_sega,
    step_zerosarah,
)
from vradapt.problems import make_quadratic, partition_problem


class ScriptedRng:
    """Replays a fixed script of coin flips and batch draws so each
    estimator update can be checked against hand arithmetic."""

    def __init__(self, coins=(), batches=()):
        self._coins = list(coins)
        self._batches = [list(b) for b in batches]

    def random(self):
        return self._coins.pop(0)

    def permutation(self, n):
        batch = self._batches.pop(0)
        rest = [i for i in range(n) if i not in batch]
        return np.array(batch + rest, dtype=np.int64)

    def integers(self, low, high, size=None):
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
        clients = partition_problem(quad, 1)
        est = make_estimator(
            "ef21",
            quad,
            x0,
            {"client_problems": clients, "compressor": TopK(1, 4)},
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
            for w, s, cp in zip(est.weights, est.client_state, est.clients)
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
        clients = partition_problem(quad, 1)
        est = make_estimator(
            "diana",
            quad,
            x0,
            {"client_problems": clients, "compressor": RandK(2, 4)},
        )
        shift = quad.full_grad(x0)
        server = shift.copy()
        u = quad.full_grad(x1)
        # keep coordinates {0, 2}; RandK scales the survivors by d/k = 2
        g = est.step(x1, ScriptedRng(batches=[[0, 2]]))
        dense = np.zeros(4)
        dense[[0, 2]] = 2.0 * (u - shift)[[0, 2]]
        assert np.allclose(g, server + dense, atol=1e-14)
        omega = 2.0
        assert np.allclose(est.shifts[0], shift + dense / (omega + 1), atol=1e-14)
        assert np.allclose(est.server_shift, server + dense / (omega + 1), atol=1e-14)

    def test_shift_mismatch_matches_manual_sum(self, quad):
        est = make_estimator(
            "diana", quad, np.zeros(4), {"n_clients": 3, "compressor": "randk", "k": 2}
        )
        est.step(np.ones(4), np.random.default_rng(1))
        y = np.array([0.5, 0.1, -0.3, 0.2])
        want = sum(
            w * float(((cp.full_grad(y) - h) ** 2).sum())
            for w, cp, h in zip(est.weights, est.clients, est.shifts)
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
        clients = partition_problem(quad, 1)
        est = make_estimator(
            "dasha",
            quad,
            x0,
            {"client_problems": clients, "compressor": RandK(2, 4)},
        )
        omega = 2.0
        eta = 1.0 / (2.0 * omega + 1.0)
        state = quad.full_grad(x0)
        prev = state.copy()
        g_prev = state.copy()

        for x, kept in ((x1, [1, 3]), (x2, [0, 1])):
            u = quad.full_grad(x)
            momentum = u - prev - eta * (state - prev)
            dense = np.zeros(4)
            dense[kept] = 2.0 * momentum[kept]
            g = est.step(x, ScriptedRng(batches=[kept]))
            state = state + dense
            g_prev = g_prev + dense
            prev = u
            assert np.allclose(g, g_prev, atol=1e-14)
            assert np.allclose(est.client_state[0], state, atol=1e-14)
            assert np.allclose(est.prev_grads[0], prev, atol=1e-14)


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
    ("ef21", {"n_clients": 3, "compressor": "randk", "k": 2}),
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
        k = est.compressor.k
        return [ScriptedRng(batches=[first_b(row, k) for row in u[s]]) for s in range(S)]
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
    return {
        k: [np.copy(a) for a in v] if isinstance(v, list) else np.copy(v)
        for k, v in vars(est).items()
        if k not in ("problem", "clients", "compressor")
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


class TestFacade:
    def test_init_and_step_round_trip(self, quad):
        state = init("saga", quad, {"b": 2}, np.zeros(4))
        g = step_saga(state, np.ones(4), np.random.default_rng(0))
        assert g is state.estimate
        assert sigma_sq(state) > 0.0

    def test_method_mismatch_rejected(self, quad):
        state = init("lsvrg", quad, {"b": 2, "p": 0.5}, np.zeros(4))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            step_saga(state, np.ones(4), rng)
        with pytest.raises(ValueError):
            step_page(state, np.ones(4), rng)
        g = step_lsvrg(state, np.ones(4), rng)
        assert g.shape == (4,)

    def test_all_step_functions_dispatch(self, quad):
        rng = np.random.default_rng(0)
        x = np.ones(4)
        steps = {
            "lsvrg": step_lsvrg,
            "saga": step_saga,
            "page": step_page,
            "zerosarah": step_zerosarah,
            "sega": step_sega,
            "jaguar": step_jaguar,
        }
        for method, fn in steps.items():
            state = init(method, quad, default_hp(method, quad), np.zeros(4))
            assert fn(state, x, rng).shape == (4,)

    def test_distributed_rng_required(self, quad):
        state = init(
            "diana", quad, {"n_clients": 2, "compressor": "randk", "k": 2}, np.zeros(4)
        )
        with pytest.raises(ValueError):
            step_diana(state, np.ones(4))
        state = init(
            "dasha", quad, {"n_clients": 2, "compressor": "randk", "k": 2}, np.zeros(4)
        )
        with pytest.raises(ValueError):
            step_dasha(state, np.ones(4))

    def test_client_count_mismatch_rejected(self, quad):
        state = init(
            "ef21", quad, {"n_clients": 2, "compressor": "topk", "k": 1}, np.zeros(4)
        )
        wrong = partition_problem(quad, 3)
        with pytest.raises(ValueError):
            step_ef21(state, np.ones(4), client_problems=wrong)
        g = step_ef21(state, np.ones(4), rng=np.random.default_rng(0))
        assert g.shape == (4,)

    def test_compressor_swap_takes_effect(self, quad):
        state = init(
            "ef21", quad, {"n_clients": 1, "compressor": "topk", "k": 1}, np.zeros(4)
        )
        g = step_ef21(
            state, np.ones(4), compressor=IdentityCompressor(4),
            rng=np.random.default_rng(0),
        )
        assert np.allclose(g, quad.full_grad(np.ones(4)), atol=1e-13)


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
        assert set(DISTRIBUTED_METHODS) <= set(METHODS)
        assert set(COORDINATE_METHODS) <= set(METHODS)
        assert len(METHODS) == 9
