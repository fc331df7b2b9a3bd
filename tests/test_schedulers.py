import math

import numpy as np
import pytest

from vradapt.estimators import METHODS, constants
from vradapt.schedulers import (
    AdamState,
    AdaptiveAccumulator,
    adaptive_step_size,
    corollary_step_size,
    nu_of,
    theoretical_gamma_nonconvex,
    theoretical_gamma_pl,
    tuned_gamma,
)

RATIO_HP = {
    "lsvrg": {"b": 4, "p": 0.25},
    "saga": {"b": 8, "n": 100},
    "page": {"b": 4, "p": 0.2},
    "zerosarah": {"b": 8, "n": 100},
    "ef21": {"delta": 3.0},
    "diana": {"omega": 2.0, "n_clients": 10},
    "dasha": {"omega": 2.0, "n_clients": 10},
    "sega": {"b": 2, "d": 10},
    "jaguar": {"b": 2, "d": 10},
}


class TestNu:
    def test_clamped_to_one(self):
        # a full-pass-every-step method has A = B = 0, so the raw ratio is 0
        assert nu_of(constants("page", b=8, p=1.0)) == 1.0

    def test_zerosarah_hand_value(self):
        c = constants("zerosarah", b=8, n=100)
        assert nu_of(c) == pytest.approx(631.25, rel=1e-12)

    def test_sega_hand_value(self):
        assert nu_of(constants("sega", b=2, d=10)) == pytest.approx(775.0, rel=1e-12)


class TestTheoreticalGamma:
    def test_pinned_page_value(self):
        c = constants("page", b=1, p=0.5)
        assert theoretical_gamma_nonconvex(c, 1.0) == pytest.approx(0.5)

    def test_scales_inversely_with_smoothness(self):
        c = constants("saga", b=4, n=20)
        g1 = theoretical_gamma_nonconvex(c, 1.0)
        assert theoretical_gamma_nonconvex(c, 4.0) == pytest.approx(g1 / 4.0)

    def test_smoothness_validated(self):
        c = constants("page", b=1, p=0.5)
        with pytest.raises(ValueError):
            theoretical_gamma_nonconvex(c, 0.0)
        with pytest.raises(ValueError):
            theoretical_gamma_nonconvex(c, -1.0)

    def test_pl_pinned_memoryless_value(self):
        c = constants("page", b=1, p=1.0)
        assert theoretical_gamma_pl(c, 1.0, 1.0) == pytest.approx(0.5)

    def test_pl_smooth_branch_binds_for_tiny_mu(self):
        c = constants("saga", b=10, n=10)
        got = theoretical_gamma_pl(c, 1.0, 1e-9)
        ratio = (c.B * c.rho2 + 4.0 * c.A * c.C) / (c.rho1 * c.rho2)
        assert got == pytest.approx(1.0 / (1.0 + math.sqrt(ratio)))

    def test_pl_validates_inputs(self):
        c = constants("page", b=1, p=0.5)
        with pytest.raises(ValueError):
            theoretical_gamma_pl(c, 0.0, 1.0)
        with pytest.raises(ValueError):
            theoretical_gamma_pl(c, 1.0, 0.0)

    def test_pl_never_exceeds_memory_cap(self):
        for method, hp in RATIO_HP.items():
            c = constants(method, **hp)
            got = theoretical_gamma_pl(c, 1.0, 2.0)
            assert got <= min(c.rho1, c.rho2) / 4.0 + 1e-15, method

    def test_tuned_multiplier(self):
        c = constants("saga", b=4, n=20)
        base = theoretical_gamma_nonconvex(c, 2.0)
        assert tuned_gamma(c, 2.0, 8.0) == pytest.approx(8.0 * base)
        assert tuned_gamma(c, 2.0, 1.0) == pytest.approx(base)
        with pytest.raises(ValueError):
            tuned_gamma(c, 2.0, 0.0)
        with pytest.raises(ValueError):
            tuned_gamma(c, 2.0, -2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_settings_are_named(self, bad):
        c = constants("saga", b=4, n=20)
        calls = {
            "L": [
                lambda: theoretical_gamma_nonconvex(c, bad),
                lambda: theoretical_gamma_pl(c, bad, 1.0),
                lambda: tuned_gamma(c, bad, 1.0),
            ],
            "mu": [lambda: theoretical_gamma_pl(c, 1.0, bad)],
            "multiplier": [lambda: tuned_gamma(c, 1.0, bad)],
            "lr": [lambda: AdamState(dim=2, lr=bad)],
        }
        for name, checks in calls.items():
            for check in checks:
                with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad}$"):
                    check()


class TestAdaptiveArithmetic:
    def test_pinned_flat_landscape(self):
        assert adaptive_step_size(1.0, 0.25, 16.0) == pytest.approx(0.5)

    def test_pinned_coupled_landscape(self):
        # boundary alpha = 1/3 is legal in the pure-arithmetic helper
        assert adaptive_step_size(64.0, 1.0 / 3.0, 8.0) == pytest.approx(0.125)

    def test_zero_total_returns_zero(self):
        assert adaptive_step_size(5.0, 0.25, 0.0) == 0.0

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            adaptive_step_size(5.0, 0.25, -1.0)


class TestAdaptiveAccumulator:
    def test_alpha_bounds_strict(self):
        for bad in (0.0, 1.0 / 3.0, 0.34, -0.1, 1.0):
            with pytest.raises(ValueError):
                AdaptiveAccumulator(nu=2.0, alpha=bad)
        AdaptiveAccumulator(nu=2.0, alpha=0.33)
        AdaptiveAccumulator(nu=2.0, alpha=1e-6)

    def test_nu_lower_bound(self):
        with pytest.raises(ValueError, match=r"^nu must be >= 1 \(it is clamped upstream\), got 0.5$"):
            AdaptiveAccumulator(nu=0.5)
        # nan passes the lower bound; inf would make every step 0
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^nu must be finite, got {bad}$"):
                AdaptiveAccumulator(nu=bad)
        AdaptiveAccumulator(nu=1.0)

    def test_sum_includes_current_estimate(self):
        acc = AdaptiveAccumulator(nu=1.0, alpha=0.25)
        gamma = acc.gamma(np.array([2.0]))
        assert acc.total == 4.0
        assert acc.steps == 1
        assert gamma == pytest.approx(4.0**-0.25)

    def test_nonincreasing(self):
        rng = np.random.default_rng(0)
        acc = AdaptiveAccumulator(nu=3.0, alpha=0.3)
        prev = float("inf")
        for _ in range(200):
            gamma = acc.gamma(rng.standard_normal(5))
            assert gamma <= prev + 1e-18
            prev = gamma

    def test_gradient_scaling_law(self):
        # scaling every estimate by c multiplies total by c^2, hence
        # every step size by c^(-2*alpha)
        rng = np.random.default_rng(1)
        grads = [rng.standard_normal(4) for _ in range(20)]
        alpha = 0.25
        a1 = AdaptiveAccumulator(nu=2.0, alpha=alpha)
        a2 = AdaptiveAccumulator(nu=2.0, alpha=alpha)
        c = 2.0
        for g in grads:
            g1 = a1.gamma(g)
            g2 = a2.gamma(c * g)
            assert g2 == pytest.approx(g1 * c ** (-2 * alpha), rel=1e-12)

    def test_stationary_flag(self):
        acc = AdaptiveAccumulator(nu=1.0, alpha=0.25)
        assert not acc.stationary
        assert acc.gamma(np.zeros(3)) == 0.0
        assert acc.stationary
        acc.gamma(np.array([1.0, 0.0, 0.0]))
        assert not acc.stationary


class TestCorollaryForms:
    @pytest.mark.parametrize("method", METHODS)
    def test_agrees_with_generic_route(self, method):
        hp = RATIO_HP[method]
        nu = nu_of(constants(method, **hp))
        for total in (0.5, 7.0, 1234.5):
            direct = corollary_step_size(method, 0.25, total, **hp)
            generic = adaptive_step_size(nu, 0.25, total)
            assert direct == pytest.approx(generic, rel=1e-12), method

    def test_zero_total_short_circuit(self):
        assert corollary_step_size("saga", 0.25, 0.0, b=4, n=20) == 0.0
        with pytest.raises(ValueError):
            corollary_step_size("saga", 0.25, -1.0, b=4, n=20)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            corollary_step_size("sarah", 0.25, 1.0, b=4)
        # names are exact, as in constants and run
        with pytest.raises(ValueError, match="^unknown method 'SAGA'$"):
            corollary_step_size("SAGA", 0.25, 1.0, b=4, n=20)


class TestAdamBaseline:
    def test_first_update_is_signed_learning_rate(self):
        moments = AdamState(dim=1, lr=0.1)
        update = moments.advance(np.array([1.0]))[1]
        assert update[0] == pytest.approx(-0.1, rel=1e-6)

    def test_two_step_manual_replay(self):
        g1 = np.array([0.5, -2.0])
        g2 = np.array([1.5, 0.25])
        moments = AdamState(dim=2, lr=0.01)
        u1 = moments.advance(g1)[1]
        m = 0.1 * g1
        v = 0.001 * g1 * g1
        mh = m / (1 - 0.9)
        vh = v / (1 - 0.999)
        assert np.allclose(u1, -0.01 * mh / (np.sqrt(vh) + 1e-8), atol=1e-15)

        u2 = moments.advance(g2)[1]
        m = 0.9 * m + 0.1 * g2
        v = 0.999 * v + 0.001 * g2 * g2
        mh = m / (1 - 0.9**2)
        vh = v / (1 - 0.999**2)
        assert np.allclose(u2, -0.01 * mh / (np.sqrt(vh) + 1e-8), atol=1e-15)
        assert moments.t == 2

    def test_state_validation(self):
        with pytest.raises(ValueError):
            AdamState(dim=2, lr=0.0)
