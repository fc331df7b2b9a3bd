import io

import numpy as np
import pytest

from vradapt.engine import ExperimentConfig, Trace, TraceRow, run
from vradapt.estimators import make_estimator
from vradapt.problems import QuadraticProblem, make_quadratic
from vradapt.schedulers import theoretical_gamma_nonconvex
from vradapt.verify import (
    MARGIN_CSV_HEADER,
    assumption_margin,
    grad_fd_check,
    margins_to_csv,
    pl_decay_check,
    rate_slope,
    standard_margin_setup,
)


def synthetic_trace(norm_fn, T=200, loss_fn=None):
    trace = Trace()
    for t in range(T):
        trace.append(
            TraceRow(
                t=t,
                loss=loss_fn(t) if loss_fn else 1.0,
                grad_norm=norm_fn(t),
                est_norm=0.0,
                gamma=0.1,
                grad_calls=t,
                partial_calls=0,
                bits=0,
                wall_ms=0.0,
            )
        )
    return trace


class TestRateSlope:
    def test_recovers_power_law_exponent(self):
        trace = synthetic_trace(lambda t: (t + 1.0) ** -0.5)
        # running min of t^-0.5 is itself; the fit sees the exact law up to
        # the off-by-one in the argument
        assert rate_slope(trace) == pytest.approx(-0.5, abs=1e-2)

    def test_constant_sequence_has_zero_slope(self):
        trace = synthetic_trace(lambda t: 1.0)
        assert rate_slope(trace) == pytest.approx(0.0, abs=1e-12)

    def test_running_min_ignores_spikes(self):
        # occasional upward spikes must not flatten the fitted decay
        def noisy(t):
            base = (t + 1.0) ** -0.5
            return base * (50.0 if t % 17 == 0 else 1.0)

        clean = rate_slope(synthetic_trace(lambda t: (t + 1.0) ** -0.5))
        spiky = rate_slope(synthetic_trace(noisy))
        assert spiky == pytest.approx(clean, abs=0.05)

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            rate_slope(synthetic_trace(lambda t: 1.0, T=49))

    def test_burn_in_validated(self):
        trace = synthetic_trace(lambda t: 1.0)
        with pytest.raises(ValueError):
            rate_slope(trace, burn_in_fraction=1.0)
        with pytest.raises(ValueError):
            rate_slope(trace, burn_in_fraction=-0.1)

    def test_zero_norms_survive_log(self):
        trace = synthetic_trace(lambda t: 0.0)
        assert np.isfinite(rate_slope(trace))


class TestPlDecay:
    def run_exact_gradient_descent(self):
        # full-batch exact steps on a unit-curvature quadratic decay the
        # gap geometrically, which the fit must recover
        prob = QuadraticProblem(np.ones((5, 3)), np.ones(3), np.zeros(5))
        cfg = ExperimentConfig(
            method="page", b=1, p=1.0, scheduler="constant", gamma=0.5, T=30
        )
        res = run(cfg, problem=prob)
        return res, prob

    def test_exact_descent_factor_within_bound(self):
        res, prob = self.run_exact_gradient_descent()
        out = pl_decay_check(res.trace, gamma=0.5, mu=prob.pl_constant, f_star=prob.f_star)
        assert out["passed"]
        assert out["factor"] <= out["bound"] + out["slack"]
        # gamma*mu = 0.5 on unit curvature: the gap contracts by exactly
        # (1-gamma)^2 = 0.25 per step
        assert out["factor"] == pytest.approx(0.25, rel=1e-6)

    def test_rounding_collapsed_rows_excluded(self):
        res, prob = self.run_exact_gradient_descent()
        out = pl_decay_check(res.trace, gamma=0.5, mu=prob.pl_constant, f_star=prob.f_star)
        assert out["points_used"] < len(res.trace)

    def test_wrong_f_star_rejected(self):
        res, prob = self.run_exact_gradient_descent()
        with pytest.raises(ValueError):
            pl_decay_check(res.trace, gamma=0.5, mu=prob.pl_constant,
                           f_star=res.trace.rows[0].loss + 1.0)

    def test_required_arguments_validated(self):
        res, prob = self.run_exact_gradient_descent()
        with pytest.raises(ValueError):
            pl_decay_check(res.trace, gamma=0.5, mu=prob.pl_constant)
        with pytest.raises(ValueError):
            pl_decay_check(res.trace, gamma=0.5, mu=0.0, f_star=prob.f_star)
        with pytest.raises(ValueError):
            pl_decay_check(res.trace, gamma=0.0, mu=1.0, f_star=prob.f_star)

    def test_too_few_rows_rejected(self):
        res, prob = self.run_exact_gradient_descent()
        short = Trace()
        short.append(res.trace.rows[0])
        short.append(res.trace.rows[1])
        with pytest.raises(ValueError):
            pl_decay_check(short, gamma=0.5, mu=1.0, f_star=prob.f_star)


class TestFiniteDifference:
    def test_quadratic_gradient_matches(self):
        prob = make_quadratic(6, 4, seed=0)
        assert grad_fd_check(prob, points=3, h=1e-3) <= 1e-9

    def test_logistic_gradient_matches(self):
        from vradapt.data import synthetic_dataset
        from vradapt.problems import logistic_problem

        prob = logistic_problem(synthetic_dataset(30, dim=8, seed=0, nnz_per_row=4))
        assert grad_fd_check(prob, points=3, h=1e-6) <= 1e-5

    def test_central_difference_is_h_independent_on_quadratics(self):
        # no third derivative, so even a huge stencil is exact up to rounding
        prob = make_quadratic(6, 4, seed=0)
        assert grad_fd_check(prob, h=1.0) <= 1e-12

    def test_truncation_error_grows_with_h(self):
        from vradapt.data import synthetic_dataset
        from vradapt.problems import logistic_problem

        prob = logistic_problem(synthetic_dataset(30, dim=8, seed=0, nnz_per_row=4))
        assert grad_fd_check(prob, points=3, h=0.5) > 100 * grad_fd_check(
            prob, points=3, h=1e-4
        )

    def test_parameters_validated(self):
        prob = make_quadratic(6, 4, seed=0)
        with pytest.raises(ValueError):
            grad_fd_check(prob, h=0.0)
        with pytest.raises(ValueError):
            grad_fd_check(prob, points=0)


class TestAssumptionMargins:
    # full-scale margin sampling lives in the acceptance suite; these runs
    # use few states and the minimum sample count to stay fast

    def test_smoke_batch_method_passes(self):
        problem, hp = standard_margin_setup("saga")
        report = assumption_margin("saga", hp, problem, state_points=2,
                                   samples_per_point=1000, seed=0)
        assert report.passed
        assert {r.inequality for r in report.rows} == {1, 2}
        assert len(report.rows) == 4

    def test_memoryless_method_skips_second_recursion(self):
        problem, hp = standard_margin_setup("page")
        report = assumption_margin("page", hp, problem, state_points=2,
                                   samples_per_point=1000, seed=0)
        assert report.passed
        assert {r.inequality for r in report.rows} == {1}

    def test_mutated_constant_fails(self):
        # halving the compressed-feedback travel constant breaks the
        # second recursion at the adversarial probe state
        from vradapt.estimators import constants

        problem, hp = standard_margin_setup("ef21")
        reg = constants("ef21", delta=10.0)
        report = assumption_margin(
            "ef21", hp, problem, state_points=2, samples_per_point=1000,
            seed=0, constants_override=reg.scaled({"C": 0.5}),
        )
        assert not report.passed
        worst = report.worst()
        assert worst.inequality == 2
        assert worst.margin > 0.0

    def test_registered_constants_pass_where_mutation_fails(self):
        problem, hp = standard_margin_setup("ef21")
        report = assumption_margin("ef21", hp, problem, state_points=2,
                                   samples_per_point=1000, seed=0)
        assert report.passed

    def test_checks_the_tuple_the_estimator_registers(self):
        # an identity compressor given k: the estimator registers delta = 1,
        # not the d/k a topk or randk compressor of that k would have
        problem, _ = standard_margin_setup("ef21")
        hp = {"n_clients": 10, "compressor": "identity", "k": 5}
        est = make_estimator("ef21", problem, np.zeros(problem.dim), hp)
        report = assumption_margin("ef21", hp, problem, state_points=1,
                                   samples_per_point=1000, seed=0)
        assert report.constants == est.constants()
        assert report.gamma == theoretical_gamma_nonconvex(est.constants(), problem.smoothness)

    def test_sample_floor_enforced(self):
        problem, hp = standard_margin_setup("saga")
        with pytest.raises(ValueError):
            assumption_margin("saga", hp, problem, samples_per_point=999)
        with pytest.raises(ValueError):
            assumption_margin("saga", hp, problem, state_points=0)

    def test_unknown_method(self):
        problem, _ = standard_margin_setup("saga")
        with pytest.raises(ValueError):
            assumption_margin("sarah", {"b": 4}, problem)

    def test_setup_covers_every_method(self):
        from vradapt.estimators import METHODS

        for method in METHODS:
            problem, hp = standard_margin_setup(method)
            assert problem.dim == 10
            assert hp
        with pytest.raises(ValueError):
            standard_margin_setup("sarah")


class TestMarginCsv:
    def test_schema_and_pass_column(self):
        problem, hp = standard_margin_setup("page")
        report = assumption_margin("page", hp, problem, state_points=2,
                                   samples_per_point=1000, seed=0)
        buffer = io.StringIO()
        margins_to_csv(report, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == MARGIN_CSV_HEADER
        assert len(lines) == 1 + len(report.rows)
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            assert fields[0] == "page"
            assert fields[7] in ("0", "1")

    def test_accepts_report_list_and_path(self, tmp_path):
        problem, hp = standard_margin_setup("page")
        report = assumption_margin("page", hp, problem, state_points=1,
                                   samples_per_point=1000, seed=0)
        path = tmp_path / "margins.csv"
        margins_to_csv([report, report], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 2 * len(report.rows)
        buffer = io.StringIO()
        margins_to_csv([report, report], buffer)
        assert path.read_bytes() == buffer.getvalue().encode()
