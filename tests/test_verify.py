import dataclasses
import hashlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vradapt.engine import ExperimentConfig, Trace, TraceRow, run  # noqa: E402
from vradapt.estimators import (  # noqa: E402
    DISTRIBUTED_METHODS,
    METHODS,
    constants,
    estimator_class,
    make_estimator,
)
from vradapt.problems import QuadraticProblem, make_quadratic  # noqa: E402
from vradapt.schedulers import theoretical_gamma_nonconvex  # noqa: E402
from vradapt.verify import (  # noqa: E402
    MARGIN_CSV_HEADER,
    MarginReport,
    MarginRow,
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
                est_err=0.0,
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

    def test_too_few_rows_after_burn_in_rejected(self):
        # rows at t < 1 have no log t; past the first fifth none is left
        rows = [dataclasses.replace(r, t=r.t / 100) for r in synthetic_trace(lambda t: 1.0, T=60)]
        with pytest.raises(ValueError, match="^not enough points after burn-in$"):
            rate_slope(rows)

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_settings_are_named(self, bad):
        res, prob = self.run_exact_gradient_descent()
        for name, kwargs in (("mu", dict(gamma=0.5, mu=bad)), ("gamma", dict(gamma=bad, mu=1.0))):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad}$"):
                pl_decay_check(res.trace, f_star=prob.f_star, **kwargs)

    def test_gap_collapsed_after_two_rows_rejected(self):
        # the gap hits 0 at t = 2, which leaves two rows to fit
        trace = synthetic_trace(lambda t: 1.0, T=10, loss_fn=lambda t: 0.5**t if t < 2 else 0.0)
        with pytest.raises(ValueError, match="^gap collapsed too quickly to fit a decay factor$"):
            pl_decay_check(trace, gamma=0.5, mu=1.0, f_star=0.0)

    def test_gap_that_recovers_after_collapse_ends_the_fit(self):
        # the gap drops to 1e-20 of the first at t = 5 and is back at t = 7:
        # only the leading run, t = 0..4, is fitted
        trace = synthetic_trace(
            lambda t: 1.0, T=12, loss_fn=lambda t: 1e-20 if t in (5, 6) else 0.5**t
        )
        out = pl_decay_check(trace, gamma=0.5, mu=1.0, f_star=0.0)
        assert out["points_used"] == 5
        assert out["factor"] == pytest.approx(0.5)

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

    @pytest.mark.parametrize("bad", [0, 1, 3])
    def test_nan_gradient_is_the_worst_gap(self, bad):
        # max() dropped a NaN gap, so a NaN gradient read as 0.0, a
        # perfect match; the NaN stays however many finite gaps follow
        prob = make_quadratic(6, 4, seed=0)

        class NaNGradient:
            dim = prob.dim
            loss = prob.loss

            def full_grad(self, x):
                g = prob.full_grad(x)
                g[bad] = np.nan
                return g

        assert np.isnan(grad_fd_check(NaNGradient(), points=2))

    def test_parameters_validated(self):
        prob = make_quadratic(6, 4, seed=0)
        with pytest.raises(ValueError):
            grad_fd_check(prob, h=0.0)
        with pytest.raises(ValueError):
            grad_fd_check(prob, points=0)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_step_is_named(self, h):
        # every gap is then nan or 0, and the max of them reads 0.0: a pass
        with pytest.raises(ValueError, match=f"^h must be positive and finite, got {h}$"):
            grad_fd_check(make_quadratic(6, 4, seed=0), h=h)


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
        assert report.constants == est.registered
        assert report.gamma == theoretical_gamma_nonconvex(est.registered, problem.smoothness)

    @staticmethod
    def counted_run(method, monkeypatch, **settings):
        """Calls of each oracle the draws at a state share, and estimator
        steps, in one ``assumption_margin`` run on the method's fixture."""
        problem, hp = standard_margin_setup(method)
        calls = dict.fromkeys(("all_component_grads", "full_grad", "client pass", "step"), 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("all_component_grads", "full_grad"):
            monkeypatch.setattr(problem, name, counted(name, getattr(problem, name)))
        group_grads = problem.group_grads
        monkeypatch.setattr(
            problem, "group_grads", lambda groups: counted("client pass", group_grads(groups))
        )
        cls = estimator_class(method)
        monkeypatch.setattr(cls, "step", counted("step", cls.step))
        assumption_margin(method, hp, problem, seed=0, **settings)
        return calls

    @pytest.mark.parametrize("method", METHODS)
    def test_shared_oracle_work_is_done_once_per_state(self, method, monkeypatch):
        # 1000 and 2000 samples are 4 and 8 blocks drawn from one sampler
        blocks4 = self.counted_run(method, monkeypatch, state_points=1, samples_per_point=1000)
        blocks8 = self.counted_run(method, monkeypatch, state_points=1, samples_per_point=2000)
        assert blocks4 == blocks8
        assert blocks4["full_grad"] > 0 and blocks4["step"] == 0
        assert (blocks4["client pass"] > 0) == (method in DISTRIBUTED_METHODS)

    @pytest.mark.parametrize("states", [1, 2, 5])
    def test_trajectory_steps_once_between_states(self, states, monkeypatch):
        # no step after the last state: no row reads its successor
        calls = self.counted_run("saga", monkeypatch, state_points=states, samples_per_point=1000)
        assert calls["step"] == states - 1

    def test_probe_state_reads_its_exact_gradient_once(self, monkeypatch):
        # EF21 probes at state 1, along the estimate error: its candidate
        # reuses the state's exact gradient, so state 1 calls full_grad no
        # more often than state 0, which takes the natural step
        assert estimator_class("ef21").probe_state == 1
        one, two = (
            self.counted_run("ef21", monkeypatch, state_points=states, samples_per_point=1000)
            for states in (1, 2)
        )
        assert one["full_grad"] > 0
        assert two["full_grad"] - one["full_grad"] <= one["full_grad"]

    def test_sample_floor_enforced(self):
        problem, hp = standard_margin_setup("saga")
        with pytest.raises(ValueError, match="^samples_per_point must be >= 1000, got 999$"):
            assumption_margin("saga", hp, problem, samples_per_point=999)
        with pytest.raises(ValueError):
            assumption_margin("saga", hp, problem, state_points=0)

    def test_problem_without_optimum_is_named(self):
        # a logistic problem has no x_opt to start the trajectory next to
        from vradapt.data import synthetic_dataset
        from vradapt.problems import logistic_problem

        problem = logistic_problem(synthetic_dataset(40, 6, seed=0))
        with pytest.raises(ValueError, match="^LogisticProblem has no known optimum.*quadratic fixture$"):
            assumption_margin("saga", {"b": 4}, problem, state_points=1, samples_per_point=1000)

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


# SHA-256 of ``margins_to_csv`` of each method's report on its
# ``standard_margin_setup`` at GOLDEN_RUN, and of EF21's with C halved
# (the mutation probe, ``verify --perturb C:0.5``), so a change to a
# sampler, a compressor or the verifier that moves one margin byte
# fails here.  To regenerate, run this file as a script:
#
#     python tests/test_verify.py
#
# It prints MARGIN_GOLDEN with each digest as it now stands and names the
# cases whose digest changed on stderr.
GOLDEN_RUN = dict(state_points=3, samples_per_point=1000, seed=0)
MARGIN_GOLDEN = {
    "lsvrg": "9f15e97a426a7d3db2b1df8af20c57eee5d5002ebb5be9a8174c826254db6d7c",
    "saga": "2c8dbafa159da0c896ada688a0c1683c028e1182ef68080e3cb3b7ede1d33b78",
    "page": "49be2904a65047126817fe4bdd324608d2e41bdceae3a92cf4b7d8591c5fbb54",
    "zerosarah": "8bc6c669677952f325c66b3d2edc65e0f2b4d1f6b32a7fdbd8a360279f4bf0ae",
    "ef21": "cb45ca8ffaa5e48aad880af2d9a375e26bf02564f506a1d0cc8c1174d39d15aa",
    "diana": "93e6192bf4571ee1873f323d38ac6335ffe2b475cce13396b946fa5bd1fc2f71",
    "dasha": "eeb67a52ce5e48bcc933190ff33cbc87b802802e31035396ac32cd73ccc831fb",
    "sega": "2610a8e9aa52d07ffbbb4c505f8a06b04b2c93816337cb5313ce2a8a84c380c2",
    "jaguar": "211cadaad66eb7374e2d6379cd53a339de5bd05162bef584fe3a5e15878ff2d9",
    "ef21 C*0.5": "62881f6bf6367f669e695db5f046ad7bc7c53ecc17452b65f97060453d321eb8",
}


def _margin_report(case):
    """The report a MARGIN_GOLDEN case pins: ``method``, or ``method
    NAME*FACTOR`` for the registered tuple with NAME scaled by FACTOR."""
    method, _, perturb = case.partition(" ")
    problem, hp = standard_margin_setup(method)
    override = None
    if perturb:
        name, factor = perturb.split("*")
        override = estimator_class(method).settings(problem, hp)[1].scaled({name: float(factor)})
    return assumption_margin(method, hp, problem, constants_override=override, **GOLDEN_RUN)


def _margin_digest(report):
    buffer = io.StringIO()
    margins_to_csv(report, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


class TestMarginGolden:
    def test_covers_every_method_and_the_probe(self):
        assert list(MARGIN_GOLDEN) == [*METHODS, "ef21 C*0.5"]

    @pytest.mark.parametrize("case", list(MARGIN_GOLDEN))
    def test_margin_csv_is_pinned(self, case):
        report = _margin_report(case)
        assert report.passed == (" " not in case)
        assert _margin_digest(report) == MARGIN_GOLDEN[case]


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

    def test_bytes_of_extreme_values(self):
        nan, inf = float("nan"), float("inf")
        rows = [
            MarginRow("ef21", 1, 0, nan, inf, -0.0, 5e-324, True),
            MarginRow("ef21", 2, 2**70, -inf, 0.1, 1e300, 0.0, False),
        ]
        report = MarginReport("ef21", "next", constants("ef21", delta=2.0), 0.1, rows)
        buffer = io.StringIO()
        margins_to_csv(report, buffer)
        assert buffer.getvalue() == (
            MARGIN_CSV_HEADER + "\n"
            "ef21,1,0,nan,inf,-0,4.9406564584124654e-324,1\n"
            "ef21,2,1180591620717411303424,-inf,0.10000000000000001,1.0000000000000001e+300,0,0\n"
        )


if __name__ == "__main__":
    changed = []
    print("MARGIN_GOLDEN = {")
    for case, expected in MARGIN_GOLDEN.items():
        digest = _margin_digest(_margin_report(case))
        print(f'    "{case}": "{digest}",')
        if digest != expected:
            changed.append(case)
    print("}")
    summary = ", ".join(changed) or "-"
    print(f"MARGIN_GOLDEN: {len(changed)} of {len(MARGIN_GOLDEN)} digests changed: {summary}", file=sys.stderr)
