import io
import math
import warnings

import numpy as np
import pytest

from vradapt.engine import (
    CSV_HEADER,
    ExperimentConfig,
    Trace,
    TraceRow,
    build_problem,
    config_from_mapping,
    estimator_hyperparams,
    iterations_to_tolerance,
    load_config,
    parse_config_text,
    parse_trace_csv,
    run,
    sweep,
    trace_csv_text,
    trace_to_csv,
    validate,
)
from vradapt.estimators import ESTIMATORS, METHODS
from vradapt.problems import QuadraticProblem, make_quadratic


def row(t, grad_norm=1.0, grad_calls=0, partial_calls=0, bits=0):
    return TraceRow(
        t=t,
        loss=0.5,
        grad_norm=grad_norm,
        est_norm=grad_norm,
        gamma=0.1,
        grad_calls=grad_calls,
        partial_calls=partial_calls,
        bits=bits,
        wall_ms=0.0,
    )


class TestConfigParsing:
    def test_round_trip_with_comments(self):
        cfg = parse_config_text(
            """
            # quadratic smoke run
            method = page
            b = 4
            p = 0.5
            T = 50

            scheduler = adaptive
            with_replacement = yes
            """
        )
        assert cfg.method == "page"
        assert cfg.b == 4 and cfg.p == 0.5 and cfg.T == 50
        assert cfg.scheduler == "adaptive"
        assert cfg.with_replacement is True

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ValueError, match="batchsize"):
            config_from_mapping({"batchsize": "4"})

    def test_bad_value_named_in_error(self):
        with pytest.raises(ValueError, match="'T'"):
            config_from_mapping({"T": "ten"})
        with pytest.raises(ValueError, match="with_replacement"):
            config_from_mapping({"with_replacement": "maybe"})

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("method = saga\njust a word\n")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("method=saga\nb=2\nT=10\n")
        cfg = load_config(str(path))
        assert (cfg.method, cfg.b, cfg.T) == ("saga", 2, 10)

    def test_replace_copies(self):
        cfg = ExperimentConfig(method="saga", b=2)
        other = cfg.replace(b=4)
        assert cfg.b == 2 and other.b == 4


class TestPresets:
    def test_component_count_rules(self):
        hp = ESTIMATORS["saga"].presets(4000)
        assert hp["b"] == 252
        hp = ESTIMATORS["page"].presets(4000)
        assert hp["b"] == 252
        assert hp["p"] == pytest.approx(4000 ** (-1.0 / 3.0))
        hp = ESTIMATORS["zerosarah"].presets(4000)
        assert hp["b"] == 64
        assert ESTIMATORS["sega"].presets(4000) == {}

    def test_explicit_values_override_presets(self):
        prob = make_quadratic(100, 5, seed=0)
        cfg = ExperimentConfig(method="saga", presets=True, b=7)
        assert estimator_hyperparams(cfg, prob)["b"] == 7
        cfg = ExperimentConfig(method="saga", presets=True)
        assert estimator_hyperparams(cfg, prob)["b"] == math.ceil(100 ** (2 / 3))

    def test_distributed_keys_forwarded(self):
        prob = make_quadratic(20, 6, seed=0)
        cfg = ExperimentConfig(
            method="ef21", clients=4, compressor="topk", k=2, value_bits=16
        )
        hp = estimator_hyperparams(cfg, prob)
        assert hp["n_clients"] == 4
        assert hp["compressor"] == "topk"
        assert hp["k"] == 2
        assert hp["value_bits"] == 16


class TestBuildProblem:
    def test_default_is_quadratic(self):
        prob = build_problem(ExperimentConfig(n=7, d=3))
        assert prob.n_components == 7 and prob.dim == 3

    def test_condition_number_respected(self):
        cfg = ExperimentConfig(n=10, d=6, cond=100.0, eig_lo=1.0, eig_hi=1.0)
        prob = build_problem(cfg)
        assert prob.smoothness / prob.eigs.min() >= 50.0

    def test_synthetic_logistic_spec(self):
        cfg = ExperimentConfig(dataset="synthetic:50:20:3")
        prob = build_problem(cfg)
        assert prob.n_components == 50 and prob.dim == 20

    def test_synthetic_spec_limit(self):
        cfg = ExperimentConfig(dataset="synthetic:50:20:3", limit=12)
        limited = build_problem(cfg)
        assert limited.n_components == 12
        # the limited problem holds the first rows of the unlimited one
        full = build_problem(ExperimentConfig(dataset="synthetic:50:20:3"))
        assert np.array_equal(limited.X.toarray(), full.X.toarray()[:12])
        assert np.array_equal(limited.y, full.y[:12])

    def test_synthetic_spec_narrower_than_fourteen_features(self):
        cfg = ExperimentConfig(method="saga", b=4, dataset="synthetic:50:8:0", T=10)
        result = run(cfg)
        assert result.status == "completed"
        problem = build_problem(cfg)
        assert problem.n_components == 50 and problem.dim == 8
        # every row uses all 8 features: nnz per row is min(14, dim)
        assert np.all(np.diff(problem.X.indptr) == 8)

    def test_bad_synthetic_spec(self):
        with pytest.raises(ValueError):
            build_problem(ExperimentConfig(dataset="synthetic:50:20"))

    def test_logistic_needs_dataset(self):
        with pytest.raises(ValueError):
            build_problem(ExperimentConfig(problem="logistic"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_problem(ExperimentConfig(problem="svm"))


class TestRun:
    def test_full_pass_unit_curvature_converges_in_one_step(self):
        # p = 1 makes the estimator exact; on unit curvature the
        # theoretical step is gamma = 1/L = 1 and one step lands on the
        # minimizer
        cfg = ExperimentConfig(
            method="page", b=1, p=1.0, n=6, d=4, eig_lo=1.0, eig_hi=1.0, T=5,
            tol=1e-10,
        )
        res = run(cfg)
        assert res.status == "converged"
        assert res.summary["iterations"] == 1
        assert res.trace.rows[-1].grad_norm <= 1e-10

    def test_zero_budget_emits_single_terminal_row(self):
        cfg = ExperimentConfig(method="saga", b=2, n=6, d=4, T=0)
        res = run(cfg)
        assert res.status == "completed"
        assert len(res.trace) == 1
        last = res.trace.rows[0]
        assert last.t == 0 and last.est_norm == 0.0 and last.gamma == 0.0

    def test_divergence_detected(self):
        cfg = ExperimentConfig(
            method="saga", b=2, n=6, d=4, scheduler="constant", gamma=1e6, T=50
        )
        res = run(cfg)
        assert res.status == "diverged"
        assert res.summary["status"] == "diverged"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "curvature,finite_entries",
        [({}, True), (dict(eig_lo=50, eig_hi=100), False)],
    )
    def test_divergence_detected_at_overflow(self, curvature, finite_entries):
        # a first step of gamma=1e308 leaves finite entries whose norm
        # overflows to inf, or, on steeper curvature, entries of +-inf
        cfg = ExperimentConfig(
            method="saga", b=2, n=6, d=4, scheduler="constant", gamma=1e308, T=50, **curvature
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # run overflows on the way, silently
            res = run(cfg)
        assert res.status == "diverged"
        assert res.summary["iterations"] == 0
        assert np.all(np.isfinite(res.final_x)) == finite_entries
        assert np.linalg.norm(res.final_x) == np.inf

    def test_stationary_start_detected(self):
        prob = QuadraticProblem(np.ones((5, 3)), np.zeros(3), np.zeros(5))
        cfg = ExperimentConfig(method="saga", b=2, scheduler="adaptive", T=50)
        res = run(cfg, problem=prob)
        assert res.status == "stationary"
        assert np.allclose(res.final_x, 0.0)

    def test_cadence_only_affects_recording(self):
        base = ExperimentConfig(method="saga", b=2, n=6, d=4, T=40, seed=3)
        dense = run(base.replace(cadence=1))
        sparse = run(base.replace(cadence=7))
        assert np.array_equal(dense.final_x, sparse.final_x)
        assert len(dense.trace) > len(sparse.trace)
        assert [r.t for r in sparse.trace][:-1] == list(range(0, 40, 7))
        assert sparse.trace.rows[-1].t == 40

    def test_trace_always_ends_at_final_iteration(self):
        cfg = ExperimentConfig(method="saga", b=2, n=6, d=4, T=13, cadence=5)
        res = run(cfg)
        assert res.trace.rows[-1].t == 13

    def test_same_seed_reproduces_bytes(self):
        cfg = ExperimentConfig(method="lsvrg", b=2, p=0.3, n=6, d=4, T=30)
        a = trace_csv_text(run(cfg).trace)
        b = trace_csv_text(run(cfg).trace)
        assert a == b

    def test_different_seed_differs(self):
        cfg = ExperimentConfig(method="lsvrg", b=2, p=0.3, n=6, d=4, T=30)
        a = run(cfg)
        b = run(cfg.replace(seed=1))
        assert not np.array_equal(a.final_x, b.final_x)

    def test_adam_records_learning_rate_as_gamma(self):
        cfg = ExperimentConfig(
            method="saga", b=2, n=6, d=4, scheduler="adam", lr=0.05, T=10
        )
        res = run(cfg)
        assert all(r.gamma == 0.05 for r in res.trace.rows[:-1])

    def test_adaptive_gammas_nonincreasing(self):
        cfg = ExperimentConfig(
            method="saga", b=2, n=6, d=4, scheduler="adaptive", T=60
        )
        gammas = run(cfg).trace.gammas()[:-1]
        assert np.all(np.diff(gammas) <= 1e-18)

    def test_oracle_cost_matches_coin_mixture(self):
        # PAGE spends n on refresh steps and 2b otherwise, so the mean
        # per-step cost is p*n + (1-p)*2b; check a long run against a
        # three-sigma band around that
        cfg = ExperimentConfig(method="page", b=2, p=0.5, n=6, d=4, T=2000, cadence=500)
        res = run(cfg)
        spent = res.summary["grad_calls"] - 6
        per_step = 0.5 * 6 + 0.5 * 4
        sigma = math.sqrt(2000 * 0.25 * (6 - 4) ** 2)
        assert abs(spent - 2000 * per_step) <= 3.0 * sigma + 1e-9

    def test_metric_rows_do_not_touch_oracle_ledger(self):
        base = ExperimentConfig(method="saga", b=2, n=6, d=4, T=40, seed=3)
        dense = run(base.replace(cadence=1))
        sparse = run(base.replace(cadence=40))
        assert dense.summary["grad_calls"] == sparse.summary["grad_calls"]

    def test_validation(self):
        with pytest.raises(ValueError):
            run(ExperimentConfig(method="sarah", T=5))
        with pytest.raises(ValueError):
            run(ExperimentConfig(method="saga", b=2, T=-1))
        with pytest.raises(ValueError):
            run(ExperimentConfig(method="saga", b=2, cadence=0))
        with pytest.raises(ValueError):
            run(ExperimentConfig(method="saga", b=2, scheduler="constant"))
        with pytest.raises(ValueError):
            run(ExperimentConfig(method="saga", b=2, scheduler="cosine"))


def _no_oracle_call(*args, **kwargs):
    raise AssertionError("validate made an oracle call")


class TestValidate:
    ORACLES = (
        "loss", "full_grad", "loss_and_grad", "component_rows", "component_grads",
        "all_component_grads", "partials", "group_grads",
    )

    @pytest.mark.parametrize("method", METHODS)
    def test_no_gradient_pass(self, method, monkeypatch):
        problem = make_quadratic(20, 10, seed=0)
        for oracle in self.ORACLES:
            monkeypatch.setattr(problem, oracle, _no_oracle_call)
        compressor = "randk" if method in ("diana", "dasha") else "topk"
        cfg = ExperimentConfig(
            method=method, b=3, p=0.5, k=2, compressor=compressor, scheduler="adaptive"
        )
        hp, stepper = validate(cfg, problem)
        assert hp == estimator_hyperparams(cfg, problem)
        assert stepper.acc is not None

    @pytest.mark.parametrize(
        "changes,named",
        [
            (dict(method="sarah"), "unknown method 'sarah'"),
            (dict(b=7), "b must be an integer in [1, 6], got 7"),
            (dict(T=-1), "T must be >= 0"),
            (dict(timing="maybe"), "timing must be on or off, got 'maybe'"),
            (dict(scheduler="tuned", multiplier=0.0), "multiplier must be positive"),
            (dict(method="ef21", clients=2, value_bits=0), "value_bits must be >= 1, got 0"),
        ],
    )
    def test_rejects_what_run_rejects(self, changes, named):
        cfg = ExperimentConfig(method="saga", b=2, n=6, d=4, T=5).replace(**changes)
        problem = build_problem(cfg)
        for check in (lambda: validate(cfg, problem), lambda: run(cfg, problem=problem)):
            with pytest.raises(ValueError) as info:
                check()
            assert named in str(info.value)


class TestTraceCsv:
    def test_empty_trace_is_header_only(self):
        assert trace_csv_text(Trace()) == CSV_HEADER + "\n"

    def test_round_trip_is_exact(self, tmp_path):
        cfg = ExperimentConfig(method="saga", b=2, n=6, d=4, T=25, cadence=3)
        trace = run(cfg).trace
        text = trace_csv_text(trace)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, str(path))
        assert path.read_bytes() == text.encode()  # a path and a handle get the same bytes
        for source in (io.StringIO(text), str(path)):
            back = parse_trace_csv(source)
            assert len(back) == len(trace)
            for a, b in zip(trace, back):
                assert a == b

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = Trace()
        trace.append(row(0))
        trace_to_csv(trace, str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert len(parse_trace_csv(str(path))) == 1

    def test_header_checked(self):
        with pytest.raises(ValueError):
            parse_trace_csv(io.StringIO("time,loss\n1,2\n"))

    def test_field_count_checked(self):
        with pytest.raises(ValueError):
            parse_trace_csv(io.StringIO(CSV_HEADER + "\n1,2,3\n"))


class TestTraceInvariants:
    def test_iterations_strictly_increase(self):
        trace = Trace()
        trace.append(row(0))
        trace.append(row(3))
        with pytest.raises(ValueError):
            trace.append(row(3))
        with pytest.raises(ValueError):
            trace.append(row(1))

    def test_counters_nondecreasing(self):
        trace = Trace()
        trace.append(row(0, grad_calls=10))
        with pytest.raises(ValueError):
            trace.append(row(1, grad_calls=9))
        trace.append(row(1, grad_calls=10, bits=5))
        with pytest.raises(ValueError):
            trace.append(row(2, grad_calls=11, bits=4))


class TestIterationsToTolerance:
    def make_trace(self):
        trace = Trace()
        for t, norm in ((0, 1.0), (5, 0.2), (10, 0.01), (15, 0.02)):
            trace.append(row(t, grad_norm=norm))
        return trace

    def test_first_crossing_returned(self):
        assert iterations_to_tolerance(self.make_trace(), 0.05) == 10
        assert iterations_to_tolerance(self.make_trace(), 0.5) == 5
        assert iterations_to_tolerance(self.make_trace(), 2.0) == 0

    def test_never_reached_is_none(self):
        assert iterations_to_tolerance(self.make_trace(), 1e-6) is None

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            iterations_to_tolerance(self.make_trace(), 0.0)


class TestSweep:
    def base(self):
        return ExperimentConfig(method="saga", b=2, n=6, d=4, T=15, cadence=5)

    def test_grid_sizes(self):
        assert len(sweep(self.base(), {"b": [1, 2]})) == 2
        assert len(sweep(self.base(), {"b": [1, 2], "seed": [0, 1]})) == 4
        assert len(sweep(self.base(), {})) == 1

    def test_grid_points_carry_overrides(self):
        results = sweep(self.base(), {"b": [1, 3]})
        assert sorted(r.config.b for r in results) == [1, 3]

    def test_derived_seeds_are_stable(self):
        first = sweep(self.base(), {"b": [1, 2]})
        second = sweep(self.base(), {"b": [1, 2]})
        for a, b in zip(first, second):
            assert a.config.seed == b.config.seed
            assert np.array_equal(a.final_x, b.final_x)

    def test_invalid_cell_is_reported_not_raised(self):
        bad, good = sweep(self.base(), {"b": [0, 2]})
        assert bad.status == "invalid" and len(bad.trace) == 0
        assert "b must be an integer" in bad.summary["error"]
        assert good.status == "completed" and len(good.trace) > 0

    def test_parallel_matches_serial(self):
        serial = sweep(self.base(), {"b": [1, 2], "seed": [0, 1]}, jobs=1)
        parallel = sweep(self.base(), {"b": [1, 2], "seed": [0, 1]}, jobs=2)
        for a, b in zip(serial, parallel):
            assert trace_csv_text(a.trace) == trace_csv_text(b.trace)

    def test_summary_fields_present(self):
        res = run(self.base())
        for key in (
            "status",
            "iterations",
            "min_grad_norm",
            "final_loss",
            "grad_calls",
            "partial_calls",
            "bits",
        ):
            assert key in res.summary
