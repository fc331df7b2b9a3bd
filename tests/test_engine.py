import dataclasses
import io
import math
import re
import time
import warnings

import numpy as np
import pytest

from vradapt import engine
from vradapt.data import read_text
from vradapt.engine import (
    CSV_HEADER,
    SCHEDULERS,
    _HYPERPARAM_KEYS,
    ExperimentConfig,
    Trace,
    TraceRow,
    build_problem,
    config_from_mapping,
    estimator_hyperparams,
    iterations_to_tolerance,
    parse_config_pairs,
    parse_trace_csv,
    run,
    sweep,
    trace_csv_text,
    trace_to_csv,
    validate,
)
from vradapt.estimators import ESTIMATORS, METHODS
from vradapt.problems import QuadraticProblem, make_quadratic
from vradapt.schedulers import AdaptiveAccumulator


def row(t, grad_norm=1.0, grad_calls=0, partial_calls=0, bits=0):
    return TraceRow(
        t=t,
        loss=0.5,
        grad_norm=grad_norm,
        est_norm=grad_norm,
        est_err=0.0,
        gamma=0.1,
        grad_calls=grad_calls,
        partial_calls=partial_calls,
        bits=bits,
        wall_ms=0.0,
    )


class TestConfigParsing:
    def test_round_trip_with_comments(self):
        pairs = parse_config_pairs(
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
        cfg = config_from_mapping(pairs)
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
            parse_config_pairs("method = saga\njust a word\n")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("method=saga\nb=2\nT=10\n")
        cfg = config_from_mapping(parse_config_pairs(read_text(str(path))))
        assert (cfg.method, cfg.b, cfg.T) == ("saga", 2, 10)
        path.write_bytes(b"method=saga\r\nb=2\xff\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: byte 0xff is not UTF-8"):
            config_from_mapping(parse_config_pairs(read_text(str(path))))


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

    def test_every_hyperparameter_has_a_config_key_that_defaults_to_none(self):
        # the method table holds each default once; a config default
        # that repeated it could drift from it
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        for cls in ESTIMATORS.values():
            for name in cls.hyperparams:
                key = _HYPERPARAM_KEYS.get(name, name)
                assert key in defaults and defaults[key] is None, (cls.method, name)


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
        assert last.t == 0 and last.est_norm == 0.0 and last.est_err == 0.0 and last.gamma == 0.0

    @pytest.mark.parametrize(
        "problem", [dict(dataset="synthetic:200:20:1"), dict(problem="quadratic", n=30, d=8)]
    )
    def test_exact_estimate_has_zero_error(self, problem):
        # with p = 1 every PAGE estimate is a full_grad, the vector that
        # the record's full_grad returns bit for bit
        cfg = ExperimentConfig(
            method="page", b=4, p=1.0, T=30, cadence=1, scheduler="adaptive", **problem
        )
        trace = run(cfg).trace
        assert len(trace) == 31
        assert [r.est_err for r in trace] == [0.0] * 31

    def test_estimate_error_is_distance_to_exact_gradient(self):
        cfg = ExperimentConfig(
            method="saga", b=4, dataset="synthetic:200:20:1", T=30, cadence=3, scheduler="adaptive"
        )
        trace = run(cfg).trace
        assert any(r.est_err > 0.0 for r in trace)
        assert trace.rows[-1].est_err == 0.0

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
        dense = run(dataclasses.replace(base, cadence=1))
        sparse = run(dataclasses.replace(base, cadence=7))
        assert np.array_equal(dense.final_x, sparse.final_x)
        assert len(dense.trace) > len(sparse.trace)
        assert [r.t for r in sparse.trace][:-1] == list(range(0, 40, 7))
        assert sparse.trace.rows[-1].t == 40

    def test_wall_clock_is_read_before_each_rows_gradient_pass(self, monkeypatch):
        # the fake clock advances one second per loss call, one per
        # row's gradient pass, and nothing else, so row i, recorded after
        # i passes, reads i s
        clock = [0.0]
        problem = make_quadratic(6, 4, seed=0)
        loss = problem.loss

        def timed_loss(x):
            clock[0] += 1.0
            return loss(x)

        monkeypatch.setattr(problem, "loss", timed_loss)
        monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
        cfg = ExperimentConfig(method="saga", b=2, T=10, cadence=3, timing="on")
        trace = run(cfg, problem=problem).trace
        assert [r.t for r in trace] == [0, 3, 6, 9, 10]
        assert [r.wall_ms for r in trace] == [0.0, 1000.0, 2000.0, 3000.0, 4000.0]

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
        b = run(dataclasses.replace(cfg, seed=1))
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
        gammas = [r.gamma for r in run(cfg).trace][:-1]
        assert np.all(np.diff(gammas) <= 1e-18)

    def test_adaptive_run_calls_gamma_once_per_iteration(self, monkeypatch):
        # the benchmark's schedulers.gamma span wraps this method by name
        calls = []
        original = AdaptiveAccumulator.gamma

        def counted(self, g_t):
            calls.append(1)
            return original(self, g_t)

        monkeypatch.setattr(AdaptiveAccumulator, "gamma", counted)
        cfg = ExperimentConfig(
            method="saga", b=2, n=6, d=4, scheduler="adaptive", T=37, cadence=5
        )
        res = run(cfg)
        assert res.status == "completed" and res.summary["iterations"] == 37
        assert len(calls) == 37

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
        dense = run(dataclasses.replace(base, cadence=1))
        sparse = run(dataclasses.replace(base, cadence=40))
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
        "loss", "full_grad", "component_rows", "component_grads",
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
        hp, rule = validate(cfg, problem)
        assert hp == estimator_hyperparams(cfg, problem)
        assert isinstance(rule, AdaptiveAccumulator)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_every_listed_scheduler_builds_a_rule(self, scheduler):
        problem = make_quadratic(6, 4, seed=0)
        cfg = ExperimentConfig(method="saga", b=2, scheduler=scheduler, gamma=0.1)
        _, rule = validate(cfg, problem)
        g = np.random.default_rng(0).standard_normal(problem.dim)
        gamma_t, update = rule.advance(g)
        assert gamma_t > 0.0 and rule.stationary is False
        assert update.shape == (problem.dim,)
        # every rule's update is additive; all but Adam's are -gamma_t * g
        if scheduler != "adam":
            for want in (-gamma_t * g, -(gamma_t * g)):
                assert np.array_equal(update.view(np.int64), want.view(np.int64))

    def test_unlisted_scheduler_is_rejected(self):
        problem = make_quadratic(6, 4, seed=0)
        cfg = ExperimentConfig(method="saga", b=2, scheduler="cosine")
        with pytest.raises(ValueError, match="unknown scheduler 'cosine'"):
            validate(cfg, problem)

    @pytest.mark.parametrize(
        "changes,named",
        [
            (dict(method="sarah"), "unknown method 'sarah'"),
            (dict(b=7), "b must be an integer in [1, 6], got 7"),
            (dict(T=-1), "T must be >= 0"),
            (dict(seed=-1), "seed must be >= 0, got -1"),
            (dict(timing="maybe"), "timing must be on or off, got 'maybe'"),
            (dict(scheduler="tuned", multiplier=0.0), "multiplier must be positive"),
            (dict(method="ef21", clients=2, value_bits=0), "value_bits must be >= 1, got 0"),
            (dict(T=2.5), "T must be an integer, got 2.5"),
            (dict(T=math.nan), "T must be an integer, got nan"),
            (dict(T=math.inf), "T must be an integer, got inf"),
        ],
    )
    def test_rejects_what_run_rejects(self, changes, named):
        cfg = dataclasses.replace(ExperimentConfig(method="saga", b=2, n=6, d=4, T=5), **changes)
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

    def test_bytes_of_extreme_values(self):
        nan, inf = float("nan"), float("inf")
        trace = Trace([
            TraceRow(0, nan, inf, -0.0, nan, 5e-324, 2**62, 0, 2**70, -inf),
            TraceRow(2**63, -1.5, 0.1, 1e300, 0.1 + 0.2, 0.0, 2**62 + 1, 3, 2**70, 12.25),
        ])
        assert trace_csv_text(trace) == (
            CSV_HEADER + "\n"
            "0,nan,inf,-0,nan,4.9406564584124654e-324,4611686018427387904,0,"
            "1180591620717411303424,-inf\n"
            "9223372036854775808,-1.5,0.10000000000000001,1.0000000000000001e+300,"
            "0.30000000000000004,0,4611686018427387905,3,1180591620717411303424,12.25\n"
        )

    def test_blank_lines_are_skipped(self):
        trace = Trace([row(0), row(5)])
        header, first, second = trace_csv_text(trace).splitlines()
        back = parse_trace_csv(io.StringIO(f"{header}\n{first}\n\n{second}\n\n"))
        assert list(back) == list(trace)

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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tolerance_is_named(self, tol):
        with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol}$"):
            iterations_to_tolerance(self.make_trace(), tol)


class TestSweep:
    def base(self):
        return ExperimentConfig(method="saga", b=2, n=6, d=4, T=15, cadence=5)

    def test_grid_sizes(self):
        assert len(sweep(self.base(), {"b": [1, 2]})) == 2
        assert len(sweep(self.base(), {"b": [1, 2], "seed": [0, 1]})) == 4
        assert len(sweep(self.base(), {})) == 1

    def test_grid_points_carry_overrides(self):
        base = self.base()
        results = sweep(base, {"b": [1, 3]})
        assert sorted(r.config.b for r in results) == [1, 3]
        # each cell is a copy: the base keeps its batch size and seed
        assert (base.b, base.seed) == (2, 0)

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


class TestDocumentedKeys:
    """The README sends readers to the ``vradapt.engine`` docstring for
    the full list of config keys; that list names every
    ``ExperimentConfig`` field and nothing else, and its method and
    scheduler lines are the registries."""

    @staticmethod
    def _documented():
        """(key, description) pairs from the docstring's key block, in
        order: a line indented by two spaces holds comma-separated keys
        and, after two or more spaces, their description (a key list may
        end in a comma and go on on the next line); deeper lines continue
        a description."""
        block = engine.__doc__.split("Documented keys:\n", 1)[1]
        documented, pending = [], []
        for line in block.splitlines():
            match = re.fullmatch(r"  (\S.*?)(?:\s{2,}(\S.*))?", line)
            if not match:
                continue
            names, description = match.groups()
            pending += [name.strip() for name in names.split(",") if name.strip()]
            if description is not None:
                documented += [(name, description) for name in pending]
                pending = []
        assert not pending, f"keys without a description: {pending}"
        return documented

    def test_every_config_field_and_no_other_key(self):
        # sorted lists, so a key named twice fails too
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(name for name, _ in self._documented()) == sorted(fields)

    def test_method_and_scheduler_lines_are_the_registries(self):
        documented = dict(self._documented())
        assert tuple(documented["method"].split(" | ")) == METHODS
        assert tuple(documented["scheduler"].split(" | ")) == SCHEDULERS
