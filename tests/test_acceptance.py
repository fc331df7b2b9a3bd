"""End-to-end acceptance checks for the whole package.

One test per claimed behavior, ordered from the core recursion margins
to engine-level reproducibility.  Each test prints a single
``[accept] <name>: PASS/FAIL`` line (visible under ``pytest -s``; the
test outcome itself carries the same information under plain ``-v``).
Budget-heavy sampling lives here, not in the module suites.
"""

import dataclasses
import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np

from vradapt.compressors import (
    RandK,
    TopK,
    _EveryOutcome,
    check_unbiased_contract,
)
from vradapt.data import load_libsvm, synthetic_dataset
from vradapt.engine import (
    ExperimentConfig,
    iterations_to_tolerance,
    run,
    trace_csv_text,
)
from vradapt.estimators import METHODS, constants, make_estimator
from vradapt.problems import logistic_problem, make_quadratic
from vradapt.schedulers import (
    adaptive_step_size,
    corollary_step_size,
    nu_of,
    theoretical_gamma_pl,
)
from vradapt.verify import (
    assumption_margin,
    pl_decay_check,
    rate_slope,
    standard_margin_setup,
)


def _report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[accept] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def _benchmark_problem():
    """The binary-classification benchmark for the figure-style checks.

    A real libsvm file is honored when VRADAPT_A9A points at one (or a
    copy sits at data/a9a); otherwise a synthetic stand-in with the same
    shape (4000 rows, 123 features) is generated, since this sandbox has
    no network access.  The first 4000 rows are used either way.
    """
    path = os.environ.get("VRADAPT_A9A")
    if not path:
        local = os.path.join(os.path.dirname(__file__), "..", "data", "a9a")
        if os.path.exists(local):
            path = local
    if path:
        ds = load_libsvm(path, force_dim=123, limit=4000)
        source = path
    else:
        ds = synthetic_dataset(4000, dim=123, seed=0)
        source = "synthetic stand-in 4000x123 seed 0"
    return logistic_problem(ds), source


def test_recursion_margins_all_methods_with_mutation_power():
    # Both error recursions must hold empirically for every method at 10
    # frozen states with 20000 sampled transitions each (mean margin
    # within three standard errors); and the check must have the power
    # to notice a wrong constant: halving the error-feedback travel
    # coefficient C has to produce a failing margin.
    started = time.time()
    worst = {}
    all_ok = True
    for method in METHODS:
        problem, hp = standard_margin_setup(method)
        report = assumption_margin(
            method, hp, problem, state_points=10, samples_per_point=20000, seed=0
        )
        worst[method] = report.worst().margin
        all_ok = all_ok and report.passed

    problem, hp = standard_margin_setup("ef21")
    reg = constants("ef21", delta=10.0)
    mutated = assumption_margin(
        "ef21",
        hp,
        problem,
        state_points=2,
        samples_per_point=2000,
        seed=0,
        constants_override=reg.scaled({"C": 0.5}),
    )
    mutation_detected = not mutated.passed

    elapsed = time.time() - started
    detail = (
        f"worst margin {max(worst.values()):.3g}, mutation margin "
        f"{mutated.worst().margin:.3g}, {elapsed:.0f}s"
    )
    _report(
        "recursion margins, all methods + mutation power",
        all_ok and mutation_detected and elapsed <= 300.0,
        detail,
    )


def test_degenerate_settings_reproduce_exact_gradient():
    # With the randomness made vacuous (full batch, full refresh, full
    # coordinate set, identity compressor) every estimator must return
    # the exact gradient at machine precision along a random trajectory.
    problem = make_quadratic(20, 10, seed=0)
    degenerate = {
        "lsvrg": {"b": 20, "p": 0.5},
        "saga": {"b": 20},
        "page": {"b": 1, "p": 1.0},
        "zerosarah": {"b": 20},
        "ef21": {"n_clients": 10, "compressor": "identity"},
        "diana": {"n_clients": 10, "compressor": "identity"},
        "dasha": {"n_clients": 10, "compressor": "identity"},
        "sega": {"b": 10},
        "jaguar": {"b": 10},
    }
    rng = np.random.default_rng(42)
    walk = np.random.default_rng(7)
    worst = 0.0
    for method in METHODS:
        est = make_estimator(method, problem, np.zeros(10), degenerate[method])
        for _ in range(10):
            x = walk.standard_normal(10)
            g = est.step(x, rng)
            err = float(np.linalg.norm(g - problem.full_grad(x)))
            worst = max(worst, err)
    _report(
        "degenerate settings reproduce the exact gradient",
        worst <= 1e-12,
        f"worst error {worst:.3g}",
    )


def test_compressor_contracts_exact():
    # TopK: the dropped energy obeys the d/k contraction pointwise, in
    # exact rational arithmetic, zero tolerance.  RandK: averaging over
    # every k-subset returns the input and the d/k second moment; on
    # scale-exact (d, k) pairs with dyadic inputs the check is again
    # exact rationals, and the enumeration-based contract check covers
    # every (d, k) with 2 <= d <= 8 at float accuracy.  The outcomes are
    # rand-k's own ``sample_dense`` rows under the every-outcome
    # generator, one per k-subset.
    rng = np.random.default_rng(0)
    topk_ok = True
    for d in range(2, 9):
        for k in range(1, d + 1):
            for _ in range(10):
                x = rng.standard_normal(d)
                out = TopK(k, d).compress(x)
                kept = set(int(i) for i in out.indices)
                dropped = sum(
                    Fraction(float(v)) ** 2
                    for j, v in enumerate(x)
                    if j not in kept
                )
                total = sum(Fraction(float(v)) ** 2 for v in x)
                topk_ok = topk_ok and dropped <= Fraction(d - k, d) * total

    # pairs whose scaling factor d/k is a dyadic rational, so compressed
    # values round-trip through floats without error
    grid = [
        Fraction(n, 4) for n in range(-8, 9)
    ]
    randk_exact_ok = True
    for d, k in ((2, 1), (3, 2), (4, 2), (5, 4), (6, 4), (7, 2), (8, 2)):
        assert float(Fraction(d, k)) == d / k
        picks = rng.integers(0, len(grid), size=d)
        x_frac = [grid[i] for i in picks]
        x = np.array([float(v) for v in x_frac])
        comp = RandK(k, d)
        outcomes = comp.sample_dense(np.broadcast_to(x, (math.comb(d, k), d)), _EveryOutcome())
        count = Fraction(math.comb(d, k))
        mean = [
            sum(Fraction(float(o[j])) for o in outcomes) / count for j in range(d)
        ]
        moment = (
            sum(sum(Fraction(float(v)) ** 2 for v in o) for o in outcomes) / count
        )
        energy = sum(v**2 for v in x_frac)
        randk_exact_ok = randk_exact_ok and mean == x_frac
        randk_exact_ok = randk_exact_ok and moment == Fraction(d, k) * energy

    randk_enum_ok = True
    for d in range(2, 9):
        for k in range(1, d + 1):
            # every such (d, k) has a subset table, so the check enumerates
            # and the trials argument is moot
            report = check_unbiased_contract(RandK(k, d), 1000, rng)
            randk_enum_ok = randk_enum_ok and report["mode"] == "enumeration"
            randk_enum_ok = randk_enum_ok and report["passed"]

    _report(
        "compressor contracts hold exactly",
        topk_ok and randk_exact_ok and randk_enum_ok,
        "rational TopK, rational RandK on dyadic pairs, enumerated RandK d<=8",
    )


def test_adaptive_step_identities_and_monotonicity():
    # The per-method closed forms of the adaptive step must agree with
    # the generic nu-based schedule over random hyperparameters, and the
    # schedule must be nonincreasing along every engine run.
    rng = np.random.default_rng(2024)

    def draw(method):
        if method in ("lsvrg", "page"):
            return {"b": int(rng.integers(1, 65)), "p": float(rng.uniform(0.01, 1.0))}
        if method in ("saga", "zerosarah"):
            n = int(rng.integers(2, 1001))
            return {"b": int(rng.integers(1, n + 1)), "n": n}
        if method == "ef21":
            return {"delta": float(rng.uniform(1.0, 100.0))}
        if method in ("diana", "dasha"):
            return {
                "omega": float(rng.uniform(1.0, 100.0)),
                "n_clients": int(rng.integers(1, 65)),
            }
        d = int(rng.integers(2, 201))
        return {"b": int(rng.integers(1, d + 1)), "d": d}

    worst_gap = 0.0
    for method in METHODS:
        for _ in range(100):
            hp = draw(method)
            alpha = float(rng.uniform(0.05, 0.30))
            total = float(10.0 ** rng.uniform(-3, 6))
            direct = corollary_step_size(method, alpha, total, **hp)
            generic = adaptive_step_size(nu_of(constants(method, **hp)), alpha, total)
            gap = abs(direct - generic) / max(1.0, abs(generic))
            worst_gap = max(worst_gap, gap)
    identities_ok = worst_gap <= 1e-12

    run_hp = {
        "lsvrg": {"b": 4, "p": 0.25},
        "saga": {"b": 4},
        "page": {"b": 4, "p": 0.2},
        "zerosarah": {"b": 4},
        "ef21": {"compressor": "topk", "k": 2},
        "diana": {"compressor": "randk", "k": 5},
        "dasha": {"compressor": "randk", "k": 5},
        "sega": {"b": 3},
        "jaguar": {"b": 3},
    }
    monotone_ok = True
    for method in METHODS:
        hp = run_hp[method]
        cfg = ExperimentConfig(
            method=method,
            n=20,
            d=10,
            b=hp.get("b"),
            p=hp.get("p"),
            k=hp.get("k"),
            compressor=hp.get("compressor", "identity"),
            scheduler="adaptive",
            T=150,
        )
        gammas = [r.gamma for r in run(cfg).trace]
        monotone_ok = monotone_ok and bool(np.all(np.diff(gammas) <= 1e-18))

    _report(
        "adaptive step identities and monotone schedule",
        identities_ok and monotone_ok,
        f"worst identity gap {worst_gap:.3g}",
    )


def test_adaptive_rate_slope_on_ill_conditioned_quadratic():
    # The parameter-free schedule has to keep making progress at a
    # power-law rate; on a well-conditioned fixture the runs bottom out
    # at machine precision and the fit degenerates, so the fixture is
    # condition-number 1000.
    started = time.time()
    cases = [
        ("page", {"b": 4, "p": 0.2}),
        ("saga", {"b": 4}),
        ("jaguar", {"b": 3}),
    ]
    slopes = {}
    for method, hp in cases:
        cfg = ExperimentConfig(
            method=method,
            n=20,
            d=10,
            cond=1000.0,
            b=hp.get("b"),
            p=hp.get("p"),
            scheduler="adaptive",
            alpha=0.33,
            T=10_000,
            cadence=10,
            seed=7,
        )
        slopes[method] = rate_slope(run(cfg).trace)
    elapsed = time.time() - started
    ok = all(s <= -0.3 for s in slopes.values()) and elapsed <= 120.0
    detail = ", ".join(f"{m} {s:.2f}" for m, s in slopes.items()) + f", {elapsed:.0f}s"
    _report("adaptive runs keep a power-law decay slope", ok, detail)


def test_gradient_dominated_linear_decay():
    # With the exact curvature-dominance constant and the conservative
    # constant step, the function gap must contract at least as fast as
    # the guaranteed per-step factor (mean fitted factor over 10 seeds,
    # 0.05 slack).
    started = time.time()
    problem = make_quadratic(20, 10, seed=0)
    mu = problem.pl_constant
    cases = [("page", {"b": 20, "p": 1.0}), ("saga", {"b": 10})]
    details = []
    ok = True
    for method, hp in cases:
        reg = constants(
            method,
            b=hp["b"],
            n=problem.n_components,
            **({"p": hp["p"]} if "p" in hp else {}),
        )
        gamma = theoretical_gamma_pl(reg, problem.smoothness, mu)
        factors = []
        for seed in range(10):
            cfg = ExperimentConfig(
                method=method,
                b=hp.get("b"),
                p=hp.get("p"),
                scheduler="pl",
                T=60,
                seed=seed,
            )
            res = run(cfg, problem=problem)
            out = pl_decay_check(res.trace, gamma=gamma, mu=mu, f_star=problem.f_star)
            factors.append(out["factor"])
        mean_factor = float(np.mean(factors))
        bound = 1.0 - gamma * mu + 0.05
        ok = ok and mean_factor <= bound
        details.append(f"{method} factor {mean_factor:.3f} <= {bound:.3f}")
    elapsed = time.time() - started
    ok = ok and elapsed <= 120.0
    _report(
        "guaranteed linear decay under gradient dominance",
        ok,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


def test_adaptive_beats_theoretical_iterations_on_benchmark():
    # On the benchmark task with the preset batch sizes, the adaptive
    # schedule must reach gradient norm 1e-3 in no more iterations than
    # the theoretical constant step of the same method.  The tuned
    # (grid-multiplied) baseline is reported alongside but not asserted.
    started = time.time()
    problem, source = _benchmark_problem()
    print(f"[accept] benchmark source: {source}")
    tol = 1e-3
    tuned_multiplier = {"saga": 8.0, "page": 8.0, "zerosarah": 16.0}
    ok = True
    details = []
    for method in ("saga", "page", "zerosarah"):
        base = ExperimentConfig(
            method=method,
            presets=True,
            T=300_000,
            cadence=10,
            tol=tol,
            seed=11,
            alpha=0.33,
        )
        iters = {}
        for scheduler in ("adaptive", "theoretical"):
            res = run(dataclasses.replace(base, scheduler=scheduler), problem=problem)
            iters[scheduler] = iterations_to_tolerance(res.trace, tol)
        tuned_res = run(
            dataclasses.replace(
                base,
                scheduler="tuned",
                multiplier=tuned_multiplier[method],
                T=30_000,
            ),
            problem=problem,
        )
        tuned_iters = iterations_to_tolerance(tuned_res.trace, tol)
        tuned_note = "not reached in 30000" if tuned_iters is None else str(tuned_iters)
        reached = iters["adaptive"] is not None and iters["theoretical"] is not None
        ok = ok and reached and iters["adaptive"] <= iters["theoretical"]
        details.append(
            f"{method} adaptive {iters['adaptive']} <= theoretical "
            f"{iters['theoretical']}, tuned x{tuned_multiplier[method]:g} {tuned_note}"
        )
    elapsed = time.time() - started
    ok = ok and elapsed <= 600.0
    _report(
        "adaptive schedule matches the theoretical step on the benchmark",
        ok,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


def test_distributed_bit_accounting():
    # After the dense init broadcast, the error-feedback method must send
    # exactly clients*k*(32+32) bits per iteration, and the momentum
    # method must send nothing dense at all (its dense ledger freezes).
    problem, _ = _benchmark_problem()
    d = problem.dim
    k = math.ceil(0.05 * d)
    n_clients = 10
    per_iter = n_clients * k * (32 + 32)
    dense_init = n_clients * d * 32

    ok = True
    rng = np.random.default_rng(0)
    for method, comp in (("ef21", "topk"), ("dasha", "randk")):
        est = make_estimator(
            method,
            problem,
            np.zeros(d),
            {"n_clients": n_clients, "compressor": comp, "k": k},
        )
        ok = ok and est.bits_dense == dense_init and est.bits_compressed == 0
        x = np.zeros(d)
        for t in range(1, 4):
            x = x + 0.01
            est.step(x, rng)
            ok = ok and est.bits_compressed == t * per_iter
            ok = ok and est.bits_dense == dense_init
    _report(
        "distributed methods account their traffic exactly",
        ok,
        f"d={d}, k={k}, {per_iter} bits/iter after a {dense_init}-bit init",
    )


def test_traces_are_byte_deterministic():
    # Repeating any run with the same seed must reproduce the trace CSV
    # byte for byte, including the randomized distributed methods.
    configs = [
        ExperimentConfig(method="lsvrg", b=4, p=0.25, n=20, d=10, T=50),
        ExperimentConfig(
            method="dasha", compressor="randk", k=5, n=20, d=10, T=50,
            scheduler="adaptive",
        ),
        ExperimentConfig(method="jaguar", b=3, n=20, d=10, T=50, seed=9),
    ]
    ok = True
    for cfg in configs:
        first = trace_csv_text(run(cfg).trace)
        second = trace_csv_text(run(cfg).trace)
        ok = ok and first == second and len(first.splitlines()) > 10
    _report("same seed, byte-identical traces", ok)
