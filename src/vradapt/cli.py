"""Command-line front end.

Commands: ``run`` (one experiment to a CSV trace), ``sweep`` (grid of
experiments), ``verify`` (empirical recursion margins and compressor
contracts), ``constants`` (print a method's registered tuple), and
``ingest`` (normalize a dataset to canonical libsvm text).

Exit codes: 0 success, 1 usage or config error, 2 divergence,
3 verification failure.  ``VRADAPT_SEED`` supplies a seed when neither
the flag nor the config file does.

``main`` is the one error boundary: an OSError or ValueError from any
command (a bad config, a file it cannot read or write) ends as one
``error:`` line on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import engine, verify
from .compressors import check_biased_contract, check_unbiased_contract
from .data import check_sizes, load_libsvm, synthetic_dataset, write_libsvm
from .estimators import DISTRIBUTED_METHODS, METHODS, estimator_class
from .schedulers import nu_of

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_VERIFY_FAILED = 3


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _resolve_seed(flag_seed, config_pairs):
    """Seed precedence: --seed flag, then config file, then VRADAPT_SEED,
    then 0.  A seed that is not a non-negative integer is named by its
    source."""
    for source, value in (
        ("--seed", flag_seed),
        ("config key 'seed'", config_pairs.get("seed")),
        ("VRADAPT_SEED", os.environ.get("VRADAPT_SEED")),
    ):
        if value is None:
            continue
        try:
            if int(value) >= 0:
                return int(value)
        except ValueError:
            pass
        raise ValueError(f"{source} must be a non-negative integer, got {value!r}")
    return 0


def _load_config(path, flag_seed):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    pairs = engine.parse_config_pairs(text)
    cfg = engine.config_from_mapping(pairs)
    cfg.seed = _resolve_seed(flag_seed, pairs)
    return cfg


def _summary_line(result, out):
    s = result.summary
    return (
        f"status={result.status} iterations={s['iterations']} "
        f"min_grad_norm={s['min_grad_norm']:.6g} final_loss={s['final_loss']:.6g} "
        f"grad_calls={s['grad_calls']} partial_calls={s['partial_calls']} "
        f"bits={s['bits']} trace={out}"
    )


def cmd_run(args):
    cfg = _load_config(args.config, args.seed)
    out = args.out
    if out is None:
        stem = os.path.splitext(os.path.basename(args.config))[0]
        out = stem + "_trace.csv"
    result = engine.run(cfg)
    engine.trace_to_csv(result.trace, out)
    print(_summary_line(result, out))
    return EXIT_DIVERGED if result.status == "diverged" else EXIT_OK


def _parse_grid(specs):
    grid = {}
    for spec in specs or []:
        if "=" not in spec:
            raise ValueError(f"grid entry must be key=v1,v2,..., got {spec!r}")
        key, _, values = spec.partition("=")
        key = key.strip()
        # each token goes through the config file's own coercion
        grid[key] = [getattr(engine.config_from_mapping({key: v}), key) for v in values.split(",")]
    return grid


def cmd_sweep(args):
    if args.jobs < 1:
        return _fail(f"--jobs must be >= 1, got {args.jobs}")
    cfg = _load_config(args.config, args.seed)
    grid = _parse_grid(args.grid)
    results = engine.sweep(cfg, grid, jobs=args.jobs)
    errors = {r.summary["error"] for r in results if r.status == "invalid"}
    if len(errors) == 1 and all(r.status == "invalid" for r in results):
        # every cell hit the same error: the base config is at fault
        return _fail(errors.pop())
    worst = EXIT_OK
    keys = sorted(grid)
    for result in results:
        if result.status == "invalid":
            cell = " ".join(f"{k}={getattr(result.config, k)}" for k in keys)
            _fail(f"cell {cell}: {result.summary['error']}")
            continue
        tag = "_".join(f"{k}{getattr(result.config, k)}" for k in keys) or "base"
        os.makedirs(args.out_dir, exist_ok=True)
        out = os.path.join(args.out_dir, f"sweep_{tag}.csv")
        engine.trace_to_csv(result.trace, out)
        print(_summary_line(result, out))
        if result.status == "diverged":
            worst = EXIT_DIVERGED
    return EXIT_USAGE if errors else worst


def _parse_perturb(text):
    factors = {}
    for part in text.split(","):
        name, _, factor = part.partition(":")
        if not factor:
            raise ValueError(f"perturbation must be NAME:FACTOR, got {part!r}")
        factors[name.strip()] = float(factor)
    return factors


def _verify_one(method, args):
    problem, hyperparams = verify.standard_margin_setup(method)
    settings, registered = estimator_class(method).settings(problem, hyperparams)
    override = None
    if args.perturb:
        # scale the tuple the estimator registers, the one the check uses
        override = registered.scaled(_parse_perturb(args.perturb))
    report = verify.assumption_margin(
        method,
        hyperparams,
        problem,
        state_points=args.states,
        samples_per_point=args.samples,
        seed=args.seed,
        constants_override=override,
    )
    ok = report.passed
    print(
        f"{method}: margins {'PASS' if ok else 'FAIL'} "
        f"(alignment={report.alignment}, worst={report.worst().margin:.3g})"
    )
    if method in DISTRIBUTED_METHODS:
        comp = settings["compressor"]
        check = check_unbiased_contract if comp.unbiased else check_biased_contract
        contract = check(comp, problem.dim, 20000, np.random.default_rng(0))
        margin = contract["moment_margin" if comp.unbiased else "margin"]
        print(
            f"{method}: compressor contract {'PASS' if contract['passed'] else 'FAIL'} "
            f"({hyperparams['compressor']}, margin={margin:.3g})"
        )
        ok = ok and contract["passed"]
    return report, ok


def cmd_verify(args):
    if not args.all and args.method is None:
        return _fail("give --method NAME or --all")
    reports = []
    all_ok = True
    for method in METHODS if args.all else [args.method]:
        report, ok = _verify_one(method, args)
        reports.append(report)
        all_ok = all_ok and ok
    if args.out:
        verify.margins_to_csv(reports, args.out)
        print(f"margins written to {args.out}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def _registration_kwargs(cls, args):
    """The flags as keywords of ``cls.registration``.  The method's size
    is ``--n`` or ``--d`` (``cls.size``); ``--b n`` is that size, and only
    the default batch of 8 is clamped to it."""
    size = getattr(args, cls.size)
    if size < 1:
        raise ValueError(f"--{cls.size} must be >= 1, got {size}")
    kwargs = {cls.size: size, "p": args.p, "k": args.k, "delta": args.delta,
              "omega": args.omega, "n_clients": args.clients}
    if "b" in cls.hyperparams:
        if args.b is None:
            kwargs["b"] = min(8, size)
        elif args.b == "n":
            kwargs["b"] = size
        else:
            try:
                kwargs["b"] = int(args.b)
            except ValueError:
                raise ValueError(f"--b takes an integer or n, got {args.b!r}") from None
    return kwargs


def cmd_constants(args):
    if not args.all and args.method is None:
        return _fail("give --method NAME or --all")
    # every row is checked before any is printed
    rows = []
    for method in METHODS if args.all else [args.method]:
        cls = estimator_class(method)
        try:
            rows.append((method, cls.registration(**_registration_kwargs(cls, args))))
        except ValueError as exc:
            return _fail(f"{method}: {exc}")
    print(f"{'method':<10} {'rho1':>10} {'rho2':>10} {'A':>10} {'B':>10} {'C':>10} {'nu':>12}")
    for method, c in rows:
        print(
            f"{method:<10} {c.rho1:>10.6g} {c.rho2:>10.6g} {c.A:>10.6g} "
            f"{c.B:>10.6g} {c.C:>10.6g} {nu_of(c):>12.6g}"
        )
    return EXIT_OK


def cmd_ingest(args):
    check_sizes({"--limit": args.limit, "--force-dim": args.force_dim})
    if args.data is not None:
        ds = load_libsvm(args.data, force_dim=args.force_dim, limit=args.limit)
    elif args.synthetic is not None:
        try:
            rows, dim = (int(part) for part in args.synthetic.lower().split("x"))
        except ValueError:
            rows = dim = 0
        if rows < 1 or dim < 1:
            return _fail(f"--synthetic wants ROWSxDIM, both >= 1, got {args.synthetic!r}")
        ds = synthetic_dataset(rows, dim=dim, seed=args.seed, nnz_per_row=min(14, dim))
    else:
        return _fail("give --data PATH or --synthetic ROWSxDIM")
    write_libsvm(ds, args.out)
    print(f"rows={ds.n} dim={ds.d} nnz={ds.nnz()} -> {args.out}")
    return EXIT_OK


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors reach ``main`` as one ``error:`` line
    and exit 1; argparse's own exit 2 is the divergence code here."""

    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(
        prog="vradapt",
        description="Variance-reduced optimization bench: run, sweep, verify, constants, ingest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="trace CSV path")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a Cartesian grid of overrides")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument(
        "--grid", action="append", default=[], metavar="KEY=V1,V2",
        help="repeatable; Cartesian product over all --grid flags",
    )
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out-dir", default="sweep_out")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="empirical recursion margins")
    p_verify.add_argument("--method", default=None)
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--samples", type=int, default=20000)
    p_verify.add_argument("--states", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--perturb", default=None, metavar="NAME:FACTOR",
        help="evaluate with scaled constants, e.g. C:0.5",
    )
    p_verify.add_argument("--out", default=None, help="margin CSV path")
    p_verify.set_defaults(func=cmd_verify)

    p_const = sub.add_parser("constants", help="print registered recursion constants")
    p_const.add_argument("--method", default=None)
    p_const.add_argument("--all", action="store_true")
    p_const.add_argument("--b", default=None, help="batch size, or the literal 'n'")
    p_const.add_argument("--p", type=float, default=0.25)
    p_const.add_argument("--n", type=int, default=100)
    p_const.add_argument("--d", type=int, default=100)
    p_const.add_argument("--k", type=int, default=5)
    p_const.add_argument("--omega", type=float, default=None)
    p_const.add_argument("--delta", type=float, default=None)
    p_const.add_argument("--clients", type=int, default=10)
    p_const.set_defaults(func=cmd_constants)

    p_ingest = sub.add_parser("ingest", help="normalize a dataset to libsvm text")
    p_ingest.add_argument("--data", default=None, help="input libsvm path (.gz ok)")
    p_ingest.add_argument("--synthetic", default=None, metavar="ROWSxDIM")
    p_ingest.add_argument("--limit", type=int, default=None)
    p_ingest.add_argument("--force-dim", type=int, default=None)
    p_ingest.add_argument("--seed", type=int, default=0)
    p_ingest.add_argument("--out", required=True)
    p_ingest.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail(str(exc))
    if getattr(args, "seed", None) is not None and args.seed < 0:
        return _fail(f"--seed must be a non-negative integer, got {args.seed}")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
