"""Command-line front end.

Commands: ``run`` (one experiment to a CSV trace), ``sweep`` (grid of
experiments), ``verify`` (empirical recursion margins and compressor
contracts), ``constants`` (print a method's registered tuple), and
``ingest`` (normalize a dataset to canonical libsvm text).

Exit codes: 0 success, 1 usage or config error, 2 divergence,
3 verification failure.  ``VRADAPT_SEED`` supplies a seed when neither
the flag nor the config file does.

``main`` is the one error boundary: a usage error from argparse, and
an OSError, ValueError or MemoryError from any command (a bad config,
a file it cannot read or write, a size too large to allocate), ends as
one ``error:`` line on stderr and exit 1.  Each output path
(``run --out``, ``verify --out``, ``sweep --out-dir``) is opened or
made before the work, so a path that cannot be written fails first,
not after the work; a command that fails removes the file or empty
directory it made.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import engine, verify
from .compressors import check_biased_contract, check_unbiased_contract
from .data import check_count, check_floats, check_sizes, load_libsvm, opened, read_text
from .data import synthetic_dataset, write_libsvm
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
    pairs = engine.parse_config_pairs(read_text(path))
    cfg = engine.config_from_mapping(pairs)
    cfg.seed = _resolve_seed(flag_seed, pairs)
    return cfg


@contextlib.contextmanager
def _checked_output(path):
    """Run the work in the block after opening ``path`` to append, which
    makes a missing file and leaves an existing one as it is; a file made
    here is removed again if the work fails."""
    made = not os.path.exists(path)
    with opened(path, "a"):
        pass
    try:
        yield
    except BaseException:
        if made:
            os.remove(path)
        raise


def _summary_line(result, out):
    """Every summary entry as key=value in order, floats to 6 significant
    digits, then the trace path."""
    entries = {**result.summary, "trace": out}.items()
    return " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in entries)


def cmd_run(args):
    cfg = _load_config(args.config, args.seed)
    out = args.out
    if out is None:
        stem = os.path.splitext(os.path.basename(args.config))[0]
        out = stem + "_trace.csv"
    with _checked_output(out):
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
        if key in grid:
            raise ValueError(f"--grid {spec}: {key} is named twice")
        # each token goes through the config file's own coercion
        grid[key] = [getattr(engine.config_from_mapping({key: v}), key) for v in values.split(",")]
        for i, value in enumerate(grid[key]):
            if value in grid[key][:i]:
                raise ValueError(f"--grid {spec}: {key}={value} is named twice")
    return grid


def cmd_sweep(args):
    check_sizes({"--jobs": args.jobs})
    cfg = _load_config(args.config, args.seed)
    grid = _parse_grid(args.grid)
    made = not os.path.isdir(args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        return _write_sweep(engine.sweep(cfg, grid, jobs=args.jobs), sorted(grid), args.out_dir)
    finally:
        # a sweep that wrote no trace leaves no directory it made
        if made and not os.listdir(args.out_dir):
            os.rmdir(args.out_dir)


def _write_sweep(results, keys, out_dir):
    errors = {r.summary["error"] for r in results if r.status == "invalid"}
    if len(errors) == 1 and all(r.status == "invalid" for r in results):
        # every cell hit the same error: the base config is at fault
        raise ValueError(errors.pop())
    worst = EXIT_OK
    for result in results:
        if result.status == "invalid":
            cell = " ".join(f"{k}={getattr(result.config, k)}" for k in keys)
            _fail(f"cell {cell}: {result.summary['error']}")
            continue
        tag = "_".join(f"{k}{getattr(result.config, k)}" for k in keys) or "base"
        out = os.path.join(out_dir, f"sweep_{tag}.csv")
        engine.trace_to_csv(result.trace, out)
        print(_summary_line(result, out))
        if result.status == "diverged":
            worst = EXIT_DIVERGED
    return EXIT_USAGE if errors else worst


def _parse_perturb(text):
    factors = {}
    for part in text.split(","):
        name, _, factor = part.partition(":")
        name = name.strip()
        if name in factors:
            raise ValueError(f"--perturb {text}: {name} is named twice")
        try:
            factors[name] = float(factor)
        except ValueError:
            raise ValueError(f"--perturb wants NAME:FACTOR with a number, got {part!r}") from None
    return factors


def _verify_one(method, args):
    problem, hyperparams = verify.standard_margin_setup(method)
    cls = estimator_class(method)
    settings, registered = cls.settings(problem, hyperparams)
    override = None
    if args.perturb:
        # scale the tuple the estimator registers, the one the check uses;
        # an error names the scaled value, so it starts with the spec
        factors = _parse_perturb(args.perturb)
        try:
            override = registered.scaled(factors)
        except ValueError as exc:
            raise ValueError(f"--perturb {args.perturb}: {exc}") from None
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
        check = check_biased_contract if cls.quality == "delta" else check_unbiased_contract
        contract = check(settings["compressor"], 20000, np.random.default_rng(0))
        print(
            f"{method}: compressor contract {'PASS' if contract['passed'] else 'FAIL'} "
            f"({hyperparams['compressor']}, margin={contract['margin']:.3g})"
        )
        ok = ok and contract["passed"]
    return report, ok


def cmd_verify(args):
    check_count("--samples", args.samples, least=1000)
    check_floats({"--samples": args.samples})
    check_sizes({"--states": args.states})
    reports = []
    all_ok = True
    with _checked_output(args.out) if args.out else contextlib.nullcontext():
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
    check_sizes({f"--{cls.size}": size})
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
    # every row is checked before any is printed
    rows = []
    for method in METHODS if args.all else [args.method]:
        cls = estimator_class(method)
        try:
            rows.append((method, cls.registration(**_registration_kwargs(cls, args))))
        except ValueError as exc:
            raise ValueError(f"{method}: {exc}") from None
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
    else:
        try:
            rows, dim = (int(part) for part in args.synthetic.lower().split("x"))
        except ValueError:
            rows = dim = 0
        if rows < 1 or dim < 1:
            raise ValueError(f"--synthetic wants ROWSxDIM, both >= 1, got {args.synthetic!r}")
        if args.force_dim is not None:
            raise ValueError("--force-dim does not apply to --synthetic")
        ds = synthetic_dataset(min(rows, args.limit or rows), dim=dim, seed=args.seed)
    write_libsvm(ds, args.out)
    print(f"rows={ds.n} dim={ds.d} nnz={ds.nnz()} -> {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are ValueErrors, for ``main`` to end;
    argparse's own exit 2 is the divergence code here."""

    def error(self, message):
        raise ValueError(message)


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
    which = p_verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--method", default=None)
    which.add_argument("--all", action="store_true")
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
    which = p_const.add_mutually_exclusive_group(required=True)
    which.add_argument("--method", default=None)
    which.add_argument("--all", action="store_true")
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
    source = p_ingest.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", default=None, help="input libsvm path (.gz ok)")
    source.add_argument("--synthetic", default=None, metavar="ROWSxDIM")
    p_ingest.add_argument("--limit", type=int, default=None)
    p_ingest.add_argument("--force-dim", type=int, default=None)
    p_ingest.add_argument("--seed", type=int, default=0)
    p_ingest.add_argument("--out", required=True)
    p_ingest.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
