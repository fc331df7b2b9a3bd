"""Span tracing of vradapt from the outside, and the per-layer metrics.

The tracer wraps public methods and functions of the package for the
length of a ``with tracer.installed():`` block and restores the
originals afterwards.  Each call becomes a span (name, start, end,
parent, bytes of the returned array); spans stay in flat arrays in
memory and are written out once, at the end of the run.

Functions are patched in the namespace of the module that calls them:
``engine`` and ``verify`` bind ``make_estimator`` by name, and
``estimators`` binds ``partition_problem`` by name, so patching only the
defining module would miss those calls.  Methods are patched on the
class that defines them, never on a subclass that inherits them, so no
call is counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from vradapt import compressors, data, engine, estimators, problems, schedulers, verify

ESTIMATOR_CLASSES = {
    "lsvrg": estimators.LSVRG,
    "saga": estimators.SAGA,
    "page": estimators.PAGE,
    "zerosarah": estimators.ZeroSARAH,
    "ef21": estimators.EF21,
    "diana": estimators.DIANA,
    "dasha": estimators.DASHA,
    "sega": estimators.SEGA,
    "jaguar": estimators.JAGUAR,
}
PROBLEM_CLASSES = (problems.LogisticProblem, problems.QuadraticProblem)
PROBLEM_ORACLES = ("component_grads", "full_grad", "partials", "loss")


def _margin_span_name(args, kwargs):
    method = args[0] if args else kwargs["method"]
    if kwargs.get("constants_override") is not None:
        return f"verify.mutation_probe.{method}"
    return f"verify.assumption_margin.{method}"


def _targets():
    """(owner, attribute, span name) for every wrapped callable.  A span
    name may be a function of the call's arguments."""
    out = [
        (data, "load_libsvm", "data.load_libsvm"),
        (problems, "logistic_problem", "problems.logistic_problem"),
        (estimators, "partition_problem", "problems.partition_problem"),
        (engine, "make_estimator", "estimators.make_estimator"),
        (verify, "make_estimator", "estimators.make_estimator"),
        (engine, "run", "engine.run"),
        (verify, "assumption_margin", _margin_span_name),
        (schedulers.AdaptiveAccumulator, "gamma", "schedulers.gamma"),
        (compressors.TopK, "compress", "compressors.compress.topk"),
        (compressors.RandK, "compress", "compressors.compress.randk"),
        (compressors.CompressedVector, "to_dense", "compressors.to_dense"),
    ]
    for cls in PROBLEM_CLASSES:
        out += [(cls, op, f"problems.{op}") for op in PROBLEM_ORACLES]
    for method, cls in ESTIMATOR_CLASSES.items():
        out.append((cls, "step", f"estimators.step.{method}"))
        out.append((cls, "clone", "estimators.clone"))
        out.append((cls, "sigma_sq", "estimators.sigma_sq"))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("q")
        self._stack = [-1]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        fixed = None if callable(name) else self._id(name)
        name_of, intern = name, self._id
        name_ids, parents, starts, ends, sizes = (
            self.name_id, self.parent, self.start, self.end, self.nbytes
        )
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else intern(name_of(args, kwargs))
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            sizes.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            sizes[i] = getattr(result, "nbytes", 0)
            return result

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays, plus each span's duration and self time
        (duration minus what its direct children cover; spans of one
        thread nest, so children never overlap)."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        covered = np.zeros(len(dur))
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "dur": dur,
            "self": dur - covered,
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64),
        }

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            nbytes=np.frombuffer(self.nbytes, dtype=np.int64),
        )


# Per-call timings reported as median, 90th percentile and call count.
# Traced rounds make hundreds to hundreds of thousands of these calls,
# so the 90th percentile has at least ten calls beyond it.
PER_CALL_US = (
    "problems.component_grads",
    "problems.full_grad",
    "problems.partials",
    "problems.loss",
    *(f"estimators.step.{m}" for m in ESTIMATOR_CLASSES),
    "estimators.clone",
    "estimators.sigma_sq",
    "compressors.compress.topk",
    "compressors.compress.randk",
    "compressors.to_dense",
    "schedulers.gamma",
    "engine.record",
)
# Set-up calls, made a handful of times per round: median and count.
PER_CALL_MS = (
    "data.load_libsvm",
    "problems.logistic_problem",
    "problems.partition_problem",
    "estimators.make_estimator",
)
LAYERS = ("data", "problems", "estimators", "compressors", "schedulers", "engine", "verify")
METHODS = tuple(ESTIMATOR_CLASSES)


def per_layer_metric_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for op in PER_CALL_US:
        units[f"{op}.us"] = "us"
        units[f"{op}.p90_us"] = "us"
        units[f"{op}.calls"] = "count"
    units["problems.component_grads.bytes"] = "B"
    units["estimators.step.self_us"] = "us"
    units["estimators.step.self_p90_us"] = "us"
    for op in PER_CALL_MS:
        units[f"{op}.ms"] = "ms"
        units[f"{op}.calls"] = "count"
    units["engine.self_us_per_iter"] = "us"
    for m in METHODS:
        units[f"verify.assumption_margin.{m}.s"] = "s"
    units["verify.mutation_probe.s"] = "s"
    units["verify.self_us_per_sample"] = "us"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


def _median(x):
    return float(np.median(x)) if len(x) else 0.0


def _p90(x):
    return float(np.percentile(x, 90)) if len(x) else 0.0


def per_layer_metrics(tracer, steps, monte_carlo, untraced_wall_s, traced_wall_s):
    """Per-layer metrics of one traced round of ``steps`` estimator
    steps: Monte Carlo transitions if ``monte_carlo``, else optimizer
    iterations.  An operation the workload never calls reports 0 calls
    and 0 time."""
    iterations = 0 if monte_carlo else steps
    samples = steps if monte_carlo else 0
    s = tracer.arrays()
    names = tracer.names
    ids = {name: i for i, name in enumerate(names)}

    def mask(name):
        return s["name_id"] == ids.get(name, -1)

    def prefixed(prefix):
        wanted = [i for i, name in enumerate(names) if name.startswith(prefix)]
        return np.isin(s["name_id"], wanted)

    out = {}
    for op in PER_CALL_US:
        if op == "engine.record":
            us = _record_durations(s, ids) * 1e6
        else:
            us = s["dur"][mask(op)] * 1e6
        out[f"{op}.us"] = _median(us)
        out[f"{op}.p90_us"] = _p90(us)
        out[f"{op}.calls"] = int(len(us))
    out["problems.component_grads.bytes"] = _median(s["nbytes"][mask("problems.component_grads")])
    step_self = s["self"][prefixed("estimators.step.")] * 1e6
    out["estimators.step.self_us"] = _median(step_self)
    out["estimators.step.self_p90_us"] = _p90(step_self)
    for op in PER_CALL_MS:
        ms = s["dur"][mask(op)] * 1e3
        out[f"{op}.ms"] = _median(ms)
        out[f"{op}.calls"] = int(len(ms))
    engine_self = float(s["self"][mask("engine.run")].sum())
    out["engine.self_us_per_iter"] = engine_self / iterations * 1e6 if iterations else 0.0
    for m in METHODS:
        out[f"verify.assumption_margin.{m}.s"] = float(
            s["dur"][mask(f"verify.assumption_margin.{m}")].sum()
        )
    out["verify.mutation_probe.s"] = float(s["dur"][prefixed("verify.mutation_probe.")].sum())
    verify_self = float(s["self"][prefixed("verify.")].sum())
    out["verify.self_us_per_sample"] = verify_self / samples * 1e6 if samples else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(s["self"][prefixed(layer + ".")].sum())
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    out["trace.overhead_pct"] = 100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s
    return out


def _record_durations(s, ids):
    """Trace recording cost: the full_grad + loss pair that engine.run
    makes itself at every recorded iterate."""
    under_run = np.isin(s["parent"], np.flatnonzero(s["name_id"] == ids.get("engine.run", -1)))
    grads = s["dur"][under_run & (s["name_id"] == ids.get("problems.full_grad", -1))]
    losses = s["dur"][under_run & (s["name_id"] == ids.get("problems.loss", -1))]
    if len(grads) != len(losses):
        raise RuntimeError("engine.run made unpaired full_grad/loss calls")
    return grads + losses
