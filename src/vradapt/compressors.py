"""Sparsifying compression operators and their contract checkers.

Two operator families, each with a registered quality constant:

* contractive ("biased") operators C with E||C(x) - x||^2 <= (1 - 1/delta)||x||^2,
  e.g. keep-largest-k with delta = d/k;
* unbiased operators Q with E[Q(x)] = x and E||Q(x)||^2 <= omega ||x||^2,
  e.g. keep-random-k rescaled by d/k, with omega = d/k.

The constants are registered at construction rather than estimated; the
check_* functions validate a registration empirically (or exhaustively
for small dimensions).

Next to the one-vector ``compress``, each operator has a batched
``sample_dense(V, rng)``: the dense outputs of ``compress`` for every
vector along the last axis of V, with fresh randomness per vector, drawn
vector by vector in C order.  The client-server estimators, the Monte
Carlo verifier and the sampled contract checks all compress through it;
``compress`` is the one-vector API and the reference the tests hold
``sample_dense`` to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CompressedVector:
    """Sparse message: (index, value) pairs plus the origin dimension."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out


def _check_k(k, d):
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")


def top_k(x, k) -> CompressedVector:
    """Keep the k coordinates of largest magnitude, values unchanged.

    Ties break toward the lowest index, so the output is a deterministic
    function of x.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    _check_k(k, d)
    # stable sort on negated magnitude: equal magnitudes keep index order
    order = np.argsort(-np.abs(x), kind="stable")[:k]
    kept = np.sort(order)
    return CompressedVector(kept.astype(np.int64), x[kept], d)


def rand_k(x, k, rng) -> CompressedVector:
    """Keep k coordinates drawn uniformly without replacement, rescaled by d/k.

    The rescaling makes the operator unbiased; its second moment is
    exactly (d/k) ||x||^2.  The kept coordinates are the first k
    positions of an argsort of d uniforms, as each row of
    ``RandK.sample_dense`` draws them, so from one generator state the
    two keep the same subset.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    _check_k(k, d)
    kept = np.sort(rng.random(d).argsort()[:k])
    return CompressedVector(kept.astype(np.int64), (d / k) * x[kept], d)


def _keep_dense(V, kept, scale=1.0):
    """Dense array with V's entries at positions ``kept`` (along the last
    axis) times ``scale``, zeros elsewhere."""
    out = np.zeros(V.shape)
    np.put_along_axis(out, kept, scale * np.take_along_axis(V, kept, axis=-1), axis=-1)
    return out


class TopK:
    """Deterministic contractive compressor; registered delta = d/k."""

    randomized = False
    unbiased = False

    def __init__(self, k, dim):
        _check_k(k, dim)
        self.k = int(k)
        self.dim = int(dim)
        self.delta = dim / k

    def compress(self, x, rng=None) -> CompressedVector:
        return top_k(x, self.k)

    def sample_dense(self, V, rng=None) -> np.ndarray:
        """``top_k(v).to_dense()`` for every v along the last axis of V,
        with the same lowest-index tie break."""
        V = np.asarray(V, dtype=float)
        return _keep_dense(V, np.argsort(-np.abs(V), axis=-1, kind="stable")[..., : self.k])


class RandK:
    """Unbiased sparsifier; registered omega = d/k."""

    randomized = True
    unbiased = True

    def __init__(self, k, dim):
        _check_k(k, dim)
        self.k = int(k)
        self.dim = int(dim)
        self.omega = dim / k

    def compress(self, x, rng) -> CompressedVector:
        return rand_k(x, self.k, rng)

    def sample_dense(self, V, rng) -> np.ndarray:
        """Independent ``rand_k`` outputs, dense, for every vector along
        the last axis of V: each keeps the first k positions of an argsort
        of uniforms, k distinct positions drawn uniformly."""
        V = np.asarray(V, dtype=float)
        kept = rng.random(V.shape).argsort(axis=-1)[..., : self.k]
        return _keep_dense(V, kept, V.shape[-1] / self.k)

    def enumerate_outcomes(self, x):
        """All equally likely outputs; exact-expectation checks for small d."""
        x = np.asarray(x, dtype=float)
        scale = self.dim / self.k
        for kept in itertools.combinations(range(self.dim), self.k):
            idx = np.array(kept, dtype=np.int64)
            yield CompressedVector(idx, scale * x[idx], self.dim)


class IdentityCompressor:
    """No-op operator; delta = omega = 1.  Mostly a degenerate-case probe."""

    randomized = False
    unbiased = True

    def __init__(self, dim):
        self.dim = int(dim)
        self.k = int(dim)
        self.delta = 1.0
        self.omega = 1.0

    def compress(self, x, rng=None) -> CompressedVector:
        x = np.asarray(x, dtype=float)
        return CompressedVector(np.arange(self.dim, dtype=np.int64), x.copy(), self.dim)

    def sample_dense(self, V, rng=None) -> np.ndarray:
        return np.array(V, dtype=float)

    def enumerate_outcomes(self, x):
        yield self.compress(x)


def dense_bits_cost(dim, value_bits=32) -> int:
    """Wire cost of an uncompressed vector (no index bits needed)."""
    return dim * value_bits


def check_biased_contract(compressor, d, trials, rng) -> dict:
    """Empirically validate a contractive registration on Gaussian probes,
    drawn as one (trials, d) block and compressed by ``sample_dense``.

    Reports the worst observed ||C(x)-x||^2/||x||^2 - (1 - 1/delta).
    Deterministic compressors must satisfy the bound pointwise (margin
    <= 1e-12); randomized ones are judged on the mean margin against
    3 standard errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    bound = 1.0 - 1.0 / compressor.delta
    probes = rng.standard_normal((trials, d))
    gaps = compressor.sample_dense(probes, rng) - probes
    margins = (gaps * gaps).sum(axis=1) / (probes * probes).sum(axis=1) - bound
    if compressor.randomized:
        se = margins.std(ddof=1) / np.sqrt(trials) if trials > 1 else 0.0
        margin = float(margins.mean())
        passed = margin <= 3.0 * se
    else:
        se = 0.0
        margin = float(margins.max())
        passed = margin <= 1e-12
    return {
        "kind": "contractive",
        "delta": compressor.delta,
        "margin": margin,
        "stderr": float(se),
        "trials": trials,
        "passed": bool(passed),
    }


def check_unbiased_contract(compressor, d, trials, rng) -> dict:
    """Validate an unbiased registration.

    For d <= 8 and an enumerable operator the mean and second moment are
    computed over all outcomes (tolerance 1e-12, float summation only);
    otherwise both are sampled, ``trials`` draws in one ``sample_dense``
    call, and judged against 3 standard errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x = rng.standard_normal(d)
    xsq = float((x ** 2).sum())
    if d <= 8 and hasattr(compressor, "enumerate_outcomes"):
        outcomes = [c.to_dense() for c in compressor.enumerate_outcomes(x)]
        mean = np.mean(outcomes, axis=0)
        second = float(np.mean([(o ** 2).sum() for o in outcomes]))
        mean_err = float(np.abs(mean - x).max())
        moment_margin = second / xsq - compressor.omega
        passed = mean_err <= 1e-12 and moment_margin <= 1e-12
        return {
            "kind": "unbiased",
            "omega": compressor.omega,
            "mode": "enumeration",
            "mean_error": mean_err,
            "moment_margin": float(moment_margin),
            "stderr": 0.0,
            "passed": bool(passed),
        }
    samples = compressor.sample_dense(np.broadcast_to(x, (trials, d)), rng)
    moments = (samples * samples).sum(axis=1) / xsq
    se_mean = samples.std(axis=0, ddof=1) / np.sqrt(trials)
    mean_err = np.abs(samples.mean(axis=0) - x)
    se_moment = moments.std(ddof=1) / np.sqrt(trials)
    moment_margin = float(moments.mean() - compressor.omega)
    passed = bool(
        np.all(mean_err <= 3.0 * se_mean + 1e-12)
        and moment_margin <= 3.0 * se_moment + 1e-12
    )
    return {
        "kind": "unbiased",
        "omega": compressor.omega,
        "mode": "sampled",
        "mean_error": float(mean_err.max()),
        "moment_margin": moment_margin,
        "stderr": float(se_moment),
        "passed": passed,
    }


def make_compressor(kind, dim, k=None):
    """Factory used by config parsing: kind in {topk, randk, identity}."""
    kind = kind.lower()
    if kind == "identity":
        return IdentityCompressor(dim)
    if k is None:
        raise ValueError(f"compressor {kind!r} needs k")
    if kind == "topk":
        return TopK(k, dim)
    if kind == "randk":
        return RandK(k, dim)
    raise ValueError(f"unknown compressor kind {kind!r}")
