"""Sparsifying compression operators and their contract checkers.

Two operator families, each with a registered quality constant:

* contractive ("biased") operators C with E||C(x) - x||^2 <= (1 - 1/delta)||x||^2,
  e.g. keep-largest-k with delta = d/k;
* unbiased operators Q with E[Q(x)] = x and E||Q(x)||^2 <= omega ||x||^2,
  e.g. keep-random-k rescaled by d/k, with omega = d/k.

The constants are registered at construction rather than estimated; the
check_* functions validate a registration on vectors of the operator's
own ``dim``.  A method's compressor answers to the check of the constant
its estimator reads (``quality``: delta or omega).

``compress`` is the one-vector operator and the reference; the batched
``sample_dense(V, rng)`` is what the client-server estimators, the Monte
Carlo verifier and the contract checks compress through.  Both reject
vectors whose length is not the operator's ``dim``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import check_count


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


def _check_length(V, dim, vector=False):
    """V as a float array after checking that it holds vectors of length
    ``dim`` along its last axis (and, for a ``vector``, only one)."""
    V = np.asarray(V, dtype=float)
    if V.ndim and V.shape[-1] != dim:
        raise ValueError(f"dim is {dim}, got a vector of length {V.shape[-1]}")
    if V.ndim == 0 or (vector and V.ndim != 1):
        raise ValueError(f"dim is {dim}, got an array of shape {V.shape}")
    return V


def _threshold_drop(key, k, kind=None):
    """Where each row of ``key`` (along the last axis) is not among the
    first k positions of its argsort (numpy's sort ``kind``).

    A partition threshold gives the mask without a sort: a row keeps
    its k smallest entries, any entry tied with the k-th and any NaN
    (``NaN > t`` is false; a partition puts NaN last), so no row keeps
    fewer than k.  One count over the block is then (d - k) per row
    exactly when no tie straddles a row's k-th place and no NaN is
    present, and each row keeps the first k positions of any argsort.
    Otherwise each entry's rank in the argsort decides.
    """
    d = key.shape[-1]
    drop = key > np.partition(key, k - 1, axis=-1)[..., k - 1 : k]
    if np.count_nonzero(drop) == (d - k) * (key.size // d):
        return drop
    return key.argsort(axis=-1, kind=kind).argsort(axis=-1) >= k


_SUBSET_TABLE_BYTES = 1 << 20


@functools.cache
def _subset_table(n, k):
    """The k-subsets of range(n) in ``itertools.combinations`` order, as
    read-only index rows (smallest unsigned dtype) and bool masks, built
    once per (n, k); None if the two would pass ``_SUBSET_TABLE_BYTES``."""
    count, dtype = math.comb(n, k), np.min_scalar_type(n - 1)
    if count * (k * dtype.itemsize + n) > _SUBSET_TABLE_BYTES:
        return None
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    rows = np.fromiter(combos, dtype, count * k).reshape(count, k)
    masks = np.zeros((count, n), dtype=bool)
    np.put_along_axis(masks, rows, True, axis=1)
    rows.flags.writeable = masks.flags.writeable = False
    return rows, masks


def _draw_subsets(rng, n, k, shape, mask=False):
    """Uniform k-subsets of range(n), one per entry of ``shape``, as
    index rows (*shape, k) or, with ``mask``, bool masks (*shape, n):
    one ``rng.integers`` index each into ``_subset_table`` (rows come
    sorted), or where there is none, the first k positions of an argsort
    of uniforms ``rng.random((*shape, n))``.  Rand-k's kept sets and the
    samplers' batches and coordinate sets are all drawn here."""
    table = _subset_table(n, k)
    if table is not None:
        return table[mask].take(rng.integers(0, len(table[0]), size=shape), axis=0)
    uniforms = rng.random((*shape, n))
    if mask:
        return ~_threshold_drop(uniforms, k)
    return uniforms.argsort(axis=-1)[..., :k]


class _EveryOutcome:
    """A stand-in for the generator under which ``_draw_subsets`` of C
    subsets, C the number ``_subset_table`` lists, draws each of them
    once, in the table's order: its one call, ``integers(0, C,
    size=(C,))``, returns ``arange(C)``.  In its per-client form,
    ``integers(0, C, size=(C, n))``, row s is s for each of n clients,
    so a (C, n, d) stack of n clients' vectors is compressed under
    every outcome, one row per outcome: the exact unbiased check and
    the samplers' outcome tables (``_client_rows``) run under it.  Any
    other call is a ValueError naming it (any other method, at its
    lookup), so an operator that draws otherwise fails loudly rather
    than being judged on outcomes that are not all of its own."""

    def integers(self, low, high, size=None):
        if low != 0 or not isinstance(size, tuple) or len(size) not in (1, 2) or size[0] != high:
            raise ValueError(f"cannot enumerate integers({low}, {high}, size={size})")
        return np.arange(high).repeat(math.prod(size[1:])).reshape(size)

    def __getattr__(self, name):
        raise ValueError(
            f"cannot enumerate {name}: only integers(0, C, size=(C,)) or (C, n) is listed"
        )


class TopK:
    """Deterministic contractive compressor; registered delta = d/k."""

    randomized = False

    def __init__(self, k, dim):
        self.dim = check_count("dim", dim)
        self.k = check_count("k", k, self.dim)
        self.delta = self.dim / self.k

    def compress(self, x, rng=None) -> CompressedVector:
        """Keep the k coordinates of largest magnitude, values unchanged;
        ties break toward the lowest index."""
        x = _check_length(x, self.dim, vector=True)
        # stable sort on negated magnitude: equal magnitudes keep index order
        kept = np.sort(np.argsort(-np.abs(x), kind="stable")[: self.k])
        return CompressedVector(kept.astype(np.int64), x[kept], self.dim)

    def sample_dense(self, V, rng=None) -> np.ndarray:
        """``compress(v).to_dense()`` for every v along the last axis of V:
        each row keeps the first k positions of the stable argsort of -|v|
        (NaN ranks last), found by ``_threshold_drop``."""
        V = _check_length(V, self.dim)
        return np.where(_threshold_drop(-np.abs(V), self.k, "stable"), 0.0, V)


class RandK:
    """Unbiased sparsifier; registered omega = d/k."""

    randomized = True

    def __init__(self, k, dim):
        self.dim = check_count("dim", dim)
        self.k = check_count("k", k, self.dim)
        self.omega = self.dim / self.k

    def compress(self, x, rng) -> CompressedVector:
        """Keep k coordinates drawn uniformly without replacement, rescaled
        by d/k, which makes the operator unbiased with second moment
        exactly (d/k) ||x||^2.  The kept set is one ``_draw_subsets`` draw."""
        x = _check_length(x, self.dim, vector=True)
        kept = np.sort(_draw_subsets(rng, self.dim, self.k, ())).astype(np.int64)
        return CompressedVector(kept, self.omega * x[kept], self.dim)

    def sample_dense(self, V, rng) -> np.ndarray:
        """Independent ``compress`` outputs, dense, for every vector along
        the last axis of V: the kept sets are one ``_draw_subsets`` block
        of masks, vector by vector in C order, so the kept sets, and the
        rng's stream, are those of ``compress``.  Scaled after the select,
        so only kept entries are multiplied (and can overflow)."""
        V = _check_length(V, self.dim)
        out = np.where(_draw_subsets(rng, self.dim, self.k, V.shape[:-1], mask=True), V, 0.0)
        out *= self.omega
        return out


class IdentityCompressor(TopK):
    """No-op operator, top-k at k = d; delta = omega = 1.  Mostly a
    degenerate-case probe."""

    def __init__(self, dim):
        super().__init__(dim, dim)
        self.omega = 1.0


def _outcome_count(compressor):
    """How many outcomes ``_EveryOutcome`` lists for ``compressor``: 1
    for a deterministic one, which draws nothing; C(dim, k) for
    ``RandK``, whose kept sets come from ``_subset_table``.  None for
    rand-k past that table's size bound, and for any other randomized
    operator, whose draws are not known to be ``_draw_subsets``'s."""
    if not compressor.randomized:
        return 1
    if type(compressor) is not RandK:
        return None
    table = _subset_table(compressor.dim, compressor.k)
    return None if table is None else len(table[0])


def _registered(compressor, name):
    """The constant ``name`` a contract check judges; a ValueError, not
    an AttributeError, names it when the compressor registers none."""
    value = getattr(compressor, name, None)
    if value is None:
        raise ValueError(f"{type(compressor).__name__} registers no {name}")
    return value


def _check_trials(trials, sampled):
    """Check ``trials`` as a count; a sampled verdict needs two draws, as
    the standard error it is judged by takes two."""
    if check_count("trials", trials) < 2 and sampled:
        raise ValueError(f"a sampled check needs trials >= 2, got {trials}")


def check_biased_contract(compressor, trials, rng) -> dict:
    """Empirically validate a contractive registration on Gaussian probes,
    drawn as one (trials, dim) block and compressed by ``sample_dense``.

    Reports the worst observed ||C(x)-x||^2/||x||^2 - (1 - 1/delta).
    Deterministic compressors must satisfy the bound pointwise (margin
    <= 1e-12); randomized ones are judged on the mean margin against
    3 standard errors.
    """
    delta = _registered(compressor, "delta")
    _check_trials(trials, sampled=compressor.randomized)
    bound = 1.0 - 1.0 / delta
    probes = rng.standard_normal((trials, compressor.dim))
    gaps = compressor.sample_dense(probes, rng) - probes
    margins = (gaps * gaps).sum(axis=1) / (probes * probes).sum(axis=1) - bound
    if compressor.randomized:
        se = margins.std(ddof=1) / np.sqrt(trials)
        margin = float(margins.mean())
        passed = margin <= 3.0 * se
    else:
        se = 0.0
        margin = float(margins.max())
        passed = margin <= 1e-12
    return {
        "kind": "contractive",
        "delta": delta,
        "margin": margin,
        "stderr": float(se),
        "trials": trials,
        "passed": bool(passed),
    }


def check_unbiased_contract(compressor, trials, rng) -> dict:
    """Validate an unbiased registration.

    For a compressor with a ``k`` whose k-subsets of range(dim) fit in
    ``_subset_table``, the mean and second moment are exact: one
    ``sample_dense`` call on C copies of the probe under
    ``_EveryOutcome``, one row per subset, judged to 1e-12 (float
    summation only).  Otherwise both are sampled, ``trials`` draws in
    one ``sample_dense`` call, and judged against 3 standard errors.
    """
    omega = _registered(compressor, "omega")
    d = compressor.dim
    k = getattr(compressor, "k", None)
    table = None if k is None else _subset_table(d, k)
    _check_trials(trials, sampled=table is None)
    x = rng.standard_normal(d)
    xsq = float((x ** 2).sum())
    rows, draws = (trials, rng) if table is None else (len(table[0]), _EveryOutcome())
    samples = compressor.sample_dense(np.broadcast_to(x, (rows, d)), draws)
    mean_err = np.abs(samples.mean(axis=0) - x)
    if table is None:
        moments = (samples * samples).sum(axis=1) / xsq
        se_mean = samples.std(axis=0, ddof=1) / np.sqrt(trials)
        se_moment = moments.std(ddof=1) / np.sqrt(trials)
        margin = moments.mean() - omega
    else:
        margin = float((samples * samples).sum(axis=1).mean()) / xsq - omega
        se_mean = se_moment = 0.0
    passed = bool(
        np.all(mean_err <= 3.0 * se_mean + 1e-12)
        and margin <= 3.0 * se_moment + 1e-12
    )
    return {
        "kind": "unbiased",
        "omega": omega,
        "mode": "sampled" if table is None else "enumeration",
        "mean_error": float(mean_err.max()),
        "margin": float(margin),
        "stderr": float(se_moment),
        "passed": passed,
    }


def make_compressor(kind, dim, k=None):
    """Factory used by config parsing: kind in {topk, randk, identity}."""
    if kind == "identity":
        return IdentityCompressor(dim)
    sparsifier = {"topk": TopK, "randk": RandK}.get(kind)
    if sparsifier is None:
        raise ValueError(f"unknown compressor kind {kind!r}")
    if k is None:
        raise ValueError(f"compressor {kind!r} needs k")
    return sparsifier(k, dim)
