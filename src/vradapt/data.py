"""LibSVM-format dataset handling.

Wire format: one sample per line, ``<label> <idx>:<val> <idx>:<val> ...``
with 1-based, strictly increasing feature indices.  Internally indices
are 0-based.  Labels are normalized to {-1, +1}: for the common binary
encodings ({0,1}, {1,2}, ...) the larger raw label maps to +1 and the
other to -1.  A label and every feature value must be finite numbers.
"""

from __future__ import annotations

import gzip
import logging
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

log = logging.getLogger(__name__)
BLOCK_LINES = 512  # lines the one-pass parser splits at once


class LibsvmParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class Dataset:
    """Sparse rows as flat CSR arrays plus normalized labels.

    Row i is ``indices[indptr[i]:indptr[i + 1]]`` (int64: sorted, unique,
    0-based, < d) with ``values`` at the same positions.  Immutable by
    convention: ``LogisticProblem``'s CSR matrix shares ``values``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    n: int
    d: int

    def nnz(self):
        return len(self.indices)


def _normalize_labels(raw):
    labels = np.asarray(raw, dtype=float)
    uniq = sorted(set(labels.tolist()))
    if uniq in ([-1.0, 1.0], [-1.0], [1.0]):
        return labels
    if len(uniq) > 2:
        raise LibsvmParseError(1, f"expected binary labels, found {len(uniq)} distinct values")
    # one class: the lone label is positive; two: the larger one is
    return np.ones_like(labels) if len(uniq) == 1 else np.where(labels == uniq[-1], 1.0, -1.0)


def parse_libsvm(source, force_dim=None, limit=None) -> Dataset:
    """Parse LibSVM text from a string or text stream.

    ``force_dim`` pins the feature dimension (useful so that parts of a
    file keep the official dimension); otherwise d is the largest
    index seen.  ``limit`` keeps only the first ``limit`` rows.

    A stream is read whole; lines end at ``\\n`` only, as when a file or
    ``StringIO`` is iterated.  Text the one-pass parser (``_split_rows``)
    does not accept goes through the line parser, which names its line.
    """
    text = source if isinstance(source, str) else source.read()
    lines = text.split("\n")
    try:
        raw_labels, indptr, indices, values = _to_csr(*_split_rows(lines, limit))
    except (ValueError, OverflowError):
        raw_labels, indptr, indices, values = _to_csr(*_parse_lines(lines, limit))
    max_index = int(indices.max()) if len(indices) else 0
    d = int(force_dim) if force_dim is not None else max_index
    if force_dim is not None and max_index > force_dim:
        raise ValueError(f"file uses feature index {max_index} beyond forced dimension {force_dim}")
    labels = _normalize_labels(raw_labels) if len(raw_labels) else np.empty(0)
    return Dataset(indptr, indices - 1, values, labels, len(raw_labels), d)


def _split_rows(lines, limit=None):
    """Labels, feature counts, and index and value arrays of the data
    rows, converted a block of lines at a time (which bounds the token
    lists held); ValueError unless every feature token is <index>:<value>."""
    labels, counts, indices, values = [], [], [], []
    for start in range(0, len(lines), BLOCK_LINES):
        rows = [r for r in map(str.split, lines[start:start + BLOCK_LINES]) if r and r[0][0] != "#"]
        rows = rows if limit is None else rows[: max(limit - len(labels), 0)]
        labels += [r[0] for r in rows]
        counts += [len(r) - 1 for r in rows]
        feats = " ".join(chain.from_iterable(r[1:] for r in rows))
        parts = feats.replace(":", " ").split()
        # the pieces, glued back as <index>:<value> pairs, give feats again
        glued = [":"] * (2 * len(parts))
        glued[0::2] = parts
        glued[3::4] = [" "] * (len(parts) // 2)
        if len(parts) % 2 or "".join(glued)[:-1] != feats:
            raise ValueError("a feature token is not <index>:<value>")
        indices.append(np.array(parts[0::2], dtype=np.int64))
        values.append(np.array(parts[1::2], dtype=float))
    return labels, counts, np.concatenate(indices), np.concatenate(values)


def _to_csr(labels, counts, indices, values):
    """Raw labels, indptr, 1-based indices and values as arrays (strings
    convert as ``float``/``int`` read them); ValueError unless each
    row's indices are >= 1 and strictly increasing and its label and
    values finite."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.asarray(indices, dtype=np.int64)
    prev = np.r_[0, indices]
    prev[indptr[:-1]] = 0
    labels = np.array(labels, dtype=float)
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(labels).all() and np.isfinite(values).all()
    if not (np.all(indices > prev[:-1]) and finite):
        raise ValueError("feature indices below 1 or out of order, or a number not finite")
    return labels, indptr, indices, values


def _parse_lines(lines, limit=None):
    """The line parser: the reference, every number through Python's
    ``float``/``int``; raises ``LibsvmParseError`` at the first bad line."""
    raw_labels, counts, indices, values = [], [], [], []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if limit is not None and len(raw_labels) >= limit:
            break
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            label = np.nan
        if not np.isfinite(label):
            raise LibsvmParseError(line_no, f"bad label token {tokens[0]!r}")
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_str, val_str = tok.split(":", 1)
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                val = np.nan
            if not np.isfinite(val):
                raise LibsvmParseError(line_no, f"bad feature token {tok!r}")
            if idx < 1:
                raise LibsvmParseError(line_no, f"feature index {idx} below 1")
            if idx >= 2**63:
                raise LibsvmParseError(line_no, f"feature index {idx} beyond int64")
            if idx <= prev:
                raise LibsvmParseError(line_no, f"feature indices not strictly increasing at {idx}")
            prev = idx
            indices.append(idx)
            values.append(val)
        counts.append(len(tokens) - 1)
        raw_labels.append(label)
    return raw_labels, counts, indices, values


def check_sizes(sizes):
    """Reject a size below 1; ``sizes`` maps a config key or flag to its
    value, None if unset."""
    for name, value in sizes.items():
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@contextmanager
def opened(target, mode="r"):
    """A str or bytes ``target`` is a path, opened as UTF-8 text with
    ``newline=""`` and closed on exit; anything else is an open handle,
    used as it is and left open."""
    if not isinstance(target, (str, bytes)):
        yield target
        return
    with open(target, mode, encoding="utf-8", newline="") as handle:
        yield handle


def load_libsvm(path, force_dim=None, limit=None) -> Dataset:
    """Parse a LibSVM file; ``.gz`` files are decompressed transparently,
    and a truncated or corrupt one is a ValueError naming the file."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt") as fh:
            ds = parse_libsvm(fh, force_dim=force_dim, limit=limit)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ValueError(f"{path}: damaged gzip data ({exc})") from None
    log.info("loaded %s: %d rows, %d features, %d nonzeros", path, ds.n, ds.d, ds.nnz())
    return ds


def write_libsvm(dataset: Dataset, sink) -> None:
    """Serialize back to the wire format (1-based indices, LF newlines).

    Values are written with 17 significant digits so that re-parsing
    reproduces the dataset exactly.
    """
    with opened(sink, "w") as fh:
        for i in range(dataset.n):
            row = slice(dataset.indptr[i], dataset.indptr[i + 1])
            feats = "".join(
                f" {j + 1}:{v:.17g}" for j, v in zip(dataset.indices[row], dataset.values[row])
            )
            fh.write(("+1" if dataset.labels[i] > 0 else "-1") + feats + "\n")


def synthetic_dataset(n_rows, dim=123, seed=0, nnz_per_row=14) -> Dataset:
    """Seeded stand-in for the standard adult-income benchmark file.

    Binary features (value 1.0) with a fixed number of active features
    per row, labels planted by a noisy linear model with roughly a
    quarter of rows positive.  This is NOT the published dataset; it
    only mirrors its shape (d=123, +/-1 labels, one-hot style rows) so
    the harness can run when the real file is unavailable.
    """
    if nnz_per_row > dim:
        raise ValueError("nnz_per_row cannot exceed dim")
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(dim) / np.sqrt(nnz_per_row)
    cols = np.empty((n_rows, nnz_per_row), dtype=np.int64)
    labels = np.empty(n_rows)
    from scipy.special import expit

    # row by row: this stream of draws feeds the pinned trace hashes
    for i in range(n_rows):
        cols[i] = np.sort(rng.choice(dim, size=nnz_per_row, replace=False))
        margin = 2.0 * w_true[cols[i]].sum() - 1.15
        labels[i] = 1.0 if rng.random() < expit(margin) else -1.0
    indptr = np.arange(n_rows + 1, dtype=np.int64) * nnz_per_row
    return Dataset(indptr, cols.ravel(), np.ones(cols.size), labels, n_rows, dim)
