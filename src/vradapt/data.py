"""LibSVM-format dataset handling.

Wire format: one sample per line, ``<label> <idx>:<val> <idx>:<val> ...``
with 1-based, strictly increasing feature indices.  Internally indices
are 0-based.  Labels are normalized to {-1, +1}: for the common binary
encodings ({0,1}, {1,2}, ...) the larger raw label maps to +1 and the
other to -1.
"""

from __future__ import annotations

import gzip
import io
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


class LibsvmParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class Dataset:
    """Sparse rows plus normalized labels.

    ``indices[i]`` and ``values[i]`` describe row i; indices are sorted,
    unique, 0-based and < d.  Immutable by convention after construction.
    """

    indices: list
    values: list
    labels: np.ndarray
    n: int
    d: int

    def nnz(self):
        return int(sum(len(ix) for ix in self.indices))


def _normalize_labels(raw, first_line_no=1):
    labels = np.asarray(raw, dtype=float)
    uniq = sorted(set(labels.tolist()))
    if uniq == [-1.0, 1.0] or uniq == [-1.0] or uniq == [1.0]:
        return labels
    if len(uniq) == 1:
        # degenerate single-class file: treat the lone label as positive
        return np.ones_like(labels)
    if len(uniq) == 2:
        top = uniq[-1]
        return np.where(labels == top, 1.0, -1.0)
    raise LibsvmParseError(
        first_line_no, f"expected binary labels, found {len(uniq)} distinct values"
    )


def parse_libsvm(source, force_dim=None, limit=None) -> Dataset:
    """Parse LibSVM text from a string or text stream.

    ``force_dim`` pins the feature dimension (useful so that parts of a
    file keep the official dimension); otherwise d is the largest
    index seen.  ``limit`` keeps only the first ``limit`` rows.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    all_indices, all_values, raw_labels = [], [], []
    max_index = 0
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if limit is not None and len(raw_labels) >= limit:
            break
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmParseError(line_no, f"bad label token {tokens[0]!r}") from None
        row_idx, row_val = [], []
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_str, val_str = tok.split(":", 1)
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise LibsvmParseError(line_no, f"bad feature token {tok!r}") from None
            if idx < 1:
                raise LibsvmParseError(line_no, f"feature index {idx} below 1")
            if idx <= prev:
                raise LibsvmParseError(
                    line_no, f"feature indices not strictly increasing at {idx}"
                )
            prev = idx
            row_idx.append(idx - 1)
            row_val.append(val)
        max_index = max(max_index, prev)
        all_indices.append(np.array(row_idx, dtype=np.int64))
        all_values.append(np.array(row_val, dtype=float))
        raw_labels.append(label)
    d = int(force_dim) if force_dim is not None else max_index
    if force_dim is not None and max_index > force_dim:
        raise ValueError(
            f"file uses feature index {max_index} beyond forced dimension {force_dim}"
        )
    labels = _normalize_labels(raw_labels) if raw_labels else np.empty(0)
    return Dataset(all_indices, all_values, labels, len(raw_labels), d)


def load_libsvm(path, force_dim=None, limit=None) -> Dataset:
    """Parse a LibSVM file; ``.gz`` files are decompressed transparently."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        ds = parse_libsvm(fh, force_dim=force_dim, limit=limit)
    log.info("loaded %s: %d rows, %d features, %d nonzeros", path, ds.n, ds.d, ds.nnz())
    return ds


def write_libsvm(dataset: Dataset, sink) -> None:
    """Serialize back to the wire format (1-based indices, LF newlines).

    Values are written with 17 significant digits so that re-parsing
    reproduces the dataset exactly.
    """
    own = isinstance(sink, str)
    fh = open(sink, "w", newline="\n") if own else sink
    try:
        for i in range(dataset.n):
            label = "+1" if dataset.labels[i] > 0 else "-1"
            feats = " ".join(
                f"{int(j) + 1}:{v:.17g}"
                for j, v in zip(dataset.indices[i], dataset.values[i])
            )
            fh.write(f"{label} {feats}".rstrip() + "\n")
    finally:
        if own:
            fh.close()


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
    indices, values, labels = [], [], []
    from scipy.special import expit

    for _ in range(n_rows):
        idx = np.sort(rng.choice(dim, size=nnz_per_row, replace=False)).astype(np.int64)
        margin = 2.0 * w_true[idx].sum() - 1.15
        y = 1.0 if rng.random() < expit(margin) else -1.0
        indices.append(idx)
        values.append(np.ones(nnz_per_row))
        labels.append(y)
    return Dataset(indices, values, np.array(labels), n_rows, dim)
