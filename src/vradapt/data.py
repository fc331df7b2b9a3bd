"""LibSVM-format dataset handling.

Wire format: one sample per line, ``<label> <idx>:<val> <idx>:<val> ...``
with 1-based, strictly increasing feature indices.  Internally indices
are 0-based.  Labels are normalized to {-1, +1}: for the common binary
encodings ({0,1}, {1,2}, ...) the larger raw label maps to +1 and the
other to -1.  A label and every feature value must be finite numbers.
"""

from __future__ import annotations

import dataclasses
import gzip
import logging
import math
import operator
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)
BLOCK_LINES = 512  # lines in one block of the one-pass parser


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


def _normalize_labels(raw, text):
    labels = np.asarray(raw, dtype=float)
    uniq = np.unique(labels).tolist()
    if uniq in ([-1.0, 1.0], [-1.0], [1.0]):
        return labels
    if len(uniq) > 2:
        # the line of the first row whose label is a third distinct value
        third = np.sort(np.unique(labels, return_index=True)[1])[2]
        lines = text.split("\n")
        rows = [no for no, line in enumerate(lines, 1) if line.strip()[:1] not in ("", "#")]
        raise LibsvmParseError(
            rows[third], f"expected binary labels, found {len(uniq)} distinct values"
        )
    # one class: the lone label is positive; two: the larger one is
    return np.ones_like(labels) if len(uniq) == 1 else np.where(labels == uniq[-1], 1.0, -1.0)


def parse_libsvm(source, force_dim=None, limit=None) -> Dataset:
    """Parse LibSVM text from a string or text stream.

    ``force_dim`` pins the feature dimension (useful so that parts of a
    file keep the official dimension); otherwise d is the largest
    index seen.  ``limit`` keeps only the first ``limit`` rows.

    A stream is read whole; lines end at ``\\n`` only, as when a file or
    ``StringIO`` is iterated.  Two parsers give the same arrays, bit for
    bit, for any text they both accept (``_split_rows``): a numpy byte
    pass over blocks of lines, and the line parser, which takes a block
    the byte pass refuses and names the bad line.
    """
    text = source if isinstance(source, str) else source.read()
    raw_labels, counts, indices, values = _split_rows(text, limit)
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    max_index = int(indices.max()) if len(indices) else 0
    d = int(force_dim) if force_dim is not None else max_index
    if force_dim is not None and max_index > force_dim:
        raise ValueError(f"file uses feature index {max_index} beyond forced dimension {force_dim}")
    labels = _normalize_labels(raw_labels, text) if len(raw_labels) else np.empty(0)
    return Dataset(indptr, indices - 1, values, labels, len(raw_labels), d)


def _split_rows(text, limit=None):
    """Raw labels (float), feature counts, 1-based indices (int64) and
    values (float) of the data rows of ``text``, as arrays, parsed a
    block of ``BLOCK_LINES`` lines at a time, up to the block that
    meets ``limit``.  The text is encoded once (``_encode``); a block
    is the byte range between two of its line ends, and takes one numpy
    pass over those bytes (``_split_block``).  A block the pass refuses
    (a data row with a character past ASCII, a blank line of Unicode
    whitespace, a comment whose ``#`` follows such whitespace, or a bad
    row) goes alone, as its lines, through ``_parse_lines``, which
    raises ``LibsvmParseError`` naming the bad line by its number in
    ``text``: no other block is split into lines."""
    raw, newlines = _encode(text)
    parts = [(np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    rows = 0
    for start in range(0, len(newlines) - 1, BLOCK_LINES):
        room = None if limit is None else limit - rows
        if room is not None and room <= 0:
            break
        block = newlines[start:start + BLOCK_LINES + 1]
        try:
            parts.append(_split_block(raw, block, room))
        except (ValueError, OverflowError):
            lines = text[block[0] + 1:block[-1]].split("\n")
            parts.append(_parse_lines(lines, room, start + 1))
        rows += len(parts[-1][0])
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


# bytes.translate table: 0 for the ASCII whitespace str.split() splits
# at, 1 for every other byte
_SOLID = bytes(b not in b" \t\n\v\f\r\x1c\x1d\x1e\x1f" for b in range(256))
_FAST_WIDTH, _FAST_DIGITS = 16, 15  # 10**15 < 2**53: 15 digits make an exact mantissa
_POW10 = np.array([float(10**k) for k in range(23)])  # exact up to 10**22
_SCAN_BYTES = 1 << 16  # bytes _encode searches for newlines at once


def _encode(text):
    """``text`` as the byte pass reads it, one byte per character (``?``
    past ASCII, so a byte offset is a character offset), and the offsets
    of its line ends: -1, each newline's, then ``len(text)``, so that
    line k lies between ``newlines[k]`` and ``newlines[k + 1]``."""
    raw = text.encode("ascii", "replace")
    # the offsets a slice at a time: a mask of the whole text would cost
    # its fresh pages, more than the scan itself on a large file
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = (
        np.flatnonzero(buf[at:at + _SCAN_BYTES] == ord("\n")) + at
        for at in range(0, len(buf), _SCAN_BYTES)
    )
    return raw, np.concatenate(([-1], *ends, [len(raw)]))


def _split_block(raw, newlines, room):
    """``_split_rows`` on one block by the byte pass alone, keeping at
    most ``room`` data rows (all if None): the lines of ``_encode``'s
    bytes ``raw`` between the first and last of ``newlines``, the
    block's line ends there.  ValueError unless every feature token is
    <index>:<value>, every number reads as ``float``/``int`` reads it
    and is finite, and each row's indices are >= 1 and strictly
    increasing; OverflowError for an index beyond int64.

    A token is a run of bytes between whitespace; the first on a line is
    its row's label, and a row whose label starts with ``#`` is a
    comment.  Each character past ASCII reads as one ``?``, which is
    no digit, sign, dot, colon, ``#`` or whitespace: a data row that
    holds one fails the colon check or a number read, and a comment row
    that holds one stays on this pass."""
    first, last = int(newlines[0]), int(newlines[-1])
    # a newline before the lines and _FAST_WIDTH after: every token has
    # whitespace on both sides, and a number read that wide stays in them
    block = b"".join((b"\n", memoryview(raw)[first + 1:last], b"\n" * _FAST_WIDTH))
    buf = np.frombuffer(block, dtype=np.uint8)
    solid = np.frombuffer(block.translate(_SOLID), dtype=bool)
    edges = np.flatnonzero(solid[1:] != solid[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    # a row's label: the first token after a newline (the block's last
    # newline marks the slot past the last token)
    opens = np.zeros(len(starts) + 1, dtype=bool)
    opens[np.searchsorted(starts, newlines - first)] = True
    heads = np.flatnonzero(opens[:-1])
    rows = buf[starts[heads]] != ord("#")
    if room is not None:
        rows &= np.cumsum(rows) <= room
    sizes = np.diff(heads, append=len(starts))
    kept = np.repeat(rows, sizes)
    colons = np.flatnonzero(buf == ord(":"))
    if not rows.all():
        colons = colons[kept[np.searchsorted(starts, colons, "right") - 1]]
    kept[heads] = False
    feats = np.flatnonzero(kept)
    # the i-th colon of the kept rows lies inside the i-th feature token,
    # with bytes on both sides: each such token holds exactly one
    lo, hi = starts[feats], ends[feats]
    if len(colons) != len(feats) or np.any(colons <= lo) or np.any(colons >= hi - 1):
        raise ValueError("a feature token is not <index>:<value>")
    labels = heads[rows]
    floats = _numbers(
        block, buf, np.concatenate((starts[labels], colons + 1)),
        np.concatenate((ends[labels], hi)), float,
    )
    counts = sizes[rows] - 1
    indices = _numbers(block, buf, lo, colons, int)
    # each index above the one before it in its row; a row's first, above 0
    prev = np.concatenate(([0], indices))
    prev[np.cumsum(counts) - counts] = 0
    if not np.all(indices > prev[:-1]):
        raise ValueError("feature indices below 1 or out of order")
    return floats[: len(labels)], counts, indices, floats[len(labels):]


def _numbers(raw, buf, lo, hi, kind):
    """The numbers spelt by the ASCII bytes ``raw[lo[i]:hi[i]]`` (none
    empty; ``buf`` is ``raw`` as a uint8 array), each as ``kind``
    (``float`` or ``int``) reads it, in a float or int64 array.
    ``_fast_numbers`` reads the short plain spellings, which are finite;
    numpy reads every other one with ``kind`` itself, all in one batch,
    and ValueError if one of those is not finite.  ``kind`` reads a
    bytes token as it reads the same ASCII text, so none is decoded."""
    width = hi - lo
    out = np.empty(len(lo), dtype=np.int64 if kind is int else float)
    fast = width <= _FAST_WIDTH
    if fast.any():
        short = slice(None) if fast.all() else np.flatnonzero(fast)
        out[short], fast[short] = _fast_numbers(buf, lo[short], width[short], kind is float)
    slow = np.flatnonzero(~fast)
    if len(slow):
        tokens = [raw[a:b] for a, b in zip(lo[slow].tolist(), hi[slow].tolist())]
        out[slow] = read = np.array(tokens, out.dtype)
        if not np.isfinite(read).all():
            raise ValueError("a number not finite")
    return out


def _fast_numbers(buf, lo, width, dotted):
    """Values of the numbers of ``width`` (<= _FAST_WIDTH) bytes at
    ``lo``, and a mask of those read exactly: spelt ``[+-]digits[.digits]``
    (no dot unless ``dotted``) with at most _FAST_DIGITS digits.  Their
    digits form an exact mantissa M < 2**53, and M / 10**f, one IEEE
    division of two exact numbers (Clinger's fast path), is the
    correctly rounded value that ``float`` returns."""
    # row k holds each number's k-th byte, counted only where k < width
    span = np.arange(width.max(), dtype=np.uint8)[:, None]
    width = width.astype(np.uint8)
    chars = buf[lo + span]
    inside = span < width
    digits = chars - np.uint8(ord("0"))
    is_digit = (digits < 10) & inside
    n_digits = is_digit.sum(0, dtype=np.uint8)
    minus = chars[0] == ord("-")
    length = n_digits + (minus | (chars[0] == ord("+")))
    exact = n_digits - 1 < _FAST_DIGITS  # 1 to _FAST_DIGITS digits (0 - 1 wraps)
    # Horner's rule, from the first byte's digit (0 * 10 + digit is digit)
    value = np.where(is_digit[0], digits[0], 0.0)
    for digit, counts in zip(digits[1:], is_digit[1:]):
        value = np.where(counts, value * 10 + digit, value)
    if dotted:
        is_dot = (chars == ord(".")) & inside
        if is_dot.any():  # with no dot, each step here is the identity
            n_dots = is_dot.sum(0, dtype=np.uint8)
            length += n_dots
            exact &= n_dots < 2
            # digits after the dot; in an exact spelling, every byte after it
            decimals = (is_dot * (width - 1 - span)).sum(0, dtype=np.uint8)
            value /= _POW10[np.minimum(decimals, len(_POW10) - 1)]
    if minus.any():  # with no minus sign, negating is the identity
        value = np.where(minus, -value, value)
    return value, exact & (length == width)


def _parse_lines(lines, limit=None, first=1):
    """The line parser: the reference, every number through Python's
    ``float``/``int``, the same arrays as ``_split_rows``; raises
    ``LibsvmParseError`` at the first bad line, numbered from ``first``,
    the number of ``lines[0]`` (a block's lines keep their numbers in
    the whole text)."""
    raw_labels, counts, indices, values = [], [], [], []
    for line_no, line in enumerate(lines, start=first):
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
    return (
        np.array(raw_labels), np.array(counts, np.int64),
        np.array(indices, np.int64), np.array(values),
    )


def check_count(name, value, most=None, least=1):
    """A count ``name`` as an int, checked before it is converted (so nan
    and inf are named, not an error of ``int``): first, given ``most``
    (``math.inf`` for no bound), in [1, most]; then >= ``least``; then
    integral."""
    if most is not None and not (1 <= value <= most and value % 1 == 0):
        raise ValueError(f"{name} must be an integer in [1, {most}], got {value}")
    if not value >= least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if value % 1 != 0:
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def check_positive(name, value):
    """A real setting ``name`` as a float, checked positive and finite
    (nan and +-inf fail the one comparison, so they are named too)."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


def check_floats(sizes):
    """``check_sizes``, then the sizes as the shape of one float array:
    ValueError naming them if numpy would refuse it outright, for more
    bytes than an array index counts, where numpy's own error ("Maximum
    allowed dimension exceeded") names no size."""
    check_sizes(sizes)
    if math.prod(sizes.values()) * 8 > np.iinfo(np.intp).max:
        raise ValueError(
            f"{' x '.join(sizes)} is {' x '.join(map(str, sizes.values()))}: "
            "more floats than one array can hold"
        )


def check_sizes(sizes):
    """``check_count`` on each size; ``sizes`` maps a config key or flag
    to its value, None if unset."""
    for name, value in sizes.items():
        if value is not None:
            check_count(name, value)


@contextmanager
def opened(target, mode="r"):
    """A str or bytes ``target`` is a path, opened as UTF-8 text with
    ``newline=""`` and closed on exit; an OSError that names no file, as
    from a failed write or close, is given the path.  Anything else is
    an open handle, used as it is and left open."""
    if not isinstance(target, (str, bytes)):
        yield target
        return
    try:
        with open(target, mode, encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        if exc.filename is None:
            exc.filename = target
        raise


_CSV_SPECS = {"str": "%s", "int": "%d", "bool": "%d", "float": "%.17g"}


def csv_layout(row_type):
    """The CSV line of a dataclass row type, one column per field in
    field order: a ``%`` format (``str`` as ``%s``, ``int`` and ``bool``
    as ``%d``, ``float`` at 17 significant digits, which read back
    exactly; LF-terminated) and an ``operator.attrgetter`` of the fields,
    so a row's line is ``line % values(row)``.  The annotations must be
    strings, as ``from __future__ import annotations`` leaves them."""
    fields = dataclasses.fields(row_type)
    line = ",".join(_CSV_SPECS[f.type] for f in fields) + "\n"
    return line, operator.attrgetter(*(f.name for f in fields))


def _universal_newlines(text):
    # the test first: one search for "\r" is cheaper than the two it skips
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path):
    """A file's text, UTF-8 with universal newlines (``\\r\\n`` and ``\\r``
    read as ``\\n``) and without one leading byte-order mark; a ``.gz``
    file is decompressed.  A byte that is not UTF-8 is a ValueError
    naming the path and line, and a truncated or corrupt ``.gz`` one
    naming the path."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            raw = fh.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ValueError(f"{path}: damaged gzip data ({exc})") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _universal_newlines(raw[: exc.start].decode("utf-8")).count("\n") + 1
        raise ValueError(
            f"{path}: line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None
    # one leading byte-order mark, as Windows editors write it, is no text
    return _universal_newlines(text.removeprefix("\ufeff"))


def load_libsvm(path, force_dim=None, limit=None) -> Dataset:
    """Parse a LibSVM file read by ``read_text``; a parse error names the path."""
    try:
        ds = parse_libsvm(read_text(path), force_dim=force_dim, limit=limit)
    except LibsvmParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
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


def _sigmoid(m):
    """1 / (1 + exp(-m)) by ``math.exp``, 0.0 where exp(-m) overflows:
    the ``scipy.special`` sigmoid bit for bit on every margin tried,
    without importing scipy.  The labels keep ``math.exp`` so that the
    pinned datasets hold: numpy's ``exp``, which the logistic loss
    weights take (``problems._logistic_weights``), rounds differently."""
    try:
        return 1.0 / (1.0 + math.exp(-m))
    except OverflowError:
        return 0.0


def synthetic_dataset(n_rows, dim=123, seed=0, nnz_per_row=None) -> Dataset:
    """Seeded stand-in for the standard adult-income benchmark file.

    Binary features (value 1.0) with a fixed number of active features
    per row, min(14, dim) unless ``nnz_per_row`` says otherwise, labels
    planted by a noisy linear model with roughly a quarter of rows
    positive.  This is NOT the published dataset; it only mirrors its
    shape (d=123, +/-1 labels, one-hot style rows) so the harness can
    run when the real file is unavailable.
    """
    nnz_per_row = min(14, dim) if nnz_per_row is None else nnz_per_row
    if nnz_per_row > dim:
        raise ValueError("nnz_per_row cannot exceed dim")
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(dim) / np.sqrt(nnz_per_row)
    cols = np.empty((n_rows, nnz_per_row), dtype=np.int64)
    labels = np.empty(n_rows)
    # row by row: this stream of draws feeds the pinned trace hashes
    for i in range(n_rows):
        cols[i] = np.sort(rng.choice(dim, size=nnz_per_row, replace=False))
        margin = 2.0 * w_true[cols[i]].sum() - 1.15
        labels[i] = 1.0 if rng.random() < _sigmoid(margin) else -1.0
    indptr = np.arange(n_rows + 1, dtype=np.int64) * nnz_per_row
    return Dataset(indptr, cols.ravel(), np.ones(cols.size), labels, n_rows, dim)
