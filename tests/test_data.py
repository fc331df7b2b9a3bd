import gzip
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vradapt import data
from vradapt.data import (
    Dataset,
    LibsvmParseError,
    load_libsvm,
    parse_libsvm,
    synthetic_dataset,
    write_libsvm,
)


def row(ds, i):
    """Row i's indices and values: its slice of the CSR arrays."""
    span = slice(ds.indptr[i], ds.indptr[i + 1])
    return ds.indices[span], ds.values[span]


class TestParse:
    def test_basic_row(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0")
        assert ds.n == 1
        assert ds.d == 3
        assert ds.labels[0] == 1.0
        assert list(row(ds, 0)[0]) == [0, 2]
        assert list(row(ds, 0)[1]) == [0.5, 2.0]

    def test_zero_label_maps_to_minus_one(self):
        ds = parse_libsvm("0 2:1\n1 1:1")
        assert list(ds.labels) == [-1.0, 1.0]

    def test_blank_lines_and_comments_skipped(self):
        ds = parse_libsvm("# header\n\n+1 1:1\n\n# tail\n-1 2:1\n")
        assert ds.n == 2

    def test_accepts_stream(self):
        ds = parse_libsvm(io.StringIO("+1 1:1\n-1 1:2\n"))
        assert ds.n == 2
        assert ds.d == 1

    def test_dimension_is_max_index(self):
        ds = parse_libsvm("+1 7:1\n-1 2:1")
        assert ds.d == 7

    def test_force_dim(self):
        ds = parse_libsvm("+1 2:1", force_dim=10)
        assert ds.d == 10

    def test_force_dim_too_small(self):
        with pytest.raises(ValueError):
            parse_libsvm("+1 5:1", force_dim=3)

    def test_limit(self):
        ds = parse_libsvm("+1 1:1\n-1 2:1\n+1 3:1", limit=2)
        assert ds.n == 2

    def test_empty_feature_row(self):
        ds = parse_libsvm("+1\n-1 2:1")
        assert ds.n == 2
        assert len(row(ds, 0)[0]) == 0

    def test_bad_label(self):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm("+1 1:1\nxyz 1:1")
        assert "line 2" in str(err.value)

    def test_bad_feature_token(self):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm("+1 1:abc")
        assert "line 1" in str(err.value)

    def test_index_below_one(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm("+1 0:2.0")

    def test_nonincreasing_indices(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm("+1 3:1 2:1")
        with pytest.raises(LibsvmParseError):
            parse_libsvm("+1 3:1 3:1")

    def test_two_arbitrary_label_values(self):
        # larger value becomes +1, the other -1
        ds = parse_libsvm("2 1:1\n4 1:2\n2 1:3")
        assert list(ds.labels) == [-1.0, 1.0, -1.0]

    def test_three_label_values_rejected(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm("1 1:1\n2 1:1\n3 1:1")

    def test_single_label_value(self):
        ds = parse_libsvm("5 1:1\n5 2:1")
        assert set(ds.labels) == {1.0}


class TestRoundTrip:
    def test_write_then_parse_is_exact(self):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(20):
            nnz = rng.integers(1, 6)
            idx = np.sort(rng.permutation(12)[:nnz]) + 1
            vals = rng.standard_normal(nnz)
            label = "+1" if rng.random() < 0.5 else "-1"
            rows.append(label + " " + " ".join(f"{j}:{v}" for j, v in zip(idx, vals)))
        ds = parse_libsvm("\n".join(rows), force_dim=12)
        sink = io.StringIO()
        write_libsvm(ds, sink)
        again = parse_libsvm(sink.getvalue(), force_dim=12)
        assert again.n == ds.n
        assert np.array_equal(again.labels, ds.labels)
        for i in range(ds.n):
            assert np.array_equal(row(again, i)[0], row(ds, i)[0])
            assert np.array_equal(row(again, i)[1], row(ds, i)[1])

    def test_writes_lf_only(self):
        ds = parse_libsvm("+1 1:1\n-1 2:1")
        sink = io.StringIO()
        write_libsvm(ds, sink)
        assert "\r" not in sink.getvalue()
        assert sink.getvalue().endswith("\n")

    def test_file_and_gzip_loading(self, tmp_path):
        text = "+1 1:0.5 3:2.0\n-1 2:1.0\n"
        plain = tmp_path / "small.txt"
        plain.write_text(text)
        ds1 = load_libsvm(str(plain))
        gz = tmp_path / "small.txt.gz"
        with gzip.open(gz, "wt") as handle:
            handle.write(text)
        ds2 = load_libsvm(str(gz))
        assert ds1.n == ds2.n == 2
        assert np.array_equal(ds1.labels, ds2.labels)


class TestDenseRow:
    def test_nnz(self):
        ds = parse_libsvm("+1 1:1 2:1\n-1 3:1")
        assert ds.nnz() == 3


class TestSynthetic:
    def test_shape_and_labels(self):
        ds = synthetic_dataset(100, dim=30, seed=5)
        assert ds.n == 100
        assert ds.d == 30
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}
        # both classes occur at this size
        assert len(np.unique(ds.labels)) == 2

    def test_rows_sorted_and_in_range(self):
        ds = synthetic_dataset(50, dim=20, seed=1, nnz_per_row=6)
        for idx, _ in (row(ds, i) for i in range(ds.n)):
            assert len(idx) == 6
            assert np.all(np.diff(idx) > 0)
            assert idx.min() >= 0
            assert idx.max() < 20

    def test_deterministic(self):
        a = synthetic_dataset(30, dim=15, seed=9)
        b = synthetic_dataset(30, dim=15, seed=9)
        assert np.array_equal(a.labels, b.labels)
        for i in range(30):
            assert np.array_equal(row(a, i)[0], row(b, i)[0])

    def test_round_trips_through_writer(self):
        ds = synthetic_dataset(25, dim=10, seed=3, nnz_per_row=4)
        sink = io.StringIO()
        write_libsvm(ds, sink)
        again = parse_libsvm(sink.getvalue(), force_dim=10)
        assert np.array_equal(again.labels, ds.labels)
        for i in range(25):
            assert np.array_equal(row(again, i)[0], row(ds, i)[0])


# Differential test of the one-pass parser against the line parser:
# well formed tokens, each now and then swapped for an odd one.
LABELS = ("+1", "-1", "0", "1", "2") * 12 + (
    "3.0", "1e2", "nan", "-inf", "1_0", "0x10", "1d0", "x", "+", "1:1", "#1",
)
ODD_INDICES = ("03", "+3", "3_0", "3.0", "1e2", "0", "-1", "9", "", "١", "99999999999999999999")
VALUES = ("1", "0.5", "-2.25", "0", "1e-3") * 12 + (
    "-0", "1_0", "nan", "inf", "1e2", "1e999", "0x10", "1d0", "", "abc", "2:3",
)
ODD_FEATURES = (":2", "1:", "1::2", "3", "1:1:1", "2 :1", "2: 1")
SEPS = (" ",) * 40 + ("\t", "  ", "\x0c", "\r", "\x0b", "\x1c", "\u2028", "\xa0", "\x85")
ENDS = ("\n",) * 20 + ("\r\n", " \n", "\t\n", "\x0c\n", "\r", "\u2028")


@st.composite
def feature_lines(draw):
    """A data line with up to four features in increasing index order."""
    line = draw(st.sampled_from(LABELS))
    for i in sorted(draw(st.lists(st.integers(1, 9), unique=True, max_size=4))):
        index = draw(st.sampled_from((str(i),) * 40 + ODD_INDICES))
        feature = f"{index}:{draw(st.sampled_from(VALUES))}"
        line += draw(st.sampled_from(SEPS)) + draw(st.sampled_from((feature,) * 40 + ODD_FEATURES))
    return draw(st.sampled_from(("",) * 8 + (" ", "\t"))) + line + draw(
        st.sampled_from(("",) * 8 + (" ", "\r"))
    )


LINES = feature_lines() | st.sampled_from(("", "   ", "# note 1:2", "  #x", "#", "\t"))


@st.composite
def libsvm_texts(draw):
    lines = draw(st.lists(LINES, max_size=7))
    ends = [draw(st.sampled_from(ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if text and draw(st.booleans()) else text


def _outcome(parse):
    """A parse's dataset, as exact bytes, or its exception and message."""
    try:
        ds = parse()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    arrays = (ds.indptr, ds.indices, ds.values, ds.labels)
    return ds.n, ds.d, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    text=libsvm_texts(),
    limit=st.sampled_from((None, None, -1, 0, 1, 2, 5)),
    force_dim=st.sampled_from((None, None, 3, 9, 12)),
)
# a row whose extra token the next row's count would hide
@example(text="+1 1:2 -1\n3:4\n", limit=None, force_dim=None)
@example(text="+1 1:2:3 4\n", limit=None, force_dim=None)
@example(text="+1 1:2 3:4\n-1 1:1 2\n", limit=1, force_dim=None)
@example(text="+1 1:2 3\n", limit=None, force_dim=None)
# a NaN label, whose class once hung on the set order of NaN and 1.0
@example(text=" nan\u20286:-2.25\n1 2:0 3:1 6:0.5 8:1\n", limit=None, force_dim=None)
def test_one_pass_parse_equals_line_parser(text, limit, force_dim):
    def parse(source):
        return lambda: parse_libsvm(source, force_dim=force_dim, limit=limit)

    # the reference: the line parser alone, on the lines StringIO yields
    line_parser = data._parse_lines
    with mock.patch.object(data, "_split_rows", side_effect=ValueError), mock.patch.object(
        data, "_parse_lines", lambda lines, limit: line_parser(io.StringIO(text), limit)
    ):
        want = _outcome(parse(text))
    assert _outcome(parse(text)) == want
    # blocks of two lines: rows, the limit and errors span blocks
    with mock.patch.object(data, "BLOCK_LINES", 2):
        assert _outcome(parse(io.StringIO(text))) == want


@pytest.mark.parametrize(
    "text",
    [
        "+1 1:0.5 3:2\n-1 2:1\n",
        "# header 1:1\n\n+1\t1:1  2:-0 \r\n  -1 3:1e-3\x0c4:2\n\n# tail\n",
        "1 1:1_0 2:-0 3:1e-3\n0 1:+3 2:1e2\n",
        "+1 03:1 7:2\n-1\n",
    ],
)
def test_one_pass_accepts_well_formed_text(text):
    lines = text.split("\n")
    got = data._to_csr(*data._split_rows(lines))
    for a, b in zip(got, data._to_csr(*data._parse_lines(lines))):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "line,message",
    [
        ("1:1 2", "line 1: bad label token '1:1'"),
        ("nan 1:1", "line 1: bad label token 'nan'"),
        ("-inf", "line 1: bad label token '-inf'"),
        ("1e999 2:1", "line 1: bad label token '1e999'"),
        ("+1 2:nan 3:-inf", "line 1: bad feature token '2:nan'"),
        ("+1 1:1 3:-inf", "line 1: bad feature token '3:-inf'"),
        ("+1 1:1e999", "line 1: bad feature token '1:1e999'"),
        ("+1 1: 2", "line 1: bad feature token '1:'"),
        ("+1 1::2", "line 1: bad feature token '1::2'"),
        ("+1 3.0:1", "line 1: bad feature token '3.0:1'"),
        ("+1 2:1 1:1", "line 1: feature indices not strictly increasing at 1"),
        ("+1 0:1", "line 1: feature index 0 below 1"),
    ],
)
def test_one_pass_rejects_to_the_line_parser(line, message):
    with pytest.raises(ValueError):
        data._to_csr(*data._split_rows([line]))
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm("# first\n" + line)
    assert str(err.value) == message.replace("line 1", "line 2")
