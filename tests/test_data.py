import gzip
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vradapt import data
from vradapt.cli import main
from vradapt.compressors import IdentityCompressor, TopK, check_biased_contract
from vradapt.data import (
    Dataset,
    LibsvmParseError,
    check_count,
    check_positive,
    check_sizes,
    load_libsvm,
    parse_libsvm,
    synthetic_dataset,
    write_libsvm,
)
from vradapt.engine import ExperimentConfig, validate
from vradapt.problems import make_quadratic, partition_problem
from vradapt.verify import assumption_margin, grad_fd_check, standard_margin_setup


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

    @pytest.mark.parametrize(
        "labels,want",
        [
            ("-0 0 1", [-1.0, -1.0, 1.0]),
            ("0 -0", [1.0, 1.0]),
            ("-0 0 -1", [1.0, 1.0, -1.0]),
            ("1 -0 -1 0", None),
        ],
    )
    def test_signed_zero_labels_are_one_value(self, labels, want):
        # -0.0 == 0.0, so they are one distinct label, whichever sign the
        # distinct labels keep
        text = "\n".join(f"{y} 1:1" for y in labels.split())
        if want is None:
            with pytest.raises(LibsvmParseError, match="found 3 distinct values"):
                parse_libsvm(text)
            return
        got = parse_libsvm(text).labels
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    @pytest.mark.parametrize(
        "text, limit, line",
        [
            ("# header\n1 1:1\n2 1:1\n3 1:1\n", None, 4),
            # -0 and 0 are one value: the third is -1
            ("1 1:1\n-0 1:1\n\n0 1:1\n  # note\n-1 1:1\n", None, 6),
            # only the rows the limit keeps count
            ("1 1:1\n2 1:1\n2 1:1\n3 1:1\n4 1:1\n", 4, 4),
        ],
    )
    def test_three_label_error_names_the_line_of_the_third_value(self, text, limit, line):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(text, limit=limit)
        assert str(err.value) == f"line {line}: expected binary labels, found 3 distinct values"
        assert err.value.line_no == line


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

    @pytest.mark.parametrize("ends", ["\r", "\r\n", "\n\r"], ids=["cr", "crlf", "lfcr"])
    @pytest.mark.parametrize("name", ["rows.txt", "rows.txt.gz"])
    def test_files_read_with_universal_newlines(self, ends, name, tmp_path):
        raw = f"+1 1:0.5 3:2.0{ends}-1 2:1.0{ends}".encode()
        path = tmp_path / name
        path.write_bytes(gzip.compress(raw, mtime=0) if name.endswith(".gz") else raw)
        ds = load_libsvm(str(path))
        assert ds.n == 2
        assert _outcome(lambda: ds) == _outcome(lambda: parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0\n"))

    @pytest.mark.parametrize("name", ["rows.txt", "rows.txt.gz"])
    def test_leading_byte_order_mark_is_dropped(self, name, tmp_path):
        raw = b"\xef\xbb\xbf+1 1:0.5 3:2.0\r\n-1 2:1.0\n"
        path = tmp_path / name
        path.write_bytes(gzip.compress(raw, mtime=0) if name.endswith(".gz") else raw)
        assert data.read_text(str(path)) == "+1 1:0.5 3:2.0\n-1 2:1.0\n"
        ds = load_libsvm(str(path))
        assert _outcome(lambda: ds) == _outcome(lambda: parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0\n"))


class TestFileErrors:
    @pytest.mark.parametrize(
        "raw,line",
        [
            (b"\xff+1 1:1\n", 1),
            (b"+1 1:1\n-1 2:1\xc3", 2),
            (b"+1 1:1\r\n\r-1 \xe2\x82 2:1\n", 3),
            (b"+1 1:1 # \xc3\xa9\n\n-1\x80", 3),
        ],
    )
    def test_byte_that_is_not_utf8_names_file_and_line(self, raw, line, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(raw)
        named = f"^{re.escape(str(path))}: line {line}: byte 0x[0-9a-f]{{2}} is not UTF-8"
        for read in (data.read_text, load_libsvm):
            with pytest.raises(ValueError, match=named):
                read(str(path))

    def test_parse_error_names_file_and_keeps_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 1:1\n-1 3.0:1\n")
        with pytest.raises(LibsvmParseError) as err:
            load_libsvm(str(path))
        assert str(err.value) == f"{path}: line 2: bad feature token '3.0:1'"
        assert err.value.line_no == 2

    def test_failed_write_or_close_names_the_path(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with pytest.raises(OSError) as err:
            with data.opened(path, "w"):
                raise OSError(28, "No space left on device")
        assert str(err.value) == f"[Errno 28] No space left on device: {path!r}"
        # an error that already names a file keeps its own name
        with pytest.raises(FileNotFoundError, match="elsewhere"):
            with data.opened(path, "w"):
                open(tmp_path / "elsewhere")
        # a handle is the caller's: its errors pass through as they are
        with pytest.raises(OSError) as err:
            with data.opened(io.StringIO(), "w"):
                raise OSError(28, "No space left on device")
        assert err.value.filename is None


class TestCheckPositive:
    @pytest.mark.parametrize("value", [0, 0.0, -1, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_not_positive_or_not_finite_is_named(self, value):
        with pytest.raises(ValueError) as err:
            check_positive("mu", value)
        assert str(err.value) == f"mu must be positive and finite, got {value}"

    @pytest.mark.parametrize("value", [5e-324, 1e308, 2, np.float64(0.5), np.int64(3)])
    def test_returns_a_float(self, value):
        got = check_positive("mu", value)
        assert got == value and type(got) is float


def _saga_margin(**kwargs):
    problem, hp = standard_margin_setup("saga")
    return assumption_margin("saga", hp, problem, **kwargs)


class TestCheckCount:
    @pytest.mark.parametrize(
        "value,named",
        [
            (0, "n must be >= 1, got 0"),
            (-3, "n must be >= 1, got -3"),
            (float("nan"), "n must be >= 1, got nan"),
            (float("inf"), "n must be an integer, got inf"),
            (2.5, "n must be an integer, got 2.5"),
        ],
    )
    def test_count_below_one_or_not_integral_is_named(self, value, named):
        with pytest.raises(ValueError) as err:
            check_count("n", value)
        assert str(err.value) == named

    @pytest.mark.parametrize(
        "value,most,named",
        [
            (0, 5, "k must be an integer in [1, 5], got 0"),
            (6, 5, "k must be an integer in [1, 5], got 6"),
            (2.5, 5, "k must be an integer in [1, 5], got 2.5"),
            (float("nan"), 5, "k must be an integer in [1, 5], got nan"),
            (float("inf"), float("inf"), "k must be an integer in [1, inf], got inf"),
            (-1, float("inf"), "k must be an integer in [1, inf], got -1"),
        ],
    )
    def test_bound_gives_the_range_message(self, value, most, named):
        with pytest.raises(ValueError) as err:
            check_count("k", value, most)
        assert str(err.value) == named

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
    @pytest.mark.parametrize("most", [None, 3, float("inf")])
    def test_returns_an_int(self, value, most):
        got = check_count("n", value, most)
        assert got == 3 and type(got) is int

    def test_check_sizes_skips_unset(self):
        check_sizes({"limit": None, "force_dim": 4})
        with pytest.raises(ValueError, match=r"^force_dim must be >= 1, got 0$"):
            check_sizes({"limit": None, "force_dim": 0})

    @pytest.mark.parametrize(
        "call,named",
        [
            (lambda: TopK(0, 5), "k must be an integer in [1, 5], got 0"),
            (lambda: IdentityCompressor(0), "dim must be >= 1, got 0"),
            (lambda: partition_problem(make_quadratic(4, 2), 0), "n_clients must be >= 1, got 0"),
            (
                lambda: check_biased_contract(TopK(2, 4), 0, np.random.default_rng(0)),
                "trials must be >= 1, got 0",
            ),
            (
                lambda: validate(ExperimentConfig(method="saga", b=2, cadence=0), make_quadratic(6, 4)),
                "cadence must be >= 1, got 0",
            ),
            # each of these raised a TypeError from numpy or range
            (lambda: make_quadratic(2.5, 4), "n must be an integer, got 2.5"),
            (lambda: make_quadratic(6, 4.5), "d must be an integer, got 4.5"),
            (lambda: _saga_margin(state_points=2.5), "state_points must be an integer, got 2.5"),
            # the floor is 1000 samples: 1 to 999 fail too
            (lambda: _saga_margin(samples_per_point=float("nan")), "samples_per_point must be >= 1000, got nan"),
            (lambda: grad_fd_check(make_quadratic(6, 4), points=1.5), "points must be an integer, got 1.5"),
        ],
    )
    def test_call_sites_name_input_and_value(self, call, named):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == named

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["sweep", "--config", "unread.cfg", "--jobs", "0"], "error: --jobs must be >= 1, got 0"),
            (["constants", "--method", "saga", "--n", "0"], "error: saga: --n must be >= 1, got 0"),
        ],
    )
    def test_flags_name_input_and_value(self, argv, named, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == named + "\n"


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

    def test_more_entries_per_row_than_features_rejected(self):
        with pytest.raises(ValueError, match="^nnz_per_row cannot exceed dim$"):
            synthetic_dataset(5, dim=3, nnz_per_row=4)

    def test_deterministic(self):
        a = synthetic_dataset(30, dim=15, seed=9)
        b = synthetic_dataset(30, dim=15, seed=9)
        assert np.array_equal(a.labels, b.labels)
        for i in range(30):
            assert np.array_equal(row(a, i)[0], row(b, i)[0])

    @pytest.mark.parametrize("n, dim, seed", [(600, 40, 1), (4000, 123, 0), (40, 6, 0), (50, 8, 0)])
    def test_labels_equal_scipy_expit_labels(self, n, dim, seed):
        # the sigmoid is taken without scipy; the labels are those its
        # expit gives on the same draws (the datasets the pinned traces run)
        from scipy.special import expit

        nnz = min(14, dim)
        rng = np.random.default_rng(seed)
        w_true = rng.standard_normal(dim) / np.sqrt(nnz)
        want = []
        for _ in range(n):
            cols = np.sort(rng.choice(dim, size=nnz, replace=False))
            margin = 2.0 * w_true[cols].sum() - 1.15
            want.append(1.0 if rng.random() < expit(margin) else -1.0)
        assert synthetic_dataset(n, dim=dim, seed=seed).labels.tolist() == want
        for m in (0.0, -0.0, 30.5, -30.5, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0):
            assert np.float64(data._sigmoid(m)).tobytes() == expit(m).tobytes(), m

    def test_round_trips_through_writer(self, tmp_path):
        ds = synthetic_dataset(25, dim=10, seed=3, nnz_per_row=4)
        sink = io.StringIO()
        write_libsvm(ds, sink)
        path = tmp_path / "data.txt"
        write_libsvm(ds, str(path))
        assert path.read_bytes() == sink.getvalue().encode()  # a path and a handle agree
        again = parse_libsvm(sink.getvalue(), force_dim=10)
        assert np.array_equal(again.labels, ds.labels)
        for i in range(25):
            assert np.array_equal(row(again, i)[0], row(ds, i)[0])


# Differential test of the one-pass parser against the line parser:
# well formed tokens, each now and then swapped for an odd one.  The
# Hypothesis test's draws move with the literals it mines from every
# loaded module; the seeded numpy cases beside it stay put.
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
LEADS = ("",) * 8 + (" ", "\t")
TRAILS = ("",) * 8 + (" ", "\r")
BLANK_LINES = ("", "   ", "# note 1:2", "  #x", "#", "\t")
LIMITS = (None, None, -1, 0, 1, 2, 5)
FORCE_DIMS = (None, None, 3, 9, 12)


@st.composite
def feature_lines(draw):
    """A data line with up to four features in increasing index order."""
    line = draw(st.sampled_from(LABELS))
    for i in sorted(draw(st.lists(st.integers(1, 9), unique=True, max_size=4))):
        index = draw(st.sampled_from((str(i),) * 40 + ODD_INDICES))
        feature = f"{index}:{draw(st.sampled_from(VALUES))}"
        line += draw(st.sampled_from(SEPS)) + draw(st.sampled_from((feature,) * 40 + ODD_FEATURES))
    return draw(st.sampled_from(LEADS)) + line + draw(st.sampled_from(TRAILS))


LINES = feature_lines() | st.sampled_from(BLANK_LINES)


@st.composite
def libsvm_texts(draw):
    lines = draw(st.lists(LINES, max_size=7))
    ends = [draw(st.sampled_from(ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if text and draw(st.booleans()) else text


def seeded_libsvm_cases(seed, count):
    """``count`` (text, limit, force_dim) cases built as ``libsvm_texts``
    builds them, from the same pieces, but drawn by a numpy generator:
    unlike Hypothesis's, these draws depend on the seed alone."""
    rng = np.random.default_rng(seed)

    def pick(options):
        return options[rng.integers(len(options))]

    def line():
        if rng.random() < 0.5:
            return pick(BLANK_LINES)
        text = pick(LABELS)
        for i in np.sort(rng.choice(np.arange(1, 10), rng.integers(5), replace=False)):
            feature = f"{pick((str(i),) * 40 + ODD_INDICES)}:{pick(VALUES)}"
            text += pick(SEPS) + pick((feature,) * 40 + ODD_FEATURES)
        return pick(LEADS) + text + pick(TRAILS)

    for _ in range(count):
        text = "".join(line() + pick(ENDS) for _ in range(rng.integers(8)))
        if text and rng.random() < 0.5:
            text = text[:-1]
        yield text, pick(LIMITS), pick(FORCE_DIMS)


def _line_parser_outcome(text, limit=None, force_dim=None):
    """The reference: ``_outcome`` of ``parse_libsvm`` with the whole
    text through the line parser alone, on the lines StringIO yields."""
    line_parser = data._parse_lines
    with mock.patch.object(
        data, "_split_rows",
        lambda lines, limit: line_parser(io.StringIO(text), limit),
    ):
        return _outcome(lambda: parse_libsvm(text, force_dim=force_dim, limit=limit))


def _byte_pass(text):
    """``_split_block`` on the whole of ``text`` as one block."""
    return data._split_block(*data._encode(text), None)


def _outcome(parse):
    """A parse's dataset, as exact bytes, or its exception and message."""
    try:
        ds = parse()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    arrays = (ds.indptr, ds.indices, ds.values, ds.labels)
    return ds.n, ds.d, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(text=libsvm_texts(), limit=st.sampled_from(LIMITS), force_dim=st.sampled_from(FORCE_DIMS))
# a row whose extra token the next row's count would hide
@example(text="+1 1:2 -1\n3:4\n", limit=None, force_dim=None)
@example(text="+1 1:2:3 4\n", limit=None, force_dim=None)
@example(text="+1 1:2 3:4\n-1 1:1 2\n", limit=1, force_dim=None)
@example(text="+1 1:2 3\n", limit=None, force_dim=None)
# a NaN label, whose class once hung on the set order of NaN and 1.0
@example(text=" nan\u20286:-2.25\n1 2:0 3:1 6:0.5 8:1\n", limit=None, force_dim=None)
def test_one_pass_parse_equals_line_parser(text, limit, force_dim):
    _assert_one_pass_equals_line_parser(text, limit, force_dim)


def test_one_pass_parse_equals_line_parser_on_seeded_cases():
    for text, limit, force_dim in seeded_libsvm_cases(seed=2016, count=400):
        _assert_one_pass_equals_line_parser(text, limit, force_dim)


def _assert_one_pass_equals_line_parser(text, limit, force_dim):
    def parse(source):
        return lambda: parse_libsvm(source, force_dim=force_dim, limit=limit)

    case = (text, limit, force_dim)
    want = _line_parser_outcome(text, limit, force_dim)
    assert _outcome(parse(text)) == want, case
    # blocks of two lines: rows, the limit and errors span blocks
    with mock.patch.object(data, "BLOCK_LINES", 2):
        assert _outcome(parse(io.StringIO(text))) == want, case


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
    got = _byte_pass(text)
    for a, b in zip(got, data._parse_lines(text.split("\n"))):
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
        _byte_pass(line)
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm("# first\n" + line)
    assert str(err.value) == message.replace("line 1", "line 2")


def _both_parsers(lines):
    """The one-pass parser's and the line parser's arrays, each as
    (dtype, bytes) per array, or "rejected"."""
    outcomes = []
    for split in (lambda lines: _byte_pass("\n".join(lines)), data._parse_lines):
        try:
            arrays = split(lines)
        except (ValueError, OverflowError):
            outcomes.append("rejected")
        else:
            outcomes.append([(a.dtype.str, a.tobytes()) for a in arrays])
    return outcomes


# 15 digits and fewer take the exact decimal path; 16 and more, an
# exponent or an underscore go through float itself
SPELLINGS = (
    "123456789012345", "1234567890123456", "9007199254740993", "0.1",
    "0.30000000000000004", ".5", "5.", "+.5", "-0", "-0.0", "000000000000001",
    "1e22", "1_0",
)


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_one_pass_reads_each_value_spelling_as_float_does(spelling):
    lines = [f"+1 1:{spelling} 2:1", f"{spelling} 3:{spelling}"]
    one_pass, line_parser = _both_parsers(lines)
    assert one_pass != "rejected" and one_pass == line_parser
    values = data._split_rows("\n".join(lines))[3]
    assert values.tobytes() == np.array([float(spelling), 1.0, float(spelling)]).tobytes()


@pytest.mark.parametrize("index,accepted", [
    ("9223372036854775807", True), ("9223372036854775808", False),
])
def test_one_pass_reads_int64_edge_indices_as_the_line_parser(index, accepted):
    one_pass, line_parser = _both_parsers([f"+1 {index}:1"])
    assert one_pass == line_parser
    assert (one_pass != "rejected") == accepted


def test_one_pass_block_mixing_fast_and_slow_tokens():
    lines = [
        "+1 1:0.5 2:1e-3 3:0.30000000000000004 4:7 0005:1_0 6:-0",
        "1_0 1:-2.25 00000000000000007:.5 9:1234567890123456 10:123456789012345",
        "-1 2:nan",
    ]
    one_pass, line_parser = _both_parsers(lines[:2])
    assert one_pass != "rejected" and one_pass == line_parser
    assert _both_parsers(lines) == ["rejected", "rejected"]


@pytest.mark.parametrize(
    "text, limit, indices, values",
    [
        ("# café 1:é  \n+1 1:0.5 2:1\n  # été\n-1 3:2\n", None, [0, 1, 2], [0.5, 1.0, 2.0]),
        # a data row past the limit is never read
        ("+1 1:1\n-1 2:1\ncaf\xe9 1:1\n", 2, [0, 1], [1.0, 1.0]),
    ],
)
def test_non_ascii_comment_row_stays_on_the_one_pass_parser(text, limit, indices, values):
    with mock.patch.object(data, "_parse_lines", side_effect=AssertionError("line parser")):
        ds = parse_libsvm(text, limit=limit)
    assert ds.indices.tolist() == indices and ds.values.tolist() == values
    assert ds.labels.tolist() == [1.0, -1.0]


@pytest.mark.parametrize(
    "row",
    [
        "+1 1:1\xa02:3", "+1 1:\u0661", "-1 4:2\u2028", "\u2003-1 5:1", "+1 caf\xe9",
        # Unicode whitespace as the whole line, or before a comment's #
        "\u3000", "\u2003# note",
    ],
)
def test_non_ascii_line_the_byte_pass_refuses_goes_to_the_line_parser(row):
    text = f"+1 2:0.5\n{row}\n-1 3:1\n"
    with pytest.raises(ValueError):
        _byte_pass(text)
    want = _line_parser_outcome(text)
    with mock.patch.object(data, "_parse_lines", wraps=data._parse_lines) as line_parser:
        assert _outcome(lambda: parse_libsvm(text)) == want
    line_parser.assert_called_once()


@pytest.mark.parametrize("limit, room", [(None, None), (9, 5)])
def test_refused_block_alone_goes_to_the_line_parser(limit, room):
    # blocks of 4 lines; the NBSP row, line 7, is in the second of four
    rows = [f"{'+1' if i % 3 else '-1'} {i % 5 + 1}:0.5 7:{i}" for i in range(12)]
    rows[6] = "+1 1:1\xa02:3"
    text = "\n".join(rows) + "\n"
    with mock.patch.object(data, "BLOCK_LINES", 4), mock.patch.object(
        data, "_parse_lines", wraps=data._parse_lines
    ) as line_parser:
        got = _outcome(lambda: parse_libsvm(text, limit=limit))
    line_parser.assert_called_once_with(rows[4:8], room, 5)
    assert got == _line_parser_outcome(text, limit)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("-1 1:1 31:abc", "bad feature token '31:abc'"),
        # the byte pass reads this row; its block fails the order check
        ("-1 31:1 2:1", "feature indices not strictly increasing at 2"),
    ],
)
def test_bad_row_in_a_later_block_names_its_line(bad, message):
    rows = ["+1 1:1 31:1"] * 3000
    rows[2500] = bad
    with mock.patch.object(data, "_parse_lines", wraps=data._parse_lines) as line_parser:
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm("\n".join(rows))
    assert str(err.value) == f"line 2501: {message}" and err.value.line_no == 2501
    # only the block of lines 2049-2560 went through the line parser
    line_parser.assert_called_once_with(rows[2048:2560], None, 2049)


def test_limit_reads_only_the_blocks_it_needs():
    # blocks of 4 lines: 6 rows end in the second, and the bad row in
    # the fourth is never read
    rows = [f"{'+1' if i % 3 else '-1'} {i % 5 + 1}:0.5 7:{i}" for i in range(16)]
    rows[13] = "+1 1:abc"
    text = "\n".join(rows) + "\n"
    with mock.patch.object(data, "BLOCK_LINES", 4), mock.patch.object(
        data, "_split_block", wraps=data._split_block
    ) as byte_pass, mock.patch.object(
        data, "_parse_lines", side_effect=AssertionError("line parser")
    ):
        got = _outcome(lambda: parse_libsvm(text, limit=6))
    assert [call.args[2] for call in byte_pass.call_args_list] == [6, 2]
    assert got == _line_parser_outcome(text, 6)


def test_byte_offsets_stay_aligned_past_non_ascii_text():
    # blocks of 4 lines: non-ASCII characters (an astral one too) in a
    # comment of the first, an NBSP row in the second
    rows = [f"{'+1' if i % 3 else '-1'} {i % 5 + 1}:0.5 7:{i}" for i in range(12)]
    rows[1] = "# caf\xe9 \U0001F600  1:\xe9\xe9"
    rows[6] = "+1 1:1\xa02:3"
    text = "\n".join(rows) + "\n"
    raw, newlines = data._encode(text)
    # one byte per character, however many UTF-8 takes
    assert len(raw) == len(text)
    assert newlines.tolist() == [-1] + [i for i, c in enumerate(text) if c == "\n"] + [len(text)]
    with mock.patch.object(data, "BLOCK_LINES", 4), mock.patch.object(
        data, "_parse_lines", wraps=data._parse_lines
    ) as line_parser:
        got = _outcome(lambda: parse_libsvm(text))
    line_parser.assert_called_once_with(rows[4:8], None, 5)
    assert got == _line_parser_outcome(text)
    # a bad row in the third block keeps its line number
    rows[9] = "-1 3:1 2:1"
    with mock.patch.object(data, "BLOCK_LINES", 4), pytest.raises(LibsvmParseError) as err:
        parse_libsvm("\n".join(rows))
    assert str(err.value) == "line 10: feature indices not strictly increasing at 2"


def test_fast_decimals_equal_float_on_seeded_spellings():
    """Random [+-]digits[.digits] spellings of 1-17 bytes, most of them
    on the exact decimal path, read as ``float`` reads them."""
    rng = np.random.default_rng(23)
    spellings = []
    for _ in range(4000):
        digits = "".join(rng.choice(list("0123456789"), rng.integers(1, 16)))
        dot = rng.integers(-1, len(digits) + 1)
        if dot >= 0:
            digits = digits[:dot] + "." + digits[dot:]
        spellings.append(rng.choice(["", "+", "-"]) + digits)
    line = "1 " + " ".join(f"{i + 1}:{s}" for i, s in enumerate(spellings))
    values = _byte_pass(line)[3]
    assert values.tobytes() == np.array([float(s) for s in spellings]).tobytes()
