import gzip
import io

import numpy as np
import pytest

from vradapt.data import (
    Dataset,
    LibsvmParseError,
    load_libsvm,
    parse_libsvm,
    synthetic_dataset,
    write_libsvm,
)


class TestParse:
    def test_basic_row(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0")
        assert ds.n == 1
        assert ds.d == 3
        assert ds.labels[0] == 1.0
        assert list(ds.indices[0]) == [0, 2]
        assert list(ds.values[0]) == [0.5, 2.0]

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
        assert len(ds.indices[0]) == 0

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
            assert np.array_equal(again.indices[i], ds.indices[i])
            assert np.array_equal(again.values[i], ds.values[i])

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
        for idx in ds.indices:
            assert len(idx) == 6
            assert np.all(np.diff(idx) > 0)
            assert idx.min() >= 0
            assert idx.max() < 20

    def test_deterministic(self):
        a = synthetic_dataset(30, dim=15, seed=9)
        b = synthetic_dataset(30, dim=15, seed=9)
        assert np.array_equal(a.labels, b.labels)
        for i in range(30):
            assert np.array_equal(a.indices[i], b.indices[i])

    def test_round_trips_through_writer(self):
        ds = synthetic_dataset(25, dim=10, seed=3, nnz_per_row=4)
        sink = io.StringIO()
        write_libsvm(ds, sink)
        again = parse_libsvm(sink.getvalue(), force_dim=10)
        assert np.array_equal(again.labels, ds.labels)
        for i in range(25):
            assert np.array_equal(again.indices[i], ds.indices[i])
