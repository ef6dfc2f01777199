from __future__ import annotations

import numpy as np
import pytest

from dlde import (
    ConfigurationError,
    EmptyInputError,
    InputFormatError,
    LabeledDataset,
    parse_labeled_file,
    parse_raw_series,
    window_series,
    znormalize,
)

from conftest import write_labeled_file


class TestParseLabeledFile:
    def test_label_first_comma_line(self, labeled_file):
        path = labeled_file(["1,0.5,0.3,0.1,-0.2"])
        ds = parse_labeled_file(path, anomaly_class=1)
        assert ds.n == 1 and ds.d == 4
        np.testing.assert_array_equal(ds.subsequences[0], [0.5, 0.3, 0.1, -0.2])
        assert ds.labels[0] == 1

    def test_other_class_maps_to_normal(self, labeled_file):
        path = labeled_file(["2,0.5,0.3,0.1,-0.2"])
        ds = parse_labeled_file(path, anomaly_class=1)
        assert ds.labels[0] == 0

    def test_no_anomaly_class_means_all_normal(self, labeled_file):
        path = labeled_file(["1,1,2,3,4", "2,5,6,7,8"])
        ds = parse_labeled_file(path)
        assert ds.labels.sum() == 0

    def test_row_order_preserved(self, labeled_file):
        path = labeled_file(["1,1,1,1,1", "2,2,2,2,2", "1,3,3,3,3"])
        ds = parse_labeled_file(path, anomaly_class=1)
        np.testing.assert_array_equal(ds.subsequences[:, 0], [1, 2, 3])
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])

    def test_tab_delimiter_autodetected(self, labeled_file):
        path = labeled_file(["1\t0.5\t0.3\t0.1\t-0.2"])
        ds = parse_labeled_file(path, anomaly_class=1)
        np.testing.assert_array_equal(ds.subsequences[0], [0.5, 0.3, 0.1, -0.2])

    def test_explicit_delimiter(self, labeled_file):
        path = labeled_file(["1;0.5;0.3;0.1;-0.2"])
        ds = parse_labeled_file(path, anomaly_class=1, delimiter=";")
        assert ds.d == 4

    def test_float_labels_compare_numerically(self, labeled_file):
        path = labeled_file(["-1,1,2,3,4", "1.0,5,6,7,8"])
        ds = parse_labeled_file(path, anomaly_class=-1)
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_ragged_row_names_line(self, labeled_file):
        path = labeled_file(["1,1,2,3,4", "1,1,2,3,4,5"])
        with pytest.raises(InputFormatError, match="line 2"):
            parse_labeled_file(path, anomaly_class=1)

    def test_non_numeric_names_line_and_column(self, labeled_file):
        path = labeled_file(["1,1,2,3,4", "1,1,oops,3,4"])
        with pytest.raises(InputFormatError, match="line 2, column 3"):
            parse_labeled_file(path, anomaly_class=1)

    def test_non_finite_rejected(self, labeled_file):
        path = labeled_file(["1,1,nan,3,4"])
        with pytest.raises(InputFormatError, match="line 1, column 3"):
            parse_labeled_file(path)

    def test_first_bad_line_named(self, labeled_file):
        path = labeled_file(["1,1,2,3,4", "1,1,inf,3,4", "1,1,2,3,4", "1,1,2,x,4"])
        with pytest.raises(InputFormatError, match="line 2, column 3: non-finite"):
            parse_labeled_file(path)

    def test_first_bad_column_named(self, labeled_file):
        path = labeled_file(["1,1,nan,3,oops"])
        with pytest.raises(InputFormatError, match="line 1, column 3: non-finite"):
            parse_labeled_file(path)

    def test_byte_order_mark_ignored(self, tmp_path, labeled_file):
        lines = ["1,1,2,3,4", "0,5,6,7,8"]
        plain = parse_labeled_file(labeled_file(lines), anomaly_class=1)
        path = tmp_path / "bom.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        marked = parse_labeled_file(path, anomaly_class=1)
        np.testing.assert_array_equal(marked.subsequences, plain.subsequences)
        np.testing.assert_array_equal(marked.labels, plain.labels)

    # Lines end at \n, \r\n or \r; blank and whitespace-only lines are
    # skipped but still counted.
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_line_numbers_under_each_line_ending(self, tmp_path, labeled_file, ending):
        lines = ["1,1,2,3,4", "", "  ", "0,5,6,7,8"]
        path = tmp_path / "endings.csv"
        path.write_bytes(ending.join(lines).encode() + ending.encode())
        parsed = parse_labeled_file(path, anomaly_class=1)
        plain = parse_labeled_file(labeled_file(lines), anomaly_class=1)
        np.testing.assert_array_equal(parsed.subsequences, plain.subsequences)
        path.write_bytes(ending.join(lines + ["1,1,oops,3,4"]).encode())
        with pytest.raises(InputFormatError, match="line 5, column 3"):
            parse_labeled_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyInputError):
            parse_labeled_file(path)

    def test_whitespace_only_file(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n   \n\n", encoding="utf-8")
        with pytest.raises(EmptyInputError):
            parse_labeled_file(path)

    def test_too_few_values(self, labeled_file):
        path = labeled_file(["1,1,2,3"])
        with pytest.raises(InputFormatError, match="at least 4"):
            parse_labeled_file(path)

    def test_bad_delimiter_value(self, labeled_file):
        path = labeled_file(["1,1,2,3,4"])
        with pytest.raises(ConfigurationError):
            parse_labeled_file(path, delimiter=";;")

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(7, 6)) * np.pi
        labels = rng.integers(0, 2, size=7)
        original = LabeledDataset(x, labels)
        path = tmp_path / "roundtrip.csv"
        write_labeled_file(original, path)
        reparsed = parse_labeled_file(path, anomaly_class=1)
        np.testing.assert_array_equal(reparsed.subsequences, original.subsequences)
        np.testing.assert_array_equal(reparsed.labels, original.labels)


class TestParseRawSeries:
    def test_one_value_per_line(self, labeled_file):
        path = labeled_file(["1.5", "2.5", "-3.0"], name="series.txt")
        series = parse_raw_series(path)
        assert series.dtype == np.float64 and series.ndim == 1
        np.testing.assert_array_equal(series, [1.5, 2.5, -3.0])

    def test_multi_value_lines_flatten_in_order(self, labeled_file):
        path = labeled_file(["1,2,3", "4,5"], name="series.txt")
        series = parse_raw_series(path)
        np.testing.assert_array_equal(series, [1, 2, 3, 4, 5])

    def test_non_numeric_named(self, labeled_file):
        path = labeled_file(["1,2", "3,x"], name="series.txt")
        with pytest.raises(InputFormatError, match="line 2, column 2"):
            parse_raw_series(path)

    def test_blank_fields_count_as_columns(self, labeled_file):
        path = labeled_file(["1.0,,x"], name="series.txt")
        with pytest.raises(InputFormatError, match="line 1, column 3"):
            parse_raw_series(path)

    def test_byte_order_mark_ignored(self, tmp_path, labeled_file):
        lines = ["1.5,2.5", "-3.0"]
        plain = parse_raw_series(labeled_file(lines, name="series.txt"))
        path = tmp_path / "bom.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        np.testing.assert_array_equal(parse_raw_series(path), plain)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_line_numbers_under_each_line_ending(self, tmp_path, ending):
        path = tmp_path / "series.txt"
        path.write_bytes(ending.join(["1.5", "", "2.5", " ", "3,4"]).encode() + ending.encode())
        np.testing.assert_array_equal(parse_raw_series(path), [1.5, 2.5, 3, 4])
        path.write_bytes(ending.join(["1.5", "", "2.5", " ", "3,x"]).encode())
        with pytest.raises(InputFormatError, match="line 5, column 2"):
            parse_raw_series(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(EmptyInputError):
            parse_raw_series(path)

    @pytest.mark.parametrize("text", [",\n,,\n", " , ,\r\n\t\n"])
    def test_only_separators(self, tmp_path, text):
        path = tmp_path / "series.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmptyInputError, match="no values found"):
            parse_raw_series(path)


class TestWindowSeries:
    def test_exact_division(self):
        ds = window_series(np.arange(20.0), 5)
        assert (ds.n, ds.d) == (4, 5)
        np.testing.assert_array_equal(ds.subsequences[0], [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(ds.subsequences[3], [15, 16, 17, 18, 19])

    def test_remainder_dropped(self):
        ds = window_series(np.arange(22.0), 5)
        assert ds.n == 4
        assert ds.subsequences.max() == 19  # samples 21-22 dropped

    def test_fifteen_windows_per_minute(self):
        # one minute at 100 Hz, one window per second-long cycle
        ds = window_series(np.random.default_rng(0).normal(size=1500), 100)
        assert ds.n == 15

    def test_concatenation_equals_prefix(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=43)
        ds = window_series(values, 6)
        np.testing.assert_array_equal(ds.subsequences.ravel(), values[: 7 * 6])

    def test_labels_all_zero(self):
        ds = window_series(np.arange(30.0), 6)
        assert ds.labels.sum() == 0

    def test_window_longer_than_series(self):
        with pytest.raises(ConfigurationError):
            window_series(np.arange(10.0), 11)
        with pytest.raises(ConfigurationError):
            window_series(np.array([]), 4)

    def test_window_too_short(self):
        with pytest.raises(ConfigurationError):
            window_series(np.arange(10.0), 3)

    def test_accepts_plain_array(self):
        ds = window_series(np.arange(12.0), 4)
        assert ds.n == 3


class TestZnormalize:
    def test_constant_row_becomes_zero(self):
        # most of these rows have a rounded mean, so their std is about 1e-17, not 0
        values = np.array([1.0, 0.1, 0.3, 123.456, 2048.7])
        for d in (4, 6, 7, 13, 100):
            ds = LabeledDataset(np.repeat(values[:, None], d, axis=1), np.zeros(values.size, int))
            np.testing.assert_array_equal(znormalize(ds).subsequences, 0.0, err_msg=f"d={d}")

    def test_known_row(self):
        ds = LabeledDataset([[0.0, 0.0, 2.0, 2.0]], [0])
        out = znormalize(ds)
        np.testing.assert_array_equal(out.subsequences[0], [-1, -1, 1, 1])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        ds = LabeledDataset(rng.normal(2.0, 5.0, size=(9, 8)), np.zeros(9, int))
        once = znormalize(ds)
        twice = znormalize(once)
        np.testing.assert_allclose(twice.subsequences, once.subsequences, atol=1e-9)

    def test_rows_have_zero_mean_unit_std(self):
        rng = np.random.default_rng(3)
        ds = LabeledDataset(rng.normal(-4.0, 11.0, size=(20, 13)), np.zeros(20, int))
        out = znormalize(ds)
        assert np.abs(out.subsequences.mean(axis=1)).max() < 1e-9
        assert np.abs(out.subsequences.std(axis=1) - 1.0).max() < 1e-9

    def test_labels_preserved(self):
        labels = [1, 0, 1]
        ds = LabeledDataset(np.random.default_rng(4).normal(size=(3, 5)), labels)
        np.testing.assert_array_equal(znormalize(ds).labels, labels)

    # a 1e200 spike overflows the std (the row used to come out all zeros);
    # two values of 1.7e308 overflow the mean
    @pytest.mark.parametrize("row", [[1e200, 0, 0, 0, 0, 0], [1.7e308, 1.7e308, 0, 0, 0, 0]])
    def test_overflowing_rows_rejected(self, row):
        ds = LabeledDataset([[0.0, 1, 2, 3, 4, 5], row], [0, 0])
        with pytest.raises(ConfigurationError, match="row 1: mean or std overflows"):
            znormalize(ds)

    def test_tiny_deviations_scaled_to_unit_std(self):
        # the variance of these rows underflows to 0.0; they used to come
        # out unscaled, as +-5e-321 and +-5e-301
        ds = LabeledDataset([[0, 1e-320, 0, 1e-320], [0, 1e-300, 0, 1e-300]], [0, 0])
        out = znormalize(ds).subsequences
        np.testing.assert_allclose(out, [[-1, 1, -1, 1]] * 2, rtol=1e-12)

    def test_large_finite_row_normalized(self):
        out = znormalize(LabeledDataset([[1e150, 0, 0, 0, 0, 0]], [0])).subsequences[0]
        np.testing.assert_allclose(out, [5 / np.sqrt(5)] + [-1 / np.sqrt(5)] * 5, rtol=1e-12)


class TestContainers:
    def test_dataset_rejects_short_rows(self):
        with pytest.raises(ValueError, match=">= 4"):
            LabeledDataset([[1.0, 2.0, 3.0]], [0])

    def test_dataset_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="binary"):
            LabeledDataset([[1.0, 2.0, 3.0, 4.0]], [2])
        with pytest.raises(ValueError, match="one entry per"):
            LabeledDataset([[1.0, 2.0, 3.0, 4.0]], [0, 1])

    def test_dataset_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            LabeledDataset([[1.0, np.inf, 3.0, 4.0]], [0])

    def test_dataset_arrays_read_only(self):
        ds = LabeledDataset([[1.0, 2.0, 3.0, 4.0]], [0])
        with pytest.raises(ValueError):
            ds.subsequences[0, 0] = 9.0
