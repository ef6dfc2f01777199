from __future__ import annotations

import shutil
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlde import dataset
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

from conftest import delimited_files, write_labeled_file


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


def _outcome(parse, path, **kwargs) -> list | tuple:
    """Dtype, shape and bytes of what ``parse`` returns, or the type and
    message of what it raises."""
    try:
        result = parse(path, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = (result.subsequences, result.labels) if isinstance(result, LabeledDataset) else (result,)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _walk_only(parse, path, **kwargs) -> list | tuple:
    """:func:`_outcome` with the C reader refusing every file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_c_table", lambda fh, sep: None)
        return _outcome(parse, path, **kwargs)


def _spy(monkeypatch, name: str) -> list:
    """Record each call of ``dataset.<name>``, which still runs."""
    calls = []
    func = getattr(dataset, name)
    monkeypatch.setattr(dataset, name, lambda *args: calls.append(args) or func(*args))
    return calls


_open_logs: list[list] = []  # each collects the files opened while it is listed


def _log_opens(event: str, args: tuple) -> None:
    if event == "open":
        for log in _open_logs:
            log.append(args[0])


sys.addaudithook(_log_opens)  # sees every open, numpy's included; hooks cannot be removed


class TestReadPath:
    """numpy's C reader reads each input first; the field walk runs only on
    a file it refuses, and alone decides what that file holds."""

    @settings(max_examples=300)
    @given(file=delimited_files(), labeled=st.booleans())
    def test_c_reader_agrees_with_walk(self, tmp_path_factory, file, labeled):
        data, delimiter = file
        path = tmp_path_factory.getbasetemp() / "agree.txt"
        path.write_bytes(data)
        kwargs = {"delimiter": delimiter}
        if labeled:
            parse, kwargs["anomaly_class"] = parse_labeled_file, 1
        else:
            parse = parse_raw_series
        assert _outcome(parse, path, **kwargs) == _walk_only(parse, path, **kwargs)

    def test_well_formed_files_skip_the_walk(self, tmp_path, monkeypatch):
        def walk(*args):
            raise AssertionError("the field walk ran")

        monkeypatch.setattr(dataset, "_walk_labeled", walk)
        monkeypatch.setattr(dataset, "_walk_raw", walk)
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf1\t0.5\t-3e-5\t7\t1e300\r\n\r\n0\t2\t3\t4\t5\r\n")
        ds = parse_labeled_file(path, anomaly_class=1)
        np.testing.assert_array_equal(ds.subsequences, [[0.5, -3e-5, 7, 1e300], [2, 3, 4, 5]])
        np.testing.assert_array_equal(ds.labels, [1, 0])
        path.write_text("1.5\n-2.25\n\n1e-310\n", encoding="utf-8")
        np.testing.assert_array_equal(parse_raw_series(path), [1.5, -2.25, 1e-310])
        path.write_text("1,2,3\n4,5,6\n", encoding="utf-8")
        np.testing.assert_array_equal(parse_raw_series(path), [1, 2, 3, 4, 5, 6])

    @pytest.mark.parametrize(
        "text, delimiter, fields",
        [
            ("1_0\n2\n", None, ["1_0", "2"]),
            ("１,2.5\n", None, ["１", "2.5"]),
            ("1,2\n \t\n3,4\n", None, ["1", "2", "3", "4"]),
            ("1,2,3\n4,5\n", None, ["1", "2", "3", "4", "5"]),
            ("1,,2,\n", None, ["1", "2"]),
            ("1\n2\n", "\n", ["1", "2"]),  # numpy refuses a newline separator
        ],
    )
    def test_refused_raw_files_parse_through_the_walk(self, tmp_path, monkeypatch, text, delimiter, fields):
        walked = _spy(monkeypatch, "_walk_raw")
        opened = _spy(monkeypatch, "_data_lines")
        path = tmp_path / "series.txt"
        path.write_text(text, encoding="utf-8")
        series = parse_raw_series(path, delimiter=delimiter)
        assert walked and len(opened) == 1  # the walk reads the lines already open
        np.testing.assert_array_equal(series, [float(f) for f in fields])

    def test_refused_labeled_file_parses_through_the_walk(self, tmp_path, monkeypatch):
        walked = _spy(monkeypatch, "_walk_labeled")
        path = tmp_path / "data.csv"
        path.write_text("1_0,1,2,3,4\n  \n0,5,6,7,8_5\n", encoding="utf-8")
        ds = parse_labeled_file(path, anomaly_class=10)
        assert walked
        np.testing.assert_array_equal(ds.subsequences, [[1, 2, 3, 4], [5, 6, 7, float("8_5")]])
        np.testing.assert_array_equal(ds.labels, [1, 0])

    # numpy's C reader strips these from a field's ends, as whitespace;
    # float() refuses the field, and the message names it as it is
    @pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_field_padded_with_separator_control_rejected(self, tmp_path, char):
        path = tmp_path / "data.csv"
        path.write_text(f"1,1,2,3,4\n0,5,6,7{char},8\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as info:
            parse_labeled_file(path)
        assert str(info.value) == f"line 2, column 4: non-numeric field {'7' + char!r}"
        path.write_text(f"1\n{char}2\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as info:
            parse_raw_series(path)
        assert str(info.value) == f"line 2, column 1: non-numeric field {char + '2'!r}"

    # float() strips whitespace, so the message names the field without it
    @pytest.mark.parametrize("pad", [" ", "\t", "\xa0", "\u3000"])
    def test_space_padded_bad_field_named_stripped(self, tmp_path, pad):
        path = tmp_path / "data.csv"
        path.write_text(f"1,1,2,3,4\n0,5,6,{pad}7x{pad},8\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as info:
            parse_labeled_file(path)
        assert str(info.value) == "line 2, column 4: non-numeric field '7x'"
        path.write_text(f"1\n{pad}inf{pad}\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as info:
            parse_raw_series(path)
        assert str(info.value) == "line 2, column 1: non-finite value 'inf'"

    # The text reader decodes a chunk ahead of the lines it gives, so a bad
    # byte must not be named before a bad line earlier in the file, however
    # far apart the two are; a bad byte that comes first is still named.
    @pytest.mark.parametrize("pad", [0, 4000])
    @pytest.mark.parametrize(
        "parse, head, tail, message",
        [
            (parse_raw_series, b"1\n2\nx\n", b"\xff\n", "line 3, column 1: non-numeric field 'x'"),
            (parse_labeled_file, b"1,1,2,3,4\n1,1,2,x,4\n", b"\xff,1,2,3,4\n",
             "line 2, column 4: non-numeric field 'x'"),
            (parse_raw_series, b"1\n\xff\nx\n", b"", "line 2, byte 1: not UTF-8 text"),
            (parse_labeled_file, b"1,1,2,3,4\n1,1,2,3\n", b"\xff,1,2,3,4\n",
             "line 2: expected 5 fields, found 4"),
        ],
    )
    def test_first_bad_line_named(self, tmp_path, parse, head, tail, message, pad):
        path = tmp_path / "data.csv"
        filler = b"1,1,2,3,4\n" if parse is parse_labeled_file else b"1.0\n"
        path.write_bytes(head + filler * pad + tail)
        with pytest.raises(InputFormatError) as info:
            parse(path)
        assert str(info.value) == message

    def test_bad_byte_after_many_lines_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + b"1.0\r\n" * 4000 + b"2.0,\xe2\x82\n")
        with pytest.raises(InputFormatError) as info:
            parse_raw_series(path)
        assert str(info.value) == "line 4001, byte 5: not UTF-8 text"

    # the BOM's 3 bytes count on line 1, where they stand, and on no other line
    @pytest.mark.parametrize("parse", [parse_labeled_file, parse_raw_series])
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xef\xbb\xbf1,\xff2,3,4,5\n", "line 1, byte 6: not UTF-8 text"),
            (b"\xef\xbb\xbf1,2,3,4,5\n1,\xff2,3,4,5\n", "line 2, byte 3: not UTF-8 text"),
            (b"\xef\xbb1,2,3,4,5\n", "line 1, byte 1: not UTF-8 text"),
        ],
    )
    def test_byte_count_of_line_one_includes_the_bom(self, tmp_path, parse, data, message):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        assert _outcome(parse, path) == (InputFormatError, message)

    @pytest.mark.parametrize("parse", [parse_labeled_file, parse_raw_series])
    @pytest.mark.parametrize(
        "data",
        [b"1,1,2,3,4\n0,5,6,7,8\n", b"1_0,1,2,3,4\n0,5,6,7,8\n", b"1,1,2,3,4\n0,5,6,7,\xff8\n"],
        ids=["c-reader", "refused", "not-utf8"],
    )
    def test_each_parse_opens_its_input_once(self, tmp_path, monkeypatch, parse, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail(f"read_bytes({self})"))
        opened: list = []
        _open_logs.append(opened)
        try:
            _outcome(parse, path)
        finally:
            _open_logs.remove(opened)
        assert [str(p) for p in opened].count(str(path)) == 1  # modules may load too

    # numpy reads a named file through a decompressor its suffix names; the
    # input is read as text whatever its name
    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_file_names_are_not_interpreted(self, tmp_path, suffix):
        plain = tmp_path / "data.csv"
        plain.write_text("1,1,2,3,4\n0,5,6,7,8\n", encoding="utf-8")
        named = shutil.copy(plain, tmp_path / f"data.csv{suffix}")
        for parse, kwargs in [(parse_labeled_file, {"anomaly_class": 1}), (parse_raw_series, {})]:
            outcome = _outcome(parse, named, **kwargs)
            assert isinstance(outcome, list) and outcome == _outcome(parse, plain, **kwargs)

    def test_numpy_warning_refuses_and_does_not_escape(self, tmp_path, monkeypatch):
        loadtxt = np.loadtxt

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt: input contained no data", UserWarning, stacklevel=2)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        walked = _spy(monkeypatch, "_walk_raw")
        path = tmp_path / "series.txt"
        path.write_text("1.5\n2.5\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            series = parse_raw_series(path)
        assert caught == [] and walked
        np.testing.assert_array_equal(series, [1.5, 2.5])


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
        assert (ds.n, ds.d) == (3, 4)
        np.testing.assert_array_equal(ds.subsequences[2], [8, 9, 10, 11])


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
        # checked as given, before the int64 cast: 0.5 and 1.7 used to
        # truncate to 0 and 1, and NaN raised numpy's conversion error
        six = np.arange(24.0).reshape(6, 4)
        for labels in ([0, 0.5, 1.7, 0, 1, 0], [0, np.nan, 1, 0, 1, 0], ["0"] * 6):
            with pytest.raises(ValueError, match="binary"):
                LabeledDataset(six, labels)
        for labels in ([0, 1] * 3, [True, False] * 3, [0.0, 1.0] * 3, np.ones(6, np.uint8)):
            ds = LabeledDataset(six, labels)
            assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [int(v) for v in labels]

    def test_dataset_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            LabeledDataset([[1.0, np.inf, 3.0, 4.0]], [0])

    def test_dataset_arrays_read_only(self):
        ds = LabeledDataset([[1.0, 2.0, 3.0, 4.0]], [0])
        with pytest.raises(ValueError):
            ds.subsequences[0, 0] = 9.0
