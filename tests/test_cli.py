from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import gzip
import hashlib
import inspect
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

import dlde
from dlde import (
    ExperimentConfig,
    LabeledDataset,
    parse_labeled_file,
    run_experiment,
    sweep,
    znormalize,
)
from dlde.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_IO, EXIT_METRIC, EXIT_OK, build_parser, main

from conftest import delimited_files, heartbeat_series, random_dataset, write_labeled_file


def _write_dataset(tmp_path, n=20, d=10, anomalies=5, seed=0, name="data.csv"):
    ds = random_dataset(np.random.default_rng(seed), n, d, anomalies=anomalies)
    path = tmp_path / name
    write_labeled_file(ds, path)
    return path


def _run_cli(*args, timeout=None):
    """Run the CLI in a separate process on this checkout's package."""
    env = dict(os.environ)
    src = str(Path(dlde.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "dlde.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    rows = list(csv.DictReader(lines[1:]))
    return config, rows


class TestDetect:
    def test_labeled_mode_writes_scores(self, tmp_path):
        data = _write_dataset(tmp_path)
        out = tmp_path / "scores.csv"
        code = main(
            ["detect", "--input", str(data), "--output", str(out), "--seed", "3"]
        )
        assert code == EXIT_OK
        config, rows = _read_csv(out)
        assert len(rows) == 20
        assert list(rows[0]) == ["index", "score", "anomaly_score"]
        assert config["seed"] == 3 and config["trees"] == 10 and config["hashes"] == 10
        assert config["n"] == 20 and config["d"] == 10
        anoms = [float(r["anomaly_score"]) for r in rows]
        assert all(0.0 <= a <= 1.0 for a in anoms)

    def test_constant_input_all_half(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(
            "\n".join("0," + ",".join(["1.5"] * 6) for _ in range(8)) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "flat_scores.csv"
        assert main(["detect", "--input", str(path), "--output", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        assert {float(r["anomaly_score"]) for r in rows} == {0.5}

    def test_raw_series_mode_windows_and_flags_anomaly(self, tmp_path):
        series = heartbeat_series(n_windows=15, s=40, anomaly_at=7, seed=5)
        path = tmp_path / "series.txt"
        path.write_text("\n".join(repr(float(v)) for v in series), encoding="utf-8")
        out = tmp_path / "series_scores.csv"
        code = main(
            [
                "detect",
                "--input", str(path),
                "--subseq-len", "40",
                "--output", str(out),
                "--seed", "1",
            ]
        )
        assert code == EXIT_OK
        config, rows = _read_csv(out)
        assert len(rows) == 15
        assert config["subseq_len"] == 40
        anoms = [float(r["anomaly_score"]) for r in rows]
        assert int(np.argmax(anoms)) == 7

    def test_byte_identical_reruns(self, tmp_path):
        data = _write_dataset(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["detect", "--input", str(data), "--seed", "9"]
        assert main(argv + ["--output", str(out1)]) == EXIT_OK
        assert main(argv + ["--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        data = _write_dataset(tmp_path)
        out = tmp_path / "scores.json"
        assert (
            main(["detect", "--input", str(data), "--output", str(out), "--format", "json"])
            == EXIT_OK
        )
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"config", "rows"}
        assert len(payload["rows"]) == 20
        assert set(payload["rows"][0]) == {"index", "score", "anomaly_score"}

    @pytest.mark.parametrize("value, code", [(1e19, EXIT_CONFIG), (-1e19, EXIT_CONFIG),
                                             (1e17, EXIT_OK), (-1e17, EXIT_OK)])
    def test_int64_key_bound(self, tmp_path, capsys, value, code):
        # keys of 1e19 overflow int64 under any sampled width; 1e17 stays
        # below 2**63 / log2(N) and is scored as is
        ds = random_dataset(np.random.default_rng(6), 12, 8)
        x = ds.subsequences.copy()
        x[3, 2] = value
        path = tmp_path / "huge.csv"
        write_labeled_file(type(ds)(x, ds.labels), path)
        out = tmp_path / "scores.csv"
        base = ["detect", "--input", str(path), "--seed", "0"]
        assert main(base + ["--output", str(out)]) == code
        if code == EXIT_CONFIG:
            assert "--normalize" in capsys.readouterr().err
            assert not out.exists()
            assert main(base + ["--normalize", "--output", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        assert all(1.0 <= float(r["score"]) <= 10 * 12 for r in rows)

    def test_key_range_refusal_does_not_depend_on_the_seed(self, tmp_path, capsys):
        # at peak 3.5e18 on 8 rows, the drawn widths used to decide: --seed 0
        # exited 0 and --seed 1 exited 2
        ds = random_dataset(np.random.default_rng(6), 8, 8)
        path = tmp_path / "band.csv"
        write_labeled_file(type(ds)(ds.subsequences / np.abs(ds.subsequences).max() * 3.5e18,
                                    ds.labels), path)
        errors = []
        for seed in ("0", "1"):
            out = tmp_path / f"scores{seed}.csv"
            argv = ["detect", "--input", str(path), "--trees", "2", "--seed", seed]
            assert main(argv + ["--output", str(out)]) == EXIT_CONFIG
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].count("\n") == 1 and "--normalize" in errors[0]

    def test_overflowing_key_prints_only_the_error(self, tmp_path):
        # 1.7e308 / width overflows float64; a separate process shows whether
        # numpy's overflow warning reaches stderr beside the exit-2 message
        ds = random_dataset(np.random.default_rng(6), 12, 8)
        x = ds.subsequences.copy()
        x[3, 2] = 1.7e308
        path = tmp_path / "huge.csv"
        write_labeled_file(type(ds)(x, ds.labels), path)
        proc = _run_cli("detect", "--input", str(path), "--output", str(tmp_path / "scores.csv"))
        assert proc.returncode == EXIT_CONFIG
        (line,) = proc.stderr.splitlines()
        assert line.startswith("dlde: configuration error: ")

    def test_normalize_flag_changes_scores(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 12, 8)
        scaled = type(ds)(ds.subsequences * 40.0 + 100.0, ds.labels)
        path = tmp_path / "scaled.csv"
        write_labeled_file(scaled, path)
        raw_out, norm_out = tmp_path / "raw.csv", tmp_path / "norm.csv"
        base = ["detect", "--input", str(path), "--seed", "4"]
        assert main(base + ["--output", str(raw_out)]) == EXIT_OK
        assert main(base + ["--normalize", "--output", str(norm_out)]) == EXIT_OK
        _, raw_rows = _read_csv(raw_out)
        _, norm_rows = _read_csv(norm_out)
        assert [r["score"] for r in raw_rows] != [r["score"] for r in norm_rows]

    # the atomic write goes through a temporary file beside the output; a
    # failure must name the output the user gave, and leave no temporary
    @pytest.mark.parametrize("target", ["absent_dir/scores.csv", "a_directory"])
    def test_unwritable_output_names_the_output(self, tmp_path, capsys, target):
        data = _write_dataset(tmp_path)
        out = tmp_path / target
        if target == "a_directory":
            out.mkdir()
        code = main(["detect", "--input", str(data), "--output", str(out)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert f"'{out}'" in err and ".tmp" not in err
        assert list(tmp_path.rglob("*.tmp")) == []


    # numpy raises a MemoryError subclass for an array it cannot allocate,
    # as --hashes 1000000000000 asks for; a real one is never made here,
    # since where memory is overcommitted it can succeed and then be touched
    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 407. TiB"), MemoryError()])
    def test_out_of_memory_exits_in_one_line(self, tmp_path, monkeypatch, capsys, exc):
        def fit(*args, **kwargs):
            raise exc

        monkeypatch.setattr("dlde.cli.fit", fit)
        data, out = _write_dataset(tmp_path), tmp_path / "scores.csv"
        assert main(["detect", "--input", str(data), "--output", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("dlde: out of memory: ") and line.endswith(str(exc) or "failed")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    # line 2 holds the byte 0xff, which no UTF-8 text contains
    @pytest.mark.parametrize(
        "content, extra, where",
        [
            (b"0,1,2,3,4\n0,1,\xff2,3,4\n", [], "line 2, byte 5"),
            (b"1.0\r\n2.\xff5\r\n3.0\r\n4.0\r\n", ["--subseq-len", "4"], "line 2, byte 3"),
        ],
        ids=["labeled", "raw"],
    )
    def test_non_utf8_input_names_the_line(self, tmp_path, capsys, content, extra, where):
        path = tmp_path / "latin.csv"
        path.write_bytes(content)
        code = main(["detect", "--input", str(path), "--output", str(tmp_path / "o.csv"), *extra])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"dlde: input error: {where}: not UTF-8 text\n"
        assert not (tmp_path / "o.csv").exists()

    # a name such as .gz names no format: the input is read as plain text
    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_file_names_are_not_interpreted(self, tmp_path, capsys, suffix):
        data = _write_dataset(tmp_path)
        named = shutil.copy(data, tmp_path / f"data.csv{suffix}")
        argv = ["detect", "--seed", "2", "--output"]
        assert main([*argv, str(tmp_path / "plain.csv"), "--input", str(data)]) == EXIT_OK
        assert main([*argv, str(tmp_path / "named.csv"), "--input", str(named)]) == EXIT_OK
        assert _read_csv(tmp_path / "named.csv")[1] == _read_csv(tmp_path / "plain.csv")[1]
        real = tmp_path / "real.csv.gz"
        real.write_bytes(gzip.compress(data.read_bytes()))
        code = main(["detect", "--input", str(real), "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "dlde: input error: line 1, byte 2: not UTF-8 text\n"

    # each reader rewinds the input, which a pipe cannot do
    def test_piped_input_exits_io(self, tmp_path, capsys):
        series = heartbeat_series(n_windows=60, s=20, anomaly_at=7, seed=5)
        data = "".join(f"{v:.12f}\n" for v in series).encode()  # about 19 KB
        assert len(data) < 1 << 16  # under the pipe's capacity, so the write cannot block
        read_end, write_end = os.pipe()
        try:
            try:
                assert os.write(write_end, data) == len(data)
            finally:
                os.close(write_end)
            source, out = f"/dev/fd/{read_end}", tmp_path / "o.csv"
            code = main(["detect", "--input", source, "--subseq-len", "20", "--output", str(out)])
        finally:
            os.close(read_end)
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and source in err
        assert list(tmp_path.iterdir()) == []

    # open() on a FIFO waits for a writer, so a regression would hang; the
    # timeout of a separate process turns that into a failure
    def test_fifo_without_writer_exits_io(self, tmp_path):
        fifo, out = tmp_path / "in.fifo", tmp_path / "o.csv"
        os.mkfifo(fifo)
        proc = _run_cli("detect", "--input", str(fifo), "--subseq-len", "4",
                        "--output", str(out), timeout=60)
        assert proc.returncode == EXIT_IO
        (line,) = proc.stderr.splitlines()
        assert str(fifo) in line
        assert list(tmp_path.iterdir()) == [fifo]

    # the temporary file's 0600 would survive the rename
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_artifact_mode_follows_the_umask(self, tmp_path, umask, mode):
        data = _write_dataset(tmp_path)
        out = tmp_path / "scores.csv"
        previous = os.umask(umask)
        try:
            for _ in range(2):  # a rewrite gives the same mode
                assert main(["detect", "--input", str(data), "--output", str(out)]) == EXIT_OK
                assert stat.S_IMODE(out.stat().st_mode) == mode
        finally:
            os.umask(previous)

    # setting the umask to read it changes it for every thread of the process
    def test_artifact_write_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        data = _write_dataset(tmp_path)
        out = tmp_path / "scores.csv"
        set_umask = os.umask
        previous = set_umask(0o027)
        try:
            def refuse(mask):
                raise AssertionError(f"os.umask({mask:#o}) called")

            monkeypatch.setattr(os, "umask", refuse)
            assert main(["detect", "--input", str(data), "--output", str(out)]) == EXIT_OK
            assert stat.S_IMODE(out.stat().st_mode) == 0o640
        finally:
            set_umask(previous)

    # the temporary name is created exclusively: a file already there is
    # another writer's, so it is neither written nor deleted
    def test_taken_temporary_name_exits_io(self, tmp_path, monkeypatch, capsys):
        data = _write_dataset(tmp_path)
        out = tmp_path / "scores.csv"
        taken = tmp_path / "scores.csv.taken.tmp"
        taken.write_text("another writer's\n", encoding="utf-8")
        monkeypatch.setattr("dlde.cli.secrets.token_hex", lambda nbytes: "taken")
        assert main(["detect", "--input", str(data), "--output", str(out)]) == EXIT_IO
        assert "File exists" in (err := capsys.readouterr().err) and f"'{out}'" in err
        assert taken.read_text(encoding="utf-8") == "another writer's\n"
        assert not out.exists()

    # Path drops a trailing separator or ".", so newname/ used to be written as a file newname
    @pytest.mark.parametrize("suffix", [os.sep, os.sep + "."])
    def test_output_ending_in_a_separator_exits_io(self, tmp_path, capsys, suffix):
        data = _write_dataset(tmp_path)
        out = f"{tmp_path / 'newname'}{suffix}"
        assert main(["detect", "--input", str(data), "--output", out]) == EXIT_IO
        assert f"'{out}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]

    # open() on a FIFO would wait for a reader, so a regression could hang;
    # the rename used to put a regular file in the FIFO's place
    def test_fifo_output_exits_io(self, tmp_path):
        data = _write_dataset(tmp_path)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        proc = _run_cli("detect", "--input", str(data), "--output", str(fifo), timeout=60)
        assert proc.returncode == EXIT_IO
        (line,) = proc.stderr.splitlines()
        assert str(fifo) in line
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == sorted([data, fifo])

    # the rename used to replace the link with a regular file
    @pytest.mark.parametrize("dangling", [False, True])
    def test_symlinked_output_is_written_through(self, tmp_path, dangling):
        data = _write_dataset(tmp_path)
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        if not dangling:
            real.write_text("old\n", encoding="utf-8")
        link.symlink_to(real.name)
        assert main(["detect", "--input", str(data), "--output", str(link)]) == EXIT_OK
        assert os.readlink(link) == real.name
        assert real.read_text(encoding="utf-8").startswith("# config: ")
        assert sorted(tmp_path.iterdir()) == sorted([data, link, real])

    def test_raw_input_of_only_separators_exits_input(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text(",\n,,\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        code = main(["detect", "--input", str(path), "--subseq-len", "4", "--output", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"dlde: input error: {path}: no values found\n"
        assert not out.exists()


class TestEvaluate:
    def test_report_columns_and_header(self, tmp_path):
        data = _write_dataset(tmp_path)
        out = tmp_path / "report.csv"
        code = main(
            [
                "evaluate",
                "--input", str(data),
                "--anomaly-class", "1",
                "--repeats", "3",
                "--trees", "2",
                "--hashes", "2",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        config, rows = _read_csv(out)
        assert list(rows[0]) == ["run", "seed", "auc"]
        assert len(rows) == 3
        assert 0.0 <= config["mean_auc"] <= 1.0
        assert config["repeats"] == 3 and config["anomaly_class"] == 1

    def test_stderr_summary_agrees_with_the_header(self, tmp_path, capsys):
        # labels unrelated to the rows, so the runs' AUCs differ
        x = np.random.default_rng(5).normal(size=(20, 10))
        data, out = tmp_path / "noise.csv", tmp_path / "report.csv"
        write_labeled_file(LabeledDataset(x, (np.arange(20) % 3 == 0).astype(int)), data)
        argv = ["evaluate", "--input", str(data), "--anomaly-class", "1", "--repeats", "4",
                "--trees", "2", "--hashes", "2", "--output", str(out)]
        assert main(argv) == EXIT_OK
        (line,) = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("evaluate:")]
        summary = re.fullmatch(r"evaluate: 4 runs, mean AUC (\S+) \(std (\S+)\), total (\S+)s", line)
        config, _ = _read_csv(out)
        assert config["std_auc"] > 0
        assert float(summary[1]) == pytest.approx(config["mean_auc"], abs=5e-5)
        assert float(summary[2]) == pytest.approx(config["std_auc"], abs=5e-5)
        assert float(summary[3]) >= 0.0

    def test_single_class_exits_metric(self, tmp_path):
        data = _write_dataset(tmp_path, anomalies=0)
        out = tmp_path / "report.csv"
        code = main(
            ["evaluate", "--input", str(data), "--anomaly-class", "1", "--output", str(out)]
        )
        assert code == EXIT_METRIC
        assert not out.exists()

    # a bad parameter is a configuration error, whatever the labels
    @pytest.mark.parametrize("trees, code", [("0", EXIT_CONFIG), ("3", EXIT_METRIC)])
    def test_single_class_checks_parameters_first(self, tmp_path, capsys, trees, code):
        data = _write_dataset(tmp_path, anomalies=0)
        out = tmp_path / "report.csv"
        argv = ["evaluate", "--input", str(data), "--anomaly-class", "1", "--trees", trees,
                "--repeats", "2", "--output", str(out)]
        assert main(argv) == code
        assert not out.exists()
        assert ("tree count" if code == EXIT_CONFIG else "single class") in capsys.readouterr().err

    def test_missing_input_exits_io(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            ["evaluate", "--input", str(tmp_path / "absent.csv"), "--anomaly-class", "1",
             "--output", str(out)]
        )
        assert code == EXIT_IO

    def test_tiny_dataset_exits_config(self, tmp_path):
        data = _write_dataset(tmp_path, n=4, anomalies=2)
        out = tmp_path / "report.csv"
        code = main(
            ["evaluate", "--input", str(data), "--anomaly-class", "1", "--output", str(out)]
        )
        assert code == EXIT_CONFIG

    def test_ragged_input_exits_input(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1,2,3,4\n0,1,2,3\n", encoding="utf-8")
        out = tmp_path / "report.csv"
        code = main(
            ["evaluate", "--input", str(path), "--anomaly-class", "1", "--output", str(out)]
        )
        assert code == EXIT_INPUT

    def test_anomaly_class_required(self, tmp_path):
        data = _write_dataset(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--input", str(data), "--output", "x.csv"])
        assert exc.value.code == 2


class TestSweep:
    def test_one_row_per_value(self, tmp_path):
        data = _write_dataset(tmp_path)
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--input", str(data),
                "--anomaly-class", "1",
                "--param", "m",
                "--values", "1,2,4",
                "--repeats", "2",
                "--hashes", "2",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        config, rows = _read_csv(out)
        assert [r["value"] for r in rows] == ["1", "2", "4"]
        assert list(rows[0]) == ["param", "value", "mean_auc", "std_auc", "repeats"]
        assert config["param"] == "m" and config["values"] == [1, 2, 4]

    def test_h_sweep_matches_evaluate_per_value(self, tmp_path):
        # labels unrelated to the rows, so the AUC varies with the hash count
        rng = np.random.default_rng(7)
        data = tmp_path / "data.csv"
        write_labeled_file(
            LabeledDataset(rng.normal(size=(20, 10)), (np.arange(20) % 4 == 0).astype(int)), data
        )
        shared = ["--input", str(data), "--anomaly-class", "1", "--repeats", "2",
                  "--trees", "2", "--seed", "5"]
        sweep_out = tmp_path / "sweep.csv"
        assert main(["sweep", *shared, "--param", "h", "--values", "3,1,3,2",
                     "--output", str(sweep_out)]) == EXIT_OK
        _, rows = _read_csv(sweep_out)
        for row in rows:
            eval_out = tmp_path / f"eval_{row['value']}.csv"
            assert main(["evaluate", *shared, "--hashes", row["value"],
                         "--output", str(eval_out)]) == EXIT_OK
            eval_config, _ = _read_csv(eval_out)
            assert float(row["mean_auc"]) == eval_config["mean_auc"]
        assert [r["value"] for r in rows] == ["3", "1", "3", "2"]
        assert len({r["mean_auc"] for r in rows}) == 3

    def test_m_sweep_matches_evaluate_per_value(self, tmp_path):
        # labels unrelated to the rows, so the AUC varies with the tree count
        rng = np.random.default_rng(6)
        data = tmp_path / "data.csv"
        write_labeled_file(
            LabeledDataset(rng.normal(size=(20, 10)), (np.arange(20) % 4 == 0).astype(int)), data
        )
        shared = ["--input", str(data), "--anomaly-class", "1", "--repeats", "2",
                  "--hashes", "2", "--seed", "5"]
        sweep_out = tmp_path / "sweep.csv"
        assert main(["sweep", *shared, "--param", "m", "--values", "5,1,5,2",
                     "--output", str(sweep_out)]) == EXIT_OK
        _, rows = _read_csv(sweep_out)
        for row in rows:
            eval_out = tmp_path / f"eval_{row['value']}.csv"
            assert main(["evaluate", *shared, "--trees", row["value"],
                         "--output", str(eval_out)]) == EXIT_OK
            eval_config, _ = _read_csv(eval_out)
            assert float(row["mean_auc"]) == eval_config["mean_auc"]
        assert [r["value"] for r in rows] == ["5", "1", "5", "2"]
        assert len({r["mean_auc"] for r in rows}) == 3

    def test_bad_values_exit_config(self, tmp_path):
        data = _write_dataset(tmp_path)
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--input", str(data), "--anomaly-class", "1",
             "--param", "m", "--values", "1,two", "--output", str(out)]
        )
        assert code == EXIT_CONFIG


# a 1e200 spike overflows a row's std, two values of 1.7e308 its mean
@pytest.mark.parametrize("command", ["detect", "evaluate", "sweep"])
@pytest.mark.parametrize("values", [[1e200], [1.7e308, 1.7e308]])
def test_normalize_rejects_overflowing_rows(tmp_path, capsys, command, values):
    ds = random_dataset(np.random.default_rng(6), 12, 8, anomalies=3)
    x = ds.subsequences.copy()
    x[3, : len(values)] = values
    path = tmp_path / "huge.csv"
    write_labeled_file(type(ds)(x, ds.labels), path)
    out = tmp_path / "out.csv"
    args = [command, "--input", str(path), "--normalize", "--output", str(out)]
    if command != "detect":
        args += ["--anomaly-class", "1", "--repeats", "2"]
    if command == "sweep":
        args += ["--param", "m", "--values", "1"]
    assert main(args) == EXIT_CONFIG
    assert "dlde: configuration error: row 3: mean or std overflows" in capsys.readouterr().err
    assert not out.exists()


# a parsed label is never NaN or infinite, so such a class would match no row
@pytest.mark.parametrize("command", ["detect", "evaluate", "sweep"])
@pytest.mark.parametrize("flag", [["--anomaly-class", "nan"], ["--anomaly-class", "inf"],
                                  ["--anomaly-class=-inf"]], ids=["nan", "inf", "-inf"])
def test_non_finite_anomaly_class_exits_config(tmp_path, capsys, command, flag):
    data = _write_dataset(tmp_path)
    args = [command, "--input", str(data), "--output", str(tmp_path / "out.json"),
            "--format", "json", *flag]
    if command == "sweep":
        args += ["--param", "m", "--values", "1"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_CONFIG
    assert "argument --anomaly-class: must be a finite number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [data]


# the CLI reads and normalizes the input; the protocol scores what it is given
@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_normalize_reaches_the_protocol(tmp_path, command):
    ds = random_dataset(np.random.default_rng(2), 16, 8, anomalies=4)
    path = tmp_path / "scaled.csv"
    write_labeled_file(type(ds)(ds.subsequences * 40.0 + 100.0, ds.labels), path)
    normalized = znormalize(parse_labeled_file(path, anomaly_class=1))
    config = ExperimentConfig(m=2, h=2, repeats=3, base_seed=4)
    args = [command, "--input", str(path), "--anomaly-class", "1", "--repeats", "3",
            "--trees", "2", "--hashes", "2", "--seed", "4"]
    if command == "evaluate":
        column, expected = "auc", list(run_experiment(config, normalized).aucs)
    else:
        args += ["--param", "m", "--values", "1,2"]
        column = "mean_auc"
        expected = [r.mean_auc for r in sweep(config, "m", [1, 2], normalized)]
    norm_out, raw_out = tmp_path / "norm.csv", tmp_path / "raw.csv"
    assert main(args + ["--normalize", "--output", str(norm_out)]) == EXIT_OK
    assert main(args + ["--output", str(raw_out)]) == EXIT_OK
    _, norm_rows = _read_csv(norm_out)
    _, raw_rows = _read_csv(raw_out)
    assert [float(r[column]) for r in norm_rows] == expected
    assert [float(r[column]) for r in raw_rows] != expected


def _golden_inputs(tmp_path):
    """Two labeled files and a raw series from uniform draws only, so their
    text does not depend on how numpy draws from other distributions.  The
    labels of ``noise.csv`` are unrelated to its rows, so its AUCs are below
    1 and depend on every hash draw."""
    rng = np.random.default_rng(21)
    x = rng.uniform(-2.0, 2.0, size=(16, 12))
    labels = (np.arange(16) % 5 == 0).astype(int)
    x[labels == 1] += 3.0
    write_labeled_file(LabeledDataset(x, labels), tmp_path / "data.csv")
    write_labeled_file(LabeledDataset(x, labels), tmp_path / "data.tsv", delimiter="\t")
    series = np.round(rng.uniform(0.0, 100.0, size=120), 1)
    (tmp_path / "series.txt").write_text("".join(f"{float(v)!r}\n" for v in series), encoding="utf-8")
    noise = rng.uniform(-2.0, 2.0, size=(40, 12))
    write_labeled_file(LabeledDataset(noise, (np.arange(40) % 4 == 0).astype(int)),
                       tmp_path / "noise.csv")


def _strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which JSON does not have."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


_PROTOCOL = ["--input", "data.csv", "--anomaly-class", "1", "--hashes", "2", "--seed", "4"]
_NOISE = ["--input", "noise.csv", "--anomaly-class", "1", "--hashes", "2", "--seed", "7"]


# sha256 of each artifact, recorded when rows were dicts whose floats were
# rendered with repr and the file was made by mkstemp (sweep-h and detect-tab:
# when the header listed its keys by hand; every detect: when each tree began
# drawing its leaves' functions; the noise sweeps: when an h sweep ran each
# value's runs in a loop of its own; every evaluate: when the header lost its
# "timing" entry, each row unchanged); the config echo names the input, so
# the inputs are given relative to the working directory
@pytest.mark.parametrize(
    "argv, digests",
    [
        (["detect", "--input", "data.csv", "--trees", "4", "--hashes", "3", "--seed", "3"],
         {"csv": "7c047dcff2dd52fa10fe177e5e579c23c131c73767863b98e2f6e1cbfa223267",
          "json": "dfc5d1140a2fe6afb959dc08d3275af2fb610ab177c4f69d2882ed757704eadd"}),
        (["detect", "--input", "series.txt", "--subseq-len", "12", "--trees", "4", "--seed", "1"],
         {"csv": "eea2c54878f45951829c7f537239e03812e22f3692a988dfa54bbc7255d11da8",
          "json": "e65a2986f624a8e0fd2b7a70073ec8a0379cad733f9f3743efd758de078c3c64"}),
        (["evaluate", *_PROTOCOL, "--repeats", "3", "--trees", "3"],
         {"csv": "f685380943ceba8808a88be134cfc3fd660f528b0470dbe93ecc46b338325fc0",
          "json": "0cc3fb8937ad4407645dc0043d2c3edb7dc4240db9fd9414c56433ca301eb8a1"}),
        (["sweep", *_PROTOCOL, "--repeats", "2", "--param", "m", "--values", "1,3"],
         {"csv": "19f42217f5778621357a55fb546fef582cb6d44556ba05ac75dd10a93e331c8f",
          "json": "65827a840338cc7214fc747cf1daa04df00182dbcb5c4a043fb5bde022860649"}),
        (["sweep", *_PROTOCOL, "--repeats", "2", "--param", "h", "--values", "3,1"],
         {"csv": "2f63d13375b142f6ef18cfe252363a785694baa0629f5a626e944e932f37d466",
          "json": "6723774dc3fe5f6c1af8cff6deca4599c80d2ec78b132f9c09fe7daed3155f00"}),
        (["detect", "--input", "data.tsv", "--delimiter", "tab", "--anomaly-class", "1",
          "--normalize", "--hlimit", "2", "--trees", "3"],
         {"csv": "5b6ab79899ff38127e81f85547337e0fc360455f36dfb4dc9f0383d331b142c5",
          "json": "30b7543ac3648d0008f0ef03b70740d18e247d63a0220914c5779d555495c978"}),
        # seeds of three and two uint32 words: 2**64 + 5 and 2**32
        (["detect", "--input", "data.csv", "--trees", "4", "--hashes", "37",
          "--seed", "18446744073709551621"],
         {"csv": "30688d0a2f24a1c9313e0a2f18492f2ed4d8213c56a3037fc4eae9d5884a27a2",
          "json": "2ea195e48f9cad05cf777875676593a65ea3880c560610835478ce9628395818"}),
        (["evaluate", "--input", "data.csv", "--anomaly-class", "1", "--hashes", "2",
          "--seed", "4294967296", "--repeats", "2"],
         {"csv": "44b9890ebfb8488db0b14d9b0bbdb78e3ed023169138de41fd0d4e2b4a95bbbf",
          "json": "30ef90361a24e50bb21f5e5184956a8d56c2e3e54a50c8e16a8c1ac32d9d91df"}),
        (["evaluate", *_NOISE, "--repeats", "3", "--trees", "3"],
         {"csv": "48fd4bb484712deff229d528212419c099e79922e7985f9f74ac6f3fe9820493",
          "json": "ab3f81f3e8860bb65faa1aace5f0f4744d71b95c7826e803b796e1c943094061"}),
        (["sweep", *_NOISE, "--repeats", "3", "--param", "m", "--values", "4,1,4,2"],
         {"csv": "65e4b63c67c70396c13b2e8b78f44384d76dfae7cc11d3bb21a04b4f7f9eadaf",
          "json": "f1398c35928c5098a90efc4547ee1e507cbb349e020f655d1df5c0320617251c"}),
        (["sweep", *_NOISE, "--repeats", "3", "--trees", "3", "--param", "h",
          "--values", "3,1,3"],
         {"csv": "fb498f6001b065b43744e5aab66a2e8dea3b137d3ea28e4b0731fc35571be0d3",
          "json": "c1bcf71672af6377c7c1a8f34c4bfed3e0bb35f811b8ea7ec5d94bf8d4ca4792"}),
    ],
    ids=["detect-labeled", "detect-raw", "evaluate", "sweep-m", "sweep-h", "detect-tab",
         "detect-multiword-seed", "evaluate-multiword-seed", "evaluate-noise", "sweep-m-noise",
         "sweep-h-noise"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_golden_artifacts(tmp_path, monkeypatch, argv, digests, fmt):
    _golden_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / f"artifact.{fmt}"
    assert main([*argv, "--format", fmt, "--output", out.name]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    _strict_json(text if fmt == "json" else text.splitlines()[0][len("# config: "):])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[fmt]


@st.composite
def _labeled_bytes(draw, usable: bool) -> tuple[bytes, None]:
    """A well-formed label-first file of Gaussian rows labeled 0 and 1: 5 to
    10 unit-scale rows of 4 to 8 values when ``usable``, else also fewer
    rows, fewer values and rows 1000 times the unit scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(5 if usable else 3, 10)), draw(st.integers(4 if usable else 3, 8))
    x = rng.normal(size=(n, d)) * draw(st.sampled_from([1.0] if usable else [1.0, 1000.0]))
    labels = rng.integers(0, 2, size=n)
    lines = [",".join([str(y)] + [repr(float(v)) for v in row]) for y, row in zip(labels, x)]
    return ("\n".join(lines) + "\n").encode(), None


@st.composite
def _cli_calls(draw) -> tuple[bytes, str, list[str]]:
    """A file, where the artifact goes, and a command line that reads the
    file: a subcommand and flags drawn from the edge values of each.  Half
    the calls keep to a unit-scale file and usable flags, so that a share of
    them succeed, or fail only as they write."""
    usable = draw(st.booleans())
    files = _labeled_bytes(True) if usable else delimited_files() | _labeled_bytes(False)
    data, delimiter = draw(files)
    command = draw(st.sampled_from(["detect", "evaluate", "sweep"]))
    counts = st.sampled_from([1, 3] if usable else [-1, 0, 1, 3])
    argv = [command, "--trees", str(draw(counts)), "--hashes", str(draw(counts)),
            "--slimit", str(draw(counts)), "--seed", str(draw(st.sampled_from([0, 5])))]
    if (hlimit := draw(st.sampled_from([None, 0, 2] if usable else [None, -1, 0, 2]))) is not None:
        argv += ["--hlimit", str(hlimit)]
    if delimiter is not None:
        argv += ["--delimiter", delimiter]
    if draw(st.booleans()):
        argv.append("--normalize")
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    anomaly_class = st.sampled_from(["1", "0"] if usable else ["1", "0", "2.5", "nan", "inf"])
    if command == "detect":
        subseq_len = st.none() | (st.integers(4, 12) if usable else st.integers(-2, 12))
        if (length := draw(subseq_len)) is not None:
            argv += ["--subseq-len", str(length)]
        if draw(st.booleans()):
            argv += ["--anomaly-class", draw(anomaly_class)]
    else:
        argv += ["--anomaly-class", draw(anomaly_class),
                 "--repeats", str(draw(st.sampled_from([1, 2] if usable else [0, 1, 2])))]
    if command == "sweep":
        values = ["1", "1,3"] if usable else ["1", "1,3", "2,,1", "0", "-1", "1.5", "", "x"]
        argv += ["--param", draw(st.sampled_from(["m", "h"])), "--values", draw(st.sampled_from(values))]
    output = draw(st.sampled_from(["file", "file", "missing_dir", "directory", "full_disk"]))
    return data, output, argv


def _full_disk_open(file, mode="r", **kwargs):
    """``open``, but a file it creates exclusively, as the artifact's
    temporary file is created, refuses every write as a full disk does."""
    fh = open(file, mode, **kwargs)
    if "x" in mode:
        def write(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        fh.write = write
    return fh


class TestExitContract:
    """Whatever the input and flags, ``main`` ends in a documented exit code,
    never in another exception: 0, or one ``dlde:`` line on stderr and exit
    2 to 5, or argparse's usage error.  Only exit 0 leaves an artifact, and
    no exit leaves a temporary file."""

    @settings(max_examples=150)
    @given(call=_cli_calls())
    def test_every_call_ends_in_a_documented_exit(self, call):
        data, output, argv = call
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            root = Path(tmp)
            (root / "input").write_bytes(data)
            out = root / {"missing_dir": "absent/out", "directory": "a_directory"}.get(output, "out")
            if output == "directory":
                out.mkdir()
            if output == "full_disk":
                mp.setattr("dlde.cli.open", _full_disk_open, raising=False)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                try:
                    code = main([*argv, "--input", str(root / "input"), "--output", str(out)])
                except SystemExit as exc:  # argparse's usage error, before any work
                    assert exc.code == EXIT_CONFIG
                    code = None
            left = sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))
            artifact = out.read_text(encoding="utf-8") if code == EXIT_OK else None
        note(f"exit {code}: {stderr.getvalue()!r}")
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INPUT, EXIT_METRIC, EXIT_IO, None)
        if code != EXIT_OK:
            assert left == (["a_directory", "input"] if output == "directory" else ["input"])
            if code is not None:
                (line,) = stderr.getvalue().splitlines()
                assert line.startswith("dlde: ")
            return
        assert left == ["input", "out"]
        if argv[argv.index("--format") + 1] == "json":
            loaded = _strict_json(artifact)
            config, rows = loaded["config"], loaded["rows"]
        else:
            header, *lines = artifact.splitlines()
            assert header.startswith("# config: ")
            config, rows = _strict_json(header[len("# config: "):]), lines[1:]
        # one row per subsequence, run or swept value
        per = {"detect": "n", "evaluate": "repeats", "sweep": "values"}[argv[0]]
        assert len(rows) == (len(config[per]) if per == "values" else config[per])

class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_delimiter_names_accepted(self, tmp_path):
        ds = random_dataset(np.random.default_rng(3), 8, 6, anomalies=2)
        path = tmp_path / "tabs.tsv"
        write_labeled_file(ds, path, delimiter="\t")
        out = tmp_path / "scores.csv"
        code = main(
            ["detect", "--input", str(path), "--delimiter", "tab", "--output", str(out)]
        )
        assert code == EXIT_OK

    def test_header_echoes_every_flag(self, tmp_path):
        data = _write_dataset(tmp_path)
        protocol = ["--anomaly-class", "1", "--repeats", "2"]
        extra = {"detect": [], "evaluate": protocol,
                 "sweep": [*protocol, "--param", "h", "--values", "1"]}
        for command, sub in _subparsers().items():
            out = tmp_path / f"{command}.csv"
            argv = [command, "--input", str(data), "--output", str(out), "--trees", "2"]
            assert main(argv + extra[command]) == EXIT_OK
            config, _ = _read_csv(out)
            dests = {a.dest for a in sub._actions} - {"help", "output"}
            assert config["command"] == command and dests <= set(config) and "output" not in config

    def test_defaults_agree(self):
        fit_defaults = inspect.signature(dlde.fit).parameters
        protocol = ExperimentConfig()
        for command, sub in _subparsers().items():
            for flag, param, field in [("trees", "m", "m"), ("hashes", "h", "h"),
                                       ("slimit", "slimit", "slimit"), ("hlimit", "hlimit", "hlimit"),
                                       ("seed", "seed", "base_seed")]:
                assert sub.get_default(flag) == fit_defaults[param].default == getattr(protocol, field)
            if command != "detect":
                assert sub.get_default("repeats") == protocol.repeats

    # for each subcommand, README names exactly the parser's flags: those of
    # every subcommand, then those "`<cmd>` adds"
    def test_readme_common_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

        def named(intro):
            return set(re.findall(r"--[a-z-]+", re.search(intro + r"(.*?)\.\s", readme, re.S)[1]))

        common = named("Flags of every subcommand:")
        assert "--input" in common
        for command, sub in _subparsers().items():
            flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            assert common | named(f"`{command}` adds") == flags, command


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices
