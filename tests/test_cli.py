from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dlde
from dlde import (
    ExperimentConfig,
    LabeledDataset,
    parse_labeled_file,
    run_experiment,
    sweep,
    znormalize,
)
from dlde.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_IO, EXIT_METRIC, EXIT_OK, main

from conftest import heartbeat_series, random_dataset, write_labeled_file


def _write_dataset(tmp_path, n=20, d=10, anomalies=5, seed=0, name="data.csv"):
    ds = random_dataset(np.random.default_rng(seed), n, d, anomalies=anomalies)
    path = tmp_path / name
    write_labeled_file(ds, path)
    return path


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
        env = dict(os.environ)
        src = str(Path(dlde.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "dlde.cli", "detect", "--input", str(path),
               "--output", str(tmp_path / "scores.csv")]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
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
        assert list(rows[0]) == ["run", "seed", "auc"]  # no timing by default
        assert len(rows) == 3
        assert 0.0 <= config["mean_auc"] <= 1.0
        assert config["repeats"] == 3 and config["anomaly_class"] == 1

    def test_timing_flag_adds_seconds(self, tmp_path):
        data = _write_dataset(tmp_path)
        out = tmp_path / "report.csv"
        code = main(
            [
                "evaluate",
                "--input", str(data),
                "--anomaly-class", "1",
                "--repeats", "2",
                "--trees", "2",
                "--timing",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        _, rows = _read_csv(out)
        assert list(rows[0]) == ["run", "seed", "auc", "seconds"]
        assert all(float(r["seconds"]) > 0 for r in rows)

    def test_single_class_exits_metric(self, tmp_path):
        data = _write_dataset(tmp_path, anomalies=0)
        out = tmp_path / "report.csv"
        code = main(
            ["evaluate", "--input", str(data), "--anomaly-class", "1", "--output", str(out)]
        )
        assert code == EXIT_METRIC
        assert not out.exists()

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

    def test_h_sweep_single_value_matches_evaluate(self, tmp_path):
        data = _write_dataset(tmp_path)
        sweep_out = tmp_path / "sweep.csv"
        eval_out = tmp_path / "eval.csv"
        shared = [
            "--input", str(data), "--anomaly-class", "1",
            "--repeats", "2", "--trees", "2", "--hashes", "3", "--seed", "5",
        ]
        assert main(["sweep", *shared, "--param", "h", "--values", "3",
                     "--output", str(sweep_out)]) == EXIT_OK
        assert main(["evaluate", *shared, "--output", str(eval_out)]) == EXIT_OK
        sweep_config, sweep_rows = _read_csv(sweep_out)
        eval_config, _ = _read_csv(eval_out)
        assert float(sweep_rows[0]["mean_auc"]) == eval_config["mean_auc"]

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
