"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import raw_ops, stress_ops, ucr_ops  # noqa: E402

TINY = {
    "ucr-protocol": lambda seed, d: ucr_ops(seed, d, shapes=((24, 16), (30, 12))),
    "stress-detect": lambda seed, d: stress_ops(seed, d, shape=(60, 16)),
    "raw-offscale": lambda seed, d: raw_ops(seed, d, windows=40, s=20),
}
PER_LAYER_NAMES = {
    m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
}


def tiny_run(workload: str, seed: int, directory: Path) -> run.Run:
    bench = run.Run(TINY[workload](seed, directory), run.warmup_argv(directory, seed))
    bench.set_up()
    return bench


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_passes_clean(workload, tmp_path):
    bench = tiny_run(workload, 3, tmp_path)
    walls, _ = bench.passes(0, 2)
    assert len(walls) == 2
    assert len(bench.setups) == (1 + 2 * len(bench.ops)) * run.SETUPS
    assert (bench.failed, bench.failures) == (0, [])
    assert bench.attempted == 2 * len(bench.ops)
    assert all(0.0 <= a <= 1.0 for a in bench.aucs)


def _corrupt_every_import(monkeypatch, corrupt):
    load = run.load_program

    def corrupted():
        cli = load()
        corrupt(cli, monkeypatch)
        return cli

    monkeypatch.setattr(run, "load_program", corrupted)


def _shift_scores(cli, monkeypatch):
    score = cli.score

    def shifted(forest, dataset):
        result = score(forest, dataset)
        return type(result)(result.scores - 1e6, result.anomaly_scores)

    monkeypatch.setattr(cli, "score", shifted)


def _drop_last_row(cli, monkeypatch):
    write = cli._write_atomic
    monkeypatch.setattr(cli, "_write_atomic", lambda path, text: write(
        path, "".join(text.splitlines(keepends=True)[:-1])))


def _fail_write(cli, monkeypatch):
    write = cli._write_atomic

    def failing(path, text):
        if "warmup" not in path:
            raise OSError("disk full")
        write(path, text)

    monkeypatch.setattr(cli, "_write_atomic", failing)


@pytest.mark.parametrize("corrupt", [_shift_scores, _drop_last_row, _fail_write])
def test_corrupt_artifact_counts_as_failure(corrupt, monkeypatch, tmp_path):
    _corrupt_every_import(monkeypatch, corrupt)
    bench = tiny_run("stress-detect", 3, tmp_path)
    bench.passes(0, 2)
    assert bench.failed == bench.attempted == 2


def test_nondeterministic_artifact_counts_as_failure(monkeypatch, tmp_path):
    calls = []

    def reseed(cli, monkeypatch):
        fit = cli.fit

        def reseeded(dataset, **kwargs):
            calls.append(1)
            return fit(dataset, **{**kwargs, "seed": len(calls)})

        monkeypatch.setattr(cli, "fit", reseeded)

    _corrupt_every_import(monkeypatch, reseed)
    bench = tiny_run("stress-detect", 3, tmp_path)
    bench.passes(0, 3)
    assert bench.failed == 2
    assert all("differs from the first pass" in f for f in bench.failures)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    bench = tiny_run(workload, 5, tmp_path)
    untraced, _ = bench.passes(0, 1)
    original_fit = bench.cli.fit
    tracer = Tracer()
    tracer.install()
    try:
        walls, written = bench.passes(0, 1, tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(tracer, len(walls), written, walls[0] / untraced[0] - 1)
    assert set(metrics) == PER_LAYER_NAMES
    assert bench.failed == 0 and tracer.hook_errors == {}
    assert bench.cli.fit is original_fit  # originals restored
    for name in ("tstree.leaves", "hashing.tables", "density.points", "cli.artifact_bytes",
                 "dataset.fields", "forest.fit_s", "forest.score_s"):
        assert metrics[name] > 0, name
    assert metrics["hashing.keys_per_table"] >= 1 and metrics["density.tuple_reuse"] >= 1
    assert (metrics["evaluation.runs"] > 0) == (workload == "ucr-protocol")
    assert (metrics["dataset.window_s"] > 0) == (workload == "raw-offscale")
    ops = {span[1] for span in tracer.spans}
    roots = [span for span in tracer.spans if span[2] == -1]
    assert len(roots) == len(ops) == len(bench.ops)


def test_oracle_check_passes():
    run.load_program()
    assert run.oracle_matches(0)


def test_auc_matches_pairwise_count():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, 40).astype(float)  # many ties
    labels = (rng.random(40) < 0.3).astype(int)
    pairs = [(a < b) + 0.5 * (a == b)
             for a in scores[labels == 1] for b in scores[labels == 0]]
    assert run.auc_low_is_anomalous(scores, labels) == pytest.approx(np.mean(pairs))


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "stress-detect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
