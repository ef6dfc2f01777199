"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The four benchmark recordings used by criteria 3 and 4 are not
redistributable with this repository; place prepared label-first files
under ``data/`` (or point ``DLDE_DATA_DIR`` elsewhere) as described in
the README.  Those tests skip with instructions when the files are
missing and run the full protocol when present.  Seeded synthetic
stand-ins for both criteria always run.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dlde
from dlde import (
    ConfigurationError,
    ExperimentConfig,
    LabeledDataset,
    MetricError,
    anomaly_scores,
    auc,
    fit,
    parse_labeled_file,
    run_experiment,
    score,
    sweep,
    window_series,
)
from dlde.density import row_densities
from dlde.tstree import build_tstree, leaves

from conftest import heartbeat_series, random_dataset
from reference import forest_scores, is_full_binary, tree_row_densities

DATA_DIR = Path(os.environ.get("DLDE_DATA_DIR", Path(__file__).resolve().parents[1] / "data"))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _find_benchmark(*names: str) -> Path | None:
    for name in names:
        for suffix in (".tsv", ".csv", ".txt"):
            path = DATA_DIR / f"{name}{suffix}"
            if path.exists():
                return path
    return None


def _load_benchmark(path: Path, expected_n: int, expected_d: int) -> LabeledDataset:
    """Load a prepared benchmark file, mapping the minority class to anomaly."""
    raw = [line.split()[0].split(",")[0] for line in path.read_text().splitlines() if line.strip()]
    counts = Counter(float(v) for v in raw)
    minority = min(counts, key=lambda c: (counts[c], c))
    ds = parse_labeled_file(path, anomaly_class=minority)
    assert (ds.n, ds.d) == (expected_n, expected_d), (
        f"{path.name}: expected shape ({expected_n}, {expected_d}), "
        f"got ({ds.n}, {ds.d}); file was not prepared as documented"
    )
    return ds


def _require_benchmark(num: int, expected_n: int, expected_d: int, *names: str) -> LabeledDataset:
    path = _find_benchmark(*names)
    if path is None:
        print(f"\n[SKIP] criterion {num}: {names[0]} not present under {DATA_DIR}")
        pytest.skip(
            f"{names[0]} data not available: place a prepared label-first file at "
            f"{DATA_DIR / (names[0] + '.tsv')} (see README, 'Benchmark data')"
        )
    return _load_benchmark(path, expected_n, expected_d)


def test_criterion_1_oracle_equivalence():
    """Table-based densities and scores match brute-force enumeration."""
    rng = np.random.default_rng(20260808)
    worst = 0.0
    instances = 100
    for i in range(instances):
        n = int(rng.integers(5, 21))
        d = int(rng.integers(4, 17))
        h = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        if i % 4 == 0:
            x[: n // 2] = x[0]  # heavy collisions stress the tie paths
        ds = LabeledDataset(x, np.zeros(n, int))
        forest = fit(ds, m=m, h=h, seed=i)

        rows = x.tolist()
        for model in forest.trees:
            fns_by_leaf = {seg: t.fns for seg, t in model.leaf_tables.items()}
            expected = tree_row_densities(rows, model.tree, fns_by_leaf)
            got = row_densities(x, model.tree, model.leaf_tables)
            worst = max(worst, float(np.abs(got - np.asarray(expected)).max()))

        expected_scores = forest_scores(rows, forest)
        got_scores = score(forest, ds).scores
        worst = max(worst, float(np.abs(got_scores - np.asarray(expected_scores)).max()))

    _report(1, worst <= 1e-12, f"{instances} instances, max |table - bruteforce| = {worst:.3e}")


def test_criterion_2_structural_invariants():
    """10,000 random trees: partition, stop conditions, depth bound."""
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 65))
        hlimit = int(rng.integers(0, 9))
        slimit = int(rng.integers(1, 6))
        tree = build_tstree(1, d, hlimit, slimit, rng)

        segs = leaves(tree)
        assert segs[0].start == 1 and segs[-1].end == d
        for a, b in zip(segs, segs[1:]):
            assert b.start == a.end + 1

        assert is_full_binary(tree.depths)
        for segment, depth in zip(tree.segments, tree.depths, strict=True):
            assert depth <= hlimit
            assert segment.length <= slimit or depth == hlimit
        checked += 1
    _report(2, checked == 10_000, f"{checked} trees satisfied all structural invariants")


_BENCHMARKS = {
    "ECG200": dict(names=("ECG200",), n=200, d=96, floor=0.80, budget=120.0),
    "MoteStrain": dict(names=("MoteStrain",), n=1272, d=84, floor=0.77, budget=600.0),
    "SonyAIBORobotSurfaceII": dict(
        names=("SonyAIBORobotSurfaceII", "SonyAIBORobotSurface2"), n=980, d=65,
        floor=0.72, budget=None,
    ),
    "DiatomSizeReduction_2_1": dict(
        names=("DiatomSizeReduction_2_1",), n=132, d=345, floor=0.95, budget=None
    ),
}


@pytest.mark.parametrize("name", list(_BENCHMARKS))
def test_criterion_3_benchmark_auc(name):
    """Mean AUC over 50 seeded default runs clears the per-dataset floor."""
    bench = _BENCHMARKS[name]
    ds = _require_benchmark(3, bench["n"], bench["d"], *bench["names"])
    started = time.perf_counter()
    report = run_experiment(ExperimentConfig(repeats=50, base_seed=0), dataset=ds)
    elapsed = time.perf_counter() - started
    ok = report.mean_auc >= bench["floor"]
    if bench["budget"] is not None:
        ok = ok and elapsed < bench["budget"]
    _report(
        3,
        ok,
        f"{name}: mean AUC {report.mean_auc:.3f} (floor {bench['floor']}), "
        f"50 runs in {elapsed:.0f}s"
        + (f" (budget {bench['budget']:.0f}s)" if bench["budget"] else ""),
    )


def test_criterion_4_convergence_in_m():
    """On ECG200 the AUC stabilizes by m=10 and its spread shrinks vs m=1."""
    ds = _require_benchmark(4, 200, 96, "ECG200")
    config = ExperimentConfig(repeats=30, base_seed=1)
    r1, r10, r50 = sweep(config, "m", [1, 10, 50], dataset=ds)
    gap = abs(r10.mean_auc - r50.mean_auc)
    ok = gap <= 0.03 and r10.std_auc <= r1.std_auc
    _report(
        4,
        ok,
        f"ECG200: |mean(m=10) - mean(m=50)| = {gap:.4f} (<= 0.03), "
        f"std(m=10) = {r10.std_auc:.4f} <= std(m=1) = {r1.std_auc:.4f}",
    )


def _displaced_rows() -> LabeledDataset:
    return random_dataset(np.random.default_rng(0), 40, 16, anomalies=4)


def _displaced_window() -> LabeledDataset:
    windows = window_series(heartbeat_series(n_windows=15, s=40, anomaly_at=7, seed=0), 40)
    return LabeledDataset(windows.subsequences, (np.arange(15) == 7).astype(int))


# Mean AUC was 1.0 for both sets at the commit that added these floors; the
# floors leave a margin of 0.05.
@pytest.mark.parametrize("make, repeats", [(_displaced_rows, 10), (_displaced_window, 5)])
def test_criterion_3_synthetic_auc_floor(make, repeats):
    """Seeded stand-in for criterion 3: default runs clear an AUC floor."""
    report = run_experiment(ExperimentConfig(repeats=repeats, base_seed=0), dataset=make())
    _report(3, report.mean_auc >= 0.95,
            f"{make.__name__}: mean AUC {report.mean_auc:.3f} over {repeats} runs (floor 0.95)")


def test_criterion_4_synthetic_convergence_in_m():
    """Seeded stand-in for criterion 4 on rows with a weak displacement.

    At the commit that added it: mean AUC 0.822 / 0.820 / 0.830 and std
    0.049 / 0.026 / 0.0095 for m = 1 / 10 / 50.
    """
    rng = np.random.default_rng(0)
    x, labels = rng.normal(size=(30, 12)), (np.arange(30) < 5).astype(int)
    x[:5] += 1.0
    config = ExperimentConfig(repeats=10, base_seed=0)
    r1, r10, r50 = sweep(config, "m", [1, 10, 50], dataset=LabeledDataset(x, labels))
    gap = abs(r10.mean_auc - r50.mean_auc)
    _report(
        4,
        gap <= 0.03 and r10.std_auc <= r1.std_auc,
        f"synthetic: |mean(m=10) - mean(m=50)| = {gap:.4f} (<= 0.03), "
        f"std(m=10) = {r10.std_auc:.4f} <= std(m=1) = {r1.std_auc:.4f}",
    )


def test_criterion_5_cli_determinism(tmp_path):
    """Two identical evaluate invocations produce byte-identical reports."""
    rng = np.random.default_rng(15)
    x = rng.normal(size=(30, 8))
    labels = np.zeros(30, int)
    x[:8] += 2.5
    labels[:8] = 1
    data = tmp_path / "data.csv"
    dlde.write_labeled_file(LabeledDataset(x, labels), data)

    env = dict(os.environ)
    src = str(Path(dlde.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        cmd = [
            sys.executable, "-m", "dlde.cli", "evaluate",
            "--input", str(data), "--anomaly-class", "1",
            "--repeats", "3", "--trees", "3", "--hashes", "3",
            "--seed", "42", "--output", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    _report(
        5,
        outputs[0] == outputs[1],
        f"two subprocess runs wrote identical {len(outputs[0])}-byte reports",
    )


def test_criterion_6_windowed_series_workflow():
    """The displaced window of a 15-window series tops the anomaly ranking."""
    series = heartbeat_series(n_windows=15, s=40, anomaly_at=7, seed=99)
    ds = window_series(series, 40)
    assert ds.n == 15
    hits = 0
    runs = 50
    for run in range(runs):
        result = score(fit(ds, seed=run), ds)
        if int(np.argmax(result.anomaly_scores)) == 7:
            hits += 1
    _report(6, hits >= 0.9 * runs, f"anomalous window ranked first in {hits}/{runs} runs")


def test_criterion_7_degenerate_edges():
    """Tiny datasets, constant data and single-class labels fail loudly."""
    rng = np.random.default_rng(3)

    tiny = LabeledDataset(rng.normal(size=(4, 8)), np.zeros(4, int))
    with pytest.raises(ConfigurationError):
        fit(tiny, seed=0)

    constant = LabeledDataset(np.full((9, 6), 2.0), np.zeros(9, int))
    result = score(fit(constant, seed=0), constant)
    assert set(result.anomaly_scores.tolist()) == {0.5}
    assert set(anomaly_scores(result.scores).tolist()) == {0.5}

    with pytest.raises(MetricError):
        auc(rng.normal(size=10), np.zeros(10, int))

    _report(7, True, "tiny-N rejected, constant data scores 0.5, single-class metric rejected")
