"""Seeded benchmark inputs and the CLI commands each workload runs.

Every workload writes its input files from a seed and returns the list of
``dlde`` command lines to run on them.  Anomalies are planted by the
generators and their labels stay here: the labeled files carry them in the
label column as the program expects, while for the raw recording only the
benchmark knows which windows are anomalous.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The four UCR benchmark shapes the paper evaluates on (N x d).
UCR_SHAPES = ((200, 96), (1272, 84), (980, 65), (132, 345))
STRESS_SHAPE = (5000, 128)
# 2000 windows of 100 samples: a 200k-sample recording.
RAW_WINDOWS, RAW_WINDOW_LEN = 2000, 100

NORMAL_CLASS, ANOMALY_CLASS = "1", "-1"
SWEEP_VALUES = "1,5,10,25"
REPEATS = "1"  # repeat count of evaluate and sweep: the same for both
HASHES = 10  # CLI default h; detect scores lie in [1, HASHES * N]


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its artifact must contain."""

    argv: tuple[str, ...]
    output: Path
    kind: str  # "detect", "evaluate" or "sweep"
    rows: int  # expected artifact rows
    labels: np.ndarray | None = None  # planted truth for a detect op


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list[Op]]  # (seed, directory) -> ops


def write_labeled(path: Path, x: np.ndarray, labels: np.ndarray) -> None:
    """Label-first comma-separated file; values round-trip exactly."""
    lines = [
        ",".join([ANOMALY_CLASS if y else NORMAL_CLASS, *map(repr, row)])
        for row, y in zip(x.tolist(), labels.tolist())
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def unit_scale_dataset(
    rng: np.random.Generator, n: int, d: int, anomaly_share: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy copies of one smooth prototype; anomalies carry a local bump.

    Values are on the unit scale the hash widths assume.  The bump (height
    2, an eighth of the row wide, random sign and place) is strong enough
    for an AUC near 0.85 and weak enough that score changes move it.
    """
    t = np.linspace(0.0, 1.0, d, endpoint=False)
    phase = rng.uniform(0.0, 2 * np.pi, 2)
    base = np.sin(2 * np.pi * 2 * t + phase[0]) + 0.5 * np.sin(2 * np.pi * 5 * t + phase[1])
    x = base + rng.normal(0.0, 0.35, (n, d)) + rng.normal(0.0, 0.15, (n, 1))
    labels = np.zeros(n, dtype=np.int64)
    anomalies = rng.choice(n, max(2, round(anomaly_share * n)), replace=False)
    labels[anomalies] = 1
    width = max(4, d // 8)
    for k in anomalies:
        at = rng.integers(0, d - width)
        x[k, at : at + width] += 2.0 * np.hanning(width) * rng.choice((-1.0, 1.0))
    return x, labels


def adc_recording(
    rng: np.random.Generator, windows: int, s: int, anomalies: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """A periodic recording at ADC scale (2048 + 400 sin, noise sigma 40).

    Each period of ``s`` samples carries a pulse at 30% of the period; in
    the planted anomalous windows it sits at 70% instead.  Returns the
    series and the 0/1 label of each length-``s`` window.
    """
    t = np.arange(windows * s)
    series = 2048.0 + 400.0 * np.sin(2 * np.pi * t / s) + rng.normal(0.0, 40.0, t.size)
    labels = np.zeros(windows, dtype=np.int64)
    labels[rng.choice(windows, anomalies, replace=False)] = 1
    u = np.arange(s)
    width = max(1.0, 0.03 * s)
    normal = 300.0 * np.exp(-0.5 * ((u - 0.3 * s) / width) ** 2)
    displaced = 300.0 * np.exp(-0.5 * ((u - 0.7 * s) / width) ** 2)
    series += np.where(labels[:, None] == 1, displaced, normal).ravel()
    return series, labels


def _detect_argv(path: Path, out: Path, *extra: str) -> tuple[str, ...]:
    return ("detect", "--input", str(path), "--output", str(out), "--seed", "0", *extra)


def ucr_ops(seed: int, directory: Path, shapes=UCR_SHAPES) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n, d in shapes:
        path = directory / f"ucr_{n}x{d}.csv"
        write_labeled(path, *unit_scale_dataset(rng, n, d))
        common = ("--input", str(path), "--anomaly-class", ANOMALY_CLASS,
                  "--repeats", REPEATS, "--seed", "0")
        out = directory / f"evaluate_{n}x{d}.csv"
        ops.append(Op(("evaluate", *common, "--output", str(out)), out, "evaluate",
                      int(REPEATS)))
        out = directory / f"sweep_{n}x{d}.csv"
        ops.append(Op(("sweep", *common, "--param", "m", "--values", SWEEP_VALUES,
                       "--output", str(out)), out, "sweep", len(SWEEP_VALUES.split(","))))
    return ops


def stress_ops(seed: int, directory: Path, shape=STRESS_SHAPE) -> list[Op]:
    n, d = shape
    x, labels = unit_scale_dataset(np.random.default_rng(seed), n, d, anomaly_share=0.05)
    path = directory / f"stress_{n}x{d}.csv"
    write_labeled(path, x, labels)
    out = directory / "detect_stress.csv"
    argv = _detect_argv(path, out, "--anomaly-class", ANOMALY_CLASS)
    return [Op(argv, out, "detect", n, labels)]


def raw_ops(seed: int, directory: Path, windows=RAW_WINDOWS, s=RAW_WINDOW_LEN) -> list[Op]:
    series, labels = adc_recording(np.random.default_rng(seed), windows, s)
    path = directory / "recording.txt"
    path.write_text("\n".join(map(repr, series.tolist())) + "\n", encoding="utf-8")
    out = directory / "detect_raw.csv"
    return [Op(_detect_argv(path, out, "--subseq-len", str(s)), out, "detect", windows, labels)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ucr-protocol",
            "paper's AUC protocol on the four UCR shapes: many mid-size fits, so tree "
            "growth, seeding and per-leaf hashing weigh most; only user of sweep",
            ucr_ops,
        ),
        Workload(
            "stress-detect",
            "one detect on 5000x128 unit-scale rows: large N, leaf densities dominate, "
            "key tuples repeat often, parse and render of 5000 rows matter",
            stress_ops,
        ),
        Workload(
            "raw-offscale",
            "detect on a 200k-sample ADC-scale recording: parse_raw_series and windowing, "
            "tables with hundreds of keys, key tuples barely repeat, highest RSS",
            raw_ops,
        ),
    )
}
