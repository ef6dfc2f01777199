from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from dlde import LabeledDataset
from dlde.hashing import HashFn, bucket_keys

# a few dozen examples per property; fits vary too much in time for a deadline
settings.register_profile("dlde", max_examples=40, deadline=None)
settings.load_profile("dlde")


def random_dataset(
    rng: np.random.Generator, n: int, d: int, anomalies: int = 0
) -> LabeledDataset:
    """Gaussian rows with ``anomalies`` displaced rows labeled 1."""
    x = rng.normal(size=(n, d))
    labels = np.zeros(n, dtype=np.int64)
    if anomalies:
        idx = rng.choice(n, size=anomalies, replace=False)
        x[idx] += 3.0
        labels[idx] = 1
    return LabeledDataset(x, labels)


def write_labeled_file(
    dataset: LabeledDataset, path: str | Path, *, delimiter: str = ","
) -> None:
    """Write a dataset in the label-first format.

    Values are written with ``repr`` so a parse/write/parse round trip
    reproduces the matrix exactly.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        for label, row in zip(dataset.labels, dataset.subsequences):
            fields = [str(int(label))] + [repr(float(v)) for v in row]
            fh.write(delimiter.join(fields) + "\n")


def hash_keys(fn: HashFn, values: np.ndarray) -> np.ndarray:
    """Bucket key ``floor((value + offset) / width)`` of every value, as int64.

    Exact: the float64 floor of every key in [-2**63, 2**63) fits int64
    without rounding, so it equals the key computed in Python integers.

    Raises:
        ValueError: a key is NaN or falls outside [-2**63, 2**63).
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        keys = bucket_keys(values.ravel(), fn.offset, fn.width)
    if not ((-(2.0**63) <= keys) & (keys < 2.0**63)).all():
        raise ValueError("bucket keys outside the int64 range")
    return keys.astype(np.int64).reshape(values.shape)


def tree_model_state(model) -> tuple:
    """Everything a fitted tree holds, as a value that compares exactly.

    Segments, depths, and per leaf its segment and hash functions.
    """
    return (
        model.tree.segments,
        model.tree.depths,
        tuple(
            (segment, tables.segment, tables.fns)
            for segment, tables in model.leaf_tables.items()
        ),
    )


@st.composite
def matrices(draw, min_rows: int = 5, max_rows: int = 14, max_cols: int = 14) -> np.ndarray:
    """Seeded Gaussian (N, d) matrices on the unit scale or an ADC-like scale.

    Rounding, when drawn, makes key tuples collide; the ADC scale spreads
    keys over many buckets.
    """
    shape = (draw(st.integers(min_rows, max_rows)), draw(st.integers(4, max_cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=shape) * draw(st.sampled_from([1.0, 1000.0]))
    decimals = draw(st.sampled_from([None, 1, 0]))
    return x if decimals is None else np.round(x, decimals)


def heartbeat_series(
    n_windows: int = 15,
    s: int = 40,
    anomaly_at: int = 7,
    noise: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """Periodic pulse train with one window whose pulse is displaced.

    Serves as a stand-in for a one-minute physiological recording cut
    into per-second windows, where a single cycle is out of shape.
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, s, endpoint=False)
    normal_pulse = np.exp(-0.5 * ((t - 0.30) / 0.05) ** 2) + 0.3 * np.sin(2 * np.pi * t)
    shifted_pulse = np.exp(-0.5 * ((t - 0.70) / 0.05) ** 2) + 0.3 * np.sin(2 * np.pi * t)
    windows = []
    for w in range(n_windows):
        shape = shifted_pulse if w == anomaly_at else normal_pulse
        windows.append(shape + rng.normal(0.0, noise, size=s))
    return np.concatenate(windows)


@pytest.fixture
def labeled_file(tmp_path):
    """Factory writing a label-first delimited file, returning its path."""

    def _write(lines: list[str], name: str = "data.csv"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return _write
