from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from dlde import LabeledDataset
from dlde.hashing import HASH_FN, bucket_keys, sample_hash_fn

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


def draw_fns(n: int, rng: np.random.Generator, h: int) -> np.ndarray:
    """``h`` bucketing functions for ``n`` subsequences, from one block of
    ``2 * h`` uniforms of ``rng``, as a read-only (h,) ``HASH_FN`` row."""
    return sample_hash_fn(n, rng.random(2 * h))


def hash_fns(*pairs: tuple[float, float]) -> np.ndarray:
    """The functions ``(width, offset)`` given, as a read-only ``HASH_FN`` row."""
    fns = np.array(list(pairs), dtype=HASH_FN)
    fns.setflags(write=False)
    return fns


def hash_keys(fn: np.record, values: np.ndarray) -> np.ndarray:
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

    Segments, depths, and per leaf its segment and the bytes of its hash
    functions, which tell -0.0 from 0.0.
    """
    return (
        model.tree.segments,
        model.tree.depths,
        tuple(
            (segment, tables.segment, tables.fns.tobytes())
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


# Field text numpy's C reader and float() may read differently: padding,
# underscores, non-ASCII digits and spaces, NUL, \f and the separator
# controls \x1c-\x1f, quotes, '#', non-finite, overflowing and subnormal
# values.
_ODD_FIELDS = [
    "", " ", "\t", "1_0", "１", "２.5", "\x00", "1\x00", "\f1", "1\f", "1\x1c", "\x1d2",
    "\x1e", "3\x1f", '"1"', "#", "1#", "nan", "inf", "-inf", "1e400", "-1e400", "4.9e-324",
    "2.5e-320", "\xa01", "1\u3000", " 2 ", "1.5 2", "0x10", "1j", "+.5", "5.", "\x85", "1e",
]
_CLEAN_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.floats(min_value=-1e-307, max_value=1e-307).map(repr),
    st.builds(  # 25-digit mantissas
        "{}{}.{}{}".format,
        st.sampled_from(["", "-", "+"]),
        st.integers(0, 10**12),
        st.integers(10**24, 10**25 - 1),
        st.sampled_from(["", "e-320", "e-308", "E+300", "e-330"]),
    ),
)


@st.composite
def delimited_files(draw) -> tuple[bytes, str | None]:
    """The bytes of a delimited file, and the ``delimiter`` to parse it with.

    Half the files hold equal-width rows of plain numbers, which the C
    reader mostly reads; the other half mix in odd fields, ragged rows,
    blank and whitespace-only lines and a byte that is not UTF-8.
    """
    delimiter = draw(st.sampled_from(
        [None, None, ",", "\t", ";", " ", "\x00", "\x1c", "e", ".", "#", '"', "\n", ";;"]
    ))
    sep = delimiter
    if sep in (None, ";;"):
        sep = draw(st.sampled_from([",", "\t"]))
    odd = draw(st.booleans())
    fields = st.one_of(_CLEAN_FIELDS, st.sampled_from(_ODD_FIELDS)) if odd else _CLEAN_FIELDS
    width = draw(st.integers(1, 7))
    widths = st.integers(max(1, width - 1), width + 1) if odd else st.just(width)
    rows = st.lists(widths.flatmap(lambda w: st.lists(fields, min_size=w, max_size=w)), min_size=1, max_size=8)
    lines = [sep.join(row) for row in draw(rows)]
    if odd:
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(["", " ", "\t", "\f", "\x1c", "\x85"])))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (ending.join(lines) + draw(st.sampled_from([ending, ""]))).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if odd and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, delimiter
