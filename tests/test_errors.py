"""Every integer parameter the package takes is admitted by one rule,
:func:`dlde.errors.require_int`.  A float or a string is refused with a
ConfigurationError ending in ``got {value!r}``, even when it is integral,
and a numpy integer acts exactly as the Python int of its value."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from dlde import ConfigurationError, ExperimentConfig, fit, run_experiment, sweep, window_series

from conftest import random_dataset, tree_model_state

_DATASET = random_dataset(np.random.default_rng(5), 12, 8, anomalies=3)
_CONFIG = ExperimentConfig(m=2, h=2, repeats=2)


def _fit(**kwargs):
    forest = fit(_DATASET, **{"m": 2, "h": 2, **kwargs})
    return type(forest.hlimit), forest.hlimit, list(map(tree_model_state, forest.trees))


def _run(**kwargs):
    report = run_experiment(replace(_CONFIG, **kwargs), _DATASET)
    return report.aucs, report.seeds


def _sweep(param):
    return lambda value: [(r.aucs, r.seeds) for r in sweep(_CONFIG, param, [value], _DATASET)]


# entry point: a call that takes one integer parameter, and a value it accepts
ENTRY_POINTS = {
    **{f"fit {k}": (lambda v, k=k: _fit(**{k: v}), 3)
       for k in ("m", "h", "slimit", "hlimit", "seed")},
    **{f"run_experiment {k}": (lambda v, k=k: _run(**{k: v}), 3)
       for k in ("m", "h", "slimit", "hlimit", "repeats", "base_seed")},
    "sweep m": (_sweep("m"), 3),
    "sweep h": (_sweep("h"), 3),
    "window_series s": (lambda v: window_series(np.arange(40.0), v).subsequences.tobytes(), 5),
}


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0), "3"], ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_integer_refused(entry, value):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ConfigurationError, match=re.escape(f"got {value!r}")):
        call(value)


@pytest.mark.parametrize("kind", [np.int64, np.uint8])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integer_acts_as_int(entry, kind):
    call, value = ENTRY_POINTS[entry]
    assert call(kind(value)) == call(value)
