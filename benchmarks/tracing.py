"""Spans around dlde's layer functions, recorded from outside the package.

:class:`Tracer` replaces each instrumented function at the place where its
caller looks it up (for instance ``dlde.forest.build_tstree``, the name the
forest module calls) with a wrapper that records a span, and puts the
originals back on :meth:`Tracer.uninstall`.  The program's source is not
touched.  Everything runs in one thread, so spans nest strictly and a span's
children never overlap: its self time is its duration minus the sum of its
children's durations.

Counting hooks derive work counts (leaves, keys per table, key-tuple reuse)
from a call's arguments and result.  They run inside a ``trace.count`` span
so that their cost counts as tracing overhead and not as the caller's self
time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property
from pathlib import Path

import numpy as np

COUNT_SPAN = "trace.count"


def _parse_labeled_count(args, kwargs, dataset, counts):
    counts["dataset.fields"] += dataset.n * (dataset.d + 1)


def _parse_raw_count(args, kwargs, series, counts):
    counts["dataset.fields"] += len(series)


def _tstree_count(args, kwargs, tree, counts):
    import dlde.tstree

    segments = dlde.tstree.leaves(tree)
    counts["tstree.leaves"] += len(segments)
    counts["tstree.leaf_len_sum"] += sum(seg.length for seg in segments)


def _leaf_tables_count(args, kwargs, tables, counts):
    """Keys per (hash function, column) table and distinct key tuples per leaf.

    Computed from the call's inputs, so it does not depend on how the
    tables are stored.  A point's key tuple is its bucket key under all h
    functions; its density depends on nothing else.
    """
    dataset, segment, fns = args
    block = dataset.subsequences[:, segment.columns]
    keys = np.stack(
        [np.floor((block + fn.offset) / fn.width).astype(np.int64) for fn in fns]
    )  # (h, N, L)
    ordered = np.sort(keys, axis=1)
    counts["hashing.tables"] += keys.shape[0] * keys.shape[2]
    counts["hashing.keys"] += int(keys.shape[0] * keys.shape[2]) + int(
        np.count_nonzero(np.diff(ordered, axis=1))
    )
    tuples = np.ascontiguousarray(keys.reshape(keys.shape[0], -1).T)
    counts["hashing.leaf_points"] += tuples.shape[0]
    as_bytes = tuples.view(np.dtype((np.void, tuples.itemsize * tuples.shape[1])))
    counts["hashing.key_tuples"] += np.unique(as_bytes).size


def _leaf_density_count(args, kwargs, out, counts):
    x, tables = args
    n, length = out.shape
    counts["density.points"] += n * length
    counts["density.gather_elems"] += n * length * length * len(tables.fns)


# (module, attribute, span name, counting hook).  Each entry names the place
# a caller looks the function up, so the same function can appear under
# several modules.
INSTRUMENTS = (
    ("dlde.cli", "parse_labeled_file", "dataset.parse", _parse_labeled_count),
    ("dlde.cli", "parse_raw_series", "dataset.parse", _parse_raw_count),
    ("dlde.cli", "window_series", "dataset.window", None),
    ("dlde.cli", "fit", "forest.fit", None),
    ("dlde.cli", "score", "forest.score", None),
    ("dlde.cli", "run_experiment", "evaluation.run", None),
    ("dlde.cli", "sweep", "evaluation.run", None),
    ("dlde.evaluation", "parse_labeled_file", "dataset.parse", _parse_labeled_count),
    ("dlde.evaluation", "run_experiment", "evaluation.run", None),
    ("dlde.evaluation", "fit", "forest.fit", None),
    ("dlde.evaluation", "score", "forest.score", None),
    ("dlde.evaluation", "auc", "evaluation.auc", None),
    ("dlde.forest", "build_tstree", "tstree.build", _tstree_count),
    ("dlde.forest", "spawn_rng", "seeding.spawn", None),
    ("dlde.forest", "sample_hash_fn", "hashing.sample", None),
    ("dlde.forest", "build_leaf_tables", "hashing.build", _leaf_tables_count),
    ("dlde.forest", "row_densities", "density.row", None),
    ("dlde.density", "leaf_point_densities", "density.leaf", _leaf_density_count),
)


class Tracer:
    """Records spans ``[name, op, parent, start, end]`` in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.hook_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._op, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    def start_op(self, name: str) -> int:
        """Open the root span of one operation; its spans share its id."""
        self._op += 1
        return self.open(name)

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                index = tracer.open(COUNT_SPAN)
                try:
                    hook(args, kwargs, result, tracer.counts)
                except (AttributeError, TypeError, ValueError) as exc:
                    # The layer's interface changed; its counts go missing
                    # but the timed work still ran.
                    tracer.hook_errors[name] = repr(exc)
                finally:
                    tracer.close(index)
            return result

        return traced

    def install(self) -> None:
        """Wrap every instrument that exists in the loaded package."""
        for module_name, attr, name, hook in INSTRUMENTS:
            module = sys.modules[module_name]
            if not hasattr(module, attr):
                print(f"trace: {module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))
        tables_cls = sys.modules["dlde.hashing"].LeafTables
        prop = tables_cls.__dict__.get("dense_counts")
        if isinstance(prop, cached_property):
            traced = cached_property(self._wrap("hashing.dense", prop.func, None))
            traced.__set_name__(tables_cls, "dense_counts")
            self._restore.append((tables_cls, "dense_counts", prop))
            setattr(tables_cls, "dense_counts", traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Inclusive seconds, self seconds and span count per span name.

        Inclusive seconds leave out the counting hooks run inside a span.
        """
        hooks = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):  # children follow parents
            name, _op, parent, start, end = self.spans[i]
            if parent >= 0:
                hooks[parent] += hooks[i] + (end - start if name == COUNT_SPAN else 0.0)
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, _op, parent, start, end) in enumerate(self.spans):
            duration = end - start
            inclusive[name] += duration - hooks[i]
            own[name] += duration
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= duration
        return inclusive, own, calls

    def write(self, path: Path) -> None:
        """Dump the spans as tab-separated name, op, parent, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][3] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name\top\tparent\tstart_s\tend_s\n")
            for name, op, parent, start, end in self.spans:
                fh.write(f"{name}\t{op}\t{parent}\t{start - origin:.9f}\t{end - origin:.9f}\n")


# Per-layer metrics: name -> (unit, better).  Seconds are self time, except
# the inclusive forest.fit_s and forest.score_s; every value is per pass.
PER_LAYER = {
    "dataset.parse_s": ("s", "lower"),
    "dataset.fields": ("count", "lower"),
    "dataset.window_s": ("s", "lower"),
    "seeding.spawn_s": ("s", "lower"),
    "seeding.spawns": ("count", "lower"),
    "tstree.build_s": ("s", "lower"),
    "tstree.trees": ("count", "lower"),
    "tstree.leaves": ("count", "lower"),
    "tstree.leaf_len_mean": ("columns", "lower"),
    "hashing.sample_s": ("s", "lower"),
    "hashing.build_s": ("s", "lower"),
    "hashing.dense_s": ("s", "lower"),
    "hashing.tables": ("count", "lower"),
    "hashing.keys_per_table": ("keys/table", "lower"),
    "density.leaf_s": ("s", "lower"),
    "density.row_s": ("s", "lower"),
    "density.points": ("count", "lower"),
    "density.gather_elems": ("elems_computed", "lower"),
    "density.tuple_reuse": ("points/tuple", "higher"),
    "forest.fit_s": ("s", "lower"),
    "forest.score_s": ("s", "lower"),
    "forest.fit_self_s": ("s", "lower"),
    "forest.score_self_s": ("s", "lower"),
    "evaluation.runs": ("count", "lower"),
    "evaluation.run_self_s": ("s", "lower"),
    "evaluation.auc_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def per_layer_metrics(
    tracer: Tracer, passes: int, artifact_bytes: int, overhead: float
) -> dict[str, float]:
    """Per-pass layer metrics from ``passes`` traced passes."""
    inclusive, own, calls = tracer.totals()
    c = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "dataset.parse_s": own["dataset.parse"],
        "dataset.fields": c["dataset.fields"],
        "dataset.window_s": own["dataset.window"],
        "seeding.spawn_s": own["seeding.spawn"],
        "seeding.spawns": calls["seeding.spawn"],
        "tstree.build_s": own["tstree.build"],
        "tstree.trees": calls["tstree.build"],
        "tstree.leaves": c["tstree.leaves"],
        "hashing.sample_s": own["hashing.sample"],
        "hashing.build_s": own["hashing.build"],
        "hashing.dense_s": own["hashing.dense"],
        "hashing.tables": c["hashing.tables"],
        "density.leaf_s": own["density.leaf"],
        "density.row_s": own["density.row"],
        "density.points": c["density.points"],
        "density.gather_elems": c["density.gather_elems"],
        "forest.fit_s": inclusive["forest.fit"],
        "forest.score_s": inclusive["forest.score"],
        "forest.fit_self_s": own["forest.fit"],
        "forest.score_self_s": own["forest.score"],
        "evaluation.runs": calls["evaluation.auc"],
        "evaluation.run_self_s": own["evaluation.run"],
        "evaluation.auc_s": own["evaluation.auc"],
        "cli.self_s": own["cli"],
        "cli.artifact_bytes": artifact_bytes,
    }
    out = {name: value / passes for name, value in values.items()}
    out["tstree.leaf_len_mean"] = ratio(c["tstree.leaf_len_sum"], c["tstree.leaves"])
    out["hashing.keys_per_table"] = ratio(c["hashing.keys"], c["hashing.tables"])
    out["density.tuple_reuse"] = ratio(c["hashing.leaf_points"], c["hashing.key_tuples"])
    out["trace.overhead"] = overhead
    return {name: out[name] for name in PER_LAYER}
