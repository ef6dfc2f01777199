#!/usr/bin/env python3
"""Benchmark of the dlde command-line interface.

Runs one workload's ``dlde`` commands in this process, on one thread, by
calling ``dlde.cli.main`` with the inputs ``workloads.py`` generates from the
seed.  Passes repeat for about ``--seconds``; every artifact is checked.

    python3 benchmarks/run.py --workload stress-detect --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median of
fresh imports of ``dlde`` plus a tiny warm-up detect, made at the start and
before every operation), ``wall_s``
(median seconds of one pass), ``peak_rss_mb`` and ``auc`` (mean AUC against
the planted anomalies).  With ``--trace 1`` one untraced pass is followed by
traced passes, and it reports the per-layer metrics of ``tracing.py``.
Human-readable lines come first; the last line of stdout is one JSON object.

An operation fails on a non-zero exit code, an artifact that does not parse
or has the wrong row count, a detect score outside [1, h*N], an anomaly
score outside [0, 1], or artifact bytes that differ from the first pass.
Before any timing, untimed, a small fit is checked against the brute-force
oracle in ``tests/reference.py``; a mismatch ends the run with exit code 1.  Without
the package sources next to this directory the run exits with code 2.
"""

from __future__ import annotations

import os

# One process, one thread: pin native thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import gc
import hashlib
import importlib
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import PER_LAYER, Tracer, per_layer_metrics
from workloads import HASHES, WORKLOADS, Op, unit_scale_dataset, write_labeled

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "tests" / "reference.py"
WORK = Path(".bench_work")  # relative, so artifacts echo the same input paths anywhere
SETUPS = 2  # timed imports plus warm-ups at the start and before every operation
MIN_PASSES = 2


def load_program():
    """Import ``dlde`` afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "dlde" or m.startswith("dlde.")]:
        del sys.modules[name]
    return importlib.import_module("dlde.cli")


def oracle_matches(seed: int) -> bool:
    """A small fit agrees with the brute-force reference in ``tests/``.

    Point densities (integer count sums over integer set sizes) must be
    identical.  Scores average them in another order than the reference,
    so they may differ in the last bits; they must agree within the 1e-12
    the acceptance suite allows.
    """
    import dlde

    spec = importlib.util.spec_from_file_location("dlde_bench_reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    x = np.random.default_rng(seed).normal(size=(12, 10))
    dataset = dlde.LabeledDataset(x, np.zeros(12, dtype=np.int64))
    rows = dataset.subsequences.tolist()
    forest = dlde.fit(dataset, m=3, h=4, seed=seed)
    for model in forest.trees:
        segments = dlde.leaves(model.tree)
        got = np.concatenate(
            [dlde.leaf_point_densities(dataset.subsequences, model.leaf_tables[s])
             for s in segments], axis=1)
        fns = {s: model.leaf_tables[s].fns for s in segments}
        if got.tolist() != reference.tree_point_densities(rows, model.tree, fns):
            return False
    expected = np.asarray(reference.forest_scores(rows, forest))
    return bool(np.abs(dlde.score(forest, dataset).scores - expected).max() <= 1e-12)


def auc_low_is_anomalous(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(an anomaly scores below a normal row), ties counted half."""
    anomalies, normals = scores[labels == 1], np.sort(scores[labels == 0])
    below = np.searchsorted(normals, anomalies, side="left")
    above = normals.size - np.searchsorted(normals, anomalies, side="right")
    ties = normals.size - below - above
    return float((above.sum() + 0.5 * ties.sum()) / (anomalies.size * normals.size))


NUMERIC = {"detect": ("index", "score", "anomaly_score"), "evaluate": ("auc",),
           "sweep": ("mean_auc",)}


def check_artifact(op: Op, text: str) -> tuple[list[str], float | None]:
    """Problems found in one artifact, and the AUC it shows."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config: "):
        return ["no config header"], None
    try:
        json.loads(lines[0][len("# config: "):])
        rows = list(csv.DictReader(lines[1:]))
        columns = {k: np.array([float(r[k]) for r in rows]) for k in NUMERIC[op.kind]}
    except (ValueError, TypeError, KeyError) as exc:
        return [f"unparseable: {exc}"], None
    if len(rows) != op.rows:
        return [f"{len(rows)} rows, expected {op.rows}"], None
    problems = []
    if op.kind == "detect":
        scores, anomaly = columns["score"], columns["anomaly_score"]
        if not np.array_equal(columns["index"], np.arange(op.rows)):
            problems.append("index column is not 0..N-1")
        if not ((scores >= 1) & (scores <= HASHES * op.rows)).all():
            problems.append("score outside [1, h*N]")
        if not ((anomaly >= 0) & (anomaly <= 1)).all():
            problems.append("anomaly_score outside [0, 1]")
        return problems, auc_low_is_anomalous(scores, op.labels)
    aucs = columns[NUMERIC[op.kind][0]]
    if not ((aucs >= 0) & (aucs <= 1)).all():
        problems.append("AUC outside [0, 1]")
    return problems, float(aucs.mean())


def call_cli(cli, argv: tuple[str, ...]) -> int:
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the run goes on; the operation counts as failed
        traceback.print_exc()
        return 1


def warmup_argv(directory: Path, seed: int) -> tuple[str, ...]:
    """A detect on a 40x16 file, run after each fresh import."""
    data = directory / "warmup.csv"
    write_labeled(data, *unit_scale_dataset(np.random.default_rng(seed), 40, 16))
    return ("detect", "--input", str(data), "--output", str(directory / "warmup_out.csv"))


class Run:
    """Passes over one workload's operations, with their checks."""

    def __init__(self, ops: list[Op], warmup: tuple[str, ...]) -> None:
        self.ops = ops
        self.warmup = warmup
        self.cli = None
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first: list[bytes] = []
        self.aucs: list[float] = []

    def set_up(self) -> None:
        """Import ``dlde`` afresh and warm it up, ``SETUPS`` times, each timed."""
        for _ in range(SETUPS):
            started = time.perf_counter()
            self.cli = load_program()
            code = self.cli.main(list(self.warmup))
            self.setups.append(time.perf_counter() - started)
            if code != 0:
                raise RuntimeError(f"warm-up detect exited with {code}")

    def one_pass(self, tracer: Tracer | None = None) -> tuple[float, int]:
        """Run every operation once; returns wall seconds and artifact bytes.

        Untraced, each operation runs on a fresh import, as a separate CLI
        process would, and the set-up samples spread over the run like the
        operations do.  Traced passes keep the instrumented modules.
        """
        seconds, written = 0.0, 0
        first_pass = not self.first
        for i, op in enumerate(self.ops):
            if tracer is None:
                self.set_up()
            gc.collect()  # start without garbage left by earlier work
            started = time.perf_counter()
            span = tracer.start_op("cli") if tracer else None
            try:
                code = call_cli(self.cli, op.argv)
            finally:
                if tracer:
                    tracer.close(span)
            seconds += time.perf_counter() - started
            self.attempted += 1
            data = op.output.read_bytes() if op.output.exists() else b""
            op.output.unlink(missing_ok=True)  # a later pass must write it anew
            written += len(data)
            if code != 0:
                problems = [f"exit code {code}"]
            else:
                problems, auc = check_artifact(op, data.decode("utf-8", "replace"))
                if first_pass and auc is not None:
                    self.aucs.append(auc)
            if first_pass:
                self.first.append(data)
            elif data != self.first[i]:
                problems.append("artifact differs from the first pass")
            if problems:
                self.failed += 1
                self.failures += [f"{op.argv[0]} {op.output.name}: {p}" for p in problems]
        return seconds, written

    def passes(self, seconds: float, minimum: int, tracer: Tracer | None = None):
        """Repeat passes until another would end after ``seconds``."""
        started = time.perf_counter()
        walls, written = [], 0
        while len(walls) < minimum or (
            time.perf_counter() - started + statistics.median(walls) <= seconds
        ):
            wall, size = self.one_pass(tracer)
            walls.append(wall)
            written += size
        return walls, written

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for op, data in zip(self.ops, self.first):
            digest.update(op.output.name.encode() + b"\0" + data)
        return digest.hexdigest()


def environment() -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dlde" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"run.py: no dlde sources under {SRC}; run it from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    directory = WORK / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        started = time.perf_counter()
        ops = workload.build(args.seed, directory)
        input_s = time.perf_counter() - started
        run = Run(ops, warmup_argv(directory, args.seed))
        run.set_up()
        if not oracle_matches(args.seed):
            print("run.py: dlde disagrees with the oracle in tests/reference.py",
                  file=sys.stderr)
            return 1
        if args.trace:
            untraced, _ = run.passes(0, 1)
            tracer = Tracer()
            tracer.install()
            try:
                walls, written = run.passes(args.seconds - sum(untraced), 1, tracer)
            finally:
                tracer.uninstall()
            overhead = statistics.median(walls) / statistics.median(untraced) - 1
            values = per_layer_metrics(tracer, len(walls), written, overhead)
            metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}
            spans_path = WORK / "spans" / f"{workload.name}-seed{args.seed}.tsv"
            tracer.write(spans_path)
            for name, value in values.items():
                print(f"{name:24} {value:.6g} {PER_LAYER[name][0]}")
            print(f"spans: {len(tracer.spans)} written to {spans_path}")
            for name, error in tracer.hook_errors.items():
                print(f"trace: counts of {name} missing: {error}", file=sys.stderr)
        else:
            walls, _ = run.passes(args.seconds, MIN_PASSES)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": {"value": statistics.median(run.setups), "unit": "s"},
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
                "auc": {"value": float(np.mean(run.aucs)) if run.aucs else 0.0,
                        "unit": "ratio"},
            }
            for name, m in metrics.items():
                print(f"{name:12} {m['value']:.6g} {m['unit']}")
        print(f"{'fail_ratio':12} {run.failed / run.attempted:.6g} ratio "
              f"({run.failed} of {run.attempted} operations)")
        for failure in run.failures[:10]:
            print(f"failed: {failure}")
        print(f"passes: {len(walls)} of {', '.join(f'{w:.3f}' for w in walls)} s; "
              f"{len(run.setups)} set-ups; inputs generated in {input_s:.2f} s")
        print(f"fingerprint: sha256:{run.fingerprint()}")
        print("env: " + json.dumps(environment()))
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
