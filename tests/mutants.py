"""Source mutants that the test suite must kill.

Each entry is one deliberate fault: the file it goes in, the exact text it
replaces (which occurs once in that file), the text put in its place, and
what it breaks.  ``tests/test_mutants.py`` checks that every entry still
applies to the source; this script applies each one to a fresh copy of the
working tree, outside the repository, and runs the suite there, all but
this table's own check::

    python tests/mutants.py [--only NAME]

It first runs the unmutated copy, which must pass, then prints each mutant
as killed or survived with its seconds, and exits 1 if any survives.  A
mutant is a fault only if some input tells it apart; one found equivalent
is removed, not kept as a known survivor.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = (".git", ".hypothesis", ".bench_work", ".pytest_cache", "__pycache__")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    breaks: str


MUTANTS = (
    Mutant("score-no-check", "src/dlde/forest.py",
           "if not np.array_equal(dataset.subsequences, forest.dataset.subsequences):",
           "if False:",
           "score answers for a matrix the forest was not fitted on"),
    Mutant("score-shape-only", "src/dlde/forest.py",
           "if not np.array_equal(dataset.subsequences, forest.dataset.subsequences):",
           "if dataset.subsequences.shape != forest.dataset.subsequences.shape:",
           "a matrix of the fitted shape with other values is scored"),
    Mutant("score-bytes-equal", "src/dlde/forest.py",
           "if not np.array_equal(dataset.subsequences, forest.dataset.subsequences):",
           "if dataset.subsequences.tobytes() != forest.dataset.subsequences.tobytes():",
           "a copy with -0.0 for 0.0, equal in every value, is refused"),
    Mutant("hlimit-not-admitted", "src/dlde/forest.py",
           'require_int(hlimit, 0, "hlimit")', "int(hlimit)",
           "hlimit=1.5 fits silently and a negative hlimit is not refused"),
    Mutant("constant-scores-zero", "src/dlde/forest.py",
           "return np.full(s.shape, 0.5)", "return np.full(s.shape, 0.0)",
           "constant densities read as wholly normal, not as no evidence"),
    Mutant("hash-draw-untransposed", "src/dlde/forest.py",
           "blocks.append(rng.random((2 * h, len(tree.segments))).T)",
           "blocks.append(rng.random((len(tree.segments), 2 * h)))",
           "leaf o takes the o-th run of 2h doubles, so fit(h=k) drops the prefix of fit(h=K)"),
    Mutant("hash-draw-fresh-generator", "src/dlde/forest.py",
           "blocks.append(rng.random((2 * h, len(tree.segments))).T)",
           "blocks.append(spawn_rng(seed, TREE_STREAM, i).random((2 * h, len(tree.segments))).T)",
           "the hash uniforms replay the doubles that drew the tree's split points"),
    Mutant("run-seeds-ignore-path", "src/dlde/seeding.py",
           'SeedSequence(require_int(seed, 0, "seed"), spawn_key=tuple(path))',
           'SeedSequence(require_int(seed, 0, "seed"))',
           "every run of an experiment gets the same seed"),
    Mutant("streams-keyed-by-first-word", "src/dlde/seeding.py",
           "np.random.SeedSequence(seed, spawn_key=tuple(path)))",
           "np.random.SeedSequence(seed, spawn_key=tuple(path[:1])))",
           "every tree of a forest grows and hashes from the same stream"),
    Mutant("spread-slack-zero", "src/dlde/density.py",
           "slack = 1.0 + (h + 8)", "slack = 0.0 * (h + 8)",
           "rounding on a bucket edge can tip the boundary-search decision"),
    Mutant("spread-bound-without-h", "src/dlde/density.py",
           "(high - low) * reach - h - slack", "(high - low) * reach - slack",
           "the lower bound on key boundaries can pass the true count, skipping a search"),
    Mutant("column-edges-unmerged", "src/dlde/density.py",
           "np.not_equal(totals[by_total[1:]], totals[by_total[:-1]], out=edge[1:])",
           "edge.fill(True)",
           "boundaries at one position in every column stay apart, as empty cells"),
    Mutant("column-proof-strict", "src/dlde/density.py",
           "(k <= above)", "(k < above)",
           "a column position whose value has key k is not proven, so column searches fall back"),
    Mutant("column-counts-unpadded", "src/dlde/density.py",
           "at.T[first] - 1", "at.T[first]",
           "each column's count before a cell edge takes the -inf ahead of its values"),
    Mutant("tn-any-for-all", "src/dlde/density.py",
           "member = member[:, :-1].all(axis=0)", "member = member[:, :-1].any(axis=0)",
           "TN is the union of the candidate sets, not their intersection"),
    Mutant("boundary-share-quarter", "src/dlde/density.py",
           "_BOUNDARY_SHARE = 1 / 8", "_BOUNDARY_SHARE = 1 / 4",
           "leaves with more key boundaries take the boundary search"),
    Mutant("labels-cast-first", "src/dlde/dataset.py",
           "y = np.asarray(self.labels)  # checked as given, then cast",
           "y = np.asarray(self.labels).astype(np.int64)",
           "a label of 0.5 truncates to 0 instead of being refused"),
    Mutant("znormalize-no-tiny-rescale", "src/dlde/dataset.py",
           "out[tiny] /= np.abs(out[tiny]).max(axis=1, keepdims=True)",
           "out[tiny] /= 1.0",
           "rows whose variance underflows are not scaled to unit deviation"),
    Mutant("separator-prefers-comma", "src/dlde/dataset.py",
           'return "\\t" if "\\t" in line else ","',
           'return "," if "," in line else "\\t"',
           "a tab-separated line with a comma inside a field splits on commas"),
    Mutant("temp-file-kept", "src/dlde/cli.py",
           "tmp.unlink(missing_ok=True)", "pass",
           "a failed write leaves its temporary file beside the output"),
    Mutant("memory-error-not-caught", "src/dlde/cli.py",
           "except MemoryError as exc:", "except OverflowError as exc:",
           "running out of memory ends in a traceback, not exit 1"),
    Mutant("header-extras-first", "src/dlde/cli.py",
           '**{k: v for k, v in vars(args).items() if k not in ("output", "handler")}, **extra}',
           '**extra, **{k: v for k, v in vars(args).items() if k not in ("output", "handler")}}',
           "the artifact header's key order, and so every artifact byte"),
    Mutant("sweep-repeats-column-from-values", "src/dlde/cli.py",
           "r.std_auc, len(r.aucs))", "r.std_auc, len(values))",
           "a sweep row's repeats column counts the swept values, not its AUCs"),
    Mutant("auc-ties-not-half", "src/dlde/evaluation.py",
           "(below.sum() + 0.5 * ties.sum())", "(below.sum() + 0.0 * ties.sum())",
           "tied scores across classes are not counted half"),
    Mutant("sweep-fits-first-value", "src/dlde/evaluation.py",
           "**{**params, param: v}", "**{**params, param: values[0]}",
           "every value of an h sweep is fitted with the first one"),
    Mutant("sweep-repeats-refitted", "src/dlde/evaluation.py",
           "seed=run_seed)) for v in aucs)", "seed=run_seed)) for v in values)",
           "a repeated h value is fitted again and its AUCs appended twice a run"),
    Mutant("m-prefix-over-max", "src/dlde/evaluation.py",
           "((m, acc / m) for m", "((m, acc / max(values)) for m",
           "each m of a sweep is scored as its prefix sum over max(values) trees"),
    Mutant("four-rows-admitted", "src/dlde/hashing.py",
           "if n <= 4:", "if n <= 3:",
           "a 4-row dataset samples widths from an empty range"),
    Mutant("offset-from-width-uniform", "src/dlde/hashing.py",
           'fns["offset"] = 0.0 + fns["width"] * u[..., 1::2]',
           'fns["offset"] = 0.0 + fns["width"] * u[..., 0::2]',
           "each offset draws the width's uniform, not its own"),
    Mutant("float-integers-admitted", "src/dlde/errors.py",
           "number = minimum - 1", "number = int(value)",
           "m=2.5 and seed=1.0 are taken as integers"),
    Mutant("leaf-at-slimit-split", "src/dlde/tstree.py",
           "if end - start + 1 <= slimit or", "if end - start + 1 < slimit or",
           "a segment of exactly slimit columns is split again"),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Write ``mutant`` into the tree at ``root``.

    Raises:
        ValueError: its old text does not occur exactly once in its file.
    """
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def suite_fails(mutant: Mutant | None) -> tuple[bool, float]:
    """Run ``pytest -x -q tests`` on a fresh copy of the working tree with
    ``mutant`` applied (none for the unmutated copy); whether it failed, and
    the seconds it took.

    The copy's own ``tests/test_mutants.py`` is left out: it checks that each
    old text is in the source, so it fails on every mutated copy and would
    count a mutant as killed whether or not any real test catches it."""
    work = Path(tempfile.mkdtemp(prefix="dlde-mutant-"))
    try:
        tree = work / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*SKIPPED))
        if mutant is not None:
            apply(mutant, tree)
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutants.py", "tests"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return proc.returncode != 0, time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", metavar="NAME", help="run the one mutant of this name")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.name)]
    if not chosen:
        parser.error(f"no mutant named {args.only!r}")

    failed, seconds = suite_fails(None)
    if failed:
        print(f"the unmutated suite fails ({seconds:.1f}s); no mutant can be judged")
        return 2
    survived = []
    for mutant in chosen:
        killed, seconds = suite_fails(mutant)
        print(f"{'killed' if killed else 'SURVIVED':8} {seconds:6.1f}s  {mutant.name}: "
              f"{mutant.breaks}", flush=True)
        if not killed:
            survived.append(mutant.name)
    print(f"{len(chosen) - len(survived)} killed, {len(survived)} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
