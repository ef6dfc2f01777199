#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmarks/spread.py --seeds 10 [--first-seed N] [--workload NAME ...] [--json FILE]

Runs ``run.py`` once per workload and seed, one process after another, with
``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end metric it
prints the median, the quartiles and their distance as a share of the
median, next to the metric's bound; ``fail_ratio`` is failed operations over
attempted ones.  ``--json`` saves every value, so that two sets of runs can
be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    names = [w["name"] for w in BENCH["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    saved = {}
    for workload in args.workload or names:
        results = [
            run_once(workload, seed, BENCH["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, fail_ratio {failed / attempted:.4g} ratio "
              f"({failed} of {attempted}), all correct: {all(r['correct'] for r in results)}")
        saved[workload] = {}
        for metric in BENCH["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            saved[workload][metric["name"]] = values
            median = statistics.median(values)
            line = f"  {metric['name']:12} median {median:.6g} {metric['unit']}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += (f"  quartiles {q1:.6g}..{q3:.6g}  spread {(q3 - q1) / median:.4f}"
                         f" (bound {metric['bound']})")
            print(line, flush=True)
    if args.json:
        args.json.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
