"""Command-line interface: detect, evaluate and sweep.

Every artifact file starts with the fully resolved configuration, so
any output can be regenerated from its own header.  The header is the
parsed command line: every flag but ``--output``, defaults and seed
included, in declaration order, then the values the run computed.  So a
new flag is echoed without an edit, and every flag value must be a JSON
value.  Files are written atomically (temp file + rename) and the
process exits 0 only when the artifact was completely written.

Exit codes:
    0  success
    2  configuration error (also used by argparse for usage errors)
    3  input file could not be parsed
    4  metric undefined for the input (e.g. single-class labels)
    5  I/O failure, also an input that is a pipe (it is read more than once)
    1  unexpected internal error or out of memory
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import secrets
import sys
import time
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from .dataset import parse_labeled_file, parse_raw_series, window_series, znormalize
from .errors import ConfigurationError, InputFormatError, MetricError
from .evaluation import ExperimentConfig, run_experiment, sweep
from .forest import fit, score

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_METRIC = 4
EXIT_IO = 5

_DELIMITER_NAMES = {"comma": ",", "tab": "\t", "\\t": "\t"}


def _finite_float(raw: str) -> float:
    """A float that is neither NaN nor infinite, which no parsed label is."""
    if not math.isfinite(value := float(raw)):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")
    return value


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """The input, output and model flags every subcommand takes."""
    parser.add_argument("--input", required=True, help="input data file")
    parser.add_argument(
        "--delimiter",
        default=None,
        help="field separator: a single character, 'comma' or 'tab' "
        "(default: auto-detect between comma and tab)",
    )
    parser.add_argument("--output", required=True, help="artifact file to write")
    parser.add_argument("--trees", type=int, default=10, metavar="M", help="ensemble size")
    parser.add_argument(
        "--hashes", type=int, default=10, metavar="H", help="hash functions per leaf"
    )
    parser.add_argument(
        "--slimit", type=int, default=3, help="leaf length threshold for tree growth"
    )
    parser.add_argument(
        "--hlimit",
        type=int,
        default=None,
        help="tree depth cap (default: floor(log2(d)))",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--normalize",
        action="store_true",
        help="z-normalize each subsequence before fitting",
    )
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="artifact format"
    )


def _add_protocol_flags(parser: argparse.ArgumentParser) -> None:
    """The repeated-run protocol flags of evaluate and sweep."""
    parser.add_argument(
        "--anomaly-class",
        type=_finite_float,
        required=True,
        help="label value marking anomalies",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=50,
        help="number of seeded fit/score runs (per parameter value in a sweep)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlde",
        description="Anomaly subsequence detection via random time-split tree "
        "ensembles and dynamic local density estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser(
        "detect", help="score every subsequence of a dataset or windowed raw series"
    )
    _add_common_flags(p_detect)
    p_detect.add_argument(
        "--anomaly-class",
        type=_finite_float,
        default=None,
        help="label value marking anomalies (labeled mode; informational only "
        "for detect)",
    )
    p_detect.add_argument(
        "--subseq-len",
        type=int,
        default=None,
        metavar="S",
        help="treat the input as one raw series and cut it into windows of "
        "length S (default: input is a label-first dataset)",
    )
    p_detect.set_defaults(handler=_run_detect)

    p_eval = sub.add_parser(
        "evaluate", help="repeated-run AUC protocol against ground-truth labels"
    )
    _add_common_flags(p_eval)
    _add_protocol_flags(p_eval)
    p_eval.set_defaults(handler=_run_evaluate)

    p_sweep = sub.add_parser(
        "sweep", help="evaluate repeatedly while varying the tree or hash count"
    )
    _add_common_flags(p_sweep)
    _add_protocol_flags(p_sweep)
    p_sweep.add_argument(
        "--param", choices=("m", "h"), required=True, help="parameter to vary"
    )
    p_sweep.add_argument(
        "--values",
        required=True,
        help="comma-separated list of parameter values, e.g. 1,5,10,25",
    )
    p_sweep.set_defaults(handler=_run_sweep)

    return parser


def _config_echo(args: argparse.Namespace, extra: dict[str, Any]) -> dict[str, Any]:
    """Every parsed flag but ``--output``, in declaration order, then the
    values the run computed; an extra named like a flag takes its place."""
    return {**{k: v for k, v in vars(args).items() if k not in ("output", "handler")}, **extra}


def _render(config: dict[str, Any], columns: list[str], rows: Iterable[tuple],
            fmt: str) -> str:
    """The config echo, then the rows, each holding its cells in column order."""
    if fmt == "json":
        records = [dict(zip(columns, row)) for row in rows]
        return json.dumps({"config": config, "rows": records}, indent=2) + "\n"
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config) + "\n")
    writer = csv.writer(buf, lineterminator="\n")  # str() of a float is its repr()
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _write_atomic(path: str, text: str) -> None:
    """Write ``path`` as ``open(path, "w")`` would, through a symlink too, but
    via a temporary file created exclusively beside the target and renamed
    over it, so the file gets the mode the umask gives.  A path that names a
    directory, such as one ending in a separator, and an existing output
    that is not a regular file (a FIFO, a device, a socket) are refused
    before anything is written."""
    target = Path(os.path.realpath(path))  # the file a symlink names, as open() writes it
    tmp = target.parent / f"{target.name}.{secrets.token_hex(8)}.tmp"
    created = False
    try:
        if os.path.basename(path) in ("", ".", "..") or target.is_dir():  # names a directory
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if target.exists() and not target.is_file():
            raise OSError(f"{path}: the output exists and is not a regular file")
        with open(tmp, "x", encoding="utf-8") as fh:
            created = True  # a FileExistsError must not delete another writer's file
            fh.write(text)
        os.replace(tmp, target)
    except BaseException as exc:
        if created:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            # name the user's path, not the temporary file beside it
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _load_dataset(args: argparse.Namespace, subseq_len: int | None):
    """Read the input of any subcommand: windows of a raw series when
    ``subseq_len`` is given, else a label-first dataset."""
    delimiter = _DELIMITER_NAMES.get(args.delimiter, args.delimiter)  # None stays None
    if subseq_len is not None:
        series = parse_raw_series(args.input, delimiter=delimiter)
        dataset = window_series(series, subseq_len)
    else:
        dataset = parse_labeled_file(
            args.input, anomaly_class=args.anomaly_class, delimiter=delimiter
        )
    if args.normalize:
        dataset = znormalize(dataset)
    return dataset


def _model_params(args: argparse.Namespace) -> dict[str, Any]:
    """The model flags as the keywords of :func:`fit` and ExperimentConfig."""
    return {"m": args.trees, "h": args.hashes, "slimit": args.slimit, "hlimit": args.hlimit}


def _run_detect(args: argparse.Namespace) -> None:
    dataset = _load_dataset(args, args.subseq_len)
    forest = fit(dataset, **_model_params(args), seed=args.seed)
    result = score(forest, dataset)
    config = _config_echo(args, {"hlimit_resolved": forest.hlimit, "n": dataset.n, "d": dataset.d})
    rows = zip(range(dataset.n), result.scores.tolist(), result.anomaly_scores.tolist())
    _write_atomic(args.output, _render(config, ["index", "score", "anomaly_score"], rows, args.format))


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(**_model_params(args), repeats=args.repeats, base_seed=args.seed)


def _run_evaluate(args: argparse.Namespace) -> None:
    dataset = _load_dataset(args, None)
    started = time.perf_counter()
    report = run_experiment(_experiment_config(args), dataset)
    seconds = time.perf_counter() - started
    config = _config_echo(args, {"n": dataset.n, "d": dataset.d,
                                 "mean_auc": report.mean_auc, "std_auc": report.std_auc})
    rows = zip(range(args.repeats), report.seeds, report.aucs)
    _write_atomic(args.output, _render(config, ["run", "seed", "auc"], rows, args.format))
    print(
        f"evaluate: {args.repeats} runs, mean AUC {report.mean_auc:.4f} "
        f"(std {report.std_auc:.4f}), total {seconds:.1f}s",
        file=sys.stderr,
    )


def _parse_values(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigurationError(f"--values must be comma-separated integers, got {raw!r}") from None


def _run_sweep(args: argparse.Namespace) -> None:
    values = _parse_values(args.values)
    reports = sweep(_experiment_config(args), args.param, values, _load_dataset(args, None))
    config = _config_echo(args, {"values": values})
    columns = ["param", "value", "mean_auc", "std_auc", "repeats"]
    rows = [(args.param, v, r.mean_auc, r.std_auc, len(r.aucs)) for v, r in zip(values, reports)]
    _write_atomic(args.output, _render(config, columns, rows, args.format))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except InputFormatError as exc:
        print(f"dlde: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigurationError as exc:
        print(f"dlde: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MetricError as exc:
        print(f"dlde: metric error: {exc}", file=sys.stderr)
        return EXIT_METRIC
    except OSError as exc:
        print(f"dlde: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"dlde: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
