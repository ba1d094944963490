"""Command-line entry point.

Subcommands: generate, validate, score, baseline, stats, catalog-dump.

Exit codes:
    0  success
    2  usage error (argparse)
    3  data error (malformed manifest/dataset/prediction file, missing pose)
    4  validation mismatch
    5  I/O error
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from ._version import __version__
from .dataset import (
    GenerationConfig,
    _replacing,
    generate_dataset,
    label_stats,
)
from .discretize import OPTION_LABELS_BY_KIND
from .errors import HandMcqError, ParseError
from .evaluate import load_predictions, random_baseline, score
from .oracle import validate_dataset
from .skeleton import (
    KINDS,
    NUM_JOINTS,
    catalog,
    joint_display_name,
)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_MISMATCH = 4
EXIT_IO = 5


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handmcq",
        description="Generate and score spatial-reasoning MCQs from 3D hand joints.",
    )
    parser.add_argument("--version", action="version", version=f"handmcq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an MCQ dataset from a pose manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=GenerationConfig.seed)
    p.add_argument("--samples-per-type", type=int, default=GenerationConfig.per_type_samples)
    p.add_argument("--config", help="JSON config file; its values override flags")
    # One worker per CPU this process may run on, not per CPU installed.
    p.add_argument("--jobs", type=_positive_int, default=len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
                   help="parallel workers (output bytes are identical for any value)")

    p = sub.add_parser("validate", help="replay every question against the manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="JSON generation or threshold config whose thresholds "
                                    "to validate against (defaults to the dataset header's)")

    p = sub.add_parser("score", help="score a prediction file against a gold dataset")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--calibration-bins", type=_positive_int, default=None)
    p.add_argument("--report", help="write the full machine-readable report here")

    p = sub.add_parser("baseline", help="uniform random-guess metrics on a gold dataset")
    p.add_argument("--gold", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--report")

    p = sub.add_parser("stats", help="ground-truth label frequencies of a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--json", action="store_true", dest="as_json")

    sub.add_parser("catalog-dump", help="print the joint and descriptor catalogs")

    return parser


def _load_config_object(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    # bytes that are not UTF-8, invalid JSON, or JSON nested too deep to parse
    except (ValueError, RecursionError) as e:
        raise ValueError(f"{path}: {e}") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return loaded


def _refuse_to_overwrite(out, *inputs) -> None:
    """Raises OSError before anything is written when the output path names
    the same file as one of the inputs (None inputs are skipped)."""
    if out is None:
        return
    for path in filter(None, inputs):
        try:
            same = os.path.samefile(out, path)
        except OSError:
            continue  # a missing output replaces nothing; a missing input fails when read
        if same:
            raise OSError(f"{out}: output would replace the input {path}")


def _load_generation_config(args) -> GenerationConfig:
    cfg_dict = {
        "seed": args.seed,
        "per_type_samples": args.samples_per_type,
    }
    if args.config:
        cfg_dict.update(_load_config_object(args.config))
    return GenerationConfig.from_dict(cfg_dict)


def _cmd_generate(args) -> int:
    _refuse_to_overwrite(args.out, args.manifest, args.config)
    cfg = _load_generation_config(args)
    summary = generate_dataset(args.manifest, cfg, args.out, jobs=args.jobs)
    print(json.dumps(summary.to_dict(), sort_keys=True))
    return EXIT_OK


def _cmd_validate(args) -> int:
    thresholds = None
    if args.config:
        loaded = _load_config_object(args.config)
        # An object that shares no key with a generation config is a bare
        # thresholds object.
        if loaded.keys().isdisjoint(f.name for f in dataclasses.fields(GenerationConfig)):
            loaded = {"thresholds": loaded}
        thresholds = GenerationConfig.from_dict(loaded).thresholds
    report = validate_dataset(args.manifest, args.dataset, thresholds=thresholds)
    print(f"questions: {report.total}  mismatches: {len(report.mismatches)}  "
          f"skipped: {len(report.skipped)}")
    for mismatch in report.mismatches:
        print(f"MISMATCH {mismatch['question_id']}: stored "
              f"{mismatch['expected_category']!r} but oracle says "
              f"{mismatch['oracle_category']!r}")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _report(args, compute) -> int:
    """Print the report `compute()` returns, after writing its JSON form to
    `--report` through `_replacing`. The path is checked before `compute`
    reads any input; a report that cannot be written prints nothing."""
    with (_replacing(args.report) if args.report else contextlib.nullcontext()) as tmp_path:
        report = compute()
        if tmp_path:
            with open(tmp_path, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    print(report.format_text())
    for kind, matrix in sorted(report.confusion.items()):
        print(f"\nconfusion [{kind}] (rows = gold, columns = predicted)")
        labels = list(OPTION_LABELS_BY_KIND[kind])
        rows = {g: [f"{matrix[g][p]:.6g}" for p in labels] for g in labels}
        # Every cell keeps at least one space before it.
        width = max(max(len(lb) for lb in labels) + 2,
                    max(len(cell) for row in rows.values() for cell in row) + 1)
        print(" " * width + "".join(f"{lb:>{width}}" for lb in labels))
        for g, row in rows.items():
            print(f"{g:>{width}}" + "".join(f"{cell:>{width}}" for cell in row))
    if args.report:
        print(f"\nreport written to {args.report}")
    return EXIT_OK


def _cmd_score(args) -> int:
    _refuse_to_overwrite(args.report, args.gold, args.pred)
    return _report(args, lambda: score(args.gold, load_predictions(args.pred),
                                       calibration_bins=args.calibration_bins))


def _cmd_baseline(args) -> int:
    _refuse_to_overwrite(args.report, args.gold)
    return _report(args, lambda: random_baseline(args.gold, seed=args.seed, trials=args.trials))


def _cmd_stats(args) -> int:
    stats = label_stats(args.dataset)
    if args.as_json:
        print(json.dumps(stats, indent=2))
        return EXIT_OK
    for kind in KINDS:
        counts = stats[kind]
        by_freq = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        cells = ", ".join(f"{label} ({count:,})" for label, count in by_freq)
        print(f"{kind:<10} {cells}")
    return EXIT_OK


def _cmd_catalog_dump(args) -> int:
    print(f"joints ({NUM_JOINTS}):")
    for j in range(NUM_JOINTS):
        print(f"  {j:2d}  {joint_display_name(j)}")
    for kind in KINDS:
        targets = catalog(kind)
        print(f"\n{kind} targets ({len(targets)}):")
        for t in targets:
            if t.object is None:
                print(f"  {joint_display_name(t.subject)}")
            else:
                print(f"  {joint_display_name(t.subject)}  vs.  {joint_display_name(t.object)}")
    total = sum(len(catalog(k)) for k in KINDS)
    print(f"\ntotal targets: {total}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "score": _cmd_score,
    "baseline": _cmd_baseline,
    "stats": _cmd_stats,
    "catalog-dump": _cmd_catalog_dump,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # a malformed input line, or a bad config value (out-of-range samples,
    # malformed threshold JSON)
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except HandMcqError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
