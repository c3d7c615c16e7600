"""Command-line entry points: run, sweep, synth-data, inspect.

``run`` and ``sweep`` take one flag per :class:`ExperimentConfig` field and
``synth-data`` one per :class:`DatasetSpec` field.  A flag hands its string,
and a ``--vary`` token its text, to :func:`pmfl.config.parse_value`, the
parser a JSON config goes through, so a value reads the same in all three.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import NoReturn

from .atomic import write_json
from .config import ExperimentConfig, load_config, parse_fields
from .data import DatasetSpec, export_csv, synth_dataset
from .harness import _reading, resume_run, run_experiment, run_sweep

# synth-data makes a synthetic set; ``source`` names a CSV to read instead
_SYNTH_FIELDS = [f for f in dataclasses.fields(DatasetSpec) if f.name != "source"]


def _fail(parser: argparse.ArgumentParser, message: str) -> NoReturn:
    """Exit with status 2 and one error line: a value argparse accepted but
    the command refuses.  argparse's own syntax errors print the usage too."""
    parser.exit(2, f"{parser.prog}: error: {message}\n")


def _add_flags(parser: argparse.ArgumentParser, fields) -> None:
    """One optional flag per field; an unset flag leaves the base alone."""
    for f in fields:
        action = argparse.BooleanOptionalAction if f.type == "bool" else "store"
        parser.add_argument("--" + f.name.replace("_", "-"), default=None, action=action,
                            help=f"(default {f.default})")


def _collect_overrides(args: argparse.Namespace, fields) -> dict:
    return {f.name: v for f in fields if (v := getattr(args, f.name)) is not None}


def _build_config(parser, args) -> ExperimentConfig:
    overrides = _collect_overrides(args, dataclasses.fields(ExperimentConfig))
    try:
        if args.config:
            return load_config(args.config, overrides)
        return ExperimentConfig.from_dict(overrides)
    except (ValueError, OSError) as exc:
        _fail(parser, str(exc))


def _parse_vary(parser, items: list[str]) -> dict:
    """``--vary key=v1,v2,...`` items as a grid of raw tokens for run_sweep;
    a comma inside brackets stays in its value, as in ``[16,8],[32]``."""
    grid = {}
    for item in items:
        key, eq, raw = item.partition("=")
        key = key.strip()
        if not eq:
            _fail(parser, f"--vary needs key=v1,v2,... (got {item!r})")
        if key in grid:
            _fail(parser, f"--vary {key}: given more than once")
        grid[key] = [t.strip() for t in re.split(r",(?![^\[]*\])", raw) if t.strip()]
    return grid


def _cmd_run(parser, args) -> int:
    out = Path(args.out)
    if args.resume:
        if args.config or _collect_overrides(args, dataclasses.fields(ExperimentConfig)):
            _fail(parser, "--resume continues with the recorded config; "
                          "drop the other flags")
    else:
        cfg = _build_config(parser, args)
    try:
        result = resume_run(out) if args.resume else run_experiment(cfg, out)
    except OSError as exc:  # --resume of a run with no manifest or checkpoint, --out a file
        _fail(parser, str(exc))
    except ValueError as exc:  # a diverged run, a failed partition, a bad checkpoint
        print(f"{parser.prog}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    summary = result.summary
    print(f"run complete: {result.rounds_completed} rounds -> {result.out_dir}")
    for key in ("final_train_accuracy", "final_test_accuracy",
                "top5_test_accuracy", "mean_deviation_last_quarter"):
        print(f"  {key}: {summary.get(key)}")
    return 0


def _cmd_sweep(parser, args) -> int:
    base = _build_config(parser, args)
    grid = _parse_vary(parser, args.vary or [])
    try:
        rows = run_sweep(base, grid, args.out)
    except ValueError as exc:  # a bad --vary name or value; no cell has started
        _fail(parser, f"--vary: {exc}")
    except OSError as exc:  # --out names a file
        _fail(parser, str(exc))
    failures = [r for r in rows if r["status"] != "ok"]
    print(f"sweep complete: {len(rows)} cells, {len(failures)} failed -> {args.out}")
    for row in rows:
        cells = ", ".join(f"{k}={row[k]}" for k in sorted(grid))
        if row["status"] == "ok":
            top5 = row["top5_test_accuracy"]
            print(f"  [{row['cell']:03d}] {cells}: "
                  f"top5_test={'n/a' if top5 is None else f'{top5:.4f}'}")
        else:
            print(f"  [{row['cell']:03d}] {cells}: ERROR {row['error']}")
    return 1 if failures else 0


def _cmd_synth_data(parser, args) -> int:
    out = Path(args.out)
    try:
        spec = DatasetSpec(**parse_fields(DatasetSpec, _collect_overrides(args, _SYNTH_FIELDS)))
        train, test = synth_dataset(spec)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:  # a refused setting, --out a file
        _fail(parser, str(exc))
    export_csv(train, out / "train.csv")
    if test.num_samples:
        export_csv(test, out / "test.csv")
    write_json(out / "dataset_meta.json", dataclasses.asdict(spec))
    print(f"wrote {train.num_samples} train rows and {test.num_samples} test rows "
          f"to {out}")
    return 0


def _cmd_inspect(parser, args) -> int:
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        _fail(parser, f"{run_dir} has no manifest.json")
    summary_path = run_dir / "summary.json"
    try:
        manifest = _read_json(manifest_path)
        summary = _read_json(summary_path) if summary_path.exists() else {}
        if not args.json:
            with _reading(manifest_path):
                cfg = manifest["resolved_config"]
                header = [
                    f"run directory : {run_dir}",
                    f"package       : {manifest['package']} {manifest['version']}",
                    f"variant       : {cfg['variant']} (mode {cfg['aggregation_mode']})",
                    f"population    : {cfg['num_nodes']} nodes, {cfg['rounds']} rounds, "
                    f"pattern {cfg['pattern']}",
                    f"model         : {manifest['num_params']} parameters",
                ]
    except ValueError as exc:  # a damaged or incomplete file, named in the message
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"manifest": manifest, "summary": summary},
                         indent=2, sort_keys=True, allow_nan=False))
        return 0
    print("\n".join(header))
    if summary:
        print("summary:")
        for key in sorted(summary):
            print(f"  {key}: {summary[key]}")
    else:
        print("summary       : (run incomplete, no summary.json)")
    return 0


def _read_json(path: Path):
    with open(path) as fh, _reading(path):
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pmfl",
        description="Deterministic federated-learning simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", help="flat JSON config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--resume", action="store_true",
                       help="continue from the checkpoint in --out")
    _add_flags(p_run, dataclasses.fields(ExperimentConfig))

    p_sweep = sub.add_parser("sweep", help="grid of runs over config fields")
    p_sweep.add_argument("--config", help="flat JSON config file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--vary", action="append", metavar="KEY=V1,V2,...",
                         help="field to vary; repeatable")
    _add_flags(p_sweep, dataclasses.fields(ExperimentConfig))

    p_synth = sub.add_parser("synth-data", help="generate a synthetic CSV dataset")
    p_synth.add_argument("--out", required=True)
    _add_flags(p_synth, _SYNTH_FIELDS)

    p_inspect = sub.add_parser("inspect", help="print a run's manifest and summary")
    p_inspect.add_argument("--run", required=True, help="run directory")
    p_inspect.add_argument("--json", action="store_true", help="raw JSON output")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(p_run, args)
    if args.command == "sweep":
        return _cmd_sweep(p_sweep, args)
    if args.command == "synth-data":
        return _cmd_synth_data(p_synth, args)
    return _cmd_inspect(p_inspect, args)


if __name__ == "__main__":
    sys.exit(main())
