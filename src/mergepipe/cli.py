"""Command-line front door: generate synthetic deals, run a classification
setup or baseline, or run a hyperparameter search.

Every command writes its artifacts under --out-dir (or next to --out) plus
a run manifest listing them with a config digest and the seed, so any run
can be reproduced exactly.  All artifacts except the manifest (which
records wall time) are byte-identical across reruns with the same inputs
and seed.

Exit codes: 0 success, 1 I/O failure, 2 invalid configuration or input,
3 pipeline stage failure.  ``_phase`` alone maps errors onto them, so every
command reports the same error with the same code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime as dt
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .codec import Json
from .dataset import (
    GeneratorConfig,
    SplitSpec,
    generate_frame,
    load_deals_cached,
    load_schema_json,
    temporal_split,
    write_deals_csv,
    write_schema_json,
)
from .errors import BadConfig, EmptySpace, MergepipeError
from .metrics import curve_to_csv
from .pipeline import FrameworkConfig, hyper_search, logit_fields, run_config
from .presets import PRESET_NAMES, preset

BASELINES = ("logit", "weighted-logit")
# EvalReport fields that report.json and trials.csv carry at top level
HEADLINE = ("accuracy", "precision", "recall", "f1", "auroc", "aupr")


class _Exit(Exception):
    """Ends a command; its args are the exit code and the message main prints."""


@contextlib.contextmanager
def _phase(label: str, decoding: bool = False):
    """Map an error raised in the body onto its exit code: an OSError exits 1,
    BadConfig and EmptySpace exit 2, any other library error exits 2 while
    inputs are decoded and 3 while a stage runs.  KeyError, ValueError
    (json.JSONDecodeError among them) and TypeError exit 2 while decoding and
    propagate elsewhere, as faults of the program."""
    try:
        yield
    except OSError as exc:
        raise _Exit(1, f"{label}: {exc}") from exc
    except (MergepipeError, KeyError, ValueError, TypeError) as exc:
        if decoding or isinstance(exc, (BadConfig, EmptySpace)):
            raise _Exit(2, f"{label}: {exc}") from exc
        if isinstance(exc, MergepipeError):
            raise _Exit(3, f"pipeline failure [{type(exc).__name__}]: {exc}") from exc
        raise


def _read_json(path: Path) -> dict:
    """The JSON object stored in ``path``; any other JSON value raises BadConfig."""
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path) as fh:
        doc = json.load(fh)
    _require_object(doc, str(path))
    return doc


def _require_object(doc, what: str) -> None:
    if not isinstance(doc, dict):
        raise BadConfig(f"{what} is not a JSON object")


def _digest(doc) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(path: Path, doc) -> None:
    # json.dumps without indent runs the C encoder; json.dump and indent run the Python one
    path.write_text(json.dumps(doc) + "\n")


def _write_manifest(out_dir: Path, command: str, config_doc, seed, artifacts, started) -> None:
    manifest = {
        "command": command,
        "config_digest": _digest(config_doc),
        "seed": seed,
        "artifacts": list(artifacts),
        "wall_time_sec": time.perf_counter() - started,
        "version": __version__,
    }
    _write_json(out_dir / "manifest.json", manifest)


def cmd_generate(args) -> None:
    started = time.perf_counter()
    with _phase("bad generator config", decoding=True):
        doc = _read_json(Path(args.config))
        config = GeneratorConfig.from_json(doc)
    frame = generate_frame(config, seed=args.seed)
    out = Path(args.out)
    schema_path = out.with_suffix(".schema.json")
    with _phase("cannot write output"):
        out.parent.mkdir(parents=True, exist_ok=True)
        write_deals_csv(out, frame, config.schema())
        write_schema_json(schema_path, config.schema())
        _write_manifest(out.parent, "generate", doc, args.seed, [out.name, schema_path.name],
                        started)
    print(f"wrote {len(frame)} deals to {out}")


def _load_dataset(args):
    data_path = Path(args.data)
    if not data_path.exists():
        raise FileNotFoundError(f"data file not found: {data_path}")
    schema_path = Path(args.schema) if args.schema else data_path.with_suffix(".schema.json")
    if not schema_path.exists():
        raise FileNotFoundError(f"schema file not found: {schema_path}")
    schema = load_schema_json(schema_path)
    deals = load_deals_cached(data_path, schema)
    return deals, schema


@dataclasses.dataclass(frozen=True)
class _Split(Json):
    """A ``split`` entry: a cutoff date or a training fraction, not both."""

    cutoff_date: dt.date | None = None
    train_fraction: float = 0.8


def _split_from_doc(doc: dict) -> SplitSpec:
    raw = doc.pop("split", None) or {}
    _require_object(raw, "split")
    split = _Split.from_json(raw)
    if split.cutoff_date is not None:
        if "train_fraction" in raw:
            raise BadConfig("split: give cutoff_date or train_fraction, not both")
        return SplitSpec(split.cutoff_date)
    if not 0.0 < split.train_fraction < 1.0:
        raise BadConfig(f"split.train_fraction must lie in (0, 1), got {split.train_fraction}")
    return SplitSpec(train_fraction_override=split.train_fraction)


def _run_setup(args) -> tuple:
    """The split and config that the run flags and --config select; the
    doc is decoded once, with the flags' framework and network already set."""
    if args.baseline and (args.framework or args.preset):
        raise BadConfig("--baseline cannot be combined with --framework/--preset")
    if not (args.baseline or args.framework or args.preset):
        raise BadConfig("choose one of --framework / --baseline / --preset")
    config_doc = _read_json(Path(args.config)) if args.config else {}
    split_spec = _split_from_doc(config_doc)
    if args.preset:
        config = preset(args.preset)
        if args.framework and config.framework != args.framework:
            raise BadConfig(f"preset {args.preset!r} is a {config.framework} setup, "
                            f"not {args.framework}")
    else:
        # a baseline fixes framework and network; the doc gives the rest
        fields = (logit_fields(args.baseline == "weighted-logit") if args.baseline
                  else {"framework": args.framework})
        config = FrameworkConfig.from_json(config_doc, **fields)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return split_spec, config


def _report_doc(in_sample, out_of_sample, valid_report) -> dict:
    doc = {name: getattr(out_of_sample, name) for name in HEADLINE + ("threshold",)}
    doc.update(in_sample=in_sample.to_json(), out_of_sample=out_of_sample.to_json())
    if valid_report is not None:
        doc["validation"] = valid_report.to_json()
    return doc


def cmd_run(args) -> None:
    started = time.perf_counter()
    with _phase("invalid run config", decoding=True):
        split_spec, config = _run_setup(args)
    with _phase("cannot load data", decoding=True):
        deals, schema = _load_dataset(args)
    with _phase("invalid run config"):
        train, test = temporal_split(deals, split_spec)
        fitted, in_rep, out_rep = run_config(train, test, schema, config)

    out_dir = Path(args.out_dir)
    with _phase("cannot write artifacts"):
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "report.json", _report_doc(in_rep, out_rep, fitted.valid_report))
        curve_to_csv(out_rep.roc_points, out_dir / "roc.csv", header=("fpr", "tpr"))
        curve_to_csv(out_rep.pr_points, out_dir / "pr.csv", header=("recall", "precision"))
        _write_json(out_dir / "model.json", fitted.to_json())
        _write_manifest(out_dir, "run", config.to_json(), config.seed,
                        ["report.json", "roc.csv", "pr.csv", "model.json"], started)
    auroc = "None" if out_rep.auroc is None else f"{out_rep.auroc:.3f}"
    print(f"out-of-sample: accuracy={out_rep.accuracy:.3f} recall={out_rep.recall} auroc={auroc}")


def _trial_rows(results, objective):
    for rank, trial in enumerate(results, start=1):
        yield {
            "rank": rank,
            "trial": trial.trial,
            "objective": objective,
            "objective_value": trial.objective_value,
            **{name: getattr(trial.valid_report, name) for name in HEADLINE},
            "config": json.dumps(trial.config.to_json(), sort_keys=True),
        }


def cmd_search(args) -> None:
    started = time.perf_counter()
    with _phase("cannot load inputs", decoding=True):
        deals, schema = _load_dataset(args)
        space_doc = _read_json(Path(args.space))
    with _phase("invalid search setup", decoding=True):
        base_doc = space_doc.get("base") or {}
        _require_object(base_doc, "search base")
        split_spec = _split_from_doc(base_doc)
        base = FrameworkConfig.from_json(base_doc)
        space = space_doc.get("space") or {}
    with _phase("invalid search setup"):
        train, test = temporal_split(deals, split_spec)
        results = hyper_search(
            train,
            schema,
            space,
            budget=args.budget,
            objective=args.objective,
            seed=args.seed,
            base_config=base,
            test_deals=test,
            strategy=space_doc.get("strategy", "random"),
        )

    winner = results[0]
    best = winner.objective_value
    report = {
        "objective": args.objective,
        "objective_value": best if np.isfinite(best) else None,
        "config": winner.config.to_json(),
        "validation": winner.valid_report.to_json(),
    }
    if winner.test_report is not None:
        report["out_of_sample"] = winner.test_report.to_json()
    rows = list(_trial_rows(results, args.objective))
    out_dir = Path(args.out_dir)
    with _phase("cannot write artifacts"):
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "trials.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        _write_json(out_dir / "report.json", report)
        _write_manifest(out_dir, "search", {"base": base.to_json(), "space": space}, args.seed,
                        ["trials.csv", "report.json"], started)
    print(f"best {args.objective}: {best:.4f} over {len(results)} trials")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mergepipe",
        description="Deal-outcome prediction pipeline (synthetic data, training, search).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a deal universe CSV")
    gen.add_argument("--config", required=True, help="generator config JSON")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="train and evaluate one setup or baseline")
    run.add_argument("--framework", choices=("f1", "f2", "f3"))
    run.add_argument("--baseline", choices=BASELINES)
    run.add_argument("--data", required=True, help="deals CSV")
    run.add_argument("--schema", help="schema JSON (default: <data>.schema.json)")
    run.add_argument("--config", help="run config JSON")
    run.add_argument(
        "--preset", choices=PRESET_NAMES,
        help="named configuration; --config then only supplies the split",
    )
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out-dir", required=True)
    run.set_defaults(func=cmd_run)

    search = sub.add_parser("search", help="hyperparameter search")
    search.add_argument("--data", required=True)
    search.add_argument("--schema", help="schema JSON (default: <data>.schema.json)")
    search.add_argument("--space", required=True, help="JSON with base config and space")
    search.add_argument("--budget", type=int, required=True)
    search.add_argument("--objective", choices=("recall", "accuracy", "f1"), default="recall")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--out-dir", required=True)
    search.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _Exit as exc:
        code, message = exc.args
        print(f"mergepipe: error: {message}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
