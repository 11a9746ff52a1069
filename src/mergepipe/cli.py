"""Command-line front door: generate synthetic deals, run a classification
setup or baseline, or run a hyperparameter search.

Every command writes its artifacts under --out-dir (or next to --out) plus
a run manifest listing them with a config digest and the seed, so any run
can be reproduced exactly.  All artifacts except the manifest (which
records wall time) are byte-identical across reruns with the same inputs
and seed.

Exit codes: 0 success, 1 I/O failure, 2 invalid configuration,
3 pipeline stage failure.
"""

from __future__ import annotations

import argparse
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
from .pipeline import (
    FrameworkConfig,
    hyper_search,
    logit_fields,
    run_config,
)
from .presets import PRESET_NAMES, preset

BASELINES = ("logit", "weighted-logit")
# EvalReport fields that report.json and trials.csv carry at top level
HEADLINE = ("accuracy", "precision", "recall", "f1", "auroc", "aupr")


def _die(code: int, message: str) -> int:
    print(f"mergepipe: error: {message}", file=sys.stderr)
    return code


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
        "artifacts": [str(p.name) for p in artifacts],
        "wall_time_sec": time.perf_counter() - started,
        "version": __version__,
    }
    _write_json(out_dir / "manifest.json", manifest)


def cmd_generate(args) -> int:
    started = time.perf_counter()
    try:
        doc = _read_json(Path(args.config))
        config = GeneratorConfig.from_json(doc)
    except OSError as exc:
        return _die(1, str(exc))
    except json.JSONDecodeError as exc:
        return _die(2, f"config is not valid JSON: {exc}")
    except MergepipeError as exc:
        return _die(2, f"bad generator config: {exc}")
    frame = generate_frame(config, seed=args.seed)
    out = Path(args.out)
    schema_path = out.with_suffix(".schema.json")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        write_deals_csv(out, frame, config.schema())
        write_schema_json(schema_path, config.schema())
    except OSError as exc:
        return _die(1, f"cannot write output: {exc}")
    _write_manifest(out.parent, "generate", doc, args.seed, [out, schema_path], started)
    print(f"wrote {len(frame)} deals to {out}")
    return 0


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


def _split_from_doc(doc: dict) -> SplitSpec:
    split = doc.pop("split", None) or {"train_fraction": 0.8}
    _require_object(split, "split")
    if "cutoff_date" in split:
        return SplitSpec(cutoff_date=dt.date.fromisoformat(split["cutoff_date"]))
    return SplitSpec(train_fraction_override=float(split["train_fraction"]))


def _report_doc(in_sample, out_of_sample, valid_report) -> dict:
    doc = {name: getattr(out_of_sample, name) for name in HEADLINE + ("threshold",)}
    doc.update(in_sample=in_sample.to_json(), out_of_sample=out_of_sample.to_json())
    if valid_report is not None:
        doc["validation"] = valid_report.to_json()
    return doc


def cmd_run(args) -> int:
    started = time.perf_counter()
    if args.baseline and (args.framework or args.preset):
        return _die(2, "--baseline cannot be combined with --framework/--preset")
    if not (args.baseline or args.framework or args.preset):
        return _die(2, "choose one of --framework / --baseline / --preset")
    try:
        deals, schema = _load_dataset(args)
    except OSError as exc:
        return _die(1, str(exc))
    except MergepipeError as exc:
        return _die(2, f"cannot load data: {exc}")

    try:
        config_doc = _read_json(Path(args.config)) if args.config else {}
        split_spec = _split_from_doc(config_doc)
        if args.preset:
            config = preset(args.preset, seed=args.seed if args.seed is not None else 0)
            if args.framework and config.framework != args.framework:
                return _die(2, f"preset {args.preset!r} is a {config.framework} setup, "
                               f"not {args.framework}")
        elif args.baseline:
            # the baseline fixes framework and network; the doc gives the rest
            weighted = args.baseline == "weighted-logit"
            config = FrameworkConfig.from_json(config_doc, **logit_fields(weighted))
        else:
            config = FrameworkConfig.from_json(config_doc)
            if config.framework != args.framework:
                config_doc["framework"] = args.framework
                config = FrameworkConfig.from_json(config_doc)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except OSError as exc:
        return _die(1, str(exc))
    except json.JSONDecodeError as exc:
        return _die(2, f"config is not valid JSON: {exc}")
    except (MergepipeError, KeyError, ValueError) as exc:
        return _die(2, f"invalid run config: {exc}")

    try:
        train, test = temporal_split(deals, split_spec)
        fitted, in_rep, out_rep = run_config(train, test, schema, config)
    except MergepipeError as exc:
        return _die(3, f"pipeline failure [{type(exc).__name__}]: {exc}")

    out_dir = Path(args.out_dir)
    artifacts = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.json"
        _write_json(report_path, _report_doc(in_rep, out_rep, fitted.valid_report))
        artifacts.append(report_path)
        roc_path = out_dir / "roc.csv"
        curve_to_csv(out_rep.roc_points, roc_path, header=("fpr", "tpr"))
        artifacts.append(roc_path)
        pr_path = out_dir / "pr.csv"
        curve_to_csv(out_rep.pr_points, pr_path, header=("recall", "precision"))
        artifacts.append(pr_path)
        model_path = out_dir / "model.json"
        _write_json(model_path, fitted.to_json())
        artifacts.append(model_path)
    except OSError as exc:
        return _die(1, f"cannot write artifacts: {exc}")
    _write_manifest(out_dir, "run", config.to_json(), config.seed, artifacts, started)
    auroc = "None" if out_rep.auroc is None else f"{out_rep.auroc:.3f}"
    print(f"out-of-sample: accuracy={out_rep.accuracy:.3f} recall={out_rep.recall} auroc={auroc}")
    return 0


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


def cmd_search(args) -> int:
    started = time.perf_counter()
    try:
        deals, schema = _load_dataset(args)
        space_doc = _read_json(Path(args.space))
    except OSError as exc:
        return _die(1, str(exc))
    except (MergepipeError, json.JSONDecodeError) as exc:
        return _die(2, f"cannot load inputs: {exc}")
    try:
        base_doc = space_doc.get("base") or {}
        _require_object(base_doc, "search base")
        split_spec = _split_from_doc(base_doc)
        base = FrameworkConfig.from_json(base_doc)
        space = space_doc.get("space") or {}
        strategy = space_doc.get("strategy", "random")
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
            strategy=strategy,
        )
    except (EmptySpace, BadConfig, KeyError, ValueError) as exc:
        return _die(2, f"invalid search setup: {exc}")
    except MergepipeError as exc:
        return _die(3, f"pipeline failure [{type(exc).__name__}]: {exc}")

    out_dir = Path(args.out_dir)
    artifacts = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        trials_path = out_dir / "trials.csv"
        rows = list(_trial_rows(results, args.objective))
        with open(trials_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        artifacts.append(trials_path)
        winner = results[0]
        report_path = out_dir / "report.json"
        best = winner.objective_value
        doc = {
            "objective": args.objective,
            "objective_value": best if np.isfinite(best) else None,
            "config": winner.config.to_json(),
            "validation": winner.valid_report.to_json(),
        }
        if winner.test_report is not None:
            doc["out_of_sample"] = winner.test_report.to_json()
        _write_json(report_path, doc)
        artifacts.append(report_path)
    except OSError as exc:
        return _die(1, f"cannot write artifacts: {exc}")
    _write_manifest(
        out_dir, "search", {"base": base.to_json(), "space": space}, args.seed, artifacts, started
    )
    print(f"best {args.objective}: {results[0].objective_value:.4f} over {len(results)} trials")
    return 0


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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
