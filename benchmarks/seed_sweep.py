"""Fit one framework's ``smote-nn-f1`` preset over preset seeds 0-11 at the
paper shape and record how each fit trains and scores.

The data is the README walkthrough's: ``mergepipe generate`` with the README
generator config (5000 deals) at seed 7, written to a temporary CSV and read
back, then split 80/20 by date as ``mergepipe run`` splits it.  Each preset
seed is fitted in this process on one BLAS thread and scored on the test
split.  Per seed the entry records the test AUROC and recall, the classifier
epochs run, and its first-epoch and best validation loss; for f2 it also
records the autoencoder's reconstruction ratio: the mean Euclidean distance
of its reconstructions of the training paths over that of the per-step mean
path, so a ratio below 1 means the embedding carries more than a constant.
The rows, the shape and the provenance of ``bench_io.py`` are appended as
one entry to ``BENCH_quality.json`` at the repository root; ``--label``
names the entry.

Run: python benchmarks/seed_sweep.py --framework {f1,f2,f3} [--label TEXT]
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

# bench_kernels fixes BLAS to one thread, as perfbench does, before numpy loads
from bench_kernels import append_entry, provenance
from bench_io import PAPER_SHAPE, SEED

import numpy as np

from mergepipe import cli
from mergepipe.dataset import (
    SplitSpec, load_deals_csv, load_schema_json, sentiment_matrix, temporal_split,
)
from mergepipe.neural.autoencoder import SequenceAutoencoder
from mergepipe.pipeline import fit_pipeline
from mergepipe.presets import preset

N_DEALS = 5000
TRAIN_FRACTION = 0.8
PRESET_SEEDS = range(12)


def paper_split():
    """(train, test, schema) of the README walkthrough data."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "gen.json"
        config.write_text(json.dumps({"n_deals": N_DEALS, **PAPER_SHAPE}))
        data = Path(tmp) / "deals.csv"
        argv = ["generate", "--config", str(config), "--seed", str(SEED), "--out", str(data)]
        if cli.main(argv) != 0:
            raise RuntimeError("generate failed")
        schema = load_schema_json(data.with_suffix(".schema.json"))
        deals = load_deals_csv(data, schema)
    train, test = temporal_split(deals, SplitSpec(train_fraction_override=TRAIN_FRACTION))
    return train, test, schema


def reconstruction_ratio(autoencoder, sequences):
    recon, _ = SequenceAutoencoder(autoencoder.spec).forward(autoencoder.params, sequences)
    distance = np.linalg.norm(recon - sequences, axis=1).mean()
    return float(distance / np.linalg.norm(sequences.mean(axis=0) - sequences, axis=1).mean())


def sweep_seed(name, seed, train, test, schema):
    fitted = fit_pipeline(train, schema, preset(name, seed=seed))
    report = fitted.evaluate_on(test)
    valid = [entry["valid_loss"] for entry in fitted.trace]
    row = {"seed": seed, "auroc": report.auroc, "recall": report.recall,
           "epochs": len(fitted.trace), "first_valid_loss": valid[0],
           "best_valid_loss": min(valid)}
    if fitted.autoencoder is not None:
        row["reconstruction_ratio"] = reconstruction_ratio(
            fitted.autoencoder, sentiment_matrix(train, schema))
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--framework", choices=("f1", "f2", "f3"), required=True)
    parser.add_argument("--label", default="", help="free text naming the entry")
    args = parser.parse_args()

    name = f"{args.framework}/smote-nn-f1"
    train, test, schema = paper_split()
    rows = []
    print(f"{name}: seed  auroc   recall  epochs  first_valid  best_valid  recon_ratio")
    for seed in PRESET_SEEDS:
        row = sweep_seed(name, seed, train, test, schema)
        rows.append(row)
        ratio = row.get("reconstruction_ratio")
        print(f"  {seed:4d}  {row['auroc']:.4f}  {row['recall']:.4f}  {row['epochs']:6d}"
              f"  {row['first_valid_loss']:11.4f}  {row['best_valid_loss']:10.4f}"
              + ("" if ratio is None else f"  {ratio:11.4f}"), flush=True)
    shape = {"deals": N_DEALS, **PAPER_SHAPE, "data_seed": SEED,
             "train_fraction": TRAIN_FRACTION, "preset": name}
    out = Path(__file__).resolve().parent.parent / "BENCH_quality.json"
    append_entry(out, "benchmarks/seed_sweep.py",
                 {"label": args.label, "provenance": provenance(), "shape": shape, "rows": rows})
    print(f"\nappended to {out}")


if __name__ == "__main__":
    main()
