"""Time the data and model I/O at the paper shape: in-process ``mergepipe
generate``, ``load_deals_csv`` of the CSV it writes, and writing and
reloading the ``model.json`` of an f1 fit on it.

The shape is the README generator config: 5000 deals, 20 numeric and 10
categorical columns, a 121-day sentiment path and 5% missing cells, at seed
7.  ``generate`` runs through ``cli.main`` into a temporary directory, as
perfbench's set-up runs it; the load reads that CSV back.  The model is
``f1/smote-nn-f1`` at seed 1, fitted once on the first 80% of the deals by
date.  Its write row is ``FittedPipeline.to_json`` plus the dump ``mergepipe
run`` makes; its cold-start row loads that ``model.json`` with
``FittedPipeline.from_json`` and scores one test deal.  A source tree without
the loader times the write row only.  Every row is the best of ``--repeat``
calls.  The rows, the shape and the provenance (Python,
numpy, BLAS threads, CPU count, and the git commit of the ``mergepipe``
source that was timed) are appended as one entry to ``BENCH_io.json`` at the
repository root; ``--label`` names the entry.

Run: python benchmarks/bench_io.py [--deals 5000] [--repeat 5] [--label TEXT]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

# bench_kernels fixes BLAS to one thread, as perfbench does, before numpy loads
from bench_kernels import append_entry, provenance, show, timeit

from mergepipe import cli
from mergepipe.cli import main as cli_main
from mergepipe.dataset import SplitSpec, load_deals_csv, load_schema_json, temporal_split
from mergepipe.pipeline import FittedPipeline, fit_pipeline
from mergepipe.presets import preset

# the README walkthrough's generator config, without n_deals
PAPER_SHAPE = {"cancel_rate": 0.2, "n_numeric": 20, "n_categorical": 10,
               "levels_per_categorical": 3, "sentiment_length": 121, "missing_rate": 0.05,
               "signal_strength": 2.0, "sentiment_signal": 0.5}
SEED = 7


def bench_io(n_deals, repeat):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "gen.json"
        config.write_text(json.dumps({"n_deals": n_deals, **PAPER_SHAPE}))
        data = Path(tmp) / "deals.csv"
        argv = ["generate", "--config", str(config), "--seed", str(SEED), "--out", str(data)]

        def generate():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main(argv) != 0:
                    raise RuntimeError("generate failed")

        generate_s = timeit(generate, repeat)
        schema = load_schema_json(data.with_suffix(".schema.json"))
        load_s = timeit(lambda: load_deals_csv(data, schema), repeat)
        csv_rows = [("generate", generate_s), ("load_deals_csv", load_s)]
        model_rows = bench_model_io(Path(tmp), load_deals_csv(data, schema), schema, repeat)
        return csv_rows, model_rows, data.stat().st_size


def bench_model_io(tmp, deals, schema, repeat):
    train, test = temporal_split(deals, SplitSpec(train_fraction_override=0.8))
    fitted = fit_pipeline(train, schema, preset("f1/smote-nn-f1", seed=1))
    model = tmp / "model.json"
    write_s = timeit(lambda: cli._write_json(model, fitted.to_json()), repeat)
    rows = [("to_json + dump", write_s)]
    if hasattr(FittedPipeline, "from_json"):
        def cold_start():
            with open(model) as fh:
                FittedPipeline.from_json(json.load(fh)).scores(test[:1])

        rows.append(("load + score one deal", timeit(cold_start, repeat)))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deals", type=int, default=5000)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--label", default="", help="free text naming the entry")
    args = parser.parse_args()

    csv_rows, model_rows, csv_bytes = bench_io(args.deals, args.repeat)
    rows = show(f"deal CSV I/O ({args.deals} deals, {csv_bytes / 1e6:.1f} MB)", csv_rows)
    rows += show("f1/smote-nn-f1 model.json I/O", model_rows)
    shape = {"deals": args.deals, **PAPER_SHAPE, "seed": SEED, "csv_bytes": csv_bytes,
             "model": "f1/smote-nn-f1, seed 1, train_fraction 0.8", "repeat": args.repeat}
    out = Path(__file__).resolve().parent.parent / "BENCH_io.json"
    append_entry(out, "benchmarks/bench_io.py",
                 {"label": args.label, "provenance": provenance(), "shape": shape, "rows": rows})
    print(f"\nappended to {out}")


if __name__ == "__main__":
    main()
