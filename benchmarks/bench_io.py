"""Time the deal data I/O at the paper shape: in-process ``mergepipe
generate`` and ``load_deals_csv`` of the CSV it writes.

The shape is the README generator config: 5000 deals, 20 numeric and 10
categorical columns, a 121-day sentiment path and 5% missing cells, at seed
7.  ``generate`` runs through ``cli.main`` into a temporary directory, as
perfbench's set-up runs it; the load reads that CSV back.  Every row is the
best of ``--repeat`` calls.  The rows, the shape and the provenance (Python,
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

from mergepipe.cli import main as cli_main
from mergepipe.dataset import load_deals_csv, load_schema_json

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
        return [("generate", generate_s), ("load_deals_csv", load_s)], data.stat().st_size


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deals", type=int, default=5000)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--label", default="", help="free text naming the entry")
    args = parser.parse_args()

    rows, csv_bytes = bench_io(args.deals, args.repeat)
    rows = show(f"deal CSV I/O ({args.deals} deals, {csv_bytes / 1e6:.1f} MB)", rows)
    shape = {"deals": args.deals, **PAPER_SHAPE, "seed": SEED, "csv_bytes": csv_bytes,
             "repeat": args.repeat}
    out = Path(__file__).resolve().parent.parent / "BENCH_io.json"
    append_entry(out, "benchmarks/bench_io.py",
                 {"label": args.label, "provenance": provenance(), "shape": shape, "rows": rows})
    print(f"\nappended to {out}")


if __name__ == "__main__":
    main()
