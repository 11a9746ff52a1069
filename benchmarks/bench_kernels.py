"""Time the hot kernels at the shapes the pipeline runs them.

Masked distance: the numpy gram-trick build at the block shape the
imputation search runs (``kernels.search_rows(4000)`` query rows against the
4000 x 20 reference matrix of a fitted f1 model, reference block prepared
once) and at the serving shapes score-stream runs (1, 8 and 64 query rows
against the same references), there with the packed reference block
prepared on every call and once, as ``ImputerModel`` holds it.  Top-k:
``kernels.top_k`` with k=5 on distance rows of the same serving and search
block shapes.  SMOTE: the
neighbour table of the 720 minority rows x 40 features an f1 paper-shape fit
oversamples.  LSTM: the one cell at the two widths the seq-small workload
runs at T=121, batch 64 -- the f3 classifier's hidden 8 and the f2
autoencoder's hidden 5 -- each timed forward alone, backward alone on one
forward's states, and as a forward+backward round trip.

BLAS runs on one thread, as in perfbench, fixed before numpy loads.  Every
row is the best of ``--repeat`` calls.  The rows, the shapes and the
provenance (Python, numpy, BLAS threads, CPU count, and the git commit of the
``mergepipe`` source that was timed) are appended as one entry to
``BENCH_kernels.json`` at the repository root; ``--label`` names the entry.

Run: python benchmarks/bench_kernels.py [--refs 4000] [--cols 20] [--seq 121] [--batch 64]
                                        [--repeat 5] [--label TEXT]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from mergepipe import kernels  # noqa: E402
from mergepipe.resample import _neighbour_table  # noqa: E402

# (label, hidden) of the two LSTM widths seq-small runs
LSTM_CELLS = (("f3 classifier", 8), ("f2 autoencoder", 5))


def timeit(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_masked_sqdist(n_refs, n_cols, repeat):
    rng = np.random.default_rng(0)
    rv = rng.normal(size=(n_refs, n_cols))
    qv = rng.normal(size=(kernels.search_rows(n_refs), n_cols))
    rm = rng.random(rv.shape) > 0.2
    qm = rng.random(qv.shape) > 0.2
    inv_scale = 1.0 / (0.5 + rng.random(n_cols))
    prepared = kernels.prepare_reference(rv, rm, inv_scale)

    def block():
        kernels.masked_sqdist(qv, qm, rv, rm, inv_scale, n_cols, reference=prepared)

    return [("one search block", timeit(block, repeat))]


# (query rows, reference rows, columns) of score-stream's 1-, 8- and 64-deal requests
SERVING_SHAPES = ((1, 4000, 20), (8, 4000, 20), (64, 4000, 20))


def bench_masked_sqdist_serving(repeat):
    rng = np.random.default_rng(2)
    rows = []
    for n_query, n_refs, n_cols in SERVING_SHAPES:
        rv = rng.normal(size=(n_refs, n_cols))
        qv = rng.normal(size=(n_query, n_cols))
        rm = rng.random(rv.shape) > 0.05
        qm = rng.random(qv.shape) > 0.05
        inv_scale = 1.0 / (0.5 + rng.random(n_cols))
        prepared = kernels.prepare_reference(rv, rm, inv_scale)

        def per_call():
            kernels.masked_sqdist(qv, qm, rv, rm, inv_scale, n_cols)

        def once():
            kernels.masked_sqdist(qv, qm, rv, rm, inv_scale, n_cols, reference=prepared)

        label = f"{n_query}x{n_refs}"
        rows.append((f"{label}, prepared per call", timeit(per_call, repeat)))
        rows.append((f"{label}, prepared once", timeit(once, repeat)))
    return rows


def bench_top_k(n_refs, repeat):
    """k=5 selection over rows of distinct distances at the serving shapes and
    at one search block of the fit, as the imputer selects neighbours."""
    rng = np.random.default_rng(4)
    rows = []
    for n_query in [shape[0] for shape in SERVING_SHAPES] + [kernels.search_rows(n_refs)]:
        d2 = rng.random((n_query, n_refs))
        rows.append((f"k=5, {n_query}x{n_refs}", timeit(lambda: kernels.top_k(d2, 5), repeat)))
    return rows


# (minority rows, features) of the f1 paper-shape fit's SMOTE input
SMOTE_SHAPE = (720, 40)


def bench_smote_table(repeat):
    minority = np.random.default_rng(3).normal(size=SMOTE_SHAPE)
    return [("k=5 neighbour table", timeit(lambda: _neighbour_table(minority, 5), repeat))]


def bench_lstm(seq_len, batch, hidden, repeat):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(seq_len, batch, 1))
    wx = rng.normal(0, 0.3, (1, 4 * hidden))
    wh = rng.normal(0, 0.3, (hidden, 4 * hidden))
    b = rng.normal(0, 0.1, 4 * hidden)
    h0 = np.zeros((batch, hidden))
    dh_all = rng.normal(size=(seq_len, batch, hidden))

    def forward():
        return kernels.lstm_forward(x, wx, wh, b, h0, h0.copy())

    states = forward()

    def backward():
        kernels.lstm_backward(x, wx, wh, *states, dh_all)

    def round_trip():
        hs, cs, cache = forward()
        kernels.lstm_backward(x, wx, wh, hs, cs, cache, dh_all)

    round_trip()  # warm up
    return [
        ("forward", timeit(forward, repeat)),
        ("backward", timeit(backward, repeat)),
        ("forward+backward", timeit(round_trip, repeat)),
    ]


def show(title, rows, steps=None):
    print(f"\n{title}")
    out = []
    for name, seconds in rows:
        row = {"group": title, "name": name, "ms": round(seconds * 1e3, 4)}
        per_step = ""
        if steps:
            row["us_per_step"] = round(seconds * 1e6 / steps, 3)
            per_step = f"   {row['us_per_step']:7.1f} us/step"
        print(f"  {name:<28s} {seconds * 1e3:9.2f} ms{per_step}")
        out.append(row)
    return out


def provenance():
    """Where the timed numbers come from; the commit is the one holding the
    imported ``mergepipe`` source, marked dirty when that tree has changes."""
    src = Path(kernels.__file__).resolve().parent

    def git(*argv):
        try:
            done = subprocess.run(["git", "-C", str(src), *argv], capture_output=True,
                                  text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        return done.stdout.strip()

    status = git("status", "--porcelain", "--untracked-files=no", ".")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def append_entry(path, benchmark, entry):
    """Append ``entry`` to the JSON file at ``path``, written by script ``benchmark``."""
    doc = json.loads(path.read_text()) if path.exists() else {
        "benchmark": benchmark, "entries": []}
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--refs", type=int, default=4000, help="reference rows for distances")
    parser.add_argument("--cols", type=int, default=20)
    parser.add_argument("--seq", type=int, default=121, help="sequence length for the LSTM")
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--label", default="", help="free text naming the entry")
    args = parser.parse_args()

    rows = show(
        f"masked pairwise sqdist ({kernels.search_rows(args.refs)}x{args.refs}, {args.cols} cols)",
        bench_masked_sqdist(args.refs, args.cols, args.repeat),
    )
    rows += show("masked pairwise sqdist, serving shapes (20 cols)",
                 bench_masked_sqdist_serving(args.repeat))
    rows += show("top-k selection", bench_top_k(args.refs, args.repeat))
    rows += show(f"smote neighbour table ({SMOTE_SHAPE[0]} rows, {SMOTE_SHAPE[1]} cols)",
                 bench_smote_table(args.repeat))
    for label, hidden in LSTM_CELLS:
        rows += show(
            f"lstm {label} (T={args.seq}, batch={args.batch}, hidden={hidden})",
            bench_lstm(args.seq, args.batch, hidden, args.repeat),
            steps=args.seq,
        )
    shape = {"refs": args.refs, "cols": args.cols, "seq": args.seq, "batch": args.batch,
             "repeat": args.repeat}
    out = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    append_entry(out, "benchmarks/bench_kernels.py",
                 {"label": args.label, "provenance": provenance(), "shape": shape, "rows": rows})
    print(f"\nappended to {out}")


if __name__ == "__main__":
    main()
