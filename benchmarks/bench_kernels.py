"""Time the hot kernels at the shapes the pipeline runs them.

Masked distance: the numpy gram-trick build, at a bulk shape and at the
serving shape score-stream runs (1 and 64 query rows against the 4000 x 20
reference matrix of a fitted f1 model), there with the reference-side terms
prepared on every call and once, as ``ImputerModel`` holds them.  LSTM: the
two cells the seq-small workload runs at T=121, batch 64 -- the f3
classifier's tanh cell with hidden 8 and the f2 autoencoder's sigmoid cell
with hidden 5 -- each timed forward alone and as a forward+backward round
trip.

Run: python benchmarks/bench_kernels.py [--refs 3000] [--seq 121] [--batch 64] [--repeat 5]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from mergepipe import kernels

# (label, hidden, sigmoid_candidate) of the two LSTM cells seq-small runs
LSTM_CELLS = (("f3 classifier, tanh", 8, False), ("f2 autoencoder, sigmoid", 5, True))


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
    qv = rng.normal(size=(n_refs // 2, n_cols))
    rm = rng.random(rv.shape) > 0.2
    qm = rng.random(qv.shape) > 0.2
    inv_scale = 1.0 / (0.5 + rng.random(n_cols))

    t_np = timeit(lambda: kernels.masked_sqdist(qv, qm, rv, rm, inv_scale, n_cols), repeat)
    return [("numpy (gram trick)", t_np)]


# (query rows, reference rows, columns) of score-stream's 1- and 64-deal requests
SERVING_SHAPES = ((1, 4000, 20), (64, 4000, 20))


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


def bench_lstm(seq_len, batch, hidden, sigmoid_candidate, repeat):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(seq_len, batch, 1))
    wx = rng.normal(0, 0.3, (1, 4 * hidden))
    wh = rng.normal(0, 0.3, (hidden, 4 * hidden))
    b = rng.normal(0, 0.1, 4 * hidden)
    h0 = np.zeros((batch, hidden))
    dh_all = rng.normal(size=(seq_len, batch, hidden))

    def forward():
        return kernels.lstm_forward(x, wx, wh, b, h0, h0.copy(), sigmoid_candidate)

    def round_trip():
        hs, cs, cache = forward()
        kernels.lstm_backward(x, wx, wh, hs, cs, cache, dh_all, sigmoid_candidate)

    round_trip()  # warm up
    return [("forward", timeit(forward, repeat)), ("forward+backward", timeit(round_trip, repeat))]


def show(title, rows, steps=None):
    print(f"\n{title}")
    for name, seconds in rows:
        per_step = f"   {seconds * 1e6 / steps:7.1f} us/step" if steps else ""
        print(f"  {name:<28s} {seconds * 1e3:9.2f} ms{per_step}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--refs", type=int, default=3000, help="reference rows for distances")
    parser.add_argument("--cols", type=int, default=52)
    parser.add_argument("--seq", type=int, default=121, help="sequence length for the LSTM")
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    show(
        f"masked pairwise sqdist ({args.refs // 2}x{args.refs}, {args.cols} cols)",
        bench_masked_sqdist(args.refs, args.cols, args.repeat),
    )
    show("masked pairwise sqdist, serving shapes (20 cols)",
         bench_masked_sqdist_serving(args.repeat))
    for label, hidden, sigmoid_candidate in LSTM_CELLS:
        show(
            f"lstm {label} (T={args.seq}, batch={args.batch}, hidden={hidden})",
            bench_lstm(args.seq, args.batch, hidden, sigmoid_candidate, args.repeat),
            steps=args.seq,
        )


if __name__ == "__main__":
    main()
