"""Benchmark the two hot kernels: numpy masked distance; numba vs numpy LSTM.

Run: python benchmarks/bench_kernels.py [--refs 3000] [--seq 121] [--repeat 5]
The numpy column is what you get with MERGEPIPE_NUMBA=0.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from mergepipe import kernels


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

    t_np = timeit(lambda: kernels.masked_sqdist_numpy(qv, qm, rv, rm, inv_scale, n_cols), repeat)
    return [("numpy (gram trick)", t_np)]


def bench_lstm(seq_len, batch, hidden, repeat):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(seq_len, batch, 1))
    wx = rng.normal(0, 0.3, (1, 4 * hidden))
    wh = rng.normal(0, 0.3, (hidden, 4 * hidden))
    b = rng.normal(0, 0.1, 4 * hidden)
    h0 = np.zeros((batch, hidden))
    dh_all = rng.normal(size=(seq_len, batch, hidden))

    def round_trip(forward, backward):
        hs, cs, zs = forward(x, wx, wh, b, h0, h0.copy(), False)
        backward(x, wx, wh, hs, cs, zs, dh_all, False)

    rows = []
    t_np = timeit(lambda: round_trip(kernels.lstm_forward_numpy, kernels.lstm_backward_numpy), repeat)
    rows.append(("numpy (python loop over t)", t_np))
    if kernels.lstm_forward_numba is not None:
        round_trip(kernels.lstm_forward_numba, kernels.lstm_backward_numba)  # compile
        t_nb = timeit(
            lambda: round_trip(kernels.lstm_forward_numba, kernels.lstm_backward_numba), repeat
        )
        rows.append(("numba", t_nb))
    return rows


def show(title, rows):
    print(f"\n{title}")
    base = rows[0][1]
    for name, seconds in rows:
        speedup = base / seconds
        print(f"  {name:<28s} {seconds * 1e3:9.2f} ms   x{speedup:5.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--refs", type=int, default=3000, help="reference rows for distances")
    parser.add_argument("--cols", type=int, default=52)
    parser.add_argument("--seq", type=int, default=121, help="sequence length for the LSTM")
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--hidden", type=int, default=8)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"numba available: {kernels.NUMBA_AVAILABLE}; active path: "
          f"{'numba' if kernels.NUMBA_ENABLED else 'numpy'}")
    show(
        f"masked pairwise sqdist ({args.refs // 2}x{args.refs}, {args.cols} cols)",
        bench_masked_sqdist(args.refs, args.cols, args.repeat),
    )
    show(
        f"lstm forward+backward (T={args.seq}, batch={args.batch}, hidden={args.hidden})",
        bench_lstm(args.seq, args.batch, args.hidden, args.repeat),
    )


if __name__ == "__main__":
    main()
