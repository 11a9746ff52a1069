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
oversamples.  LSTM: the three calls seq-small makes at T=121, batch 64 --
the f3 classifier (hidden 8, input width 1) and the f2 encoder (hidden 5,
input width 1), both with a gradient at the last step only, and the f2
decoder (hidden 5, no input) with a gradient at every step -- each timed
forward alone, backward alone (on a fresh copy of one forward's cache,
copied outside the timing) and as a forward+backward round trip.

``--against DIR`` loads ``DIR/mergepipe/kernels.py`` (it imports only
numpy), for instance the ``src`` of a checkout of the parent commit, and
times both trees in ``AGAINST_ROUNDS`` alternating rounds in this one
process, so the box's drift hits both alike; the SMOTE row, which is not in
``kernels.py``, is timed for this tree only.  Each tree is called as its own
training loop calls it: a tree whose ``lstm_backward`` rejects a (B, H)
last-step gradient gets the full (T, B, H) one, zero before T, the decoder's
gradient in (T, B, H) layout and no scratch dict.

BLAS runs on one thread, as in perfbench, fixed before numpy loads.  Every
row is the best of ``--repeat`` calls, and with ``--against`` the median
of the rounds' bests.  The rows, the shapes and the provenance
(Python, numpy, BLAS threads, CPU count, and the git commit of the source
that was timed) are appended as one entry per tree to ``BENCH_kernels.json``
at the repository root; ``--label`` names the entries.

Run: python benchmarks/bench_kernels.py [--refs 4000] [--cols 20] [--seq 121] [--batch 64]
                                        [--repeat 5] [--against DIR] [--label TEXT]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from mergepipe import kernels  # noqa: E402
from mergepipe.resample import _neighbour_table  # noqa: E402

# alternating rounds of a run with --against; a row is the median of their bests
AGAINST_ROUNDS = 8

# (label, hidden, input width, gradient at the last step only) of the three
# LSTM calls seq-small makes
LSTM_CALLS = (
    ("f3 classifier", 8, 1, True),
    ("f2 encoder", 5, 1, True),
    ("f2 decoder", 5, 0, False),
)


def timeit(fn, repeat, setup=None):
    """Best of ``repeat`` calls of ``fn``; with ``setup``, each call is
    ``fn(setup())`` and the setup is not timed."""
    best = float("inf")
    for _ in range(repeat):
        arg = setup() if setup else None
        started = time.perf_counter()
        fn(arg) if setup else fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_masked_sqdist(kern, n_refs, n_cols):
    rng = np.random.default_rng(0)
    rv = rng.normal(size=(n_refs, n_cols))
    qv = rng.normal(size=(kern.search_rows(n_refs), n_cols))
    rm = rng.random(rv.shape) > 0.2
    qm = rng.random(qv.shape) > 0.2
    inv_scale = 1.0 / (0.5 + rng.random(n_cols))
    prepared = kern.prepare_reference(rv, rm, inv_scale)

    def block():
        kern.masked_sqdist(qv, qm, rv, rm, inv_scale, n_cols, reference=prepared)

    return [("one search block", block)]


# (query rows, reference rows, columns) of score-stream's 1-, 8- and 64-deal requests
SERVING_SHAPES = ((1, 4000, 20), (8, 4000, 20), (64, 4000, 20))


def bench_masked_sqdist_serving(kern):
    rng = np.random.default_rng(2)
    cases = []
    for n_query, n_refs, n_cols in SERVING_SHAPES:
        rv = rng.normal(size=(n_refs, n_cols))
        qv = rng.normal(size=(n_query, n_cols))
        rm = rng.random(rv.shape) > 0.05
        qm = rng.random(qv.shape) > 0.05
        inv_scale = 1.0 / (0.5 + rng.random(n_cols))
        prepared = kern.prepare_reference(rv, rm, inv_scale)

        def per_call(qv=qv, qm=qm, rv=rv, rm=rm, inv_scale=inv_scale, n_cols=n_cols):
            kern.masked_sqdist(qv, qm, rv, rm, inv_scale, n_cols)

        def once(qv=qv, qm=qm, rv=rv, rm=rm, inv_scale=inv_scale, n_cols=n_cols,
                 prepared=prepared):
            kern.masked_sqdist(qv, qm, rv, rm, inv_scale, n_cols, reference=prepared)

        label = f"{n_query}x{n_refs}"
        cases.append((f"{label}, prepared per call", per_call))
        cases.append((f"{label}, prepared once", once))
    return cases


def bench_top_k(kern, n_refs):
    """k=5 selection over rows of distinct distances at the serving shapes and
    at one search block of the fit, as the imputer selects neighbours."""
    rng = np.random.default_rng(4)
    cases = []
    for n_query in [shape[0] for shape in SERVING_SHAPES] + [kern.search_rows(n_refs)]:
        d2 = rng.random((n_query, n_refs))
        cases.append((f"k=5, {n_query}x{n_refs}", lambda d2=d2: kern.top_k(d2, 5)))
    return cases


# (minority rows, features) of the f1 paper-shape fit's SMOTE input
SMOTE_SHAPE = (720, 40)


def bench_smote_table():
    minority = np.random.default_rng(3).normal(size=SMOTE_SHAPE)
    return [("k=5 neighbour table", lambda: _neighbour_table(minority, 5))]


def takes_last_step(kern):
    """Whether ``kern.lstm_backward`` accepts the (B, H) gradient of h_T alone."""
    x = np.zeros((2, 1, 1))
    wx, wh, b, h0 = np.zeros((1, 4)), np.zeros((1, 4)), np.zeros(4), np.zeros((1, 1))
    try:
        kern.lstm_backward(x, wx, wh, *kern.lstm_forward(x, wx, wh, b, h0, h0), np.ones((1, 1)))
    except ValueError:
        return False
    return True


def copy_cache(cache):
    return tuple(a.copy() for a in cache) if isinstance(cache, tuple) else cache.copy()


def bench_lstm(kern, seq_len, batch, hidden, in_dim, last_step):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(seq_len, batch, in_dim))
    wx = rng.normal(0, 0.3, (in_dim, 4 * hidden))
    wh = rng.normal(0, 0.3, (hidden, 4 * hidden))
    b = rng.normal(0, 0.1, 4 * hidden)
    h0 = np.zeros((batch, hidden))
    # each tree as its training loop calls it: the current one with the last
    # step's gradient alone, the decoder's built (T, H, B), and one scratch
    # dict across calls; an older one with full C-ordered (T, B, H) gradients
    dh = rng.normal(size=(seq_len, hidden, batch)).transpose(0, 2, 1)
    kw = {}
    if takes_last_step(kern):
        dh = dh[-1].copy() if last_step else dh
        kw = {"work": {}}
    else:
        dh = np.ascontiguousarray(dh)
        if last_step:
            dh[:-1] = 0.0

    def forward():
        return kern.lstm_forward(x, wx, wh, b, h0, h0.copy(), **kw)

    hs, cs, cache = forward()

    def backward(fresh):
        kern.lstm_backward(x, wx, wh, hs, cs, fresh, dh, **kw)

    def round_trip():
        kern.lstm_backward(x, wx, wh, *forward(), dh, **kw)

    round_trip()  # warm up
    return [
        ("forward", forward, None),
        ("backward", backward, lambda: copy_cache(cache)),
        ("forward+backward", round_trip, None),
    ]


def groups(kern, args, with_smote=True):
    """(title, steps per call or None, cases) per group of rows; a case is
    (name, fn) or (name, fn, setup)."""
    out = [
        (f"masked pairwise sqdist ({kern.search_rows(args.refs)}x{args.refs}, {args.cols} cols)",
         None, bench_masked_sqdist(kern, args.refs, args.cols)),
        ("masked pairwise sqdist, serving shapes (20 cols)", None,
         bench_masked_sqdist_serving(kern)),
        ("top-k selection", None, bench_top_k(kern, args.refs)),
    ]
    if with_smote:
        out.append((f"smote neighbour table ({SMOTE_SHAPE[0]} rows, {SMOTE_SHAPE[1]} cols)",
                    None, bench_smote_table()))
    for label, hidden, in_dim, last_step in LSTM_CALLS:
        title = (f"lstm {label} (T={args.seq}, batch={args.batch}, hidden={hidden}, "
                 f"input {in_dim}, dh at {'T' if last_step else 'every step'})")
        out.append((title, args.seq,
                    bench_lstm(kern, args.seq, args.batch, hidden, in_dim, last_step)))
    return out


def time_groups(gs, repeat):
    """{(title, name): seconds}, best of ``repeat`` per case."""
    return {(title, case[0]): timeit(case[1], repeat, *case[2:])
            for title, _, cases in gs for case in cases}


def show(title, timed, steps=None):
    """Print one group of rows and return them as entry rows."""
    print(f"\n{title}")
    out = []
    for name, seconds in timed:
        row = {"group": title, "name": name, "ms": round(seconds * 1e3, 4)}
        per_step = ""
        if steps:
            row["us_per_step"] = round(seconds * 1e6 / steps, 3)
            per_step = f"   {row['us_per_step']:7.1f} us/step"
        print(f"  {name:<28s} {seconds * 1e3:9.2f} ms{per_step}")
        out.append(row)
    return out


def load_kernels(src):
    """``src/mergepipe/kernels.py`` of another tree as a module of its own."""
    path = src / "mergepipe" / "kernels.py"
    spec = importlib.util.spec_from_file_location("against_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def provenance(src):
    """Where the timed numbers come from; the commit is the one holding the
    timed source directory, marked dirty when that tree has changes."""

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
    parser.add_argument("--against", type=Path,
                        help="src directory of another tree whose kernels.py is timed too")
    parser.add_argument("--label", default="", help="free text naming the entries")
    args = parser.parse_args()

    here = Path(kernels.__file__).resolve().parent
    trees = [("this tree", here, groups(kernels, args))]
    if args.against:
        other = load_kernels(args.against)
        trees.append(("against tree", args.against.resolve() / "mergepipe",
                      groups(other, args, with_smote=False)))
    n_rounds = AGAINST_ROUNDS if args.against else 1
    rounds = [[] for _ in trees]
    for r in range(n_rounds):
        order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
        for i in order:
            rounds[i].append(time_groups(trees[i][2], args.repeat))

    shape = {"refs": args.refs, "cols": args.cols, "seq": args.seq, "batch": args.batch,
             "repeat": args.repeat, "rounds": n_rounds}
    out = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    medians = []
    for (which, src, gs), timed in zip(trees, rounds):
        median = {key: statistics.median(t[key] for t in timed) for key in timed[0]}
        medians.append(median)
        print(f"\n== {which}" + (f" (median of {n_rounds} rounds)" if args.against else ""))
        rows = []
        for title, steps, cases in gs:
            rows += show(title, [(case[0], median[(title, case[0])]) for case in cases], steps)
        label = f"{args.label} ({which})" if args.against else args.label
        append_entry(out, "benchmarks/bench_kernels.py",
                     {"label": label, "provenance": provenance(src), "shape": shape,
                      "rows": rows})
    if args.against:
        print("\n== against tree / this tree")
        for title, _, cases in trees[1][2]:
            print(f"\n{title}")
            for case in cases:
                key = (title, case[0])
                print(f"  {case[0]:<28s} {medians[1][key] / medians[0][key]:9.3f}")
    print(f"\nappended to {out}")


if __name__ == "__main__":
    main()
