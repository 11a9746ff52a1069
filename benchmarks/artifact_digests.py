"""Print the sha256 of every artifact the README walkthrough writes.

Runs, in one temporary directory and in this process, the README CLI
walkthrough -- ``generate`` (5000 deals, seed 7), ``run --framework f1``,
``run --baseline weighted-logit``, ``run --preset f1/smote-nn-f1`` and the
8-trial ``search`` -- plus ``run --preset f2/smote-nn-f1`` and
``run --preset f3/smote-nn-f1`` on the same data.  Then it prints one
``<sha256>  <path>`` line per artifact, paths relative to that directory.
A ``manifest.json`` records wall time, so it differs from run to run: in
place of its hash the script prints the ``config_digest`` it holds, as
``<config_digest>  <path>:config_digest``, one line per command.  The CSV
cache the first ``run`` writes beside the data (``deals.csv.mergepipe-cache``)
is hashed like any artifact, one line per cached CSV: its bytes depend only
on the CSV and the schema, so it repeats across runs too.

Comparing the output of two source trees tells whether a change kept the
artifacts byte-identical:

    PYTHONPATH=src python benchmarks/artifact_digests.py > after.txt
    PYTHONPATH=/path/to/other/src python benchmarks/artifact_digests.py > before.txt
    diff before.txt after.txt

BLAS runs on one thread, fixed before numpy loads, as in perfbench.  The
f2 and f3 fits dominate: a few minutes in all on a 2-CPU box.

Run: python benchmarks/artifact_digests.py
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from mergepipe.cli import main as cli_main  # noqa: E402

GENERATOR = {
    "n_deals": 5000, "cancel_rate": 0.2, "n_numeric": 20, "n_categorical": 10,
    "levels_per_categorical": 3, "sentiment_length": 121, "missing_rate": 0.05,
    "signal_strength": 2.0, "sentiment_signal": 0.5,
}
RUN = {
    "split": {"train_fraction": 0.8},
    "framework": "f1",
    "network": {"layers": [{"kind": "dense", "width": 64, "activation": "selu"}],
                "loss": {"kind": "cross_entropy"}, "seed": 0},
    "use_smote": True, "seed": 1,
}
SPACE = {
    "base": RUN,
    "space": {"network.layers": [[{"kind": "dense", "width": 8, "activation": "selu"}],
                                 [{"kind": "dense", "width": 64, "activation": "selu"}]],
              "train.learning_rate": [0.01, 0.001]},
    "strategy": "random",
}


def walkthrough(work: Path) -> None:
    """Run every command into ``work``; stop at the first nonzero exit."""
    for name, doc in (("gen.json", GENERATOR), ("run.json", RUN), ("space.json", SPACE)):
        (work / name).write_text(json.dumps(doc))
    data = ["--data", str(work / "deals.csv")]
    commands = [
        ["generate", "--config", str(work / "gen.json"), "--seed", "7",
         "--out", str(work / "deals.csv")],
        ["run", "--framework", "f1", *data, "--config", str(work / "run.json"),
         "--out-dir", str(work / "results")],
        ["run", "--baseline", "weighted-logit", *data, "--config", str(work / "run.json"),
         "--out-dir", str(work / "baseline")],
        ["run", "--preset", "f1/smote-nn-f1", *data, "--out-dir", str(work / "preset")],
        ["search", *data, "--space", str(work / "space.json"), "--budget", "8",
         "--objective", "recall", "--seed", "3", "--out-dir", str(work / "search")],
        ["run", "--preset", "f2/smote-nn-f1", *data, "--out-dir", str(work / "f2")],
        ["run", "--preset", "f3/smote-nn-f1", *data, "--out-dir", str(work / "f3")],
    ]
    for argv in commands:
        print(f"# mergepipe {' '.join(argv[:3])}", file=sys.stderr)
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the digests only
            code = cli_main(argv)
        if code != 0:
            raise SystemExit(f"mergepipe {argv[0]} exited {code}")


def digests(work: Path) -> list:
    """(sha256, relative path) of every artifact except inputs; a manifest
    gives its config digest instead."""
    inputs = {"gen.json", "run.json", "space.json"}
    out = []
    for path in sorted(work.rglob("*")):
        if not path.is_file() or path.name in inputs:
            continue
        rel = path.relative_to(work).as_posix()
        if path.name == "manifest.json":
            out.append((json.loads(path.read_text())["config_digest"], f"{rel}:config_digest"))
        else:
            out.append((hashlib.sha256(path.read_bytes()).hexdigest(), rel))
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        walkthrough(work)
        for digest, rel in digests(work):
            print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
