"""Span recorder and layer wrappers for the traced benchmark run.

The traced run replaces public mergepipe functions with thin wrappers that
open a span (name, start, end, parent span, operation id) around each call.
Targets are resolved by dotted name when tracing starts; a target that no
longer exists is reported as missing instead of failing the run, so a
refactor that removes a function only blanks its metrics.

A function target is patched under its own name in every loaded mergepipe
module that binds the same object, which covers each place the pipeline
calls it from (``mergepipe.pipeline.impute`` as well as
``mergepipe.impute.impute``).  Aliases under other names, such as
``kernels.masked_sqdist_numpy``, are left alone.  A method target
(``module.Class.method``) is patched on its class.

Counts are taken from call arguments and results.  Extractors keep only
shapes or references, so the spans time the call and nothing else; counts
that need a pass over the records are computed after the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time


class Recorder:
    """In-memory spans; ``op`` tags every span with the current operation."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def export(self) -> list:
        """Spans as JSON-ready dicts; record references are dropped from info."""
        out = []
        for span in self.spans:
            span = dict(span)
            if "info" in span:
                span["info"] = {k: v for k, v in span["info"].items() if k != "deals"}
            out.append(span)
        return out


# -- extractors: (args, kwargs, result) -> dict of cheap values ---------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _impute_info(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    return {
        "deals": _arg(args, kwargs, 1, "deals"),
        "k": int(model.k),
        "n_ref": int(model.reference_numeric.shape[0]),
    }


def _sqdist_info(args, kwargs, result):
    qv = _arg(args, kwargs, 0, "qv")
    rv = _arg(args, kwargs, 2, "rv")
    return {"nq": int(qv.shape[0]), "nr": int(rv.shape[0]), "ncols": int(qv.shape[1])}


def _lstm_info(args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    wh = _arg(args, kwargs, 2, "wh")
    seq_len, batch, in_dim = x.shape
    return {"steps": int(seq_len), "batch": int(batch), "in_dim": int(in_dim),
            "hidden": int(wh.shape[0])}


def _smote_info(args, kwargs, result):
    features = _arg(args, kwargs, 0, "features")
    return {"synthetic_rows": int(result[0].shape[0] - len(features))}


def _train_info(args, kwargs, result):
    train_data = _arg(args, kwargs, 1, "train_data")
    config = _arg(args, kwargs, 3, "config")
    epochs = len(result[1])
    n = len(train_data[1])
    return {"epochs": epochs, "batches": epochs * math.ceil(n / config.batch_size)}


def _autoencoder_info(args, kwargs, result):
    return {"epochs": len(result.trace)}


# span name -> dotted targets, optional extractor
TARGETS = (
    ("dataset.load_csv", ("mergepipe.dataset.load_deals_csv",), None),
    ("dataset.convert", (
        "mergepipe.dataset.numeric_matrix",
        "mergepipe.dataset.categorical_codes",
        "mergepipe.dataset.labels_vector",
    ), None),
    ("dataset.sentiment_matrix", ("mergepipe.dataset.sentiment_matrix",), None),
    ("impute.fit", ("mergepipe.impute.fit_imputer",), None),
    ("impute", ("mergepipe.impute.impute",), _impute_info),
    ("kernels.masked_sqdist", ("mergepipe.kernels.masked_sqdist",), _sqdist_info),
    ("kernels.lstm_forward", ("mergepipe.kernels.lstm_forward",), _lstm_info),
    ("kernels.lstm_backward", ("mergepipe.kernels.lstm_backward",), _lstm_info),
    ("reduce.pca_fit", ("mergepipe.reduce.pca_fit",), None),
    ("reduce.mca_fit", ("mergepipe.reduce.mca_fit",), None),
    ("reduce.transform", (
        "mergepipe.reduce.one_hot_encode",
        "mergepipe.reduce.pca_transform",
        "mergepipe.reduce.mca_transform",
    ), None),
    ("resample.smote", ("mergepipe.resample.smote",), _smote_info),
    ("neural.train", ("mergepipe.neural.network.train",), _train_info),
    ("neural.forward", (
        "mergepipe.neural.network.DenseNet.forward_batch",
        "mergepipe.neural.network.SeqNet.forward_batch",
        "mergepipe.neural.network.JointNet.forward_batch",
    ), None),
    ("neural.backward", (
        "mergepipe.neural.network.DenseNet.backward",
        "mergepipe.neural.network.SeqNet.backward",
        "mergepipe.neural.network.JointNet.backward",
    ), None),
    ("neural.adam", ("mergepipe.neural.network.AdamState.update",), None),
    ("neural.autoencoder_fit", ("mergepipe.neural.autoencoder.autoencoder_fit",),
     _autoencoder_info),
    ("neural.autoencoder_encode", ("mergepipe.neural.autoencoder.autoencoder_encode",), None),
    ("metrics.evaluate", ("mergepipe.metrics.evaluate",), None),
    ("pipeline", (
        "mergepipe.pipeline.run_config",
        "mergepipe.pipeline.fit_pipeline",
        "mergepipe.pipeline.fit_logit",
        "mergepipe.pipeline.FittedPipeline.evaluate_on",
        "mergepipe.pipeline.FittedPipeline.scores",
    ), None),
)


def _resolve(dotted: str):
    """(owner, attribute, object) for module.attr or module.Class.attr."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        obj = getattr(owner, parts[-1], None)
        return None if obj is None else (owner, parts[-1], obj)
    return None


def _wrapper(recorder: Recorder, name: str, fn, extract, errors: list):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if extract is not None:
            try:
                span["info"] = extract(args, kwargs, result)
            except Exception as exc:  # a changed signature blanks one count only
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return result

    traced.perfbench_span = name
    return traced


_INHERITED = object()


class Tracer:
    """Install wrappers for TARGETS on enter, restore the originals on exit."""

    def __init__(self, recorder: Recorder, targets=TARGETS):
        self.recorder = recorder
        self.targets = targets
        self.missing = []
        self.extract_errors = []
        self._patched = []

    def __enter__(self):
        for name, paths, extract in self.targets:
            for dotted in paths:
                found = _resolve(dotted)
                if found is None:
                    self.missing.append(dotted)
                    continue
                owner, attr, original = found
                wrapped = _wrapper(self.recorder, name, original, extract, self.extract_errors)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapped)
                    continue
                for module_name, module in list(sys.modules.items()):
                    if module_name.split(".")[0] == "mergepipe" and \
                            getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapped)
        return self

    def _patch(self, owner, attr, wrapped):
        if hasattr(getattr(owner, attr), "perfbench_span"):
            return  # one object reached under two target names: wrap it once
        self._patched.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, wrapped)

    def __exit__(self, *exc_info):
        for owner, attr, original in reversed(self._patched):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()
        return False


# -- aggregation ---------------------------------------------------------------


def _missing_cells(deals) -> int:
    return sum(
        sum(v is None for v in r.numeric) + sum(v is None for v in r.categorical)
        for r in deals
    )


def layer_metrics(spans: list) -> dict:
    """Per-layer totals over the given spans (see README.md for definitions)."""
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - child_time.get(s["id"], 0.0)

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(dur(s) for s in named(*names))

    def info_sum(name, key):
        return sum(s.get("info", {}).get(key, 0) for s in named(name))

    def under_train(name):
        return sum(dur(s) for s in named(name)
                   if any(a["name"] == "neural.train" for a in ancestors(s)))

    m = {
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.convert_s": total("dataset.convert", "dataset.sentiment_matrix"),
        "dataset.sentiment_matrix_calls": len(named("dataset.sentiment_matrix")),
        "impute.fit_s": total("impute.fit"),
        "impute.s": total("impute"),
        "impute.self_s": sum(self_time(s) for s in named("impute")),
        "impute.calls": len(named("impute")),
    }

    rows = repeats = cells = 0
    seen = {}
    for s in named("impute"):
        deals = s.get("info", {}).get("deals", ())
        ids = seen.setdefault(s["op"], set())
        rows += len(deals)
        repeats += sum(r.deal_id in ids for r in deals)
        ids.update(r.deal_id for r in deals)
        cells += _missing_cells(deals)
    m["impute.rows"] = rows
    m["impute.cells_filled"] = cells
    m["impute.repeat_frac"] = repeats / rows if rows else 0.0

    sq = named("kernels.masked_sqdist")
    pairs = kept = 0
    for s in sq:
        info = s.get("info")
        if not info:
            continue
        pairs += info["nq"] * info["nr"]
        owner = next((a for a in ancestors(s) if a["name"] == "impute"), None)
        if owner is not None and "info" in owner:
            kept += info["nq"] * min(owner["info"]["k"], info["nr"])
    m["impute.kept_frac"] = kept / pairs if pairs else 0.0
    m["kernels.masked_sqdist_s"] = total("kernels.masked_sqdist")
    m["kernels.masked_sqdist_calls"] = len(sq)
    m["kernels.masked_sqdist_pairs"] = pairs
    # partial distance: one difference, square and accumulate per pair and column
    m["kernels.masked_sqdist_gflop"] = sum(
        3 * s["info"]["nq"] * s["info"]["nr"] * s["info"]["ncols"] for s in sq if "info" in s
    ) / 1e9
    m["kernels.masked_sqdist_mb"] = max(
        (8 * s["info"]["nq"] * s["info"]["nr"] / 1e6 for s in sq if "info" in s), default=0.0
    )

    flop = 0
    steps = {}
    for name, gemms in (("kernels.lstm_forward", 1), ("kernels.lstm_backward", 2)):
        spans_k = named(name)
        n_steps = info_sum(name, "steps")
        steps[name] = n_steps
        seconds = total(name)
        m[f"{name}_s"] = seconds
        m[f"{name}_calls"] = len(spans_k)
        m[f"{name}_us_per_step"] = 1e6 * seconds / n_steps if n_steps else 0.0
        # gate GEMMs only: forward x.Wx + h.Wh, backward twice that (weights and inputs)
        for s in spans_k:
            i = s.get("info")
            if i:
                flop += gemms * 2 * i["steps"] * i["batch"] * 4 * i["hidden"] * (
                    i["in_dim"] + i["hidden"])
    m["kernels.lstm_steps"] = sum(steps.values())
    m["kernels.lstm_mflop"] = flop / 1e6

    m["reduce.pca_fit_s"] = total("reduce.pca_fit")
    m["reduce.mca_fit_s"] = total("reduce.mca_fit")
    m["reduce.transform_s"] = total("reduce.transform")
    m["resample.smote_s"] = total("resample.smote")
    m["resample.synthetic_rows"] = info_sum("resample.smote", "synthetic_rows")
    m["neural.train_s"] = total("neural.train")
    m["neural.train_epochs"] = info_sum("neural.train", "epochs")
    m["neural.train_batches"] = info_sum("neural.train", "batches")
    m["neural.forward_s"] = under_train("neural.forward")
    m["neural.backward_s"] = under_train("neural.backward")
    m["neural.adam_s"] = under_train("neural.adam")
    m["neural.autoencoder_fit_s"] = total("neural.autoencoder_fit")
    m["neural.autoencoder_epochs"] = info_sum("neural.autoencoder_fit", "epochs")
    m["neural.autoencoder_encode_s"] = total("neural.autoencoder_encode")
    m["metrics.evaluate_s"] = total("metrics.evaluate")
    m["metrics.evaluate_calls"] = len(named("metrics.evaluate"))

    pipe = named("pipeline")
    m["pipeline.fit_s"] = sum(
        dur(s) for s in pipe if not any(a["name"] == "pipeline" for a in ancestors(s))
    )
    m["pipeline.self_s"] = sum(self_time(s) for s in pipe)
    m["cli.self_s"] = sum(self_time(s) for s in named("cli"))
    return m
