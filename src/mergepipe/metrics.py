"""Confusion-matrix statistics, ROC and PR curves, and their areas.

The positive class is the cancelled deal (label 1) throughout.  Metrics
whose denominator is zero return None rather than NaN so downstream
rankings never silently absorb an undefined value.  AUROC uses the
trapezoidal rule over the threshold sweep (equal to the rank statistic);
the PR area uses the step-wise rule by default, with trapezoidal available
for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, LengthMismatch, NoPositives, SingleClass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_at(labels, scores, threshold: float) -> ConfusionMatrix:
    """Count outcomes with score >= threshold predicted positive."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise LengthMismatch(f"labels {labels.shape} vs scores {scores.shape}")
    pred = scores >= threshold
    pos = labels == 1
    return ConfusionMatrix(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def _ratio(num: float, den: float):
    return None if den == 0 else num / den


def scalar_metrics(cm: ConfusionMatrix) -> dict:
    """Accuracy, precision, recall, f1; None marks a zero denominator."""
    if cm.total == 0:
        raise EmptyInput("confusion matrix is empty")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


def _trapezoid(y, x) -> float:
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) * 0.5))


def _sweep(labels, scores):
    """Cumulative tp/fp after each distinct-score group, descending scores."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise LengthMismatch(f"labels {labels.shape} vs scores {scores.shape}")
    order = np.argsort(-scores, kind="stable")
    y = (labels[order] == 1).astype(np.float64)
    s = scores[order]
    tps = np.cumsum(y)
    fps = np.cumsum(1.0 - y)
    # keep the last index of every tie group
    last = np.flatnonzero(np.append(np.diff(s) != 0.0, True))
    return tps[last], fps[last]


def roc_curve(labels, scores):
    """ROC points from (0,0) to (1,1) plus the trapezoidal area."""
    tps, fps = _sweep(labels, scores)
    n_pos = tps[-1]
    n_neg = fps[-1]
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("roc_curve needs both classes present")
    tpr = np.concatenate([[0.0], tps / n_pos])
    fpr = np.concatenate([[0.0], fps / n_neg])
    auroc = _trapezoid(tpr, fpr)
    points = [(float(x), float(y)) for x, y in zip(fpr, tpr)]
    return points, auroc


def pr_curve(labels, scores, interpolation: str = "step"):
    """PR points over the threshold sweep plus the area.

    interpolation="step" integrates sum (R_k - R_{k-1}) * P_k (the default);
    "trapezoid" connects the points linearly, which is known to flatter.
    """
    tps, fps = _sweep(labels, scores)
    n_pos = tps[-1]
    if n_pos == 0:
        raise NoPositives("pr_curve needs at least one positive")
    recall = tps / n_pos
    precision = tps / (tps + fps)
    points = [(float(r), float(p)) for r, p in zip(recall, precision)]
    if interpolation == "step":
        deltas = np.diff(np.concatenate([[0.0], recall]))
        aupr = float(np.sum(deltas * precision))
    elif interpolation == "trapezoid":
        r_ext = np.concatenate([[0.0], recall])
        p_ext = np.concatenate([[precision[0]], precision])
        aupr = _trapezoid(p_ext, r_ext)
    else:
        raise ValueError(f"unknown interpolation {interpolation!r}")
    return points, aupr


@dataclass(frozen=True)
class EvalReport:
    threshold: float
    confusion: ConfusionMatrix
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None
    roc_points: list
    pr_points: list
    auroc: float
    aupr: float

    def to_json(self) -> dict:
        return {
            "format_version": 1,
            "threshold": self.threshold,
            "confusion": {
                "tp": self.confusion.tp,
                "fp": self.confusion.fp,
                "tn": self.confusion.tn,
                "fn": self.confusion.fn,
            },
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "auroc": self.auroc,
            "aupr": self.aupr,
            "roc_points": [[x, y] for x, y in self.roc_points],
            "pr_points": [[x, y] for x, y in self.pr_points],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "EvalReport":
        return cls(
            threshold=doc["threshold"],
            confusion=ConfusionMatrix(**doc["confusion"]),
            accuracy=doc["accuracy"],
            precision=doc["precision"],
            recall=doc["recall"],
            f1=doc["f1"],
            roc_points=[tuple(p) for p in doc["roc_points"]],
            pr_points=[tuple(p) for p in doc["pr_points"]],
            auroc=doc["auroc"],
            aupr=doc["aupr"],
        )


def evaluate(labels, scores, threshold: float = 0.5) -> EvalReport:
    cm = confusion_at(labels, scores, threshold)
    scalars = scalar_metrics(cm)
    roc_points, auroc = roc_curve(labels, scores)
    pr_points, aupr = pr_curve(labels, scores)
    return EvalReport(
        threshold=threshold,
        confusion=cm,
        accuracy=scalars["accuracy"],
        precision=scalars["precision"],
        recall=scalars["recall"],
        f1=scalars["f1"],
        roc_points=roc_points,
        pr_points=pr_points,
        auroc=auroc,
        aupr=aupr,
    )


def curve_to_csv(points, path, header=("x", "y")) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for x, y in points:
            fh.write(f"{x!r},{y!r}\n")
