"""Binary classification losses and their analytic gradients.

p holds the true 0/1 labels, q the predicted probabilities.  Cross-entropy
and focal losses average per sample; the soft-F1 and Tversky losses are
set-level over the whole vector (per batch during training).  Probabilities
are clamped to [EPS, 1-EPS] before any log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import Json
from ..errors import BadConfig, LengthMismatch

EPS = 1e-12


@dataclass(frozen=True)
class LossKind(Json):
    kind: str  # cross_entropy | weighted_cross_entropy | focal | f1 | tversky
    gamma: float = 2.0  # focal only
    alpha: float = 0.3  # tversky: false-positive weight
    beta: float = 0.7  # tversky: false-negative weight

    def __post_init__(self):
        if self.kind not in ("cross_entropy", "weighted_cross_entropy", "focal", "f1", "tversky"):
            raise BadConfig(f"unknown loss kind {self.kind!r}")
        if self.kind == "focal" and not self.gamma > 0:
            raise BadConfig("focal gamma must be > 0")
        if self.kind == "tversky":
            if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta <= 0:
                raise BadConfig("tversky needs alpha, beta >= 0 with alpha + beta > 0")

    @classmethod
    def cross_entropy(cls):
        return cls("cross_entropy")

    @classmethod
    def weighted_cross_entropy(cls):
        return cls("weighted_cross_entropy")

    @classmethod
    def focal(cls, gamma: float = 2.0):
        return cls("focal", gamma=gamma)

    @classmethod
    def f1(cls):
        return cls("f1")

    @classmethod
    def tversky(cls, alpha: float = 0.3, beta: float = 0.7):
        return cls("tversky", alpha=alpha, beta=beta)

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        if self.kind == "focal":
            doc["gamma"] = self.gamma
        if self.kind == "tversky":
            doc["alpha"] = self.alpha
            doc["beta"] = self.beta
        return doc


def _checked(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise LengthMismatch(f"labels {p.shape} vs probabilities {q.shape}")
    return p, np.clip(q, EPS, 1.0 - EPS)


def loss_value_and_grad(kind: LossKind, p, q, weights=None):
    """The loss and d(loss)/dq from one clamp of q, evaluated at the clamped
    probabilities.  ``weights`` scales each sample's weighted cross-entropy
    term; without them it is cross-entropy.  The other losses take none."""
    p, q = _checked(p, q)
    n = p.shape[0]
    if weights is not None and kind.kind != "weighted_cross_entropy":
        raise BadConfig("sample weights are only supported with weighted cross-entropy loss")
    if kind.kind in ("cross_entropy", "weighted_cross_entropy"):
        per_sample = -(p * np.log(q) + (1.0 - p) * np.log(1.0 - q))
        grad = -(p / q - (1.0 - p) / (1.0 - q)) / n
        if weights is None:
            return float(np.mean(per_sample)), grad
        return float(np.mean(weights * per_sample)), weights * grad
    if kind.kind == "focal":
        g = kind.gamma
        value = -np.mean(p * (1.0 - q) ** g * np.log(q) + (1.0 - p) * q**g * np.log(1.0 - q))
        pos = (1.0 - q) ** g / q - g * (1.0 - q) ** (g - 1.0) * np.log(q)
        neg = g * q ** (g - 1.0) * np.log(1.0 - q) - q**g / (1.0 - q)
        return float(value), -(p * pos + (1.0 - p) * neg) / n
    alpha, beta = (0.5, 0.5) if kind.kind == "f1" else (kind.alpha, kind.beta)
    s = np.sum(p * q)
    t = np.sum(p * q + alpha * ((1.0 - p) * q) + beta * (p * (1.0 - q)))
    if t == 0.0:
        return 1.0, np.zeros_like(q)
    dt = p + alpha * (1.0 - p) - beta * p
    return float(1.0 - s / t), -(p * t - s * dt) / (t * t)


def loss_eval(kind: LossKind, p, q) -> float:
    return loss_value_and_grad(kind, p, q)[0]


def loss_grad(kind: LossKind, p, q) -> np.ndarray:
    """d(loss)/dq, evaluated at the clamped probabilities."""
    return loss_value_and_grad(kind, p, q)[1]
