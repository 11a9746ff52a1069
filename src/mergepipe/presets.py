"""Named starting-point configurations for each classification setup.

Preset keys follow "<framework>/<smote-?>nn-<objective>".  Dimensions stay
at the defaults (20 principal components, 45 correspondence dimensions,
5-dim sequence embedding).
"""

from __future__ import annotations

from .neural import LayerSpec, LossKind, NetworkSpec
from .pipeline import FrameworkConfig


def _net(widths, activations, loss):
    if isinstance(activations, str):
        activations = [activations] * len(widths)
    layers = tuple(LayerSpec("dense", w, a) for w, a in zip(widths, activations))
    return NetworkSpec(layers=layers, loss=loss)


_TABLE = {
    "f1/nn-recall": ("f1", [64], "selu", LossKind.cross_entropy(), False, "recall"),
    "f1/nn-accuracy": ("f1", [128, 8], "relu", LossKind.cross_entropy(), False, "accuracy"),
    "f1/nn-f1": ("f1", [256, 8], "relu", LossKind.f1(), False, "f1"),
    "f1/smote-nn-recall": ("f1", [8], "elu", LossKind.focal(), True, "recall"),
    "f1/smote-nn-accuracy": ("f1", [256], "relu", LossKind.cross_entropy(), True, "accuracy"),
    "f1/smote-nn-f1": ("f1", [8], "selu", LossKind.f1(), True, "f1"),
    "f2/nn-recall": ("f2", [32], "selu", LossKind.focal(), False, "recall"),
    "f2/nn-accuracy": ("f2", [64], "relu", LossKind.focal(), False, "accuracy"),
    "f2/nn-f1": ("f2", [32], "elu", LossKind.f1(), False, "f1"),
    "f2/smote-nn-recall": ("f2", [32, 32], ["selu", "elu"], LossKind.tversky(), True, "recall"),
    "f2/smote-nn-accuracy": ("f2", [32, 8], "selu", LossKind.cross_entropy(), True, "accuracy"),
    "f2/smote-nn-f1": ("f2", [32, 16], "selu", LossKind.f1(), True, "f1"),
    "f3/nn-recall": ("f3", [4, 8], "selu", LossKind.f1(), False, "recall"),
    "f3/nn-accuracy": ("f3", [4, 16], "elu", LossKind.focal(), False, "accuracy"),
    "f3/nn-f1": ("f3", [4, 16], "elu", LossKind.focal(), False, "f1"),
    "f3/smote-nn-recall": ("f3", [4, 16], "selu", LossKind.f1(), True, "recall"),
    "f3/smote-nn-accuracy": ("f3", [64, 64], ["selu", "relu"], LossKind.tversky(), True, "accuracy"),
    "f3/smote-nn-f1": ("f3", [64, 64], ["selu", "relu"], LossKind.tversky(), True, "f1"),
}

PRESET_NAMES = tuple(sorted(_TABLE))


def preset(name: str, seed: int = 0, **overrides) -> FrameworkConfig:
    """Build a FrameworkConfig for a named preset; kwargs override fields."""
    try:
        framework, widths, acts, loss, use_smote, objective = _TABLE[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}") from None
    return FrameworkConfig(
        framework=framework,
        network=_net(widths, acts, loss),
        use_smote=use_smote,
        objective=objective,
        seed=seed,
        **overrides,
    )
