"""Deal-outcome prediction pipeline for announced M&A transactions.

Stages: kNN imputation of missing tabular cells, PCA on numeric features,
MCA on one-hot categoricals, an LSTM autoencoder for daily sentiment
sequences, SMOTE oversampling of the minority (cancelled) class, and
feedforward/LSTM classifiers trained under imbalance-aware losses, all
evaluated with ROC/PR tooling on a strictly temporal split.
"""

__version__ = "0.1.0"

from .dataset import (
    DatasetSchema,
    DealRecord,
    GeneratorConfig,
    SplitSpec,
    generate_synthetic,
    load_deals_csv,
    temporal_split,
    write_deals_csv,
)
from .impute import ImputerModel, fit_imputer, impute
from .metrics import (
    ConfusionMatrix,
    EvalReport,
    confusion_at,
    evaluate,
    pr_curve,
    roc_curve,
    scalar_metrics,
)
from .neural import (
    AutoencoderSpec,
    LayerSpec,
    LossKind,
    NetworkParams,
    NetworkSpec,
    TrainConfig,
    autoencoder_encode,
    autoencoder_fit,
    loss_eval,
    loss_grad,
    train,
)
from .pipeline import (
    FrameworkConfig,
    FittedPipeline,
    TrialResult,
    fit_logit,
    fit_pipeline,
    hyper_search,
    run_framework1,
    run_framework2,
    run_framework3,
)
from .presets import PRESET_NAMES, preset
from .reduce import (
    McaModel,
    PcaModel,
    explained_curve,
    mca_fit,
    mca_transform,
    one_hot_encode,
    pca_fit,
    pca_transform,
)
from .resample import SmoteConfig, smote, validate_smote_geometry

__all__ = [
    "AutoencoderSpec",
    "ConfusionMatrix",
    "DatasetSchema",
    "DealRecord",
    "EvalReport",
    "FittedPipeline",
    "FrameworkConfig",
    "GeneratorConfig",
    "ImputerModel",
    "LayerSpec",
    "LossKind",
    "McaModel",
    "NetworkParams",
    "NetworkSpec",
    "PRESET_NAMES",
    "PcaModel",
    "SmoteConfig",
    "SplitSpec",
    "TrainConfig",
    "TrialResult",
    "autoencoder_encode",
    "autoencoder_fit",
    "confusion_at",
    "evaluate",
    "explained_curve",
    "fit_imputer",
    "fit_logit",
    "fit_pipeline",
    "generate_synthetic",
    "hyper_search",
    "impute",
    "load_deals_csv",
    "loss_eval",
    "loss_grad",
    "mca_fit",
    "mca_transform",
    "one_hot_encode",
    "pca_fit",
    "pca_transform",
    "pr_curve",
    "preset",
    "roc_curve",
    "run_framework1",
    "run_framework2",
    "run_framework3",
    "scalar_metrics",
    "smote",
    "temporal_split",
    "train",
    "validate_smote_geometry",
    "write_deals_csv",
]
