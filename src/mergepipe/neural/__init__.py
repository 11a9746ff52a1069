from .losses import LossKind, loss_eval, loss_grad
from .network import (
    DenseNet,
    JointNet,
    LayerSpec,
    NetworkParams,
    NetworkSpec,
    SeqNet,
    TrainConfig,
    train,
)
from .autoencoder import (
    AutoencoderSpec,
    FittedAutoencoder,
    autoencoder_encode,
    autoencoder_fit,
)

__all__ = [
    "AutoencoderSpec",
    "DenseNet",
    "FittedAutoencoder",
    "JointNet",
    "LayerSpec",
    "LossKind",
    "NetworkParams",
    "NetworkSpec",
    "SeqNet",
    "TrainConfig",
    "autoencoder_encode",
    "autoencoder_fit",
    "loss_eval",
    "loss_grad",
    "train",
]
