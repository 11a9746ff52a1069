from .losses import LossKind, loss_eval, loss_grad
from .network import (
    DenseNet,
    JointNet,
    LayerSpec,
    NetworkParams,
    NetworkSpec,
    SeqNet,
    TrainConfig,
    forward,
    lstm_step,
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
    "forward",
    "loss_eval",
    "loss_grad",
    "lstm_step",
    "train",
]
