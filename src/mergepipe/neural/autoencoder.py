"""Sequence autoencoder: LSTM encoder to a K-dim embedding, LSTM decoder back.

The encoder reads the full sequence and maps its final hidden state to the
embedding through a linear head.  The decoder receives the embedding as its
initial state (two linear maps, one per state half), consumes a zero input
at every step, and a per-step linear readout reconstructs the sequence.
Training minimizes the mean Euclidean distance between each sequence and
its reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..codec import SKIP, Json
from ..errors import BadConfig, ShapeMismatch
from .network import NetworkParams, TrainConfig, _Layout, _lstm_backward, _lstm_forward, train


@dataclass(frozen=True)
class AutoencoderSpec(Json):
    sequence_length: int = 121
    embedding_dim: int = 5
    hidden_width: int = 5
    activation: str = "sigmoid"  # candidate/cell-output transform of both LSTMs
    seed: int = 0

    def __post_init__(self):
        if self.embedding_dim < 1 or self.hidden_width < 1:
            raise BadConfig("embedding_dim and hidden_width must be >= 1")
        if not self.embedding_dim < self.sequence_length:
            raise BadConfig("embedding_dim must be smaller than sequence_length")
        if self.activation not in ("sigmoid", "tanh"):
            raise BadConfig("autoencoder activation must be sigmoid or tanh")


class SequenceAutoencoder:
    def __init__(self, spec: AutoencoderSpec):
        self.spec = spec
        self._sigmoid = spec.activation == "sigmoid"
        h = spec.hidden_width
        k = spec.embedding_dim
        self._layout = _Layout((
            ("enc", "lstm", 1, h, None),
            ("embed", "dense", h, k, "none"),
            ("dec_h0", "dense", k, h, "none"),
            ("dec_c0", "dense", k, h, "none"),
            ("dec", "lstm", 1, h, None),
            ("out", "dense", h, 1, "none"),
        ))

    def init_params(self, rng) -> NetworkParams:
        return self._layout.init(rng, self.spec.seed)

    def zero_grads(self) -> NetworkParams:
        return self._layout.zeros(self.spec.seed)

    def _check(self, sequences) -> np.ndarray:
        x = np.asarray(sequences, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.sequence_length:
            raise ShapeMismatch(
                f"expected (n, {self.spec.sequence_length}) sequences, got {x.shape}"
            )
        return x

    def _encode(self, params, x):
        xs = np.ascontiguousarray(x.T[:, :, None])
        h0 = np.zeros((x.shape[0], self.spec.hidden_width))
        enc = _lstm_forward(params, "enc", xs, h0, h0.copy(), self._sigmoid)
        return xs, enc, enc[0][-1] @ params.view("embed.w") + params.view("embed.b")

    def encode(self, params, sequences) -> np.ndarray:
        return self._encode(params, self._check(sequences))[2]

    def forward(self, params, sequences):
        x = self._check(sequences)
        n, seq_len = x.shape
        xs, enc, z_embed = self._encode(params, x)
        dec_h0 = z_embed @ params.view("dec_h0.w") + params.view("dec_h0.b")
        dec_c0 = z_embed @ params.view("dec_c0.w") + params.view("dec_c0.b")
        zeros_in = np.zeros((seq_len, n, 1))
        dec = _lstm_forward(params, "dec", zeros_in, dec_h0, dec_c0, self._sigmoid)
        # readout per step: (T, n, H) @ (H, 1) -> (n, T)
        recon = (dec[0][1:] @ params.view("out.w"))[:, :, 0].T + params.view("out.b")[0]
        return recon, (x, xs, enc, z_embed, dec, zeros_in)

    def loss_and_grad(self, params, sequences, target=None, weights=None, grads=None):
        """Mean Euclidean distance between the reconstruction and target
        (default: the sequences themselves) and its parameter gradient."""
        if weights is not None:
            raise BadConfig("the autoencoder takes no sample weights")
        recon, cache = self.forward(params, sequences)
        x = cache[0]
        n = x.shape[0]
        resid = recon - (x if target is None else target)
        norms = np.sqrt(np.sum(resid * resid, axis=1))
        value = float(np.mean(norms))
        safe = np.maximum(norms, 1e-12)
        drecon = resid / (n * safe[:, None])
        return value, self.backward(params, cache, drecon, grads)

    def backward(self, params, cache, drecon, grads=None) -> NetworkParams:
        """Parameter gradient; written into ``grads`` when given."""
        x, xs, enc, z_embed, dec, zeros_in = cache
        n, seq_len = x.shape
        grads = self._layout.zeros(self.spec.seed, grads)

        # per-step readout, vectorized over t
        out_w = params.view("out.w")
        dy = drecon.T[:, :, None]  # (T, n, 1)
        grads.view("out.w")[:] += (dec[0][1:] * dy).sum(axis=(0, 1))[:, None]
        grads.view("out.b")[:] += drecon.sum()
        dh_all = dy * out_w[None, None, :, 0]
        dh0, dc0 = _lstm_backward(params, grads, "dec", zeros_in, dec, dh_all, self._sigmoid)

        dz_embed = dh0 @ params.view("dec_h0.w").T + dc0 @ params.view("dec_c0.w").T
        grads.view("dec_h0.w")[:] += z_embed.T @ dh0
        grads.view("dec_h0.b")[:] += dh0.sum(axis=0)
        grads.view("dec_c0.w")[:] += z_embed.T @ dc0
        grads.view("dec_c0.b")[:] += dc0.sum(axis=0)

        grads.view("embed.w")[:] += enc[0][-1].T @ dz_embed
        grads.view("embed.b")[:] += dz_embed.sum(axis=0)
        dh_enc = np.zeros((seq_len, n, self.spec.hidden_width))
        dh_enc[-1] = dz_embed @ params.view("embed.w").T
        _lstm_backward(params, grads, "enc", xs, enc, dh_enc, self._sigmoid)
        return grads


@dataclass
class FittedAutoencoder(Json):
    JSON_HEADER = {"format_version": 1}
    spec: AutoencoderSpec
    params: NetworkParams
    trace: list = field(default_factory=list, metadata=SKIP)


def autoencoder_fit(
    spec: AutoencoderSpec, sequences, config: TrainConfig
) -> FittedAutoencoder:
    """Train the autoencoder on the given sequences; deterministic per seed."""
    model = SequenceAutoencoder(spec)
    x = model._check(sequences)
    # each sequence is its own reconstruction target
    params, trace = train(model, (x, x), None, config)
    return FittedAutoencoder(spec=spec, params=params, trace=trace)


def autoencoder_encode(fitted: FittedAutoencoder, sequences) -> np.ndarray:
    """Deterministic encoder pass: (n, T) sequences to (n, K) embeddings."""
    model = SequenceAutoencoder(fitted.spec)
    return model.encode(fitted.params, sequences)
