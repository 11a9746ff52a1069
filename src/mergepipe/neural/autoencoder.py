"""Sequence autoencoder: LSTM encoder to a K-dim embedding, LSTM decoder back.

The encoder reads the full sequence and maps its final hidden state to the
embedding through a linear head.  The decoder receives the embedding as its
initial state (two linear maps, one per state half) and reads no input: its
gates see only the recurrent state, so it has no input weights.  A per-step
linear readout reconstructs the sequence.  Both LSTMs run the standard
tanh cell the classifier's LSTM branch runs.  Training minimizes the mean
Euclidean distance between each sequence and its reconstruction.
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
    seed: int = 0

    def __post_init__(self):
        if self.embedding_dim < 1 or self.hidden_width < 1:
            raise BadConfig("embedding_dim and hidden_width must be >= 1")
        if not self.embedding_dim < self.sequence_length:
            raise BadConfig("embedding_dim must be smaller than sequence_length")


class SequenceAutoencoder:
    def __init__(self, spec: AutoencoderSpec):
        self.spec = spec
        h = spec.hidden_width
        k = spec.embedding_dim
        self._layout = _Layout((
            ("enc", "lstm", 1, h, None),
            ("embed", "dense", h, k, "none"),
            ("dec_h0", "dense", k, h, "none"),
            ("dec_c0", "dense", k, h, "none"),
            ("dec", "lstm", 0, h, None),
            ("out", "dense", h, 1, "none"),
        ))

    def init_params(self, rng) -> NetworkParams:
        return self._layout.init(rng)

    def zero_grads(self) -> NetworkParams:
        return self._layout.zeros()

    def _check(self, sequences) -> np.ndarray:
        x = np.asarray(sequences, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.sequence_length:
            raise ShapeMismatch(
                f"expected (n, {self.spec.sequence_length}) sequences, got {x.shape}"
            )
        return x

    def _encode(self, params, x, work=None):
        xs = np.ascontiguousarray(x.T[:, :, None])
        h0 = np.zeros((x.shape[0], self.spec.hidden_width))
        enc = _lstm_forward(params, "enc", xs, h0, h0.copy(), work)
        return xs, enc, enc[0][-1] @ params.view("embed.w") + params.view("embed.b")

    def encode(self, params, sequences) -> np.ndarray:
        return self._encode(params, self._check(sequences))[2]

    def forward(self, params, sequences, work=None):
        """Reconstruction and the backward cache; ``work`` is the scratch
        dict a training loop keeps for the LSTM kernels across its steps."""
        x = self._check(sequences)
        n, seq_len = x.shape
        xs, enc, z_embed = self._encode(params, x, work)
        dec_h0 = z_embed @ params.view("dec_h0.w") + params.view("dec_h0.b")
        dec_c0 = z_embed @ params.view("dec_c0.w") + params.view("dec_c0.b")
        no_input = np.zeros((seq_len, n, 0))
        dec = _lstm_forward(params, "dec", no_input, dec_h0, dec_c0, work)
        # readout per step: (T, n, H) @ (H, 1) -> (n, T)
        recon = (dec[0][1:] @ params.view("out.w"))[:, :, 0].T + params.view("out.b")[0]
        return recon, (x, xs, enc, z_embed, dec, no_input, work)

    def loss_and_grad(self, params, sequences, target=None, weights=None, grads=None,
                      work=None):
        """Mean Euclidean distance between the reconstruction and target
        (default: the sequences themselves) and its parameter gradient."""
        if weights is not None:
            raise BadConfig("the autoencoder takes no sample weights")
        recon, cache = self.forward(params, sequences, work)
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
        _, xs, enc, z_embed, dec, no_input, work = cache
        grads = self._layout.zeros(grads)

        # per-step readout, vectorized over t
        out_w = params.view("out.w")
        dy = drecon.T[:, :, None]  # (T, n, 1)
        grads.view("out.w")[:] += (dec[0][1:] * dy).sum(axis=(0, 1))[:, None]
        grads.view("out.b")[:] += drecon.sum()
        # dh_t = dy_t w', built (T, H, n), the layout the kernel's loop reads
        dh_all = out_w[None, :, :] * drecon.T[:, None, :]
        dh0, dc0 = _lstm_backward(params, grads, "dec", no_input, dec, dh_all.transpose(0, 2, 1),
                                  work)

        dz_embed = dh0 @ params.view("dec_h0.w").T + dc0 @ params.view("dec_c0.w").T
        grads.view("dec_h0.w")[:] += z_embed.T @ dh0
        grads.view("dec_h0.b")[:] += dh0.sum(axis=0)
        grads.view("dec_c0.w")[:] += z_embed.T @ dc0
        grads.view("dec_c0.b")[:] += dc0.sum(axis=0)

        grads.view("embed.w")[:] += enc[0][-1].T @ dz_embed
        grads.view("embed.b")[:] += dz_embed.sum(axis=0)
        # the embedding reads only the encoder's last hidden state
        _lstm_backward(params, grads, "enc", xs, enc, dz_embed @ params.view("embed.w").T, work)
        return grads


@dataclass
class FittedAutoencoder(Json):
    JSON_HEADER = {"format_version": 4}
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
