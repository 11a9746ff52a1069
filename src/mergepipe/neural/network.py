"""Dense and LSTM classifier networks with hand-rolled backprop.

Parameters live in one flat float64 vector with a per-tensor shape table,
so the Adam update and JSON serialization are trivial.  All architectures
end in a scalar sigmoid head; training is mini-batch Adam with an optional
early stop on validation loss.  Given the same spec seed, training is
bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..errors import BadConfig, LengthMismatch, NonFiniteLoss, ShapeMismatch
from .losses import LossKind, loss_eval, loss_grad

SELU_ALPHA = 1.67326324
SELU_LAMBDA = 1.05070099

ACTIVATIONS = ("relu", "elu", "selu", "sigmoid", "none")


def activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "elu":
        return np.where(z > 0.0, z, np.expm1(np.minimum(z, 0.0)))
    if name == "selu":
        return SELU_LAMBDA * np.where(
            z > 0.0, z, SELU_ALPHA * np.expm1(np.minimum(z, 0.0))
        )
    if name == "sigmoid":
        return stable_sigmoid(z)
    if name == "none":
        return z
    raise BadConfig(f"unknown activation {name!r}")


def activation_grad(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "elu":
        return np.where(z > 0.0, 1.0, np.exp(np.minimum(z, 0.0)))
    if name == "selu":
        return SELU_LAMBDA * np.where(
            z > 0.0, 1.0, SELU_ALPHA * np.exp(np.minimum(z, 0.0))
        )
    if name == "sigmoid":
        s = stable_sigmoid(z)
        return s * (1.0 - s)
    if name == "none":
        return np.ones_like(z)
    raise BadConfig(f"unknown activation {name!r}")


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # dense | lstm
    width: int
    activation: str = "relu"

    def __post_init__(self):
        if self.kind not in ("dense", "lstm"):
            raise BadConfig(f"unknown layer kind {self.kind!r}")
        if self.width < 1:
            raise BadConfig("layer width must be >= 1")
        if self.kind == "dense" and self.activation not in ACTIVATIONS:
            raise BadConfig(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """Layer stack feeding a scalar sigmoid head; lstm allowed first only."""

    layers: tuple
    loss: LossKind
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        for pos, layer in enumerate(self.layers):
            if layer.kind == "lstm" and pos != 0:
                raise BadConfig("lstm layers may only read the input sequence (first position)")

    def to_json(self) -> dict:
        return {
            "layers": [
                {"kind": l.kind, "width": l.width, "activation": l.activation}
                for l in self.layers
            ],
            "loss": self.loss.to_json(),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "NetworkSpec":
        return cls(
            layers=tuple(LayerSpec(**l) for l in doc["layers"]),
            loss=LossKind.from_json(doc["loss"]),
            seed=int(doc.get("seed", 0)),
        )


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    patience: int = 10
    threshold: float = 0.5

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.patience < 1:
            raise BadConfig("epochs/batch_size/patience must be positive")
        if self.learning_rate < 0:
            raise BadConfig("learning_rate must be >= 0")
        if not (0.0 <= self.threshold <= 1.0):
            raise BadConfig("threshold must lie in [0, 1]")

    def to_json(self) -> dict:
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "adam_eps": self.adam_eps,
            "patience": self.patience,
            "threshold": self.threshold,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "TrainConfig":
        return cls(**doc)


@dataclass
class NetworkParams:
    """Flat trainable parameter store with a named shape table."""

    values: np.ndarray
    layout: tuple  # ((name, offset, shape), ...)
    init_seed: int

    def __post_init__(self):
        # name -> (slice, shape), resolved once instead of on every view call
        self._views = {
            name: (slice(offset, offset + int(np.prod(shape))), shape)
            for name, offset, shape in self.layout
        }

    def view(self, name: str) -> np.ndarray:
        span, shape = self._views[name]
        return self.values[span].reshape(shape)

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.values.copy(), self.layout, self.init_seed)

    def to_json(self) -> dict:
        return {
            "format_version": 1,
            "init_seed": self.init_seed,
            "layout": [[name, offset, list(shape)] for name, offset, shape in self.layout],
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "NetworkParams":
        layout = tuple((name, offset, tuple(shape)) for name, offset, shape in doc["layout"])
        return cls(np.asarray(doc["values"], dtype=np.float64), layout, int(doc["init_seed"]))


class _LayoutBuilder:
    def __init__(self):
        self.entries = []
        self.size = 0

    def add(self, name, shape):
        self.entries.append((name, self.size, tuple(shape)))
        self.size += int(np.prod(shape))

    def allocate(self, seed) -> NetworkParams:
        return NetworkParams(np.zeros(self.size), tuple(self.entries), seed)


def _init_std(act: str, fan_in: int) -> float:
    if act in ("relu", "elu"):
        return np.sqrt(2.0 / fan_in)
    return np.sqrt(1.0 / fan_in)  # lecun-style for selu/sigmoid/linear


def _init_dense(params, rng, name, fan_in, fan_out, act):
    params.view(f"{name}.w")[:] = rng.normal(0.0, _init_std(act, fan_in), size=(fan_in, fan_out))
    # biases stay zero


def _init_lstm(params, rng, name, in_dim, hidden):
    std_x = np.sqrt(1.0 / max(in_dim, 1))
    std_h = np.sqrt(1.0 / hidden)
    params.view(f"{name}.wx")[:] = rng.normal(0.0, std_x, size=(in_dim, 4 * hidden))
    params.view(f"{name}.wh")[:] = rng.normal(0.0, std_h, size=(hidden, 4 * hidden))
    b = params.view(f"{name}.b")
    b[:] = 0.0
    b[hidden : 2 * hidden] = 1.0  # forget-gate bias


# -- dense stack shared by every architecture ---------------------------------


def _dense_stack_forward(params, prefix, layers, x):
    cache = []
    a = x
    for idx, layer in enumerate(layers):
        z = a @ params.view(f"{prefix}{idx}.w") + params.view(f"{prefix}{idx}.b")
        cache.append((a, z, layer.activation))
        a = activation(layer.activation, z)
    return a, cache


def _dense_stack_backward(params, grads, prefix, layers, cache, da):
    for idx in range(len(layers) - 1, -1, -1):
        a_in, z, act = cache[idx]
        dz = da * activation_grad(act, z)
        grads.view(f"{prefix}{idx}.w")[:] += a_in.T @ dz
        grads.view(f"{prefix}{idx}.b")[:] += dz.sum(axis=0)
        da = dz @ params.view(f"{prefix}{idx}.w").T
    return da


def _head_forward(params, a):
    from .losses import EPS

    z = a @ params.view("head.w") + params.view("head.b")
    # clamp so outputs stay strictly inside (0, 1) even at saturation
    q = np.clip(stable_sigmoid(z[:, 0]), EPS, 1.0 - EPS)
    return q, (a, z)


def _head_backward(params, grads, cache, dq, q):
    a, _ = cache
    dz = (dq * q * (1.0 - q))[:, None]
    grads.view("head.w")[:] += a.T @ dz
    grads.view("head.b")[:] += dz.sum(axis=0)
    return dz @ params.view("head.w").T


class DenseNet:
    """Feedforward stack on tabular rows."""

    def __init__(self, spec: NetworkSpec, input_dim: int):
        if any(l.kind != "dense" for l in spec.layers):
            raise BadConfig("DenseNet accepts dense layers only")
        self.spec = spec
        self.input_dim = input_dim
        builder = _LayoutBuilder()
        fan_in = input_dim
        for idx, layer in enumerate(spec.layers):
            builder.add(f"dense{idx}.w", (fan_in, layer.width))
            builder.add(f"dense{idx}.b", (layer.width,))
            fan_in = layer.width
        builder.add("head.w", (fan_in, 1))
        builder.add("head.b", (1,))
        self._builder = builder

    def init_params(self, rng) -> NetworkParams:
        params = self._builder.allocate(self.spec.seed)
        fan_in = self.input_dim
        for idx, layer in enumerate(self.spec.layers):
            _init_dense(params, rng, f"dense{idx}", fan_in, layer.width, layer.activation)
            fan_in = layer.width
        _init_dense(params, rng, "head", fan_in, 1, "sigmoid")
        return params

    def zero_grads(self) -> NetworkParams:
        return self._builder.allocate(self.spec.seed)

    def forward(self, params, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeMismatch(f"expected (n, {self.input_dim}) input, got {x.shape}")
        a, stack_cache = _dense_stack_forward(params, "dense", self.spec.layers, x)
        q, head_cache = _head_forward(params, a)
        return q, (stack_cache, head_cache)

    def backward(self, params, cache, dq, q) -> NetworkParams:
        stack_cache, head_cache = cache
        grads = self.zero_grads()
        da = _head_backward(params, grads, head_cache, dq, q)
        _dense_stack_backward(params, grads, "dense", self.spec.layers, stack_cache, da)
        return grads

    def forward_batch(self, params, inputs):
        return self.forward(params, inputs[0])


class SeqNet:
    """LSTM sequence reader followed by a dense stack."""

    def __init__(self, spec: NetworkSpec, seq_len: int, input_dim: int = 1):
        if not spec.layers or spec.layers[0].kind != "lstm":
            raise BadConfig("SeqNet requires an lstm first layer")
        self.spec = spec
        self.seq_len = seq_len
        self.input_dim = input_dim
        self.hidden = spec.layers[0].width
        self.dense_layers = spec.layers[1:]
        builder = _LayoutBuilder()
        builder.add("lstm.wx", (input_dim, 4 * self.hidden))
        builder.add("lstm.wh", (self.hidden, 4 * self.hidden))
        builder.add("lstm.b", (4 * self.hidden,))
        fan_in = self.hidden
        for idx, layer in enumerate(self.dense_layers):
            builder.add(f"dense{idx}.w", (fan_in, layer.width))
            builder.add(f"dense{idx}.b", (layer.width,))
            fan_in = layer.width
        builder.add("head.w", (fan_in, 1))
        builder.add("head.b", (1,))
        self._builder = builder

    def init_params(self, rng) -> NetworkParams:
        params = self._builder.allocate(self.spec.seed)
        _init_lstm(params, rng, "lstm", self.input_dim, self.hidden)
        fan_in = self.hidden
        for idx, layer in enumerate(self.dense_layers):
            _init_dense(params, rng, f"dense{idx}", fan_in, layer.width, layer.activation)
            fan_in = layer.width
        _init_dense(params, rng, "head", fan_in, 1, "sigmoid")
        return params

    def zero_grads(self) -> NetworkParams:
        return self._builder.allocate(self.spec.seed)

    def _sequence(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[:, :, None]
        if x.shape[1] != self.seq_len or x.shape[2] != self.input_dim:
            raise ShapeMismatch(f"expected (n, {self.seq_len}) sequences, got {x.shape}")
        return np.ascontiguousarray(np.transpose(x, (1, 0, 2)))

    def forward(self, params, x):
        xs = self._sequence(x)
        batch = xs.shape[1]
        h0 = np.zeros((batch, self.hidden))
        hs, cs, zs = kernels.lstm_forward(
            xs, params.view("lstm.wx"), params.view("lstm.wh"), params.view("lstm.b"),
            h0, h0.copy(), False,
        )
        a, stack_cache = _dense_stack_forward(params, "dense", self.dense_layers, hs[-1])
        q, head_cache = _head_forward(params, a)
        return q, (xs, hs, cs, zs, stack_cache, head_cache)

    def backward(self, params, cache, dq, q) -> NetworkParams:
        xs, hs, cs, zs, stack_cache, head_cache = cache
        grads = self.zero_grads()
        da = _head_backward(params, grads, head_cache, dq, q)
        dh_final = _dense_stack_backward(
            params, grads, "dense", self.dense_layers, stack_cache, da
        )
        dh_all = np.zeros((self.seq_len, xs.shape[1], self.hidden))
        dh_all[-1] = dh_final
        dwx, dwh, db, _, _, _ = kernels.lstm_backward(
            xs, params.view("lstm.wx"), params.view("lstm.wh"), hs, cs, zs, dh_all, False
        )
        grads.view("lstm.wx")[:] += dwx
        grads.view("lstm.wh")[:] += dwh
        grads.view("lstm.b")[:] += db
        return grads

    def forward_batch(self, params, inputs):
        return self.forward(params, inputs[0])


class JointNet:
    """Two-branch graph: dense stack on tabular rows, LSTM on sequences,
    concatenated into a dense head; trained end to end."""

    def __init__(
        self,
        tab_layers: tuple,
        lstm_width: int,
        head_layers: tuple,
        loss: LossKind,
        tab_dim: int,
        seq_len: int,
        seed: int = 0,
    ):
        if not tab_layers:
            raise BadConfig("JointNet needs at least one tabular layer")
        self.tab_layers = tuple(tab_layers)
        self.head_layers = tuple(head_layers)
        self.lstm_width = lstm_width
        self.loss = loss
        self.tab_dim = tab_dim
        self.seq_len = seq_len
        self.seed = seed
        self.spec = NetworkSpec(layers=self.tab_layers + self.head_layers, loss=loss, seed=seed)
        builder = _LayoutBuilder()
        fan_in = tab_dim
        for idx, layer in enumerate(self.tab_layers):
            builder.add(f"tab{idx}.w", (fan_in, layer.width))
            builder.add(f"tab{idx}.b", (layer.width,))
            fan_in = layer.width
        builder.add("lstm.wx", (1, 4 * lstm_width))
        builder.add("lstm.wh", (lstm_width, 4 * lstm_width))
        builder.add("lstm.b", (4 * lstm_width,))
        fan_in = fan_in + lstm_width
        for idx, layer in enumerate(self.head_layers):
            builder.add(f"headstack{idx}.w", (fan_in, layer.width))
            builder.add(f"headstack{idx}.b", (layer.width,))
            fan_in = layer.width
        builder.add("head.w", (fan_in, 1))
        builder.add("head.b", (1,))
        self._builder = builder

    def init_params(self, rng) -> NetworkParams:
        params = self._builder.allocate(self.seed)
        fan_in = self.tab_dim
        for idx, layer in enumerate(self.tab_layers):
            _init_dense(params, rng, f"tab{idx}", fan_in, layer.width, layer.activation)
            fan_in = layer.width
        _init_lstm(params, rng, "lstm", 1, self.lstm_width)
        fan_in = fan_in + self.lstm_width
        for idx, layer in enumerate(self.head_layers):
            _init_dense(params, rng, f"headstack{idx}", fan_in, layer.width, layer.activation)
            fan_in = layer.width
        _init_dense(params, rng, "head", fan_in, 1, "sigmoid")
        return params

    def zero_grads(self) -> NetworkParams:
        return self._builder.allocate(self.seed)

    def forward(self, params, x_tab, x_seq):
        x_tab = np.asarray(x_tab, dtype=np.float64)
        if x_tab.ndim != 2 or x_tab.shape[1] != self.tab_dim:
            raise ShapeMismatch(f"expected (n, {self.tab_dim}) tabular input, got {x_tab.shape}")
        x_seq = np.asarray(x_seq, dtype=np.float64)
        if x_seq.shape != (x_tab.shape[0], self.seq_len):
            raise ShapeMismatch(f"expected (n, {self.seq_len}) sequences, got {x_seq.shape}")
        xs = np.ascontiguousarray(x_seq.T[:, :, None])
        batch = x_tab.shape[0]
        a_tab, tab_cache = _dense_stack_forward(params, "tab", self.tab_layers, x_tab)
        h0 = np.zeros((batch, self.lstm_width))
        hs, cs, zs = kernels.lstm_forward(
            xs, params.view("lstm.wx"), params.view("lstm.wh"), params.view("lstm.b"),
            h0, h0.copy(), False,
        )
        merged = np.concatenate([a_tab, hs[-1]], axis=1)
        a_head, head_stack_cache = _dense_stack_forward(
            params, "headstack", self.head_layers, merged
        )
        q, head_cache = _head_forward(params, a_head)
        return q, (xs, tab_cache, hs, cs, zs, head_stack_cache, head_cache)

    def backward(self, params, cache, dq, q) -> NetworkParams:
        xs, tab_cache, hs, cs, zs, head_stack_cache, head_cache = cache
        grads = self.zero_grads()
        da = _head_backward(params, grads, head_cache, dq, q)
        dmerged = _dense_stack_backward(
            params, grads, "headstack", self.head_layers, head_stack_cache, da
        )
        tab_width = self.tab_layers[-1].width
        da_tab = dmerged[:, :tab_width]
        dh_final = dmerged[:, tab_width:]
        _dense_stack_backward(params, grads, "tab", self.tab_layers, tab_cache, da_tab)
        dh_all = np.zeros((self.seq_len, xs.shape[1], self.lstm_width))
        dh_all[-1] = dh_final
        dwx, dwh, db, _, _, _ = kernels.lstm_backward(
            xs, params.view("lstm.wx"), params.view("lstm.wh"), hs, cs, zs, dh_all, False
        )
        grads.view("lstm.wx")[:] += dwx
        grads.view("lstm.wh")[:] += dwh
        grads.view("lstm.b")[:] += db
        return grads

    def forward_batch(self, params, inputs):
        return self.forward(params, inputs[0], inputs[1])


def build_model(spec: NetworkSpec, input_dim: int, seq_len: int | None = None):
    if spec.layers and spec.layers[0].kind == "lstm":
        if seq_len is None:
            raise BadConfig("sequence length required for an lstm network")
        return SeqNet(spec, seq_len=seq_len)
    return DenseNet(spec, input_dim=input_dim)


def forward(spec: NetworkSpec, params: NetworkParams, x) -> np.ndarray:
    """Deterministic forward pass to probabilities in (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    if spec.layers and spec.layers[0].kind == "lstm":
        model = SeqNet(spec, seq_len=x.shape[1])
    else:
        model = DenseNet(spec, input_dim=x.shape[1])
    q, _ = model.forward(params, x)
    return q


def lstm_step(cell_params: dict, x_t: np.ndarray, state):
    """One standard LSTM step (sigmoid gates, tanh candidate/output)."""
    h, c = state
    x_t = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    c = np.atleast_2d(np.asarray(c, dtype=np.float64))
    wx, wh, b = cell_params["wx"], cell_params["wh"], cell_params["b"]
    hidden = wh.shape[0]
    if x_t.shape[1] != wx.shape[0] or h.shape[1] != hidden or c.shape[1] != hidden:
        raise ShapeMismatch("lstm_step input widths do not match the cell")
    xs = np.ascontiguousarray(x_t[None, :, :])
    hs, cs, _ = kernels.lstm_forward(xs, wx, wh, b, h, c, False)
    return hs[1], cs[1]


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def like(cls, values: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(values), np.zeros_like(values))

    def update(self, values, grads, config: TrainConfig):
        self.step += 1
        self.m = config.beta1 * self.m + (1.0 - config.beta1) * grads
        self.v = config.beta2 * self.v + (1.0 - config.beta2) * grads * grads
        m_hat = self.m / (1.0 - config.beta1**self.step)
        v_hat = self.v / (1.0 - config.beta2**self.step)
        values -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)


def _batch_loss_grad(kind: LossKind, y, q, weights):
    if weights is None:
        return loss_eval(kind, y, q), loss_grad(kind, y, q)
    if kind.kind != "cross_entropy":
        raise BadConfig("sample weights are only supported with cross-entropy loss")
    from .losses import EPS

    qc = np.clip(q, EPS, 1.0 - EPS)
    per_sample = -(y * np.log(qc) + (1.0 - y) * np.log(1.0 - qc))
    return float(np.mean(weights * per_sample)), weights * loss_grad(kind, y, q)


def train(
    model,
    train_data,
    valid_data,
    config: TrainConfig,
    sample_weight: np.ndarray | None = None,
):
    """Mini-batch Adam; returns (params, per-epoch loss trace).

    Deterministic given the model spec seed: one rng drives both the
    initialization and the shuffle stream.  Early-stops on validation loss
    when valid_data is given, restoring the best parameters.
    """
    inputs, y = train_data
    if not isinstance(inputs, tuple):
        inputs = (inputs,)
    inputs = tuple(np.asarray(a, dtype=np.float64) for a in inputs)
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    if n == 0:
        raise BadConfig("training data must be nonempty")
    if any(a.shape[0] != n for a in inputs):
        raise LengthMismatch("training arrays disagree on row count")

    rng = np.random.default_rng(model.spec.seed)
    params = model.init_params(rng)
    adam = AdamState.like(params.values)
    kind = model.spec.loss
    trace = []
    best_loss = np.inf
    best_params = params.copy()
    stale = 0
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            batch_inputs = tuple(a[idx] for a in inputs)
            yb = y[idx]
            wb = None if sample_weight is None else sample_weight[idx]
            q, cache = model.forward_batch(params, batch_inputs)
            value, dq = _batch_loss_grad(kind, yb, q, wb)
            if not np.isfinite(value):
                raise NonFiniteLoss(f"loss diverged at epoch {epoch}")
            grads = model.backward(params, cache, dq, q)
            adam.update(params.values, grads.values, config)
            if not np.isfinite(params.values).all():
                raise NonFiniteLoss(f"parameters diverged at epoch {epoch}")
            epoch_loss += value * yb.shape[0]
        entry = {"epoch": epoch, "train_loss": epoch_loss / n}
        if valid_data is not None:
            v_inputs, v_y = valid_data
            if not isinstance(v_inputs, tuple):
                v_inputs = (v_inputs,)
            v_q, _ = model.forward_batch(params, v_inputs)
            v_loss = loss_eval(kind, np.asarray(v_y, dtype=np.float64), v_q)
            entry["valid_loss"] = v_loss
            if v_loss < best_loss - 1e-12:
                best_loss = v_loss
                best_params = params.copy()
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    trace.append(entry)
                    break
        trace.append(entry)
    if valid_data is not None and np.isfinite(best_loss):
        params = best_params
    if not np.isfinite(params.values).all():
        raise NonFiniteLoss("non-finite parameters after training")
    return params, trace
