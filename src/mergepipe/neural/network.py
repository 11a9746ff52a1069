"""The classifier network and the training loop, with hand-rolled backprop.

Parameters live in one flat float64 vector with a per-tensor shape table,
so the Adam update and JSON serialization are trivial.  One network class
covers every architecture: an optional dense branch on tabular rows and an
optional LSTM branch on sequences, merged into a dense stack and a scalar
sigmoid head.  ``train`` is mini-batch Adam with an optional early stop on
validation loss; the sequence autoencoder trains through it as well.  Given
the same spec seed, training is bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..errors import BadConfig, LengthMismatch, NonFiniteLoss, ShapeMismatch
from .losses import EPS, LossKind, loss_eval, loss_value_and_grad

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
        # name -> array view into values, resolved once instead of on every
        # view call; values is only ever updated in place
        self._views = {
            name: self.values[offset : offset + math.prod(shape)].reshape(shape)
            for name, offset, shape in self.layout
        }

    def view(self, name: str) -> np.ndarray:
        return self._views[name]

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


class _Layout:
    """Flat parameter layout of named dense and lstm units, in init order.

    A unit is ``(name, kind, fan_in, width, activation)``.  A dense unit owns
    ``name.w`` (fan_in, width) and ``name.b``; an lstm unit owns ``name.wx``,
    ``name.wh`` and ``name.b`` over the 4*width gate axis.  Initialization
    draws from the rng unit by unit, in this same order.
    """

    def __init__(self, units):
        self.units = tuple(units)
        entries = []
        size = 0
        for name, kind, fan_in, width, _ in self.units:
            if kind == "lstm":
                shapes = (("wx", (fan_in, 4 * width)), ("wh", (width, 4 * width)),
                          ("b", (4 * width,)))
            else:
                shapes = (("w", (fan_in, width)), ("b", (width,)))
            for suffix, shape in shapes:
                entries.append((f"{name}.{suffix}", size, shape))
                size += math.prod(shape)
        self.entries = tuple(entries)
        self.size = size

    def zeros(self, seed, out: NetworkParams | None = None) -> NetworkParams:
        """A zero store of this layout; ``out``, when given, is zeroed in place."""
        if out is None:
            return NetworkParams(np.zeros(self.size), self.entries, seed)
        out.values.fill(0.0)
        return out

    def init(self, rng, seed) -> NetworkParams:
        params = self.zeros(seed)
        for name, kind, fan_in, width, act in self.units:
            if kind == "lstm":
                _init_lstm(params, rng, name, fan_in, width)
            else:
                _init_dense(params, rng, name, fan_in, width, act)
        return params


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


def _dense_stack_forward(params, stack, x):
    cache = []
    a = x
    for name, layer in stack:
        z = a @ params.view(f"{name}.w") + params.view(f"{name}.b")
        cache.append((a, z, layer.activation))
        a = activation(layer.activation, z)
    return a, cache


def _dense_stack_backward(params, grads, stack, cache, da):
    for (name, _), (a_in, z, act) in zip(reversed(stack), reversed(cache)):
        dz = da * activation_grad(act, z)
        grads.view(f"{name}.w")[:] += a_in.T @ dz
        grads.view(f"{name}.b")[:] += dz.sum(axis=0)
        da = dz @ params.view(f"{name}.w").T
    return da


def _lstm_forward(params, name, xs, h0, c0, sigmoid_candidate=False):
    """Sweep lstm unit ``name`` over time-major xs; returns (hs, cs, gates)."""
    return kernels.lstm_forward(
        xs, params.view(f"{name}.wx"), params.view(f"{name}.wh"), params.view(f"{name}.b"),
        h0, c0, sigmoid_candidate,
    )


def _lstm_backward(params, grads, name, xs, states, dh_all, sigmoid_candidate=False):
    """Accumulate the weight gradients of lstm unit ``name``; returns (dh0, dc0)."""
    hs, cs, gates = states
    dwx, dwh, db, dh0, dc0 = kernels.lstm_backward(
        xs, params.view(f"{name}.wx"), params.view(f"{name}.wh"), hs, cs, gates, dh_all,
        sigmoid_candidate,
    )
    grads.view(f"{name}.wx")[:] += dwx
    grads.view(f"{name}.wh")[:] += dwh
    grads.view(f"{name}.b")[:] += db
    return dh0, dc0


def _head_forward(params, a):
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
    """The classifier network, with hand-rolled backprop.

    An optional dense stack reads tabular rows and an optional LSTM branch
    reads sequences; the stack's output and the LSTM's last hidden state are
    concatenated, in that order, and pass through a second dense stack into
    the scalar sigmoid head.  ``DenseNet(spec, input_dim)`` is the plain
    feedforward net on ``spec.layers``; SeqNet and JointNet map their own
    arguments onto the keyword form, where ``lstm`` is ``(hidden width,
    sequence length, per-step input width)``.

    Parameter names follow the branches present: with both, the stacks are
    ``tab{i}`` and ``headstack{i}``; with one, its stack is ``dense{i}``.
    The LSTM is ``lstm`` and the head ``head``.  Layout and init order are
    tabular stack, LSTM, second stack, head.
    """

    def __init__(self, spec: NetworkSpec, input_dim: int | None = None, *,
                 tab_layers=None, lstm=None, head_layers=()):
        tab_layers = spec.layers if tab_layers is None else tuple(tab_layers)
        head_layers = tuple(head_layers)
        if any(l.kind != "dense" for l in tab_layers + head_layers):
            raise BadConfig("DenseNet accepts dense layers only")
        if input_dim is None and (tab_layers or lstm is None):
            raise BadConfig("DenseNet needs input_dim unless it reads sequences only")
        self.spec = spec
        self.loss = spec.loss
        self.input_dim = input_dim
        self.lstm = lstm
        both = input_dim is not None and lstm is not None
        pre, post, start = ("tab", "headstack", 0) if both else ("dense", "dense", len(tab_layers))
        self._tab_stack = tuple((f"{pre}{i}", l) for i, l in enumerate(tab_layers))
        self._head_stack = tuple((f"{post}{i}", l) for i, l in enumerate(head_layers, start))

        units = []
        merged = 0

        def add_stack(stack, fan_in):
            for name, layer in stack:
                units.append((name, "dense", fan_in, layer.width, layer.activation))
                fan_in = layer.width
            return fan_in

        if input_dim is not None:
            merged = add_stack(self._tab_stack, input_dim)
        self._tab_width = merged
        if lstm is not None:
            hidden, _, seq_dim = lstm
            units.append(("lstm", "lstm", seq_dim, hidden, None))
            merged += hidden
        units.append(("head", "dense", add_stack(self._head_stack, merged), 1, "sigmoid"))
        self._layout = _Layout(units)

    def init_params(self, rng) -> NetworkParams:
        return self._layout.init(rng, self.spec.seed)

    def zero_grads(self) -> NetworkParams:
        return self._layout.zeros(self.spec.seed)

    def forward(self, params, *inputs):
        """Probabilities and the backward cache; inputs are the tabular rows
        and/or the sequences, in that order."""
        expected = (self.input_dim is not None) + (self.lstm is not None)
        if len(inputs) != expected:
            raise ShapeMismatch(f"expected {expected} input arrays, got {len(inputs)}")
        parts = []
        tab_cache = []
        lstm_cache = None
        if self.input_dim is not None:
            x = np.asarray(inputs[0], dtype=np.float64)
            if x.ndim != 2 or x.shape[1] != self.input_dim:
                raise ShapeMismatch(f"expected (n, {self.input_dim}) tabular input, got {x.shape}")
            a, tab_cache = _dense_stack_forward(params, self._tab_stack, x)
            parts.append(a)
        if self.lstm is not None:
            hidden, seq_len, seq_dim = self.lstm
            x = np.asarray(inputs[-1], dtype=np.float64)
            if x.ndim == 2:
                x = x[:, :, None]
            rows_match = not parts or x.shape[0] == parts[0].shape[0]
            if x.ndim != 3 or x.shape[1:] != (seq_len, seq_dim) or not rows_match:
                raise ShapeMismatch(f"expected (n, {seq_len}) sequences, got {x.shape}")
            xs = np.ascontiguousarray(np.transpose(x, (1, 0, 2)))
            h0 = np.zeros((xs.shape[1], hidden))
            lstm_cache = (xs, _lstm_forward(params, "lstm", xs, h0, h0.copy()))
            parts.append(lstm_cache[1][0][-1])
        merged = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        a, head_stack_cache = _dense_stack_forward(params, self._head_stack, merged)
        q, head_cache = _head_forward(params, a)
        # dense-layer caches in forward order first: tabular stack, second stack
        return q, (tab_cache + head_stack_cache, (lstm_cache, head_cache))

    def backward(self, params, cache, dq, q, grads=None) -> NetworkParams:
        """Parameter gradient; written into ``grads`` when given."""
        dense_cache, (lstm_cache, head_cache) = cache
        n_tab = len(self._tab_stack)
        grads = self._layout.zeros(self.spec.seed, grads)
        da = _head_backward(params, grads, head_cache, dq, q)
        dmerged = _dense_stack_backward(params, grads, self._head_stack, dense_cache[n_tab:], da)
        if self.input_dim is not None:
            _dense_stack_backward(
                params, grads, self._tab_stack, dense_cache[:n_tab],
                dmerged[:, : self._tab_width],
            )
        if self.lstm is not None:
            xs, states = lstm_cache
            hidden, seq_len, _ = self.lstm
            dh_all = np.zeros((seq_len, xs.shape[1], hidden))
            dh_all[-1] = dmerged[:, self._tab_width :]
            _lstm_backward(params, grads, "lstm", xs, states, dh_all)
        return grads

    def forward_batch(self, params, inputs):
        return self.forward(params, *inputs)

    def loss_and_grad(self, params, *inputs, target, weights=None, grads=None):
        """Batch loss and its parameter gradient, the step ``train`` drives."""
        q, cache = self.forward_batch(params, inputs)
        value, dq = loss_value_and_grad(self.spec.loss, target, q, weights)
        return value, self.backward(params, cache, dq, q, grads)


class SeqNet(DenseNet):
    """LSTM sequence reader followed by a dense stack."""

    def __init__(self, spec: NetworkSpec, seq_len: int, input_dim: int = 1):
        if not spec.layers or spec.layers[0].kind != "lstm":
            raise BadConfig("SeqNet requires an lstm first layer")
        super().__init__(
            spec, tab_layers=(), lstm=(spec.layers[0].width, seq_len, input_dim),
            head_layers=spec.layers[1:],
        )


class JointNet(DenseNet):
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
        spec = NetworkSpec(layers=tuple(tab_layers) + tuple(head_layers), loss=loss, seed=seed)
        super().__init__(
            spec, tab_dim, tab_layers=tab_layers, lstm=(lstm_width, seq_len, 1),
            head_layers=head_layers,
        )


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    # scratch for the update's temporaries, reused across steps
    _a: np.ndarray = field(init=False, repr=False, compare=False)
    _b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._a = np.empty_like(self.m)
        self._b = np.empty_like(self.m)

    @classmethod
    def like(cls, values: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(values), np.zeros_like(values))

    def update(self, values, grads, config: TrainConfig):
        """In place, in the operation order of
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        values -= lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)."""
        self.step += 1
        a, b = self._a, self._b
        self.m *= config.beta1
        self.m += np.multiply(grads, 1.0 - config.beta1, out=a)
        np.multiply(grads, 1.0 - config.beta2, out=a)
        a *= grads
        self.v *= config.beta2
        self.v += a
        np.divide(self.m, 1.0 - config.beta1**self.step, out=a)
        a *= config.learning_rate
        np.divide(self.v, 1.0 - config.beta2**self.step, out=b)
        np.sqrt(b, out=b)
        b += config.adam_eps
        a /= b
        values -= a


def train(
    model,
    train_data,
    valid_data,
    config: TrainConfig,
    sample_weight: np.ndarray | None = None,
):
    """Mini-batch Adam over any model; returns (params, per-epoch loss trace).

    train_data is (inputs, target): inputs is one array or a tuple of
    row-aligned arrays, and target has one entry per row (class labels for
    a classifier, the sequences themselves for the autoencoder).  The model
    provides ``spec.seed``, ``init_params(rng)``, ``zero_grads()`` and
    ``loss_and_grad(params, *batch_inputs, target=..., weights=..., grads=...)``,
    which writes each batch's gradient into the one store ``train`` owns.

    Deterministic given the spec seed: one rng draws the initialization,
    then one row permutation per epoch.  Each batch step takes the loss and
    gradient, raises NonFiniteLoss on a non-finite loss, applies one Adam
    update and raises NonFiniteLoss on non-finite parameters.  With
    valid_data, ``forward_batch`` and ``spec.loss`` score the validation
    rows after every epoch; training stops after ``patience`` epochs
    without improvement and returns the best parameters.
    """
    inputs, target = train_data
    if not isinstance(inputs, tuple):
        inputs = (inputs,)
    inputs = tuple(np.asarray(a, dtype=np.float64) for a in inputs)
    target = np.asarray(target, dtype=np.float64)
    n = target.shape[0]
    if n == 0:
        raise BadConfig("training data must be nonempty")
    if any(a.shape[0] != n for a in inputs):
        raise LengthMismatch("training arrays disagree on row count")

    rng = np.random.default_rng(model.spec.seed)
    params = model.init_params(rng)
    adam = AdamState.like(params.values)
    grads = model.zero_grads()
    trace = []
    best_loss = np.inf
    best_params = params.copy()
    stale = 0
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            value, grads = model.loss_and_grad(
                params, *(a[idx] for a in inputs), target=target[idx],
                weights=None if sample_weight is None else sample_weight[idx], grads=grads,
            )
            if not np.isfinite(value):
                raise NonFiniteLoss(f"loss diverged at epoch {epoch}")
            adam.update(params.values, grads.values, config)
            if not np.isfinite(params.values).all():
                raise NonFiniteLoss(f"parameters diverged at epoch {epoch}")
            epoch_loss += value * idx.shape[0]
        entry = {"epoch": epoch, "train_loss": epoch_loss / n}
        if valid_data is not None:
            v_inputs, v_y = valid_data
            if not isinstance(v_inputs, tuple):
                v_inputs = (v_inputs,)
            v_q, _ = model.forward_batch(params, v_inputs)
            v_loss = loss_eval(model.spec.loss, np.asarray(v_y, dtype=np.float64), v_q)
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
