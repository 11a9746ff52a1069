import math

import numpy as np
import pytest

from mergepipe import kernels
from mergepipe.errors import BadConfig, NonFiniteLoss, ShapeMismatch
from mergepipe.neural import (
    DenseNet,
    JointNet,
    LayerSpec,
    LossKind,
    NetworkParams,
    NetworkSpec,
    SeqNet,
    TrainConfig,
    train,
)
from mergepipe.neural.network import SELU_ALPHA, SELU_LAMBDA, AdamState, activation


def rel_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-8)
    return np.linalg.norm(a - b) / denom


def fd_param_grad(loss_fn, params, h=1e-6):
    grad = np.empty_like(params.values)
    for i in range(params.values.shape[0]):
        orig = params.values[i]
        params.values[i] = orig + h
        up = loss_fn(params)
        params.values[i] = orig - h
        dn = loss_fn(params)
        params.values[i] = orig
        grad[i] = (up - dn) / (2 * h)
    return grad


class TestActivations:
    def test_selu_fixed_points(self):
        assert activation("selu", np.array([0.0]))[0] == 0.0
        assert activation("selu", np.array([1.0]))[0] == pytest.approx(SELU_LAMBDA)

    def test_selu_constants_from_fixed_point_equations(self):
        # mean/variance-preserving fixed point under a standard normal input:
        #   E[selu(x)] = 0 and E[selu(x)^2] = 1
        phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
        e_exp_neg = math.exp(0.5) * phi(-1.0)  # E[e^x 1{x<0}]
        alpha = inv_sqrt_2pi / (0.5 - e_exp_neg)
        e_exp2_neg = math.exp(2.0) * phi(-2.0)  # E[e^{2x} 1{x<0}]
        second = 0.5 + alpha * alpha * (e_exp2_neg - 2.0 * e_exp_neg + 0.5)
        lam = 1.0 / math.sqrt(second)
        assert alpha == pytest.approx(SELU_ALPHA, abs=5e-8)
        assert lam == pytest.approx(SELU_LAMBDA, abs=5e-8)


def dense_spec(widths, act="elu", loss=None, seed=0):
    layers = tuple(LayerSpec("dense", w, act) for w in widths)
    return NetworkSpec(layers=layers, loss=loss or LossKind.cross_entropy(), seed=seed)


class TestForward:
    def test_zero_weights_give_half(self):
        spec = dense_spec([4])
        model = DenseNet(spec, input_dim=3)
        params = model.zero_grads()  # all-zero parameter vector
        q, _ = model.forward(params, np.ones((5, 3)))
        assert np.allclose(q, 0.5)

    def test_relu_dead_layer_passes_bias(self):
        spec = dense_spec([4], act="relu")
        model = DenseNet(spec, input_dim=2)
        params = model.zero_grads()
        params.view("dense0.w")[:] = -1.0  # negative pre-activations on positive input
        params.view("head.b")[:] = 0.3
        q, _ = model.forward(params, np.ones((3, 2)))
        expected = 1.0 / (1.0 + np.exp(-0.3))
        assert np.allclose(q, expected)

    def test_shape_mismatch(self):
        spec = dense_spec([4])
        model = DenseNet(spec, input_dim=3)
        params = model.init_params(np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            model.forward(params, np.ones((2, 5)))

    def test_output_strictly_inside_unit_interval_even_saturated(self):
        spec = dense_spec([], act="none")
        model = DenseNet(spec, input_dim=1)
        params = model.zero_grads()
        params.view("head.w")[:] = 1.0
        q, _ = model.forward(params, np.array([[1000.0], [-1000.0], [0.0]]))
        assert (q > 0.0).all() and (q < 1.0).all()

    def test_lstm_only_first_position(self):
        with pytest.raises(BadConfig):
            NetworkSpec(
                layers=(LayerSpec("dense", 4, "relu"), LayerSpec("lstm", 4)),
                loss=LossKind.cross_entropy(),
            )


def single_step(cell, x_t, h, c):
    """One standard LSTM step (sigmoid gates, tanh candidate): a T=1 sweep."""
    hs, cs, _ = kernels.lstm_forward(x_t[None], cell["wx"], cell["wh"], cell["b"], h, c, False)
    return hs[1], cs[1]


class TestLstmStep:
    def cell(self, rng, in_dim=2, hidden=3, scale=0.5):
        return {
            "wx": rng.normal(0, scale, (in_dim, 4 * hidden)),
            "wh": rng.normal(0, scale, (hidden, 4 * hidden)),
            "b": rng.normal(0, scale, 4 * hidden),
        }

    def test_zero_everything_gives_zero_h(self):
        cell = {
            "wx": np.zeros((2, 12)),
            "wh": np.zeros((3, 12)),
            "b": np.zeros(12),
        }
        h, c = single_step(cell, np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 3)))
        assert np.allclose(h, 0.0) and np.allclose(c, 0.0)

    def test_saturated_forget_gate_keeps_cell(self):
        rng = np.random.default_rng(4)
        cell = self.cell(rng)
        cell["b"][3:6] = 50.0  # forget block saturates at 1
        c_prev = rng.normal(0, 1, (1, 3))
        x = rng.normal(0, 1, (1, 2))
        h_prev = np.zeros((1, 3))
        _, c_new = single_step(cell, x, h_prev, c_prev)
        # c' = c + i*g when f == 1
        z = x @ cell["wx"] + h_prev @ cell["wh"] + cell["b"]
        i_g = 1.0 / (1.0 + np.exp(-z[:, :3]))
        g = np.tanh(z[:, 6:9])
        assert np.allclose(c_new, c_prev + i_g * g, atol=1e-12)

    def test_bptt_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        spec = NetworkSpec(
            layers=(LayerSpec("lstm", 3), LayerSpec("dense", 4, "elu")),
            loss=LossKind.cross_entropy(),
            seed=1,
        )
        model = SeqNet(spec, seq_len=7)
        params = model.init_params(np.random.default_rng(1))
        x = rng.normal(0, 0.8, (4, 7))
        y = np.array([1.0, 0.0, 1.0, 0.0])

        def loss_fn(p):
            q, _ = model.forward(p, x)
            from mergepipe.neural import loss_eval

            return loss_eval(spec.loss, y, q)

        from mergepipe.neural import loss_grad

        q, cache = model.forward(params, x)
        grads = model.backward(params, cache, loss_grad(spec.loss, y, q), q)
        numeric = fd_param_grad(loss_fn, params)
        assert rel_error(grads.values, numeric) < 1e-5


class TestDenseGradients:
    @pytest.mark.parametrize("act", ["elu", "selu", "sigmoid", "relu"])
    def test_matches_finite_differences(self, act):
        rng = np.random.default_rng(6)
        for trial in range(3):
            spec = dense_spec([5, 3], act=act, seed=trial)
            model = DenseNet(spec, input_dim=4)
            params = model.init_params(np.random.default_rng(10 + trial))
            # keep pre-activations away from the relu/selu kink so central
            # differences see a smooth function
            for _ in range(20):
                x = rng.normal(0, 1, (6, 4))
                _, (stack_cache, _) = model.forward(params, x)
                margin = min(np.abs(z).min() for _, z, _ in stack_cache)
                if margin > 1e-3:
                    break
            y = (rng.random(6) < 0.5).astype(float)

            def loss_fn(p):
                q, _ = model.forward(p, x)
                from mergepipe.neural import loss_eval

                return loss_eval(spec.loss, y, q)

            from mergepipe.neural import loss_grad

            q, cache = model.forward(params, x)
            grads = model.backward(params, cache, loss_grad(spec.loss, y, q), q)
            numeric = fd_param_grad(loss_fn, params)
            assert rel_error(grads.values, numeric) < 1e-6


class TestJointGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        model = JointNet(
            tab_layers=(LayerSpec("dense", 3, "selu"),),
            lstm_width=3,
            head_layers=(LayerSpec("dense", 4, "elu"),),
            loss=LossKind.tversky(0.3, 0.7),
            tab_dim=4,
            seq_len=6,
            seed=2,
        )
        params = model.init_params(np.random.default_rng(2))
        x_tab = rng.normal(0, 1, (5, 4))
        x_seq = rng.normal(0, 0.7, (5, 6))
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])

        def loss_fn(p):
            q, _ = model.forward(p, x_tab, x_seq)
            from mergepipe.neural import loss_eval

            return loss_eval(model.loss, y, q)

        from mergepipe.neural import loss_grad

        q, cache = model.forward(params, x_tab, x_seq)
        grads = model.backward(params, cache, loss_grad(model.loss, y, q), q)
        numeric = fd_param_grad(loss_fn, params)
        assert rel_error(grads.values, numeric) < 1e-5


def separable_toy(seed, n=80):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(float)
    X = rng.normal(0, 0.4, (n, 2)) + np.where(y[:, None] > 0, 2.0, -2.0)
    return X, y


class TestTraining:
    def test_linearly_separable_toy(self):
        X, y = separable_toy(8)
        spec = dense_spec([8], act="elu", seed=3)
        model = DenseNet(spec, input_dim=2)
        config = TrainConfig(epochs=200, batch_size=16, learning_rate=0.01, threshold=0.5)
        params, trace = train(model, (X, y), None, config)
        q, _ = model.forward(params, X)
        accuracy = ((q >= 0.5) == (y > 0)).mean()
        assert accuracy >= 0.99
        assert len(trace) == 200

    def test_zero_learning_rate_keeps_params(self):
        X, y = separable_toy(9, n=30)
        spec = dense_spec([4], seed=4)
        model = DenseNet(spec, input_dim=2)
        init = model.init_params(np.random.default_rng(spec.seed))
        config = TrainConfig(epochs=3, learning_rate=0.0)
        params, _ = train(model, (X, y), None, config)
        assert np.array_equal(params.values, init.values)

    def test_same_seed_is_bitwise_reproducible(self):
        X, y = separable_toy(10, n=40)
        spec = dense_spec([4], seed=5)
        config = TrainConfig(epochs=5)
        p1, _ = train(DenseNet(spec, input_dim=2), (X, y), None, config)
        p2, _ = train(DenseNet(spec, input_dim=2), (X, y), None, config)
        assert np.array_equal(p1.values, p2.values)

    def test_divergence_raises(self):
        X, y = separable_toy(11, n=30)
        spec = dense_spec([4], seed=6)
        model = DenseNet(spec, input_dim=2)
        config = TrainConfig(epochs=50, learning_rate=1e300)
        with pytest.raises(NonFiniteLoss):
            with np.errstate(all="ignore"):
                train(model, (X, y), None, config)

    def test_early_stop_on_validation(self):
        # labels independent of features: validation loss cannot keep
        # improving, so patience must fire long before the epoch cap
        rng = np.random.default_rng(12)
        X = rng.normal(0, 1, (60, 2))
        y = (rng.random(60) < 0.5).astype(float)
        spec = dense_spec([8], seed=7)
        model = DenseNet(spec, input_dim=2)
        config = TrainConfig(epochs=500, patience=5, learning_rate=0.05)
        params, trace = train(model, (X[:40], y[:40]), (X[40:], y[40:]), config)
        assert len(trace) < 500
        assert np.isfinite(params.values).all()


class TestTrainingBuffers:
    """train reuses one gradient store and updates Adam in place; both must
    give the results of fresh arrays bit for bit."""

    def test_adam_in_place_matches_formula(self):
        rng = np.random.default_rng(13)
        config = TrainConfig(learning_rate=3e-3)
        values = rng.normal(size=50)
        expected = values.copy()
        m, v = np.zeros(50), np.zeros(50)
        adam = AdamState.like(values)
        for step in range(1, 8):
            grads = rng.normal(size=50) * 10.0 ** rng.uniform(-6, 3, size=50)
            adam.update(values, grads, config)
            m = config.beta1 * m + (1.0 - config.beta1) * grads
            v = config.beta2 * v + (1.0 - config.beta2) * grads * grads
            m_hat = m / (1.0 - config.beta1**step)
            v_hat = v / (1.0 - config.beta2**step)
            expected -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
            assert np.array_equal(values, expected)
            assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)

    def test_backward_into_a_used_store(self):
        joint = JointNet(
            tab_layers=(LayerSpec("dense", 3, "selu"),), lstm_width=2,
            head_layers=(LayerSpec("dense", 4, "elu"),), loss=LossKind.cross_entropy(),
            tab_dim=4, seq_len=5,
        )
        rng = np.random.default_rng(14)
        params = joint.init_params(rng)
        tab, seq = rng.normal(size=(6, 4)), rng.normal(size=(6, 5))
        target = (rng.random(6) < 0.5).astype(float)
        _, fresh = joint.loss_and_grad(params, tab, seq, target=target)
        store = joint.zero_grads()
        store.values[:] = rng.normal(size=store.values.shape)
        _, reused = joint.loss_and_grad(params, tab, seq, target=target, grads=store)
        assert reused is store
        assert np.array_equal(reused.values, fresh.values)
        assert joint.zero_grads() is not joint.zero_grads()
        assert not joint.zero_grads().values.any()

    def test_views_alias_values(self):
        params = DenseNet(dense_spec([3]), input_dim=2).zero_grads()
        params.values[:] = np.arange(params.values.size)
        assert params.view("dense0.b").tolist() == [6.0, 7.0, 8.0]
        params.view("head.b")[:] = -1.0
        assert params.values[-1] == -1.0
        assert params.copy().view("head.b") is not params.view("head.b")


def test_parameter_layouts_are_pinned():
    # names, offsets and shapes are the model.json format
    dense = DenseNet(dense_spec([3, 2]), input_dim=4)
    assert dense.zero_grads().layout == (
        ("dense0.w", 0, (4, 3)), ("dense0.b", 12, (3,)),
        ("dense1.w", 15, (3, 2)), ("dense1.b", 21, (2,)),
        ("head.w", 23, (2, 1)), ("head.b", 25, (1,)),
    )
    seq_spec = NetworkSpec(
        layers=(LayerSpec("lstm", 3), LayerSpec("dense", 2, "elu")), loss=LossKind.cross_entropy()
    )
    assert SeqNet(seq_spec, seq_len=5).zero_grads().layout == (
        ("lstm.wx", 0, (1, 12)), ("lstm.wh", 12, (3, 12)), ("lstm.b", 48, (12,)),
        ("dense0.w", 60, (3, 2)), ("dense0.b", 66, (2,)),
        ("head.w", 68, (2, 1)), ("head.b", 70, (1,)),
    )
    joint = JointNet(
        tab_layers=(LayerSpec("dense", 3, "selu"),),
        lstm_width=2,
        head_layers=(LayerSpec("dense", 4, "elu"),),
        loss=LossKind.cross_entropy(),
        tab_dim=4,
        seq_len=5,
    )
    assert joint.zero_grads().layout == (
        ("tab0.w", 0, (4, 3)), ("tab0.b", 12, (3,)),
        ("lstm.wx", 15, (1, 8)), ("lstm.wh", 23, (2, 8)), ("lstm.b", 39, (8,)),
        ("headstack0.w", 47, (5, 4)), ("headstack0.b", 67, (4,)),
        ("head.w", 71, (4, 1)), ("head.b", 75, (1,)),
    )
    for model in (dense, joint):
        init = model.init_params(np.random.default_rng(0))
        assert init.layout == model.zero_grads().layout


def test_params_json_round_trip():
    spec = dense_spec([3], seed=8)
    model = DenseNet(spec, input_dim=2)
    params = model.init_params(np.random.default_rng(0))
    again = NetworkParams.from_json(params.to_json())
    assert np.array_equal(again.values, params.values)
    assert again.layout == params.layout


def test_spec_json_round_trip():
    spec = NetworkSpec(
        layers=(LayerSpec("dense", 32, "selu"), LayerSpec("dense", 8, "elu")),
        loss=LossKind.tversky(0.3, 0.7),
        seed=9,
    )
    assert NetworkSpec.from_json(spec.to_json()) == spec
    focal = NetworkSpec(layers=(), loss=LossKind.focal(gamma=1.5), seed=0)
    assert NetworkSpec.from_json(focal.to_json()) == focal
