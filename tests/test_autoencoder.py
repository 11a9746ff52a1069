import json
import math

import numpy as np
import pytest

from mergepipe.dataset import GeneratorConfig, generate_frame, sentiment_matrix
from mergepipe.errors import BadConfig, ShapeMismatch
from mergepipe.neural import FittedAutoencoder, TrainConfig, autoencoder_encode, autoencoder_fit
from mergepipe.neural.autoencoder import AutoencoderSpec, SequenceAutoencoder


def rel_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-8)
    return np.linalg.norm(a - b) / denom


def test_spec_validation():
    with pytest.raises(BadConfig):
        AutoencoderSpec(sequence_length=5, embedding_dim=5)
    with pytest.raises(BadConfig):
        AutoencoderSpec(embedding_dim=0)


def test_spec_has_no_activation_choice():
    doc = {**AutoencoderSpec().to_json(), "activation": "tanh"}
    with pytest.raises(BadConfig, match="unknown keys"):
        AutoencoderSpec.from_json(doc)


def test_decoder_holds_no_input_weights():
    spec = AutoencoderSpec(sequence_length=6, embedding_dim=2, hidden_width=3)
    layout = {name: shape for name, _, shape in SequenceAutoencoder(spec).zero_grads().layout}
    assert layout["dec.wx"] == (0, 12)
    assert layout["enc.wx"] == (1, 12)
    h, k = 3, 2
    enc = 4 * h + 4 * h * h + 4 * h  # wx, wh, b
    dec = 4 * h * h + 4 * h  # wh, b
    heads = (h * k + k) + 2 * (k * h + h) + (h + 1)  # embed, dec_h0, dec_c0, out
    assert sum(math.prod(shape) for shape in layout.values()) == enc + dec + heads


def test_untrained_loss_on_zero_sequences_is_bias_path_norm():
    spec = AutoencoderSpec(sequence_length=12, embedding_dim=3, hidden_width=4, seed=1)
    model = SequenceAutoencoder(spec)
    params = model.init_params(np.random.default_rng(1))
    zeros = np.zeros((6, 12))
    recon, _ = model.forward(params, zeros)
    # identical zero inputs give identical reconstruction paths
    assert np.allclose(recon, recon[0])
    value, _ = model.loss_and_grad(params, zeros)
    assert value == pytest.approx(np.linalg.norm(recon[0]), abs=1e-12)


def test_gradient_matches_finite_differences():
    spec = AutoencoderSpec(sequence_length=6, embedding_dim=2, hidden_width=3, seed=2)
    model = SequenceAutoencoder(spec)
    params = model.init_params(np.random.default_rng(2))
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.9, 0.9, (4, 6))
    _, grads = model.loss_and_grad(params, x)
    h = 1e-6
    numeric = np.empty_like(params.values)
    for i in range(params.values.shape[0]):
        orig = params.values[i]
        params.values[i] = orig + h
        up, _ = model.loss_and_grad(params, x)
        params.values[i] = orig - h
        dn, _ = model.loss_and_grad(params, x)
        params.values[i] = orig
        numeric[i] = (up - dn) / (2 * h)
    assert rel_error(grads.values, numeric) < 1e-5


def test_constant_sequences_reconstructed():
    rng = np.random.default_rng(4)
    levels = rng.uniform(-1.0, 1.0, 48)
    x = np.repeat(levels[:, None], 24, axis=1)
    spec = AutoencoderSpec(sequence_length=24, embedding_dim=3, hidden_width=8, seed=5)
    config = TrainConfig(epochs=120, batch_size=16, learning_rate=0.01)
    fitted = autoencoder_fit(spec, x, config)
    model = SequenceAutoencoder(spec)
    recon, _ = model.forward(fitted.params, x)
    rmse = np.sqrt(np.mean((recon - x) ** 2))
    assert rmse < 0.05


@pytest.mark.parametrize("seed", range(4))
def test_reconstructs_closer_than_the_mean_path(seed):
    # generated sentiment paths drift with the label; the constant to beat is
    # the per-step mean path, which needs no embedding at all
    config = GeneratorConfig(
        n_deals=200, n_numeric=4, n_categorical=2, sentiment_length=40, sentiment_signal=0.5
    )
    x = sentiment_matrix(generate_frame(config, seed=7), config.schema())
    spec = AutoencoderSpec(sequence_length=40, embedding_dim=5, hidden_width=5, seed=seed)
    fitted = autoencoder_fit(spec, x, TrainConfig())
    recon, _ = SequenceAutoencoder(spec).forward(fitted.params, x)
    distance = np.linalg.norm(recon - x, axis=1).mean()
    assert distance < np.linalg.norm(x.mean(axis=0) - x, axis=1).mean()


def test_embedding_shape_and_determinism():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, (10, 121))
    spec = AutoencoderSpec(sequence_length=121, embedding_dim=5, hidden_width=5, seed=7)
    fitted = autoencoder_fit(spec, x, TrainConfig(epochs=2, batch_size=4))
    z = autoencoder_encode(fitted, x)
    assert z.shape == (10, 5)
    again = autoencoder_fit(spec, x, TrainConfig(epochs=2, batch_size=4))
    assert np.array_equal(fitted.params.values, again.params.values)


def test_identical_sequences_identical_embeddings():
    spec = AutoencoderSpec(sequence_length=8, embedding_dim=2, hidden_width=3, seed=8)
    model = SequenceAutoencoder(spec)
    params = model.init_params(np.random.default_rng(8))
    x = np.vstack([np.linspace(-0.5, 0.5, 8)] * 3)
    z = model.encode(params, x)
    assert np.array_equal(z[0], z[1]) and np.array_equal(z[1], z[2])


def test_permuting_rows_permutes_embeddings():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, (7, 8))
    spec = AutoencoderSpec(sequence_length=8, embedding_dim=2, hidden_width=3, seed=9)
    model = SequenceAutoencoder(spec)
    params = model.init_params(np.random.default_rng(9))
    perm = rng.permutation(7)
    z = model.encode(params, x)
    z_perm = model.encode(params, x[perm])
    assert np.allclose(z_perm, z[perm], atol=1e-12)


def test_encode_wrong_length_rejected():
    spec = AutoencoderSpec(sequence_length=8, embedding_dim=2, hidden_width=3)
    model = SequenceAutoencoder(spec)
    params = model.init_params(np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        model.encode(params, np.zeros((2, 9)))


def test_reloaded_autoencoder_encodes_bit_identically():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, (12, 16))
    spec = AutoencoderSpec(sequence_length=16, embedding_dim=3, hidden_width=4, seed=3)
    fitted = autoencoder_fit(spec, x, TrainConfig(epochs=3, batch_size=4))
    doc = json.loads(json.dumps(fitted.to_json()))
    assert doc["format_version"] == 4 and "activation" not in doc["spec"]
    loaded = FittedAutoencoder.from_json(doc)
    assert loaded.params.values.tobytes() == fitted.params.values.tobytes()
    assert autoencoder_encode(loaded, x).tobytes() == autoencoder_encode(fitted, x).tobytes()
