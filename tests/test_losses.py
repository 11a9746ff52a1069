import math

import numpy as np
import pytest

from mergepipe.errors import BadConfig, LengthMismatch
from mergepipe.neural import LossKind, loss_eval, loss_grad
from mergepipe.neural.losses import loss_value_and_grad


def random_pq(rng, n=16):
    p = (rng.random(n) < 0.5).astype(float)
    q = rng.uniform(0.05, 0.95, size=n)
    return p, q


ALL_KINDS = [
    LossKind.cross_entropy(),
    LossKind.focal(gamma=2.0),
    LossKind.focal(gamma=0.7),
    LossKind.f1(),
    LossKind.tversky(alpha=0.3, beta=0.7),
    LossKind.tversky(alpha=0.5, beta=0.5),
]


def test_cross_entropy_ln2():
    assert loss_eval(LossKind.cross_entropy(), [1.0], [0.5]) == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_focal_substitution():
    # gamma=2 at (p=1, q=0.5): (1-q)^2 * ln 2
    expected = 0.25 * math.log(2.0)
    assert loss_eval(LossKind.focal(gamma=2.0), [1.0], [0.5]) == pytest.approx(
        expected, abs=1e-12
    )


def test_tversky_half_half_is_f1_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p, q = random_pq(rng)
        assert loss_eval(LossKind.tversky(0.5, 0.5), p, q) == loss_eval(LossKind.f1(), p, q)
        assert np.array_equal(
            loss_grad(LossKind.tversky(0.5, 0.5), p, q), loss_grad(LossKind.f1(), p, q)
        )


def test_f1_near_zero_at_perfect_prediction():
    p = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    assert loss_eval(LossKind.f1(), p, p) == pytest.approx(0.0, abs=1e-9)


def test_focal_gamma_to_zero_matches_cross_entropy():
    rng = np.random.default_rng(1)
    p, q = random_pq(rng)
    ce = loss_eval(LossKind.cross_entropy(), p, q)
    fl = loss_eval(LossKind.focal(gamma=1e-8), p, q)
    assert abs(ce - fl) < 1e-6
    g_ce = loss_grad(LossKind.cross_entropy(), p, q)
    g_fl = loss_grad(LossKind.focal(gamma=1e-8), p, q)
    assert np.allclose(g_ce, g_fl, atol=1e-6)


def test_weighted_cross_entropy_with_unit_weights_is_cross_entropy_bitwise():
    p, q = random_pq(np.random.default_rng(4))
    value, grad = loss_value_and_grad(LossKind.cross_entropy(), p, q)
    w_value, w_grad = loss_value_and_grad(LossKind.weighted_cross_entropy(), p, q, np.ones(16))
    assert w_value == value
    assert w_grad.tobytes() == grad.tobytes()
    with pytest.raises(BadConfig, match="weighted cross-entropy"):
        loss_value_and_grad(LossKind.cross_entropy(), p, q, np.ones(16))


def test_cross_entropy_gradient_value():
    g = loss_grad(LossKind.cross_entropy(), [1.0], [0.5])
    assert g[0] == pytest.approx(-2.0, abs=1e-12)


def central_diff(kind, p, q, h=1e-6):
    grad = np.empty_like(q)
    for i in range(q.shape[0]):
        up = q.copy()
        dn = q.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (loss_eval(kind, p, up) - loss_eval(kind, p, dn)) / (2 * h)
    return grad


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}")
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(2)
    for _ in range(5):
        p, q = random_pq(rng)
        analytic = loss_grad(kind, p, q)
        numeric = central_diff(kind, p, q)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-8)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-6


def test_bounds():
    rng = np.random.default_rng(3)
    for kind in ALL_KINDS:
        for _ in range(20):
            p, q = random_pq(rng)
            value = loss_eval(kind, p, q)
            assert value >= 0.0
            if kind.kind in ("f1", "tversky"):
                assert value <= 1.0


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        loss_eval(LossKind.cross_entropy(), [1.0, 0.0], [0.5])
