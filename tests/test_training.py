import math

import numpy as np
import pytest

from cogram import net as netmod
from cogram.net import random_network
from cogram.synthdata import Dataset
from cogram.training import (
    OptimizerConfig,
    accuracy,
    clip_gradients,
    train,
)


def _grads_like(net, value):
    return np.full_like(net.theta, value)


def _random_grads(net, rng):
    return rng.normal(size=net.theta.size)


def _norm(grad):
    return float(np.linalg.norm(grad))


def _clipped(net, grad, clip_norm):
    out = grad.copy()
    clip_gradients(net, out, clip_norm)
    return out


def _full_batch(net, data, cfg, epochs=1):
    """``net`` trained with full batches: one optimizer step per epoch."""
    trained, _ = train(net, data, cfg, epochs=epochs, batch_size=len(data))
    return trained


def _gradient(net, data):
    return netmod.backward_arrays(net, data.features, data.one_hot())[1]


def _toy_separable(n=100, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal([-2.0, 0.0], 0.3, size=(half, 2))
    x1 = rng.normal([2.0, 0.0], 0.3, size=(n - half, 2))
    return Dataset(np.vstack([x0, x1]),
                   np.array([0] * half + [1] * (n - half)), 2)


# --- clip_gradients -------------------------------------------------------------


def test_clip_noop_under_threshold():
    net = random_network([3, 2], seed=0)
    g = _grads_like(net, 0.05)  # norm ~ 0.16
    assert _norm(g) < 1.0
    clipped = _clipped(net, g, 1.0)
    assert np.array_equal(clipped, g)


def test_clip_scales_homogeneously():
    net = random_network([4, 4], seed=1)
    g = _random_grads(net, np.random.default_rng(2))
    norm = _norm(g)
    clipped = _clipped(net, g, norm / 10.0)
    assert abs(_norm(clipped) - norm / 10.0) < 1e-12
    assert np.allclose(clipped * 10.0, g, rtol=1e-12)


def test_clip_zero_gradients_safe():
    net = random_network([3, 2], seed=0)
    g = _grads_like(net, 0.0)
    clipped = _clipped(net, g, 1.0)
    assert _norm(clipped) == 0.0


def test_clip_preserves_direction():
    net = random_network([4, 3], seed=3)
    g = _random_grads(net, np.random.default_rng(4))
    clipped = _clipped(net, g, _norm(g) / 7.0)
    cos = np.dot(g, clipped) / (np.linalg.norm(g) * np.linalg.norm(clipped))
    assert abs(cos - 1.0) < 1e-12


def test_clip_rejects_bad_norm():
    net = random_network([3, 2], seed=0)
    with pytest.raises(ValueError):
        clip_gradients(net, _grads_like(net, 1.0), 0.0)


def test_clip_rejects_a_gradient_not_laid_out_like_theta():
    net = random_network([3, 2], seed=0)
    for bad in (np.ones(net.theta.size - 1), np.ones((1, net.theta.size))):
        with pytest.raises(netmod.ShapeError, match="not laid out like"):
            clip_gradients(net, bad, 1.0)


# --- the optimizer update, one full-batch step at a time ---------------------------


def test_sgd_without_momentum_is_vanilla():
    data = _toy_separable()
    net = random_network([2, 3, 2], seed=0)
    cfg = OptimizerConfig(kind="sgd_momentum", learning_rate=0.1, momentum=0.0)
    stepped = _full_batch(net, data, cfg)
    assert np.allclose(stepped.theta, net.theta - 0.1 * _gradient(net, data),
                       rtol=1e-12, atol=1e-15)


def test_sgd_momentum_second_step_displacement():
    data = _toy_separable()
    net = random_network([2, 3, 2], seed=0)
    cfg = OptimizerConfig(kind="sgd_momentum", learning_rate=0.1, momentum=0.9)
    step1 = _full_batch(net, data, cfg)
    step2 = _full_batch(net, data, cfg, epochs=2)
    d1 = step1.theta - net.theta
    d2 = step2.theta - step1.theta
    # v2 = mu * v1 - lr * g(theta1), with v1 = d1
    want = 0.9 * d1 - 0.1 * _gradient(step1, data)
    assert np.allclose(d2, want, rtol=1e-9, atol=1e-15)
    assert not np.allclose(d2, want - 0.9 * d1, rtol=1e-3)  # momentum shows


def test_adam_first_step_magnitude_is_lr():
    data = _toy_separable()
    net = random_network([2, 2], seed=1)
    cfg = OptimizerConfig(kind="adam", learning_rate=1e-3)
    deltas = np.abs(_full_batch(net, data, cfg).theta - net.theta)
    g = np.abs(_gradient(net, data))
    assert g.min() > 1e-3  # eps = 1e-8 is negligible against every gradient
    assert np.allclose(deltas, cfg.learning_rate, rtol=1e-5)


def test_train_rejects_a_dataset_that_does_not_fit_the_network():
    net = random_network([4, 3], seed=1)
    rng = np.random.default_rng(0)
    wide = Dataset(rng.normal(size=(6, 5)), np.arange(6) % 3, 3)
    with pytest.raises(netmod.ShapeError, match="does not fit a network of 4 inputs"):
        train(net, wide, OptimizerConfig(), epochs=1, batch_size=6)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(kind="adagrad")
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(kind="sgd_momentum", momentum=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(clip_norm=-1.0)


@pytest.mark.parametrize("field, value", [
    ("learning_rate", True), ("learning_rate", math.nan), ("learning_rate", math.inf),
    ("learning_rate", "0.1"), ("momentum", True), ("momentum", -0.1), ("eps", -1),
    ("eps", 0.0), ("eps", math.nan), ("clip_norm", True), ("clip_norm", 0), ("clip_norm", math.nan),
])
def test_optimizer_config_rejects_bad_field_types_and_ranges(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        OptimizerConfig(**{field: value})


@pytest.mark.parametrize("betas", [[2, 3], (0.9, 1.0), (0.9, -0.1), (True, 0.999), (0.9,),
                                   (0.9, 0.99, 0.999), 0.9, (0.9, math.nan)])
def test_optimizer_config_rejects_bad_betas(betas):
    with pytest.raises(ValueError, match="^betas"):
        OptimizerConfig(betas=betas)


def test_optimizer_config_accepts_numpy_scalars_and_list_betas():
    cfg = OptimizerConfig(learning_rate=np.float64(0.01), betas=[0.0, 0.5], eps=1e-12,
                          clip_norm=np.float64(2.0), momentum=0.0)
    assert cfg.learning_rate == 0.01 and cfg.clip_norm == 2.0


# --- train -----------------------------------------------------------------------


def test_train_zero_epochs_is_identity():
    data = _toy_separable()
    net = random_network([2, 4, 2], seed=5)
    trained, report = train(net, data, OptimizerConfig(), epochs=0)
    assert netmod.parameters_equal(net, trained)
    assert report.epochs_run == 0 and report.epoch_losses == []


def test_train_learns_separable_toy_task():
    data = _toy_separable()
    net = random_network([2, 16, 2], seed=6)
    cfg = OptimizerConfig(kind="adam", learning_rate=1e-2)
    trained, report = train(net, data, cfg, epochs=50, batch_size=32, seed=7)
    assert accuracy(trained, data) >= 0.95
    assert report.epoch_losses[-1] < report.epoch_losses[0]


def test_train_determinism():
    data = _toy_separable(seed=1)
    cfg = OptimizerConfig(kind="sgd_momentum", learning_rate=5e-3)
    runs = []
    for _ in range(2):
        net = random_network([2, 8, 2], seed=9)
        runs.append(train(net, data, cfg, epochs=5, batch_size=16, seed=11))
    (net1, rep1), (net2, rep2) = runs
    assert netmod.parameters_equal(net1, net2)
    assert rep1 == rep2


def test_train_with_clipping_and_test_split():
    data = _toy_separable(seed=2)
    test = _toy_separable(seed=3)
    cfg = OptimizerConfig(kind="adam", learning_rate=1e-2, clip_norm=0.5)
    net = random_network([2, 8, 2], seed=10)
    trained, _ = train(net, data, cfg, epochs=20, batch_size=25, seed=12)
    assert 0.0 <= accuracy(trained, test) <= 1.0


def test_train_rejects_empty_and_bad_labels():
    net = random_network([2, 2], seed=0)
    with pytest.raises(ValueError):
        train(net, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2),
              OptimizerConfig(), epochs=1)
    with pytest.raises(ValueError, match="outside the label range"):
        train(net, Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), 2), OptimizerConfig(),
              epochs=1)



def test_train_rejects_negative_epochs():
    with pytest.raises(ValueError, match="epochs"):
        train(random_network([2, 2], seed=0), _toy_separable(), OptimizerConfig(), epochs=-3)


# --- accuracy ---------------------------------------------------------------------


def test_accuracy_constant_predictor():
    net = netmod.Network(
        [netmod.DenseLayer(np.zeros((3, 4)), np.array([5.0, 0.0, 0.0]), "identity")], 4, 3
    )
    data = Dataset(np.random.default_rng(0).normal(size=(10, 4)),
                   np.zeros(10, dtype=int), 3)
    assert accuracy(net, data) == 1.0


def test_accuracy_tie_break_goes_to_lowest_class():
    c, n_per = 20, 5
    net = netmod.Network(
        [netmod.DenseLayer(np.zeros((c, 8)), np.zeros(c), "identity")], 8, c
    )
    feats = np.random.default_rng(1).normal(size=(c * n_per, 8))
    labels = np.repeat(np.arange(c), n_per)
    assert accuracy(net, Dataset(feats, labels, c)) == 1.0 / c


def test_accuracy_bounds_random_nets():
    rng = np.random.default_rng(2)
    data = Dataset(rng.normal(size=(30, 6)), rng.integers(0, 4, size=30), 4)
    for seed in range(5):
        acc = accuracy(random_network([6, 5, 4], seed), data)
        assert 0.0 <= acc <= 1.0


def test_accuracy_rejects_empty():
    net = random_network([2, 2], seed=0)
    with pytest.raises(ValueError):
        accuracy(net, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))
