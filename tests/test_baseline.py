import numpy as np
import pytest

from cogram import net as netmod
from cogram.baseline import FisherInfo, fisher_information, fisher_merge, uniform_average
from cogram.net import DenseLayer, Network, random_network
from cogram.synthdata import Dataset


def _dataset(rng, n=60, dim=6, num_classes=4):
    return Dataset(rng.normal(size=(n, dim)), rng.integers(0, num_classes, size=n),
                   num_classes)


def _constant_net(sizes, value):
    layers = []
    for k in range(len(sizes) - 1):
        act = "identity" if k == len(sizes) - 2 else "relu"
        layers.append(DenseLayer(np.full((sizes[k + 1], sizes[k]), value),
                                 np.full(sizes[k + 1], value), act))
    return Network(layers, sizes[0], sizes[-1])


def _fisher_like(net, value):
    return FisherInfo(diagonal=np.full_like(net.theta, value), sample_count=1)


# --- uniform average -------------------------------------------------------------


def test_uniform_average_of_identical_nets():
    a = random_network([5, 4, 3], seed=0)
    assert netmod.parameters_equal(uniform_average(a, a), a)


def test_uniform_average_arithmetic():
    a = _constant_net([3, 2], 1.0)
    b = _constant_net([3, 2], 3.0)
    merged = uniform_average(a, b)
    assert np.all(merged.layers[0].weights == 2.0)
    assert np.all(merged.layers[0].biases == 2.0)


def test_uniform_average_symmetric():
    a = random_network([4, 3], seed=1)
    b = random_network([4, 3], seed=2)
    assert netmod.parameters_equal(uniform_average(a, b), uniform_average(b, a))


def test_uniform_average_rejects_incompatible():
    with pytest.raises(netmod.ShapeError):
        uniform_average(random_network([4, 3], 0), random_network([4, 4], 0))


# --- fisher information ------------------------------------------------------------


def test_fisher_nonnegative_and_deterministic():
    rng = np.random.default_rng(0)
    net = random_network([6, 5, 4], seed=3)
    data = _dataset(rng)
    f1 = fisher_information(net, data, sample_cap=40, seed=11)
    f2 = fisher_information(net, data, sample_cap=40, seed=11)
    assert f1.diagonal.shape == net.theta.shape
    assert np.array_equal(f1.diagonal, f2.diagonal)
    assert np.all(f1.diagonal >= 0)
    assert f1.sample_count == 40


def test_fisher_zero_net_closed_form():
    # uniform predictor: per-sample grad wrt output bias c is 1[y=c] - 1/C,
    # all other parameter gradients vanish (zero weights, relu(0) activations)
    c = 5
    net = _constant_net([4, 6, c], 0.0)
    rng = np.random.default_rng(1)
    data = _dataset(rng, n=50, dim=4, num_classes=c)
    fisher = fisher_information(net, data, sample_cap=50, seed=2)
    weights, biases = net.layer_views(fisher.diagonal)

    assert np.all(weights[0] == 0.0)
    assert np.all(biases[0] == 0.0)
    assert np.all(weights[1] == 0.0)

    f_bias = biases[1]
    hit, miss = (1 - 1 / c) ** 2, (1 / c) ** 2
    # F_c = q_c*hit + (1-q_c)*miss for an empirical label frequency q_c
    q = (f_bias - miss) / (hit - miss)
    counts = q * 50
    assert np.allclose(counts, np.round(counts), atol=1e-9)
    assert abs(q.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_fisher_is_the_mean_squared_gradient_of_each_rows_sampled_label(activation):
    # with no more rows than the cap, the rows are arange(n) and the seed's
    # only draw is one uniform per row, for the label sampled from the softmax
    n, num_classes, seed = 30, 4, 13
    rng = np.random.default_rng(5)
    net = random_network([6, 7, 5, num_classes], seed=8, hidden_activation=activation)
    data = _dataset(rng, n=n, num_classes=num_classes)
    fisher = fisher_information(net, data, sample_cap=n, seed=seed)

    cum = np.cumsum(netmod.softmax(netmod.forward(net, data.features)), axis=1)
    cum[:, -1] = 1.0
    sampled = (np.random.default_rng(seed).random(n)[:, None] < cum).argmax(axis=1)
    expected = np.zeros_like(net.theta)
    for i in range(n):
        target = np.eye(num_classes)[sampled[i]][None, :]
        _, grad = netmod.backward_arrays(net, data.features[i : i + 1], target)
        expected += grad**2
    expected /= n
    assert fisher.sample_count == n
    np.testing.assert_allclose(fisher.diagonal, expected, rtol=1e-12, atol=0)


def test_fisher_sample_cap_and_empty():
    rng = np.random.default_rng(2)
    net = random_network([6, 4], seed=0)
    data = _dataset(rng, n=30)
    assert fisher_information(net, data, sample_cap=500, seed=0).sample_count == 30
    with pytest.raises(ValueError):
        fisher_information(net, Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int), 4), 10, 0)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="sample cap must be >= 1"):
            fisher_information(net, data, sample_cap=cap, seed=0)


# --- fisher merge --------------------------------------------------------------------


def test_fisher_merge_equal_fisher_is_uniform_average_bitwise():
    a = random_network([5, 4, 3], seed=4)
    b = random_network([5, 4, 3], seed=5)
    f = _fisher_like(a, 0.37)
    merged = fisher_merge(a, b, f, f)
    assert netmod.parameters_equal(merged, uniform_average(a, b))


def test_fisher_merge_floored_dominance():
    a = _constant_net([3, 2], 5.0)
    b = _constant_net([3, 2], -5.0)
    f_a = _fisher_like(a, 1.0)
    f_b = _fisher_like(b, 0.0)  # floored to 1e-8
    merged = fisher_merge(a, b, f_a, f_b, floor=1e-8)
    assert np.all(np.abs(merged.layers[0].weights - 5.0) < 1e-6)


def test_fisher_merge_fixed_point_when_models_equal():
    a = random_network([4, 3], seed=6)
    f_a = _fisher_like(a, 2.0)
    f_b = _fisher_like(a, 0.01)
    assert netmod.parameters_equal(fisher_merge(a, a, f_a, f_b), a)


def test_fisher_merge_convex_bounds_property():
    rng = np.random.default_rng(3)
    for seed in range(10):
        a = random_network([5, 4, 3], seed=seed)
        b = random_network([5, 4, 3], seed=seed + 100)
        f_a = FisherInfo(diagonal=rng.uniform(0, 2, a.theta.size), sample_count=1)
        f_b = FisherInfo(diagonal=rng.uniform(0, 2, b.theta.size), sample_count=1)
        merged = fisher_merge(a, b, f_a, f_b)
        for lm, la, lb in zip(merged.layers, a.layers, b.layers):
            lo = np.minimum(la.weights, lb.weights) - 1e-12
            hi = np.maximum(la.weights, lb.weights) + 1e-12
            assert np.all(lm.weights >= lo) and np.all(lm.weights <= hi)


def test_fisher_merge_validation():
    a = random_network([4, 3], seed=0)
    b = random_network([4, 3], seed=1)
    with pytest.raises(ValueError):
        fisher_merge(a, b, _fisher_like(a, 1.0), _fisher_like(b, 1.0), floor=0.0)
    with pytest.raises(netmod.ShapeError):
        bad = _fisher_like(random_network([5, 3], seed=2), 1.0)
        fisher_merge(a, b, bad, _fisher_like(b, 1.0))


def test_fisher_merge_rejects_a_fisher_with_fewer_layers():
    a = random_network([4, 5, 3], seed=0)
    b = random_network([4, 5, 3], seed=1)
    short = _fisher_like(random_network([4, 3], seed=2), 1.0)
    with pytest.raises(netmod.ShapeError):
        fisher_merge(a, b, short, _fisher_like(b, 1.0))
    with pytest.raises(netmod.ShapeError):
        fisher_merge(a, b, _fisher_like(a, 1.0), short)


def test_fisher_merge_rejects_a_fisher_that_would_broadcast():
    a = random_network([4, 3], seed=0)
    b = random_network([4, 3], seed=1)
    for diagonal in (np.ones(1), np.ones((1, b.theta.size)), np.ones(b.theta.size + 1)):
        f_b = FisherInfo(diagonal=diagonal, sample_count=1)
        with pytest.raises(netmod.ShapeError, match="not laid out like"):
            fisher_merge(a, b, _fisher_like(a, 1.0), f_b)
        with pytest.raises(netmod.ShapeError, match="not laid out like"):
            fisher_merge(a, b, f_b, _fisher_like(b, 1.0))
