import numpy as np
import pytest

from cogram import net as netmod
from cogram.net import EvalSet as ArrayEvalSet


# --- extended-precision central-difference oracle ------------------------------
#
# The difference L(w+h) - L(w-h) cancels ~11 digits at h=1e-5, so the oracle
# evaluates the loss in longdouble; the finite-difference formula itself is
# unchanged.


def _forward_ld(net, x):
    a = x.astype(np.longdouble)
    for layer in net.layers:
        z = a @ layer.weights.astype(np.longdouble).T + layer.biases.astype(np.longdouble)
        if layer.activation == "relu":
            a = np.maximum(z, np.longdouble(0.0))
        elif layer.activation == "tanh":
            a = np.tanh(z)
        else:
            a = z
    return a


def _loss_ld(net, x, y, kind):
    logits = _forward_ld(net, x)
    if kind == "mse":
        return np.mean((logits - y.astype(np.longdouble)) ** 2)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logprobs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -np.mean(np.sum(y.astype(np.longdouble) * logprobs, axis=1))


def central_difference_gradient(net, x, y, k, i, j, kind="cross_entropy", h=1e-5):
    """d loss / d (weight [k][i, j], or bias [k][i] when j is None)."""

    def perturbed(delta):
        layers = [
            netmod.DenseLayer(l.weights.copy(), l.biases.copy(), l.activation)
            for l in net.layers
        ]
        if j is None:
            layers[k].biases[i] += delta
        else:
            layers[k].weights[i, j] += delta
        return netmod.Network(layers, net.input_dim, net.num_classes)

    hi = _loss_ld(perturbed(h), x, y, kind)
    lo = _loss_ld(perturbed(-h), x, y, kind)
    return float((hi - lo) / np.longdouble(2 * h))


def assert_gradients_match_finite_differences(net, x, y, kind="cross_entropy",
                                              h=1e-5, tol=1e-5):
    """Every analytic entry within tol relative of the central difference."""
    _, grad = netmod.backward_arrays(net, x, y, loss=kind)
    grad_w, grad_b = net.layer_views(grad)
    worst = 0.0
    for k, layer in enumerate(net.layers):
        for (i, j), _ in np.ndenumerate(layer.weights):
            analytic = grad_w[k][i, j]
            numeric = central_difference_gradient(net, x, y, k, i, j, kind, h)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
            assert rel < tol, (k, i, j, analytic, numeric)
        for i in range(layer.out_dim):
            analytic = grad_b[k][i]
            numeric = central_difference_gradient(net, x, y, k, i, None, kind, h)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
            assert rel < tol, (k, i, "bias", analytic, numeric)
    return worst


@pytest.fixture
def eval_set_factory():
    def make(rng, n, dim, num_classes, positive=False):
        x = rng.normal(size=(n, dim))
        if positive:
            x = np.abs(x) + 0.1
        labels = rng.integers(0, num_classes, size=n)
        y = np.eye(num_classes)[labels]
        return ArrayEvalSet(x, y)

    return make


@pytest.fixture
def random_net_factory():
    def make(sizes, seed, activation="relu"):
        return netmod.random_network(sizes, seed, hidden_activation=activation)

    return make
