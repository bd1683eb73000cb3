import numpy as np
import pytest

from cogram import net as netmod
from cogram.synthdata import Dataset


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


def _loss_ld(net, x, labels, kind):
    logits = _forward_ld(net, x)
    y = np.eye(net.num_classes)[labels]  # the one-hot targets of the labels
    if kind == "mse":
        return np.mean((logits - y.astype(np.longdouble)) ** 2)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logprobs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -np.mean(np.sum(y.astype(np.longdouble) * logprobs, axis=1))


def central_difference_gradient(net, x, labels, k, i, j, kind="cross_entropy", h=1e-5):
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

    hi = _loss_ld(perturbed(h), x, labels, kind)
    lo = _loss_ld(perturbed(-h), x, labels, kind)
    return float((hi - lo) / np.longdouble(2 * h))


def assert_gradients_match_finite_differences(net, x, labels, kind="cross_entropy",
                                              h=1e-5, tol=1e-5):
    """Every analytic entry within tol relative of the central difference."""
    _, grad = netmod.backward_arrays(net, x, labels, loss=kind)
    grad_w, grad_b = net.layer_views(grad)
    worst = 0.0
    for k, layer in enumerate(net.layers):
        for (i, j), _ in np.ndenumerate(layer.weights):
            analytic = grad_w[k][i, j]
            numeric = central_difference_gradient(net, x, labels, k, i, j, kind, h)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
            assert rel < tol, (k, i, j, analytic, numeric)
        for i in range(layer.out_dim):
            analytic = grad_b[k][i]
            numeric = central_difference_gradient(net, x, labels, k, i, None, kind, h)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
            assert rel < tol, (k, i, "bias", analytic, numeric)
    return worst


# --- an evaluation set on which M is optimal -------------------------------------


def self_consistent_eval(net, rng, n):
    """``net`` with its output layer scaled, and a set of n rows labelled with
    its argmax classes, on which the scaled network is a global optimum of
    the cross-entropy: every row's margin exceeds 40, so each row's
    log-softmax at its label is exactly 0.0, the largest a log-probability
    can be, and no candidate can strictly lower the loss. Distinct output
    biases first break the ties of rows whose hidden units are all off."""
    *below, last = net.layers

    def with_output(scale):
        biases = last.biases + 1e-3 * np.arange(net.num_classes)
        output = netmod.DenseLayer(last.weights * scale, biases * scale, last.activation)
        return netmod.Network([*below, output], net.input_dim, net.num_classes)

    def margins(m):
        top = np.sort(netmod.forward(m, x), axis=1)
        return top[:, -1] - top[:, -2]

    x = rng.normal(size=(n, net.input_dim))
    tilted = with_output(1.0)
    scaled = with_output(50.0 / np.min(margins(tilted)))
    es = Dataset(x, np.argmax(netmod.forward(tilted, x), axis=1), net.num_classes)
    assert np.all(margins(scaled) > 40)
    assert netmod.cross_entropy_loss(scaled, es) == 0.0
    return scaled, es


@pytest.fixture
def random_net_factory():
    def make(sizes, seed, activation="relu"):
        return netmod.random_network(sizes, seed, hidden_activation=activation)

    return make
