"""Flat-vector training against the per-layer reference it replaced.

``training.train`` keeps every parameter in one flat vector, updates it in
place and writes gradients into reused buffers. The reference below is the
per-layer backprop, with its own forward pass that keeps pre-activations,
optimizer step and training loop it replaced, kept verbatim: it rebuilds
every layer and the network at each step. It keeps its
own per-layer gradient container and gradient clipping, copied from the
code they replaced, because ``training.clip_gradients`` is under test.
Trained models and reports must match it byte for byte.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np
import pytest

from cogram import net as netmod, synthdata, training
from cogram.net import DenseLayer, Network
from cogram.synthdata import DataConfig
from cogram.training import OptimizerConfig, TrainReport

# --- reference: per-layer backprop and training ---------------------------------


@dataclass
class _RefGradients:
    """Per-layer weight/bias gradients, shape-congruent with a Network."""

    weights: list
    biases: list

    def global_norm(self) -> float:
        total = 0.0
        for w, b in zip(self.weights, self.biases):
            total += float(np.sum(w * w)) + float(np.sum(b * b))
        return float(np.sqrt(total))

    def scaled(self, factor: float) -> "_RefGradients":
        return _RefGradients(
            weights=[w * factor for w in self.weights],
            biases=[b * factor for b in self.biases],
        )


def _ref_clip_gradients(g, clip_norm):
    """Scale the gradient down so its global L2 norm is at most clip_norm."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be > 0")
    norm = g.global_norm()
    if norm <= clip_norm:
        return g
    return g.scaled(clip_norm / norm)


def _ref_activation_derivative(z, activation):
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    if activation == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


def _ref_softmax(z):
    if not np.isfinite(z).all():
        raise ValueError("softmax requires finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _ref_log_softmax(z):
    if not np.isfinite(z).all():
        raise ValueError("log_softmax requires finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _ref_apply_activation(z, activation):
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "tanh":
        return np.tanh(z)
    return z


def _ref_forward_trace(net, x):
    """Forward pass keeping pre-activations and activations for backprop.

    Returns (pre_activations, activations) where activations[0] is the input
    batch and activations[-1] the logits.
    """
    pres = []
    acts = [x]
    a = x
    for layer in net.layers:
        z = a @ layer.weights.T
        z += layer.biases
        pres.append(z)
        a = _ref_apply_activation(z, layer.activation)
        acts.append(a)
    return pres, acts


def _ref_backward(net, x, y):
    n = x.shape[0]
    pres, acts = _ref_forward_trace(net, x)
    logits = acts[-1]
    value = float(-np.mean(np.sum(y * _ref_log_softmax(logits), axis=-1)))
    delta = (_ref_softmax(logits) - y) / n
    grad_w = [None] * len(net.layers)
    grad_b = [None] * len(net.layers)
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        delta = delta * _ref_activation_derivative(pres[k], layer.activation)
        grad_w[k] = delta.T @ acts[k]
        grad_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = delta @ layer.weights
    return value, _RefGradients(weights=grad_w, biases=grad_b)


@dataclass
class _RefState:
    config: OptimizerConfig
    step: int = 0
    velocity_w: list = field(default_factory=list)
    velocity_b: list = field(default_factory=list)
    second_w: list = field(default_factory=list)
    second_b: list = field(default_factory=list)


def _ref_init_state(config, net):
    zeros_w = [np.zeros_like(l.weights) for l in net.layers]
    zeros_b = [np.zeros_like(l.biases) for l in net.layers]
    state = _RefState(config=config, velocity_w=zeros_w, velocity_b=zeros_b)
    if config.kind == "adam":
        state.second_w = [np.zeros_like(l.weights) for l in net.layers]
        state.second_b = [np.zeros_like(l.biases) for l in net.layers]
    return state


def _ref_optimizer_step(state, net, g):
    cfg = state.config
    new_layers = []
    if cfg.kind == "sgd_momentum":
        for k, layer in enumerate(net.layers):
            state.velocity_w[k] = cfg.momentum * state.velocity_w[k] - cfg.learning_rate * g.weights[k]
            state.velocity_b[k] = cfg.momentum * state.velocity_b[k] - cfg.learning_rate * g.biases[k]
            new_layers.append(
                DenseLayer(
                    layer.weights + state.velocity_w[k],
                    layer.biases + state.velocity_b[k],
                    layer.activation,
                )
            )
    else:
        state.step += 1
        b1, b2 = cfg.betas
        corr1 = 1.0 - b1 ** state.step
        corr2 = 1.0 - b2 ** state.step
        for k, layer in enumerate(net.layers):
            state.velocity_w[k] = b1 * state.velocity_w[k] + (1 - b1) * g.weights[k]
            state.velocity_b[k] = b1 * state.velocity_b[k] + (1 - b1) * g.biases[k]
            state.second_w[k] = b2 * state.second_w[k] + (1 - b2) * g.weights[k] ** 2
            state.second_b[k] = b2 * state.second_b[k] + (1 - b2) * g.biases[k] ** 2
            step_w = cfg.learning_rate * (state.velocity_w[k] / corr1) / (
                np.sqrt(state.second_w[k] / corr2) + cfg.eps
            )
            step_b = cfg.learning_rate * (state.velocity_b[k] / corr1) / (
                np.sqrt(state.second_b[k] / corr2) + cfg.eps
            )
            new_layers.append(
                DenseLayer(layer.weights - step_w, layer.biases - step_b, layer.activation)
            )
    return Network(new_layers, net.input_dim, net.num_classes), state


def _ref_train(net, dataset, optimizer_config, epochs, batch_size=64, seed=0):
    rng = np.random.default_rng(seed)
    targets = dataset.one_hot()
    n = len(dataset)
    state = _ref_init_state(optimizer_config, net)
    epoch_losses = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, grads = _ref_backward(net, dataset.features[idx], targets[idx])
            if optimizer_config.clip_norm is not None:
                grads = _ref_clip_gradients(grads, optimizer_config.clip_norm)
            net, state = _ref_optimizer_step(state, net, grads)
            total += loss * len(idx)
        epoch_losses.append(total / n)
    return net, TrainReport(epoch_losses=epoch_losses, epochs_run=epochs, seed=int(seed))


# --- fixtures ------------------------------------------------------------------


def _pair():
    return synthdata.generate_pair(
        DataConfig(num_classes=5, dim=8, samples_per_class=30, test_samples_per_class=10,
                   seed=3),
        "heterogeneous",
    )


@pytest.fixture(scope="module")
def data():
    """150 training rows: batches of 64, 37 and 41 all leave a ragged last batch."""
    train_set, _, test = _pair()
    return train_set, test


@pytest.fixture(scope="module")
def data_b():
    """The pair's other 150 training rows."""
    return _pair()[1]


def _bytes(net, report):
    return netmod.serialize(net), json.dumps(asdict(report))


def _network(hidden: str, output: str = "identity") -> Network:
    """An 8-16-12-5 network; ``random_network`` always ends in identity, so a
    relu or tanh output layer is put in with ``DenseLayer``."""
    net = netmod.random_network([8, 16, 12, 5], 7, hidden_activation=hidden)
    *body, last = net.layers
    return Network([*body, DenseLayer(last.weights, last.biases, output)], 8, 5)


# name -> (optimizer, hidden activation, output activation, batch size, epochs)
CASES = {
    "adam": (OptimizerConfig(), "relu", "identity", 64, 3),
    "sgd_momentum": (OptimizerConfig(kind="sgd_momentum", learning_rate=5e-3), "relu",
                     "identity", 64, 3),
    "adam_clip": (OptimizerConfig(learning_rate=1e-2, clip_norm=0.5), "relu", "identity", 64, 3),
    "sgd_clip": (OptimizerConfig(kind="sgd_momentum", learning_rate=5e-2, clip_norm=0.3),
                 "tanh", "identity", 64, 3),
    "tanh_ragged": (OptimizerConfig(), "tanh", "identity", 37, 2),
    "identity_ragged": (OptimizerConfig(kind="sgd_momentum", learning_rate=1e-2),
                        "identity", "identity", 41, 2),
    "zero_epochs": (OptimizerConfig(), "relu", "identity", 64, 0),
    # the backward sweep reads the logits for these outputs' derivatives
    "relu_output": (OptimizerConfig(learning_rate=1e-2), "tanh", "relu", 64, 3),
    "tanh_output_ragged": (OptimizerConfig(kind="sgd_momentum", learning_rate=5e-2,
                                           clip_norm=0.3), "relu", "tanh", 37, 2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_train_matches_per_layer_reference_bytes(case, data):
    config, hidden, output, batch_size, epochs = CASES[case]
    train_set, _ = data
    net0 = _network(hidden, output)
    got = training.train(net0, train_set, config, epochs, batch_size, 11)
    want = _ref_train(net0, train_set, config, epochs, batch_size, 11)
    assert _bytes(*got) == _bytes(*want)


STACK_CASES = ("adam", "sgd_clip", "tanh_ragged", "relu_output", "tanh_output_ragged")


@pytest.mark.parametrize("case", STACK_CASES)
def test_stack_of_two_trains_each_network_to_its_reference_bytes(case, data, data_b):
    """Lock-step training: each network of the stack, with its own data, seed
    and start, ends where the per-layer reference takes it alone."""
    config, hidden, output, batch_size, epochs = CASES[case]
    (train_a, _), train_b = data, data_b
    net_a, net_b = _network(hidden, output), _network(hidden, output)
    net_b = net_b.with_theta(net_b.theta[::-1].copy())
    got = training.train_stack([net_a, net_b], [train_a, train_b], config, epochs,
                               batch_size, [11, 4])
    want = [_ref_train(net_a, train_a, config, epochs, batch_size, 11),
            _ref_train(net_b, train_b, config, epochs, batch_size, 4)]
    assert [_bytes(*pair) for pair in got] == [_bytes(*pair) for pair in want]
    assert _bytes(*got[0]) != _bytes(*got[1]) or epochs == 0


def test_stack_networks_are_rows_of_one_parameter_matrix(data, data_b):
    (train_a, _), train_b = data, data_b
    nets = [_network("relu"), _network("tanh", "tanh")]
    with pytest.raises(netmod.ShapeError):
        training.train_stack(nets, [train_a, train_b], OptimizerConfig(), 1, 64, [0, 1])
    net = _network("relu")
    (a, _), (b, _) = training.train_stack([net, net], [train_a, train_b], OptimizerConfig(),
                                          1, 64, [0, 1])
    assert a.theta.base is b.theta.base is not None and a.theta.base.shape == (2, net.theta.size)


def test_stack_with_unequal_row_counts_raises_shape_error(data, data_b):
    (train_a, _), train_b = data, data_b
    shorter = synthdata.Dataset(train_b.features[:-1], train_b.labels[:-1], train_b.num_classes)
    net = _network("relu")
    with pytest.raises(netmod.ShapeError, match="equal row counts"):
        training.train_stack([net, net], [train_a, shorter], OptimizerConfig(), 1, 64, [0, 1])


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("hidden, output", [("relu", "identity"), ("tanh", "relu"),
                                            ("identity", "tanh")])
def test_stacked_backward_matches_each_network_alone(hidden, output, size):
    rng = np.random.default_rng(9)
    net = _network(hidden, output)
    others = rng.normal(scale=0.5, size=(size - 1, net.theta.size))
    stack = netmod.NetworkStack(net, np.vstack([net.theta, others]))
    x = rng.normal(size=(size, 13, 8))
    labels = rng.integers(0, 5, size=(size, 13))
    work = netmod.Workspace(net, 13, size, backprop=True)
    for _ in range(2):  # a workspace keeps no state between calls
        values, grad = netmod.backward_arrays(stack, x, labels, work=work)
        for s, row in enumerate(stack.networks):
            value, alone = netmod.backward_arrays(row, x[s], labels[s])
            assert values[s] == value
            assert grad[s].tobytes() == alone.tobytes()


def test_clip_cases_do_clip(data):
    """The first batch's gradient is above both clip norms, so clipping runs."""
    train_set, _ = data
    net0 = netmod.random_network([8, 16, 12, 5], 7)
    _, g = _ref_backward(net0, train_set.features[:64], train_set.one_hot()[:64])
    assert g.global_norm() > 0.5


@pytest.mark.parametrize("rows", [1, 13])
@pytest.mark.parametrize("output", ["identity", "relu", "tanh"])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_backward_into_buffers_matches_allocating_and_reference(activation, output, rows):
    rng = np.random.default_rng(5)
    net = netmod.random_network([6, 9, 7, 4], 2, hidden_activation=activation)
    *body, last = net.layers
    net = Network([*body, DenseLayer(last.weights, last.biases, output)], 6, 4)
    x = rng.normal(size=(rows, 6))
    labels = rng.integers(0, 4, size=rows)
    value, alloc = netmod.backward_arrays(net, x, labels)
    ref_value, ref = _ref_backward(net, x, np.eye(4)[labels])
    buffers = np.full_like(net.theta, np.nan)
    out_value, returned = netmod.backward_arrays(net, x, labels, out=buffers)
    assert returned is buffers
    work = netmod.Workspace(net, rows, backprop=True)
    worked = [netmod.backward_arrays(net, x, labels, work=work) for _ in range(2)]
    assert value == out_value == ref_value == worked[0][0] == worked[1][0]
    for flat in (alloc, buffers, worked[0][1], worked[1][1]):
        got = _RefGradients(*net.layer_views(flat))
        for a, b in zip(got.weights + got.biases, ref.weights + ref.biases):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_non_finite_update_raises_the_reference_error():
    """Huge inputs, all misclassified, give a finite gradient whose step
    overflows the weights."""
    net = netmod.random_network([3, 2], 0)
    config = OptimizerConfig(kind="sgd_momentum", learning_rate=1e200)
    rng = np.random.default_rng(0)
    huge = synthdata.Dataset(rng.normal(scale=1e200, size=(4, 3)), [1, 0, 1, 0], 2)
    _, grad = netmod.backward_arrays(net, huge.features, huge.labels)
    assert np.isfinite(grad).all()
    with np.errstate(over="ignore"), pytest.raises(ValueError) as want:
        _ref_train(net, huge, config, 1, 4)
    with np.errstate(over="ignore"), pytest.raises(ValueError) as got:
        training.train(net, huge, config, 1, 4)
    assert str(got.value) == str(want.value) == "layer parameters must be finite"


def test_trained_model_shares_nothing_with_later_training(data):
    train_set, _ = data
    net0 = netmod.random_network([8, 16, 12, 5], 7)
    before = netmod.serialize(net0)
    trained, _ = training.train(net0, train_set, OptimizerConfig(), 1, 64, 1)
    snapshot = netmod.serialize(trained)
    again, _ = training.train(trained, train_set, OptimizerConfig(), 2, 64, 2)
    assert netmod.serialize(trained) == snapshot
    assert netmod.serialize(net0) == before
    assert netmod.serialize(again) != snapshot

