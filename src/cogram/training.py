"""Minibatch training for the dense networks: SGD with momentum and Adam.

Runs are deterministic: the seed drives init-free training (the caller
seeds the initial network separately) and the per-epoch shuffle, so the
same (net, data, config, seed) always produces bit-identical parameters.

Training updates a network's whole parameter vector ``theta`` in place.
Gradients, their clipping and the optimizer moments use the same layout,
so an update is a few whole-vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net as netmod
from .net import Network
from .synthdata import Dataset, check_number


@dataclass
class OptimizerConfig:
    kind: str = "adam"                    # "sgd_momentum" | "adam"
    learning_rate: float = 1e-3
    momentum: float = 0.9                 # sgd only
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    clip_norm: float | None = None        # global L2 ceiling, optional

    def __post_init__(self):
        if self.kind not in ("sgd_momentum", "adam"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
        check_number("learning_rate", self.learning_rate, strict=True)
        check_number("eps", self.eps, strict=True)
        if self.clip_norm is not None:
            check_number("clip_norm", self.clip_norm, strict=True)
        if not (isinstance(self.betas, (tuple, list)) and len(self.betas) == 2):
            raise ValueError(f"betas must be two numbers, got {self.betas!r}")
        for name, value in zip(("momentum", "betas[0]", "betas[1]"), (self.momentum, *self.betas)):
            check_number(name, value, below=1)


@dataclass
class TrainReport:
    epoch_losses: list[float]
    final_train_accuracy: float
    final_test_accuracy: float | None
    epochs_run: int
    seed: int


@dataclass
class OptimizerState:
    """Moments laid out like the network's ``theta``: the SGD velocity or
    Adam's first moment, and Adam's second moment."""

    config: OptimizerConfig
    step: int = 0
    velocity: np.ndarray | None = None
    second: np.ndarray | None = None


def init_optimizer_state(config: OptimizerConfig, net: Network) -> OptimizerState:
    size = net.theta.size
    second = np.zeros(size) if config.kind == "adam" else None
    return OptimizerState(config=config, velocity=np.zeros(size), second=second)


def clip_gradients(net: Network, grad: np.ndarray, clip_norm: float) -> None:
    """Scale ``grad``, a gradient laid out like ``net.theta``, in place so
    its global L2 norm is at most clip_norm. The squares are summed layer by
    layer, weights then biases, as a per-layer clip sums them, to the bit."""
    check_number("clip_norm", clip_norm, strict=True)
    net.require_layout(grad, "gradient")
    total = 0.0
    for w, b in zip(*net.layer_views(grad)):
        total += float(np.sum(w * w)) + float(np.sum(b * b))
    norm = float(np.sqrt(total))
    if norm > clip_norm:
        grad *= clip_norm / norm


def _update(state: OptimizerState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One optimizer update of ``theta`` in place. The elementwise operations
    and their order are those of the per-layer rule, so every bit is kept."""
    cfg = state.config
    v, s = state.velocity, state.second
    if cfg.kind == "sgd_momentum":
        v *= cfg.momentum
        v -= cfg.learning_rate * grad
        theta += v
    else:
        state.step += 1
        b1, b2 = cfg.betas
        corr1 = 1.0 - b1 ** state.step
        corr2 = 1.0 - b2 ** state.step
        v *= b1
        v += (1 - b1) * grad
        s *= b2
        s += (1 - b2) * grad ** 2
        step = v / corr1
        step *= cfg.learning_rate
        denom = s / corr2
        np.sqrt(denom, out=denom)
        denom += cfg.eps
        step /= denom
        theta -= step
    if not np.isfinite(theta).all():
        raise ValueError("layer parameters must be finite")


def optimizer_step(
    state: OptimizerState, net: Network, grad: np.ndarray
) -> tuple[Network, OptimizerState]:
    """One update with ``grad``, a gradient laid out like ``net.theta``.
    SGD: v <- mu*v - lr*g, theta <- theta + v. Adam: bias-corrected."""
    net.require_layout(grad, "gradient")
    theta = net.theta.copy()
    _update(state, theta, grad)
    return net.with_theta(theta), state


def accuracy(net: Network, dataset: Dataset) -> float:
    """Fraction of samples whose argmax logit hits the label; ties go to the
    lowest class index."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    logits = netmod.forward(net, dataset.features)
    return float(np.mean(np.argmax(logits, axis=1) == dataset.labels))


def train(
    net: Network,
    dataset: Dataset,
    optimizer_config: OptimizerConfig,
    epochs: int,
    batch_size: int = 64,
    seed: int = 0,
    test_data: Dataset | None = None,
) -> tuple[Network, TrainReport]:
    """Seeded minibatch training; per-epoch reshuffles come from the seed."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if np.any(dataset.labels < 0) or np.any(dataset.labels >= dataset.num_classes):
        raise ValueError("labels out of range for num_classes")
    check_number("batch_size", batch_size, 1, integer=True)
    check_number("epochs", epochs, 0, integer=True)
    rng = np.random.default_rng(seed)
    targets = dataset.one_hot()
    n = len(dataset)
    state = init_optimizer_state(optimizer_config, net)
    clip_norm = optimizer_config.clip_norm
    # each step writes the gradient into one buffer and updates theta, the
    # trained network's own parameters, in place
    theta = net.theta.copy()
    trained = net.with_theta(theta)
    grad = np.empty_like(theta)
    epoch_losses: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, _ = netmod.backward_arrays(
                trained, dataset.features[idx], targets[idx], loss="cross_entropy", out=grad
            )
            if clip_norm is not None:
                clip_gradients(trained, grad, clip_norm)
            _update(state, theta, grad)
            total += loss * len(idx)
        epoch_losses.append(total / n)
    report = TrainReport(
        epoch_losses=epoch_losses,
        final_train_accuracy=accuracy(trained, dataset),
        final_test_accuracy=accuracy(trained, test_data) if test_data is not None else None,
        epochs_run=epochs,
        seed=int(seed),
    )
    return trained, report
