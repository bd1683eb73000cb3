"""Minibatch training for the dense networks: SGD with momentum and Adam.

Runs are deterministic: the seed drives init-free training (the caller
seeds the initial network separately) and the per-epoch shuffle, so the
same (net, data, config, seed) always produces bit-identical parameters.

Training updates a network's whole parameter vector ``theta`` in place.
Gradients, their clipping and the optimizer moments use the same layout,
so an update is a few whole-vector operations, written into scratch
vectors made once per run. Each step gathers its batch into a workspace
made once per batch size and runs ``net.backward_arrays`` into it.

There is one training loop, ``train_stack``: it trains several networks of
one shape in lock-step, each with its own data and seed, as one stack whose
parameters, gradients and moments are matrices with a row per network.
``train`` is a stack of one. Every network ends bit-identical to training it
alone.
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
    epochs_run: int
    seed: int


@dataclass
class OptimizerState:
    """Moments laid out like the network's ``theta`` (a row per network for
    a stack): the SGD velocity or Adam's first moment, and Adam's second
    moment."""

    config: OptimizerConfig
    step: int = 0
    velocity: np.ndarray | None = None
    second: np.ndarray | None = None


def _zero_state(config: OptimizerConfig, shape: tuple) -> OptimizerState:
    second = np.zeros(shape) if config.kind == "adam" else None
    return OptimizerState(config=config, velocity=np.zeros(shape), second=second)


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


def _scratch(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``_update`` writes into: two arrays shaped like ``theta`` and one
    finiteness mask."""
    return np.empty(theta.shape), np.empty(theta.shape), np.empty(theta.shape, dtype=bool)


def _update(state: OptimizerState, theta: np.ndarray, grad: np.ndarray, scratch) -> None:
    """One optimizer update of ``theta`` in place, through the arrays of
    ``_scratch(theta)``. The elementwise operations and their order are those
    of the per-layer rule, so every bit is kept; each row of a stacked
    ``theta`` updates as it would alone."""
    cfg = state.config
    v, s = state.velocity, state.second
    step, denom, finite = scratch
    if cfg.kind == "sgd_momentum":
        v *= cfg.momentum
        v -= np.multiply(cfg.learning_rate, grad, out=step)
        theta += v
    else:
        state.step += 1
        b1, b2 = cfg.betas
        corr1 = 1.0 - b1 ** state.step
        corr2 = 1.0 - b2 ** state.step
        v *= b1
        v += np.multiply(1 - b1, grad, out=step)
        s *= b2
        np.multiply(grad, grad, out=step)
        s += np.multiply(1 - b2, step, out=step)
        np.divide(v, corr1, out=step)
        step *= cfg.learning_rate
        np.divide(s, corr2, out=denom)
        np.sqrt(denom, out=denom)
        denom += cfg.eps
        step /= denom
        theta -= step
    if not np.logical_and.reduce(np.isfinite(theta, out=finite), axis=None):
        raise ValueError("layer parameters must be finite")


def accuracy(net: Network, dataset: Dataset) -> float:
    """Fraction of samples whose argmax logit hits the label; ties go to the
    lowest class index."""
    logits = netmod.forward(net, dataset.features)
    return float(np.mean(np.argmax(logits, axis=1) == dataset.labels))


def train(
    net: Network,
    dataset: Dataset,
    optimizer_config: OptimizerConfig,
    epochs: int,
    batch_size: int = 64,
    seed: int = 0,
) -> tuple[Network, TrainReport]:
    """Seeded minibatch training; per-epoch reshuffles come from the seed.
    It runs ``train_stack`` on a stack of this one network."""
    [(trained, report)] = train_stack(
        [net], [dataset], optimizer_config, epochs, batch_size, [seed],
    )
    return trained, report


def train_stack(
    nets,
    datasets,
    optimizer_config: OptimizerConfig,
    epochs: int,
    batch_size: int,
    seeds,
) -> list[tuple[Network, TrainReport]]:
    """Trains S networks of one shape in lock-step, network s on
    ``datasets[s]`` with its own shuffles from ``seeds[s]``. Each network and
    report is bit-identical to what ``train`` gives it alone.

    The datasets must have equal row counts, so that every step is one
    stacked ``backward_arrays`` call over the same number of rows per
    network. The parameters, the gradient and the optimizer moments are
    (S, P) matrices updated in place; each trained network is a row of the
    parameter matrix, and the gradient is clipped one row at a time.
    """
    nets, datasets, seeds = list(nets), list(datasets), list(seeds)
    if not nets or len({len(nets), len(datasets), len(seeds)}) != 1:
        raise ValueError("need one dataset and seed per network")
    net = nets[0]
    for other in nets[1:]:
        netmod.require_compatible(net, other)
    for dataset in datasets:
        if (dataset.dim, dataset.num_classes) != (net.input_dim, net.num_classes):
            raise netmod.ShapeError(
                f"a dataset of {dataset.dim} features and {dataset.num_classes} classes does "
                f"not fit a network of {net.input_dim} inputs and {net.num_classes} logits"
            )
    n = len(datasets[0])
    if any(len(dataset) != n for dataset in datasets):
        raise netmod.ShapeError(
            f"networks trained together need equal row counts, got {[len(d) for d in datasets]}"
        )
    check_number("batch_size", batch_size, 1, integer=True)
    check_number("epochs", epochs, 0, integer=True)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    state = _zero_state(optimizer_config, (len(nets), net.theta.size))
    clip_norm = optimizer_config.clip_norm
    # each step writes the gradients into one buffer and updates theta, whose
    # rows are the trained networks' own parameters, in place; every other
    # array of a step lives in the workspace of its batch's row count
    stack = netmod.NetworkStack(net, np.stack([other.theta for other in nets]))
    theta, trained = stack.theta, stack.networks
    grad = np.empty_like(theta)
    scratch = _scratch(theta)
    works: dict[int, netmod.Workspace] = {}
    epoch_losses: list[list[float]] = [[] for _ in nets]
    for _ in range(epochs):
        orders = [rng.permutation(n) for rng in rngs]
        totals = [0.0] * len(nets)
        for start in range(0, n, batch_size):
            rows = min(batch_size, n - start)
            work = works.get(rows)
            if work is None:
                work = works[rows] = netmod.Workspace(net, rows, len(nets), backprop=True)
            for s, order in enumerate(orders):
                idx = order[start : start + rows]
                # the indices are in range; mode "raise" would copy ``out`` on every call
                np.take(datasets[s].features, idx, axis=0, out=work.x[s], mode="clip")
                np.take(datasets[s].labels, idx, out=work.labels[s], mode="clip")
            losses, _ = netmod.backward_arrays(
                stack, work.x, work.labels, loss="cross_entropy", out=grad, work=work
            )
            if clip_norm is not None:
                for s, row in enumerate(trained):
                    clip_gradients(row, grad[s], clip_norm)
            _update(state, theta, grad, scratch)
            for s, loss in enumerate(losses):
                totals[s] += loss * rows
        for s, total in enumerate(totals):
            epoch_losses[s].append(total / n)
    return [
        (row, TrainReport(
            epoch_losses=losses,
            epochs_run=epochs,
            seed=int(seed),
        ))
        for row, losses, seed in zip(trained, epoch_losses, seeds)
    ]
