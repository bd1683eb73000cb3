"""Retraining-free baselines: uniform parameter averaging and diagonal
Fisher-weighted merging. The Fisher merge doubles as the initializer for
the loss-guided merge.

The Fisher estimate is the empirical diagonal with model-sampled labels:
for each input, one label is drawn from the model's own softmax and the
squared gradient of that label's log-probability is accumulated. For a
dense stack the per-sample squared gradients reduce to (delta^2)^T @ (a^2)
per layer, so the whole thing runs as one batched pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net as netmod
from .net import Network
from .synthdata import Dataset


@dataclass
class FisherInfo:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    sample_count: int


def uniform_average(a: Network, b: Network) -> Network:
    """Parameter-wise midpoint of two architecture-compatible networks."""
    netmod.require_compatible(a, b)
    return a.with_theta(0.5 * a.theta + 0.5 * b.theta)


def fisher_information(
    net: Network, dataset: Dataset, sample_cap: int = 512, seed: int = 0
) -> FisherInfo:
    """Diagonal empirical Fisher over up to sample_cap seeded samples."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if sample_cap < 1:
        raise ValueError(f"the Fisher sample cap must be >= 1, got {sample_cap!r}")
    rng = np.random.default_rng(seed)
    n = min(sample_cap, len(dataset))
    rows = rng.choice(len(dataset), size=n, replace=False) if n < len(dataset) else np.arange(n)
    x = dataset.features[rows]

    pres, acts = netmod.forward_trace(net, x)
    probs = netmod.softmax(acts[-1])
    # one label draw per sample from the model's own predictive distribution
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = 1.0  # guard cumulative rounding below 1
    u = rng.random(n)
    sampled = (u[:, None] < cum).argmax(axis=1)

    # delta = d log p(y|x) / d logits, per sample (no batch averaging)
    delta = -probs
    delta[np.arange(n), sampled] += 1.0

    fisher_w = []
    fisher_b = []
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        netmod._times_activation_derivative(delta, pres[k], layer.activation)
        d2 = delta**2
        a2 = acts[k] ** 2
        fisher_w.append(d2.T @ a2 / n)
        fisher_b.append(d2.mean(axis=0))
        if k > 0:
            delta = delta @ layer.weights
    fisher_w.reverse()
    fisher_b.reverse()
    return FisherInfo(weights=fisher_w, biases=fisher_b, sample_count=n)


def fisher_merge(
    a: Network, b: Network, f_a: FisherInfo, f_b: FisherInfo, floor: float = 1e-8
) -> Network:
    """Per-parameter Fisher-weighted average with both weights floored.

    Weighting is computed as wa = Fa/(Fa+Fb), theta = wa*a + (1-wa)*b, so
    equal Fisher values reduce to uniform_average bit-for-bit.
    """
    netmod.require_compatible(a, b)
    if floor <= 0:
        raise ValueError("floor must be > 0")
    fa = np.maximum(a.flat(f_a.weights, f_a.biases), floor)
    fb = np.maximum(b.flat(f_b.weights, f_b.biases), floor)
    wa = fa / (fa + fb)
    return a.with_theta(wa * a.theta + (1.0 - wa) * b.theta)
