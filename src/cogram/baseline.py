"""Retraining-free baselines: uniform parameter averaging and diagonal
Fisher-weighted merging. The Fisher merge doubles as the initializer for
the loss-guided merge.

The Fisher estimate is a Monte Carlo estimate of the true Fisher diagonal:
for each input, one label is drawn from the model's own softmax and the
squared gradient of that label's log-probability is accumulated. (The
empirical Fisher would use the data's labels instead.) For a
dense stack the per-sample squared gradients reduce to (delta^2)^T @ (a^2)
per layer, so the whole thing runs as one batched pass. The estimate is one
vector laid out like the network's ``theta``, one weight per parameter, and
the Fisher merge is one expression on the two parameter vectors.
"""

from __future__ import annotations

import numpy as np

from . import net as netmod
from .net import Network
from .synthdata import Dataset

FISHER_FLOOR = 1e-8  # the least weight a parameter's Fisher value gives it in the merge


def uniform_average(a: Network, b: Network) -> Network:
    """Parameter-wise midpoint of two architecture-compatible networks."""
    netmod.require_compatible(a, b)
    return a.with_theta(0.5 * a.theta + 0.5 * b.theta)


def fisher_information(
    net: Network, dataset: Dataset, sample_cap: int = 512, seed: int = 0
) -> np.ndarray:
    """Monte Carlo estimate of the diagonal Fisher over up to sample_cap
    seeded samples, laid out like the network's ``theta``."""
    if sample_cap < 1:
        raise ValueError(f"the Fisher sample cap must be >= 1, got {sample_cap!r}")
    rng = np.random.default_rng(seed)
    n = min(sample_cap, len(dataset))
    rows = rng.choice(len(dataset), size=n, replace=False) if n < len(dataset) else np.arange(n)
    x = dataset.features[rows]

    work = netmod.Workspace(net, n, backprop=True)
    probs = netmod.softmax(netmod.forward(net, x, work))
    # one label draw per sample from the model's own predictive distribution
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = 1.0  # guard cumulative rounding below 1
    u = rng.random(n)
    sampled = (u[:, None] < cum).argmax(axis=1)

    # delta = d log p(y|x) / d logits, per sample (no batch averaging)
    delta = -probs
    delta[np.arange(n), sampled] += 1.0

    diagonal = np.empty_like(net.theta)
    fisher_w, fisher_b = net.layer_views(diagonal)
    for k, delta in netmod._pre_activation_deltas(net._plan, work, delta):
        d2 = delta**2
        a2 = (x if k == 0 else work.acts[k - 1]) ** 2
        np.divide(d2.T @ a2, n, out=fisher_w[k])
        np.mean(d2, axis=0, out=fisher_b[k])
    return diagonal


def fisher_merge(a: Network, b: Network, f_a: np.ndarray, f_b: np.ndarray) -> Network:
    """Per-parameter Fisher-weighted average with both weights floored at
    ``FISHER_FLOOR``.

    Weighting is computed as wa = Fa/(Fa+Fb), theta = wa*a + (1-wa)*b, so
    equal Fisher values reduce to uniform_average bit-for-bit. Each Fisher
    diagonal must be laid out like its network's ``theta``.
    """
    netmod.require_compatible(a, b)
    a.require_layout(f_a, "Fisher estimate of A")
    b.require_layout(f_b, "Fisher estimate of B")
    fa = np.maximum(f_a, FISHER_FLOOR)
    fb = np.maximum(f_b, FISHER_FLOOR)
    wa = fa / (fa + fb)
    return a.with_theta(wa * a.theta + (1.0 - wa) * b.theta)
