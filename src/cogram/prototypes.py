"""Evaluation sets for merge decisions: prototypes and raw batches.

A prototype compresses one cluster of training samples into a single
representative input: the elementwise geometric mean of the magnitude
vectors |x|, epsilon-stabilized and computed in log space. Clusters come
from per-class k-means; with one cluster per class, every row of the class.
Raw-batch mode skips the compression and evaluates on sampled rows. Every
builder returns a ``net.EvalSet``: the rows stacked into one input array, and
the one-hot targets of their classes.
"""

from __future__ import annotations

import numpy as np

from .net import EvalSet
from .synthdata import Dataset, one_hot

DEFAULT_EPSILON = 1e-6


def geometric_mean_prototype(samples, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Elementwise (prod(|x| + eps))^(1/n), evaluated as exp(mean(log))."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[0] == 0:
        raise ValueError("need at least one sample")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    return np.exp(np.mean(np.log(np.abs(x) + epsilon), axis=0))


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator, max_iters: int):
    """Plain Lloyd's k-means. Empty clusters are re-seeded with the point
    farthest from its assigned centroid (lowest index on ties)."""
    n = points.shape[0]
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assignment = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        new_assignment = np.argmin(dists, axis=1)
        moved: set[int] = set()
        for c in range(k):
            if not np.any(new_assignment == c):
                own = dists[np.arange(n), new_assignment].copy()
                for i in moved:
                    own[i] = -np.inf
                far = int(np.argmax(own))
                new_assignment[far] = c
                moved.add(far)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(k):
            members = points[assignment == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
    return assignment


def build_prototypes_kmeans(
    dataset: Dataset,
    k_per_class: int,
    kmeans_seed: int = 0,
    max_iters: int = 50,
    epsilon: float = DEFAULT_EPSILON,
) -> EvalSet:
    """k-means within each class, then one geometric-mean prototype per cluster."""
    if k_per_class < 1:
        raise ValueError("k_per_class must be >= 1")
    rng = np.random.default_rng(kmeans_seed)
    rows, classes = [], []
    for c in np.unique(dataset.labels):
        members = dataset.features[dataset.labels == c]
        if members.shape[0] < k_per_class:
            raise ValueError(
                f"class {int(c)} has {members.shape[0]} samples, fewer than k={k_per_class}"
            )
        assignment = _lloyd(members, k_per_class, rng, max_iters)
        clusters = [members[assignment == j] for j in range(k_per_class)]
        rows += [geometric_mean_prototype(cluster, epsilon) for cluster in clusters]
        classes += [c] * len(clusters)
    return EvalSet(np.stack(rows), one_hot(classes, dataset.num_classes))


def build_raw_batch(dataset: Dataset, batch_size: int, seed: int = 0) -> EvalSet:
    """Seeded sample without replacement; rows stay untransformed."""
    n = len(dataset)
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in 1..{n}, got {batch_size}")
    rows = np.random.default_rng(seed).choice(n, size=batch_size, replace=False)
    return EvalSet(dataset.features[rows], one_hot(dataset.labels[rows], dataset.num_classes))
