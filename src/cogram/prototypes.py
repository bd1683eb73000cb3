"""Evaluation sets for merge decisions: prototypes and raw batches.

A prototype compresses one cluster of training samples into a single
representative input: the elementwise geometric mean of the magnitude
vectors |x|, epsilon-stabilized and computed in log space. Clusters come
either straight from the labels (one per class) or from per-class k-means.
Raw-batch mode skips the compression and evaluates on sampled rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .synthdata import Dataset, one_hot

DEFAULT_EPSILON = 1e-6


@dataclass
class Prototype:
    x: np.ndarray          # representative input
    y: np.ndarray          # target distribution (one-hot in classification mode)
    source_class: int
    member_count: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.member_count < 1:
            raise ValueError("member_count must be positive")
        if np.any(self.y < 0) or abs(float(self.y.sum()) - 1.0) > 1e-9:
            raise ValueError("target must be a probability distribution")


@dataclass
class PrototypeSet:
    prototypes: list[Prototype]
    eval_mode: str = "prototypes"  # "prototypes" | "raw_batch"
    _inputs: np.ndarray | None = field(default=None, repr=False, compare=False)
    _targets: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.prototypes:
            raise ValueError("prototype set must be nonempty")
        if self.eval_mode not in ("prototypes", "raw_batch"):
            raise ValueError(f"unknown eval_mode {self.eval_mode!r}")
        dims = {p.x.shape for p in self.prototypes}
        if len(dims) != 1:
            raise ValueError("prototypes must share a common input length")

    def __len__(self) -> int:
        return len(self.prototypes)

    @property
    def inputs(self) -> np.ndarray:
        if self._inputs is None:
            self._inputs = np.vstack([p.x for p in self.prototypes])
        return self._inputs

    @property
    def targets(self) -> np.ndarray:
        if self._targets is None:
            self._targets = np.vstack([p.y for p in self.prototypes])
        return self._targets


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


def build_prototypes_onehot(dataset: Dataset, epsilon: float = DEFAULT_EPSILON) -> PrototypeSet:
    """One geometric-mean prototype per class present in the dataset."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    protos = []
    for c in np.unique(dataset.labels):
        members = dataset.features[dataset.labels == c]
        protos.append(
            Prototype(
                x=geometric_mean_prototype(members, epsilon),
                y=one_hot([int(c)], dataset.num_classes)[0],
                source_class=int(c),
                member_count=members.shape[0],
            )
        )
    return PrototypeSet(protos, eval_mode="prototypes")


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
) -> PrototypeSet:
    """k-means within each class, then one geometric-mean prototype per cluster."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if k_per_class < 1:
        raise ValueError("k_per_class must be >= 1")
    rng = np.random.default_rng(kmeans_seed)
    protos = []
    for c in np.unique(dataset.labels):
        members = dataset.features[dataset.labels == c]
        if members.shape[0] < k_per_class:
            raise ValueError(
                f"class {int(c)} has {members.shape[0]} samples, fewer than k={k_per_class}"
            )
        if k_per_class == 1:
            clusters = [members]
        else:
            assignment = _lloyd(members, k_per_class, rng, max_iters)
            clusters = [members[assignment == j] for j in range(k_per_class)]
        for cluster in clusters:
            protos.append(
                Prototype(
                    x=geometric_mean_prototype(cluster, epsilon),
                    y=one_hot([int(c)], dataset.num_classes)[0],
                    source_class=int(c),
                    member_count=cluster.shape[0],
                )
            )
    return PrototypeSet(protos, eval_mode="prototypes")


def build_raw_batch(dataset: Dataset, batch_size: int, seed: int = 0) -> PrototypeSet:
    """Seeded sample without replacement; rows stay untransformed."""
    n = len(dataset)
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in 1..{n}, got {batch_size}")
    rng = np.random.default_rng(seed)
    rows = rng.choice(n, size=batch_size, replace=False)
    protos = [
        Prototype(
            x=dataset.features[i].copy(),
            y=one_hot([int(dataset.labels[i])], dataset.num_classes)[0],
            source_class=int(dataset.labels[i]),
            member_count=1,
        )
        for i in rows
    ]
    return PrototypeSet(protos, eval_mode="raw_batch")
