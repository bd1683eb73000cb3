from dataclasses import dataclass, field

import numpy as np
import pytest

from cogram import prototypes
from cogram.merge import MergeConfig, build_eval_set
from cogram.prototypes import (
    build_prototypes_kmeans,
    build_raw_batch,
    geometric_mean_prototype,
)
from cogram.synthdata import Dataset


def _dataset(features, labels, num_classes):
    return Dataset(np.asarray(features, dtype=float),
                   np.asarray(labels, dtype=int), num_classes)


def _balanced_dataset(rng, n_per_class=20, num_classes=4, dim=5):
    feats = rng.normal(size=(n_per_class * num_classes, dim))
    labels = np.repeat(np.arange(num_classes), n_per_class)
    return _dataset(feats, labels, num_classes)


def _onehot(dataset, epsilon=prototypes.DEFAULT_EPSILON):
    """The ``onehot`` evaluation set: one geometric-mean prototype per class."""
    return build_eval_set(dataset, MergeConfig(prototype="onehot", epsilon=epsilon))


# --- geometric mean ---------------------------------------------------------


def test_geometric_mean_single_sample():
    v = np.array([1.0, -2.0, 0.0, 3.5])
    eps = 1e-6
    out = geometric_mean_prototype([v], epsilon=eps)
    assert np.allclose(out, np.abs(v) + eps, rtol=1e-12)


def test_geometric_mean_closed_form_pair():
    out = geometric_mean_prototype([np.array([1.0, 4.0]), np.array([4.0, 1.0])],
                                   epsilon=1e-15)
    assert np.allclose(out, [2.0, 2.0], rtol=1e-9)


def test_geometric_mean_sign_symmetry():
    a = geometric_mean_prototype([[3.0, -1.0], [2.0, 5.0]])
    b = geometric_mean_prototype([[-3.0, 1.0], [-2.0, -5.0]])
    assert np.array_equal(a, b)


def test_geometric_mean_matches_direct_product_small_clusters():
    rng = np.random.default_rng(0)
    eps = 1e-6
    for n in range(1, 9):
        samples = rng.uniform(-10, 10, size=(n, 7))
        got = geometric_mean_prototype(samples, epsilon=eps)
        direct = np.prod(np.abs(samples) + eps, axis=0) ** (1.0 / n)
        rel = np.abs(got - direct) / np.abs(direct)
        assert rel.max() < 1e-10


def test_geometric_mean_scale_property():
    rng = np.random.default_rng(1)
    samples = rng.uniform(0.5, 4.0, size=(6, 5))
    t = 3.7
    base = geometric_mean_prototype(samples, epsilon=1e-12)
    scaled = geometric_mean_prototype(t * samples, epsilon=1e-12)
    assert np.allclose(scaled, t * base, rtol=1e-6)


def test_geometric_mean_strictly_positive_and_validated():
    out = geometric_mean_prototype(np.zeros((4, 3)), epsilon=1e-6)
    assert np.all(out >= 1e-6 * (1 - 1e-12))
    with pytest.raises(ValueError):
        geometric_mean_prototype(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        geometric_mean_prototype(np.ones((2, 2)), epsilon=0.0)


# --- one-hot prototypes -------------------------------------------------------


def test_onehot_counts_balanced():
    pset = _onehot(_balanced_dataset(np.random.default_rng(0)))
    assert len(pset) == 4
    assert pset.labels.tolist() == [0, 1, 2, 3]


def test_onehot_skips_absent_class():
    rng = np.random.default_rng(1)
    ds = _balanced_dataset(rng)
    keep = ds.labels != 3
    pruned = _dataset(ds.features[keep], ds.labels[keep], 4)
    pset = _onehot(pruned)
    assert len(pset) == 3
    assert 3 not in pset.labels


def test_onehot_degenerate_cluster():
    v = np.array([2.0, -3.0, 0.5])
    ds = _dataset(np.tile(v, (5, 1)), np.zeros(5, dtype=int), 2)
    pset = _onehot(ds, epsilon=1e-6)
    assert np.allclose(pset.features[0], np.abs(v) + 1e-6, rtol=1e-12)


def test_onehot_labels_are_integer_classes():
    pset = _onehot(_balanced_dataset(np.random.default_rng(2)))
    assert pset.labels.dtype == np.int64 and pset.num_classes == 4


def test_onehot_rejects_empty():
    with pytest.raises(ValueError):
        _onehot(_dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))


# --- k-means prototypes ---------------------------------------------------------


def test_onehot_eval_set_equals_kmeans_1():
    ds = _balanced_dataset(np.random.default_rng(3))
    via_onehot = build_eval_set(ds, MergeConfig(prototype="onehot"))
    via_kmeans = build_eval_set(ds, MergeConfig(prototype="kmeans:1"))
    for a, b in ((via_onehot.features, via_kmeans.features),
                 (via_onehot.labels, via_kmeans.labels)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_kmeans_recovers_planted_blobs():
    rng = np.random.default_rng(4)
    blob_lo, blob_hi = 2.0, 8.0  # separation 6 = 120 sigma, all positive
    feats, labels = [], []
    for c in range(3):
        feats.append(rng.normal(blob_lo + c * 0.1, 0.05, size=(15, 4)))
        feats.append(rng.normal(blob_hi + c * 0.1, 0.05, size=(15, 4)))
        labels += [c] * 30
    ds = _dataset(np.vstack(feats), labels, 3)
    pset = build_prototypes_kmeans(ds, k_per_class=2, kmeans_seed=1)
    assert len(pset) == 6
    for c in range(3):
        xs = [x.mean() for x in pset.features[pset.labels == c]]
        lo, hi = sorted(xs)
        assert abs(lo - (blob_lo + c * 0.1)) < 0.5
        assert abs(hi - (blob_hi + c * 0.1)) < 0.5


def test_kmeans_deterministic():
    ds = _balanced_dataset(np.random.default_rng(5))
    p1 = build_prototypes_kmeans(ds, k_per_class=3, kmeans_seed=9)
    p2 = build_prototypes_kmeans(ds, k_per_class=3, kmeans_seed=9)
    assert np.array_equal(p1.features, p2.features)
    assert np.array_equal(p1.labels, p2.labels)


def test_kmeans_rejects_k_larger_than_class():
    ds = _balanced_dataset(np.random.default_rng(6), n_per_class=3)
    with pytest.raises(ValueError):
        build_prototypes_kmeans(ds, k_per_class=4)


# --- raw batches -----------------------------------------------------------------


def test_raw_batch_full_size_covers_every_row():
    ds = _balanced_dataset(np.random.default_rng(7), n_per_class=6)
    pset = build_raw_batch(ds, batch_size=len(ds), seed=0)
    got = np.sort(pset.features.view([("", float)] * ds.dim), axis=0)
    want = np.sort(ds.features.view([("", float)] * ds.dim), axis=0)
    assert np.array_equal(got, want)


def test_raw_batch_single_element():
    ds = _balanced_dataset(np.random.default_rng(8), n_per_class=4)
    pset = build_raw_batch(ds, batch_size=1, seed=3)
    assert len(pset) == 1
    assert pset.features.shape == (1, ds.dim) and pset.labels.shape == (1,)


def test_raw_batch_keeps_raw_signed_features():
    ds = _dataset([[-1.5, 2.0], [3.0, -4.0]], [0, 1], 2)
    pset = build_raw_batch(ds, batch_size=2, seed=0)
    rows = {tuple(x) for x in pset.features}
    assert rows == {(-1.5, 2.0), (3.0, -4.0)}


def test_raw_batch_deterministic_and_validated():
    ds = _balanced_dataset(np.random.default_rng(9))
    b1 = build_raw_batch(ds, 10, seed=4)
    b2 = build_raw_batch(ds, 10, seed=4)
    assert np.array_equal(b1.features, b2.features)
    with pytest.raises(ValueError):
        build_raw_batch(ds, 0, seed=0)
    with pytest.raises(ValueError):
        build_raw_batch(ds, len(ds) + 1, seed=0)


# --- the evaluation-set type ---------------------------------------------------


def test_builders_return_datasets_of_labelled_rows():
    ds = _balanced_dataset(np.random.default_rng(10))
    for es in (_onehot(ds), build_prototypes_kmeans(ds, 2),
               build_raw_batch(ds, 7, seed=1)):
        assert isinstance(es, Dataset) and es.num_classes == 4
        assert es.features.dtype == np.float64 and es.features.shape == (len(es), ds.dim)
        assert es.labels.dtype == np.int64 and es.labels.shape == (len(es),)


# --- the per-row builders they replace, kept verbatim as the reference ----------------


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


def ref_build_prototypes_onehot(
    dataset: Dataset, epsilon: float = prototypes.DEFAULT_EPSILON
) -> PrototypeSet:
    """One geometric-mean prototype per class present in the dataset."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    protos = []
    for c in np.unique(dataset.labels):
        members = dataset.features[dataset.labels == c]
        protos.append(
            Prototype(
                x=geometric_mean_prototype(members, epsilon),
                y=np.eye(dataset.num_classes)[int(c)],
                source_class=int(c),
                member_count=members.shape[0],
            )
        )
    return PrototypeSet(protos, eval_mode="prototypes")


def ref_build_prototypes_kmeans(
    dataset: Dataset,
    k_per_class: int,
    kmeans_seed: int = 0,
    epsilon: float = prototypes.DEFAULT_EPSILON,
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
            assignment = prototypes._lloyd(members, k_per_class, rng)
            clusters = [members[assignment == j] for j in range(k_per_class)]
        for cluster in clusters:
            protos.append(
                Prototype(
                    x=geometric_mean_prototype(cluster, epsilon),
                    y=np.eye(dataset.num_classes)[int(c)],
                    source_class=int(c),
                    member_count=cluster.shape[0],
                )
            )
    return PrototypeSet(protos, eval_mode="prototypes")


def ref_build_raw_batch(dataset: Dataset, batch_size: int, seed: int = 0) -> PrototypeSet:
    """Seeded sample without replacement; rows stay untransformed."""
    n = len(dataset)
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in 1..{n}, got {batch_size}")
    rng = np.random.default_rng(seed)
    rows = rng.choice(n, size=batch_size, replace=False)
    protos = [
        Prototype(
            x=dataset.features[i].copy(),
            y=np.eye(dataset.num_classes)[int(dataset.labels[i])],
            source_class=int(dataset.labels[i]),
            member_count=1,
        )
        for i in rows
    ]
    return PrototypeSet(protos, eval_mode="raw_batch")


def _uneven_dataset(seed):
    """Unequal class sizes, one class of the label range absent."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, c) for c, n in ((0, 9), (1, 23), (3, 14), (4, 5))])
    return _dataset(rng.normal(size=(len(labels), 7)) * 3.0, rng.permutation(labels), 6)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("build, reference", [
    (lambda ds, s: _onehot(ds),
     lambda ds, s: ref_build_prototypes_onehot(ds)),
    (lambda ds, s: build_prototypes_kmeans(ds, 1, kmeans_seed=s),
     lambda ds, s: ref_build_prototypes_kmeans(ds, 1, kmeans_seed=s)),
    (lambda ds, s: build_prototypes_kmeans(ds, 3, kmeans_seed=s, epsilon=1e-3),
     lambda ds, s: ref_build_prototypes_kmeans(ds, 3, kmeans_seed=s, epsilon=1e-3)),
    (lambda ds, s: build_raw_batch(ds, 1, seed=s), lambda ds, s: ref_build_raw_batch(ds, 1, seed=s)),
    (lambda ds, s: build_raw_batch(ds, 32, seed=s),
     lambda ds, s: ref_build_raw_batch(ds, 32, seed=s)),
    (lambda ds, s: build_raw_batch(ds, 51, seed=s),
     lambda ds, s: ref_build_raw_batch(ds, 51, seed=s)),
], ids=["onehot", "kmeans1", "kmeans3", "batch1", "batch32", "batch_all"])
def test_builders_are_byte_equal_to_the_per_row_reference(build, reference, seed):
    ds = _uneven_dataset(seed)
    got, want = build(ds, seed), reference(ds, seed)
    assert len(got) == len(want)
    assert got.features.dtype == want.inputs.dtype and got.features.shape == want.inputs.shape
    assert got.features.tobytes() == want.inputs.tobytes()
    assert got.labels.tolist() == [p.source_class for p in want.prototypes]
