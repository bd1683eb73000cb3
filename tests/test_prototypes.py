from dataclasses import dataclass, field

import numpy as np
import pytest

from cogram import prototypes
from cogram.net import EvalSet, ShapeError
from cogram.prototypes import (
    build_prototypes_kmeans,
    build_prototypes_onehot,
    build_raw_batch,
    geometric_mean_prototype,
)
from cogram.synthdata import Dataset, one_hot


def _dataset(features, labels, num_classes):
    return Dataset(np.asarray(features, dtype=float),
                   np.asarray(labels, dtype=int), num_classes)


def _balanced_dataset(rng, n_per_class=20, num_classes=4, dim=5):
    feats = rng.normal(size=(n_per_class * num_classes, dim))
    labels = np.repeat(np.arange(num_classes), n_per_class)
    return _dataset(feats, labels, num_classes)


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
    pset = build_prototypes_onehot(_balanced_dataset(np.random.default_rng(0)))
    assert len(pset) == 4
    assert pset.targets.argmax(1).tolist() == [0, 1, 2, 3]


def test_onehot_skips_absent_class():
    rng = np.random.default_rng(1)
    ds = _balanced_dataset(rng)
    keep = ds.labels != 3
    pruned = _dataset(ds.features[keep], ds.labels[keep], 4)
    pset = build_prototypes_onehot(pruned)
    assert len(pset) == 3
    assert 3 not in pset.targets.argmax(1)


def test_onehot_degenerate_cluster():
    v = np.array([2.0, -3.0, 0.5])
    ds = _dataset(np.tile(v, (5, 1)), np.zeros(5, dtype=int), 2)
    pset = build_prototypes_onehot(ds, epsilon=1e-6)
    assert np.allclose(pset.inputs[0], np.abs(v) + 1e-6, rtol=1e-12)


def test_onehot_targets_are_valid_distributions():
    pset = build_prototypes_onehot(_balanced_dataset(np.random.default_rng(2)))
    for y in pset.targets:
        assert np.all(y >= 0)
        assert abs(y.sum() - 1.0) < 1e-12


def test_onehot_rejects_empty():
    with pytest.raises(ValueError):
        build_prototypes_onehot(_dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))


# --- k-means prototypes ---------------------------------------------------------


def test_kmeans_k1_equals_onehot():
    ds = _balanced_dataset(np.random.default_rng(3))
    via_kmeans = build_prototypes_kmeans(ds, k_per_class=1, kmeans_seed=0)
    via_onehot = build_prototypes_onehot(ds)
    assert len(via_kmeans) == len(via_onehot)
    assert np.array_equal(via_kmeans.inputs, via_onehot.inputs)
    assert np.array_equal(via_kmeans.targets.argmax(1), via_onehot.targets.argmax(1))


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
        xs = [x.mean() for x in pset.inputs[pset.targets.argmax(1) == c]]
        lo, hi = sorted(xs)
        assert abs(lo - (blob_lo + c * 0.1)) < 0.5
        assert abs(hi - (blob_hi + c * 0.1)) < 0.5


def test_kmeans_deterministic():
    ds = _balanced_dataset(np.random.default_rng(5))
    p1 = build_prototypes_kmeans(ds, k_per_class=3, kmeans_seed=9)
    p2 = build_prototypes_kmeans(ds, k_per_class=3, kmeans_seed=9)
    assert np.array_equal(p1.inputs, p2.inputs)
    assert np.array_equal(p1.targets, p2.targets)


def test_kmeans_rejects_k_larger_than_class():
    ds = _balanced_dataset(np.random.default_rng(6), n_per_class=3)
    with pytest.raises(ValueError):
        build_prototypes_kmeans(ds, k_per_class=4)


# --- raw batches -----------------------------------------------------------------


def test_raw_batch_full_size_covers_every_row():
    ds = _balanced_dataset(np.random.default_rng(7), n_per_class=6)
    pset = build_raw_batch(ds, batch_size=len(ds), seed=0)
    got = np.sort(pset.inputs.view([("", float)] * ds.dim), axis=0)
    want = np.sort(ds.features.view([("", float)] * ds.dim), axis=0)
    assert np.array_equal(got, want)


def test_raw_batch_single_element():
    ds = _balanced_dataset(np.random.default_rng(8), n_per_class=4)
    pset = build_raw_batch(ds, batch_size=1, seed=3)
    assert len(pset) == 1
    assert pset.inputs.shape == (1, ds.dim) and pset.targets.shape == (1, 4)


def test_raw_batch_keeps_raw_signed_features():
    ds = _dataset([[-1.5, 2.0], [3.0, -4.0]], [0, 1], 2)
    pset = build_raw_batch(ds, batch_size=2, seed=0)
    rows = {tuple(x) for x in pset.inputs}
    assert rows == {(-1.5, 2.0), (3.0, -4.0)}


def test_raw_batch_deterministic_and_validated():
    ds = _balanced_dataset(np.random.default_rng(9))
    b1 = build_raw_batch(ds, 10, seed=4)
    b2 = build_raw_batch(ds, 10, seed=4)
    assert np.array_equal(b1.inputs, b2.inputs)
    with pytest.raises(ValueError):
        build_raw_batch(ds, 0, seed=0)
    with pytest.raises(ValueError):
        build_raw_batch(ds, len(ds) + 1, seed=0)


# --- the evaluation-set type ---------------------------------------------------


def test_builders_return_eval_sets_of_one_hot_rows():
    ds = _balanced_dataset(np.random.default_rng(10))
    for es in (build_prototypes_onehot(ds), build_prototypes_kmeans(ds, 2),
               build_raw_batch(ds, 7, seed=1)):
        assert isinstance(es, EvalSet)
        assert es.inputs.shape == (len(es), ds.dim) and es.targets.shape == (len(es), 4)
        assert np.array_equal(es.targets, one_hot(es.targets.argmax(1), 4))


def test_eval_set_holds_float64_arrays():
    es = EvalSet([[1, 2], [3, 4], [5, 6]], [[1, 0], [0, 1], [1, 0]])
    assert len(es) == 3
    assert es.inputs.dtype == es.targets.dtype == np.float64
    assert es.inputs.shape == (3, 2) and es.targets.shape == (3, 2)


@pytest.mark.parametrize("inputs, targets, error", [
    (np.zeros(4), np.eye(4), ShapeError),                  # 1-d inputs
    (np.zeros((4, 2)), np.zeros(4), ShapeError),           # 1-d targets
    (np.zeros((4, 2, 1)), np.eye(4), ShapeError),          # 3-d inputs
    (np.zeros((4, 2)), np.eye(3), ShapeError),             # row counts differ
    (np.zeros((0, 3)), np.zeros((0, 2)), ValueError),      # no rows
])
def test_eval_set_validation(inputs, targets, error):
    with pytest.raises(error) as exc:
        EvalSet(inputs, targets)
    assert type(exc.value) is error


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
                y=one_hot([int(c)], dataset.num_classes)[0],
                source_class=int(c),
                member_count=members.shape[0],
            )
        )
    return PrototypeSet(protos, eval_mode="prototypes")


def ref_build_prototypes_kmeans(
    dataset: Dataset,
    k_per_class: int,
    kmeans_seed: int = 0,
    max_iters: int = 50,
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
            assignment = prototypes._lloyd(members, k_per_class, rng, max_iters)
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
            y=one_hot([int(dataset.labels[i])], dataset.num_classes)[0],
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
    (lambda ds, s: build_prototypes_onehot(ds),
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
    for a, b in ((got.inputs, want.inputs), (got.targets, want.targets)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
