import numpy as np
import pytest

from cogram.prototypes import (
    Prototype,
    PrototypeSet,
    build_prototypes_kmeans,
    build_prototypes_onehot,
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
    assert all(p.member_count == 20 for p in pset.prototypes)
    assert [p.source_class for p in pset.prototypes] == [0, 1, 2, 3]


def test_onehot_skips_absent_class():
    rng = np.random.default_rng(1)
    ds = _balanced_dataset(rng)
    keep = ds.labels != 3
    pruned = _dataset(ds.features[keep], ds.labels[keep], 4)
    pset = build_prototypes_onehot(pruned)
    assert len(pset) == 3
    assert all(p.source_class != 3 for p in pset.prototypes)


def test_onehot_degenerate_cluster():
    v = np.array([2.0, -3.0, 0.5])
    ds = _dataset(np.tile(v, (5, 1)), np.zeros(5, dtype=int), 2)
    pset = build_prototypes_onehot(ds, epsilon=1e-6)
    assert np.allclose(pset.prototypes[0].x, np.abs(v) + 1e-6, rtol=1e-12)


def test_onehot_targets_are_valid_distributions():
    pset = build_prototypes_onehot(_balanced_dataset(np.random.default_rng(2)))
    for p in pset.prototypes:
        assert np.all(p.y >= 0)
        assert abs(p.y.sum() - 1.0) < 1e-12


def test_onehot_rejects_empty():
    with pytest.raises(ValueError):
        build_prototypes_onehot(_dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))


# --- k-means prototypes ---------------------------------------------------------


def test_kmeans_k1_equals_onehot():
    ds = _balanced_dataset(np.random.default_rng(3))
    via_kmeans = build_prototypes_kmeans(ds, k_per_class=1, kmeans_seed=0)
    via_onehot = build_prototypes_onehot(ds)
    assert len(via_kmeans) == len(via_onehot)
    for a, b in zip(via_kmeans.prototypes, via_onehot.prototypes):
        assert np.array_equal(a.x, b.x)
        assert a.source_class == b.source_class
        assert a.member_count == b.member_count


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
        xs = [p.x.mean() for p in pset.prototypes if p.source_class == c]
        lo, hi = sorted(xs)
        assert abs(lo - (blob_lo + c * 0.1)) < 0.5
        assert abs(hi - (blob_hi + c * 0.1)) < 0.5


def test_kmeans_deterministic():
    ds = _balanced_dataset(np.random.default_rng(5))
    p1 = build_prototypes_kmeans(ds, k_per_class=3, kmeans_seed=9)
    p2 = build_prototypes_kmeans(ds, k_per_class=3, kmeans_seed=9)
    for a, b in zip(p1.prototypes, p2.prototypes):
        assert np.array_equal(a.x, b.x)
        assert a.member_count == b.member_count


def test_kmeans_rejects_k_larger_than_class():
    ds = _balanced_dataset(np.random.default_rng(6), n_per_class=3)
    with pytest.raises(ValueError):
        build_prototypes_kmeans(ds, k_per_class=4)


# --- raw batches -----------------------------------------------------------------


def test_raw_batch_full_size_covers_every_row():
    ds = _balanced_dataset(np.random.default_rng(7), n_per_class=6)
    pset = build_raw_batch(ds, batch_size=len(ds), seed=0)
    assert pset.eval_mode == "raw_batch"
    got = np.sort(pset.inputs.view([("", float)] * ds.dim), axis=0)
    want = np.sort(ds.features.view([("", float)] * ds.dim), axis=0)
    assert np.array_equal(got, want)


def test_raw_batch_single_element():
    ds = _balanced_dataset(np.random.default_rng(8), n_per_class=4)
    pset = build_raw_batch(ds, batch_size=1, seed=3)
    assert len(pset) == 1
    assert pset.prototypes[0].member_count == 1


def test_raw_batch_keeps_raw_signed_features():
    ds = _dataset([[-1.5, 2.0], [3.0, -4.0]], [0, 1], 2)
    pset = build_raw_batch(ds, batch_size=2, seed=0)
    rows = {tuple(p.x) for p in pset.prototypes}
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


# --- set container -------------------------------------------------------------


def test_prototype_set_validation():
    p = Prototype(np.ones(3), np.array([1.0, 0.0]), 0, 1)
    with pytest.raises(ValueError):
        PrototypeSet([])
    with pytest.raises(ValueError):
        PrototypeSet([p], eval_mode="mystery")
    with pytest.raises(ValueError):
        Prototype(np.ones(3), np.array([0.5, 0.2]), 0, 1)  # not a distribution
