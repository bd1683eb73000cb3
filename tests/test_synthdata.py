import numpy as np
import pytest

from cogram.synthdata import (
    DataConfig,
    Dataset,
    concat,
    generate_pair,
    generate_task,
    load_csv,
    save_csv,
)


def _small_cfg(**overrides):
    base = dict(num_classes=4, dim=6, samples_per_class=30,
                test_samples_per_class=10, seed=0)
    base.update(overrides)
    return DataConfig(**base)


def test_generate_task_deterministic():
    cfg = _small_cfg(seed=7)
    t1, e1 = generate_task(cfg)
    t2, e2 = generate_task(cfg)
    assert np.array_equal(t1.features, t2.features)
    assert np.array_equal(t1.labels, t2.labels)
    assert np.array_equal(e1.features, e2.features)


def test_generate_task_default_counts_and_balance():
    train, test = generate_task(DataConfig())
    assert train.features.shape == (20 * 200, 32)
    assert test.features.shape == (20 * 50, 32)
    counts = np.bincount(train.labels, minlength=20)
    assert np.all(counts == 200)
    counts_test = np.bincount(test.labels, minlength=20)
    assert np.all(counts_test == 50)


def test_generate_task_collapse_limit_nearest_centroid_oracle():
    cfg = _small_cfg(subcluster_shift_scale=1e-9, base_noise_sigma=1e-9,
                     num_classes=6, dim=8)
    train, test = generate_task(cfg)
    centroids = np.vstack([
        train.features[train.labels == c].mean(axis=0) for c in range(6)
    ])
    dists = np.linalg.norm(test.features[:, None, :] - centroids[None], axis=2)
    predicted = np.argmin(dists, axis=1)
    assert np.mean(predicted == test.labels) == 1.0


def test_generate_task_train_test_disjoint():
    train, test = generate_task(_small_cfg())
    train_rows = {row.tobytes() for row in train.features}
    assert not any(row.tobytes() in train_rows for row in test.features)


def test_all_values_finite_over_random_configs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        cfg = DataConfig(
            num_classes=int(rng.integers(2, 5)),
            dim=int(rng.integers(1, 8)),
            samples_per_class=int(rng.integers(3, 12)),
            test_samples_per_class=int(rng.integers(2, 6)),
            subclusters_per_class=int(rng.integers(1, 4)),
            center_scale=float(rng.uniform(0.1, 10)),
            subcluster_shift_scale=float(rng.uniform(0.1, 5)),
            base_noise_sigma=float(rng.uniform(0.05, 3)),
            a_sin=float(rng.uniform(0.01, 2)),
            a_tan=float(rng.uniform(0.01, 2)),
            tan_clamp=float(rng.uniform(0.5, 10)),
            seed=int(rng.integers(0, 1 << 31)),
        )
        train, test = generate_task(cfg)
        assert np.isfinite(train.features).all()
        assert np.isfinite(test.features).all()


def test_config_validation():
    with pytest.raises(ValueError):
        DataConfig(num_classes=1)
    with pytest.raises(ValueError):
        DataConfig(center_scale=0.0)
    with pytest.raises(ValueError):
        DataConfig(test_noise_multiplier=0.5)


def test_generate_pair_deterministic():
    cfg = _small_cfg(seed=21)
    triple1 = generate_pair(cfg, "heterogeneous")
    triple2 = generate_pair(cfg, "heterogeneous")
    for d1, d2 in zip(triple1, triple2):
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.labels, d2.labels)


def test_generate_pair_homogeneous_differs_samplewise():
    data_a, data_b, _ = generate_pair(_small_cfg(), "homogeneous")
    assert data_a.features.shape == data_b.features.shape
    assert not np.array_equal(data_a.features, data_b.features)


def test_generate_pair_heterogeneous_b_has_more_variance():
    cfg = DataConfig(num_classes=6, dim=12, samples_per_class=120,
                     test_samples_per_class=10, seed=5)
    data_a, data_b, _ = generate_pair(cfg, "heterogeneous")

    def mean_class_variance(ds):
        return np.mean([
            ds.features[ds.labels == c].var(axis=0).mean()
            for c in range(ds.num_classes)
        ])

    assert mean_class_variance(data_b) > mean_class_variance(data_a)


def test_generate_pair_rejects_unknown_mode():
    with pytest.raises(ValueError):
        generate_pair(_small_cfg(), "adversarial")


def test_generate_pair_test_is_balanced_both_modes():
    for mode in ("homogeneous", "heterogeneous"):
        _, _, test = generate_pair(_small_cfg(), mode)
        counts = np.bincount(test.labels, minlength=4)
        assert np.all(counts == 10), mode


def test_concat_stacks_and_validates():
    a, _ = generate_task(_small_cfg(seed=1))
    b, _ = generate_task(_small_cfg(seed=2))
    both = concat(a, b)
    assert len(both) == len(a) + len(b)
    with pytest.raises(ValueError):
        concat(a, Dataset(np.zeros((2, 3)), np.zeros(2, dtype=int), 4))


def test_csv_round_trip_exact(tmp_path):
    train, _ = generate_task(_small_cfg(seed=3))
    path = tmp_path / "train.csv"
    save_csv(train, path)
    loaded = load_csv(path, num_classes=train.num_classes)
    assert np.array_equal(loaded.features, train.features)
    assert np.array_equal(loaded.labels, train.labels)


def test_csv_rewrite_is_byte_identical(tmp_path):
    train, _ = generate_task(_small_cfg(seed=4))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(train, p1)
    save_csv(load_csv(p1, train.num_classes), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_header_format(tmp_path):
    train, _ = generate_task(_small_cfg())
    path = tmp_path / "t.csv"
    save_csv(train, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(f"f{j}" for j in range(6)) + ",label"


def test_csv_rejects_missing_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_csv(path)


@pytest.mark.parametrize("row, num_classes, message", [
    ("0.5,1.0,1.7", None, "not a whole number"),
    ("0.5,1.0,nan", None, "not a whole number"),
    ("0.5,1.0,-1", None, "label range"),
    ("0.5,1.0,3", 3, "label range"),
    ("nan,1.0,1", None, "non-finite feature"),
    ("0.5,inf,1", None, "non-finite feature"),
])
def test_csv_rejects_bad_values(tmp_path, row, num_classes, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,label\n0.0,0.0,0\n{row}\n")
    with pytest.raises(ValueError, match=message):
        load_csv(path, num_classes)
    path.write_text("f0,f1,label\n0.0,0.0,0\n0.5,1.0,2\n")
    assert load_csv(path, num_classes).labels.tolist() == [0, 2]
