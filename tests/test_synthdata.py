import dataclasses
import math
import re

import numpy as np
import pytest

from cogram.synthdata import (
    DataConfig,
    Dataset,
    concat,
    generate_pair,
    load_csv,
    save_csv,
)


def _small_cfg(**overrides):
    base = dict(num_classes=4, dim=6, samples_per_class=30,
                test_samples_per_class=10, seed=0)
    base.update(overrides)
    return DataConfig(**base)


def test_generate_pair_default_counts_and_balance():
    train, other, test = generate_pair(DataConfig(), "heterogeneous")
    for data in (train, other):
        assert data.features.shape == (20 * 200, 32)
        assert np.all(np.bincount(data.labels, minlength=20) == 200)
    assert test.features.shape == (20 * 50, 32)
    assert np.all(np.bincount(test.labels, minlength=20) == 50)


def test_generate_pair_collapse_limit_nearest_centroid_oracle():
    cfg = _small_cfg(subcluster_shift_scale=1e-9, base_noise_sigma=1e-9,
                     num_classes=6, dim=8)
    train, _, test = generate_pair(cfg, "homogeneous")
    centroids = np.vstack([
        train.features[train.labels == c].mean(axis=0) for c in range(6)
    ])
    dists = np.linalg.norm(test.features[:, None, :] - centroids[None], axis=2)
    predicted = np.argmin(dists, axis=1)
    assert np.mean(predicted == test.labels) == 1.0


def test_generate_pair_rows_are_disjoint_both_modes():
    for mode in ("homogeneous", "heterogeneous"):
        data_a, data_b, test = generate_pair(_small_cfg(), mode)
        rows = [{row.tobytes() for row in d.features} for d in (data_a, data_b, test)]
        assert sum(map(len, rows)) == len(set().union(*rows)), mode


def test_all_values_finite_over_random_configs():
    rng = np.random.default_rng(0)
    for i in range(100):
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
        for data in generate_pair(cfg, ("homogeneous", "heterogeneous")[i % 2]):
            assert np.isfinite(data.features).all()


def test_config_validation():
    with pytest.raises(ValueError):
        DataConfig(num_classes=1)
    with pytest.raises(ValueError):
        DataConfig(center_scale=0.0)
    with pytest.raises(ValueError):
        DataConfig(test_noise_multiplier=0.5)


@pytest.mark.parametrize("field, value, message", [
    ("num_classes", 3.0, "num_classes must be an integer >= 2, got 3.0"),
    ("num_classes", 1, "num_classes must be an integer >= 2, got 1"),
    ("samples_per_class", True, "samples_per_class must be an integer >= 1, got True"),
    ("dim", "4", "dim must be an integer >= 1, got '4'"),
    ("test_samples_per_class", 0, "test_samples_per_class must be an integer >= 1, got 0"),
    ("subclusters_per_class", 1.5, "subclusters_per_class must be an integer >= 1, got 1.5"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
    ("seed", None, "seed must be an integer >= 0, got None"),
    ("center_scale", math.nan, "center_scale must be a number > 0, got nan"),
    ("a_tan", math.inf, "a_tan must be a number > 0, got inf"),
    ("base_noise_sigma", "0.4", "base_noise_sigma must be a number > 0, got '0.4'"),
    ("tan_clamp", False, "tan_clamp must be a number > 0, got False"),
    ("test_noise_multiplier", math.nan, "test_noise_multiplier must be a number >= 1, got nan"),
])
def test_config_rejects_bad_field_types_and_ranges(field, value, message):
    # each of these used to pass the constructor and then fail, or run, every seed
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DataConfig(**{field: value})


def test_config_accepts_numpy_integers_and_integral_reals():
    cfg = _small_cfg(num_classes=np.int64(3), dim=np.int32(5), center_scale=2,
                     test_noise_multiplier=np.float64(1.0))
    train, _, _ = generate_pair(cfg, "homogeneous")
    assert train.features.shape == (3 * 30, 5)


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


def test_generate_pair_gives_a_and_b_equal_row_counts_both_modes():
    # A and B train in lock-step, which needs as many rows on each side
    for mode in ("homogeneous", "heterogeneous"):
        a, b, _ = generate_pair(_small_cfg(samples_per_class=7, subclusters_per_class=2), mode)
        assert len(a) == len(b) == 7 * 4, mode


def test_concat_stacks_and_validates():
    a, b, _ = generate_pair(_small_cfg(seed=1), "homogeneous")
    both = concat(a, b)
    assert len(both) == len(a) + len(b)
    with pytest.raises(ValueError):
        concat(a, Dataset(np.zeros((2, 3)), np.zeros(2, dtype=int), 4))


@pytest.mark.parametrize("features, labels, message", [
    (np.zeros((0, 3)), np.zeros(0, dtype=int), "^empty dataset$"),
    (np.zeros(4), np.zeros(4, dtype=int), r"^features must be 2-d \(rows, dim\), got shape \(4,"),
    (np.zeros((4, 3)), np.zeros(3, dtype=int), r"^4 feature rows but labels of shape \(3,\)$"),
    ([[0.0, 1.0], [2.0, np.nan]], [0, 1], "^data row 2 has a non-finite feature$"),
    ([[np.inf, 1.0], [2.0, 3.0]], [0, 1], "^data row 1 has a non-finite feature$"),
    (np.zeros((3, 2)), [0, -1, 2], r"^label -1 is outside the label range 0\.\.2$"),
    (np.zeros((3, 2)), [0, 3, 2], r"^label 3 is outside the label range 0\.\.2$"),
    (np.zeros((3, 2)), [0.5, 1.7, 2.2], r"^data row 1 has label 0\.5, not a whole number$"),
    (np.zeros((3, 2)), [0.0, 1.0, 1.5], r"^data row 3 has label 1\.5, not a whole number$"),
    (np.zeros((3, 2)), [0.0, np.nan, 2.0], r"^data row 2 has label nan, not a whole number$"),
    (np.zeros((3, 2)), [0.0, 1.0, -np.inf], r"^data row 3 has label -inf, not a whole number$"),
    (np.zeros((3, 2)), [0.0, 1e30, 2.0], r"^label 1000000000000000019884624838656 is outside "),
])
def test_dataset_refuses_rows_no_consumer_can_use(features, labels, message):
    with pytest.raises(ValueError, match=message):
        Dataset(features, labels, 3)


def test_dataset_labels_cannot_change_after_the_checks():
    labels = np.array([0, 2, 1])
    data = Dataset(np.zeros((3, 2)), labels, 3)
    labels[1] = -1  # the dataset holds its own copy
    assert data.labels.tolist() == [0, 2, 1]
    with pytest.raises(ValueError, match="read-only"):
        data.labels[1] = -1
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.labels = np.array([0, -1, 1])


def test_load_csv_names_the_file_in_what_dataset_refuses(tmp_path):
    path = tmp_path / "bad.csv"
    for rows, message in (("0.5,1.0,3\n", "label 3 is outside the label range 0..2"),
                          ("0.5,nan,1\n", "data row 2 has a non-finite feature")):
        path.write_text("f0,f1,label\n0.0,0.0,0\n" + rows)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_csv(path, 3)


def test_heterogeneous_test_set_of_one_row_per_class_is_a_half_alone():
    # (n + 1) // 2 of n test rows per class come from A's generator, so with
    # one row B's half is empty
    one = _small_cfg(test_samples_per_class=1)
    _, _, test = generate_pair(one, "heterogeneous")
    assert np.array_equal(test.labels, np.arange(4))
    _, _, two = generate_pair(_small_cfg(test_samples_per_class=2), "heterogeneous")
    assert np.array_equal(test.features, two.features[:4])  # A's half of two rows


def test_csv_round_trip_exact(tmp_path):
    train, _, _ = generate_pair(_small_cfg(seed=3), "homogeneous")
    path = tmp_path / "train.csv"
    save_csv(train, path)
    loaded = load_csv(path, num_classes=train.num_classes)
    assert np.array_equal(loaded.features, train.features)
    assert np.array_equal(loaded.labels, train.labels)
    # training gathers batches from C-contiguous rows; a column slice of the
    # parsed table would make every gather copy the whole table
    assert loaded.features.flags.c_contiguous


def test_csv_rewrite_is_byte_identical(tmp_path):
    train, _, _ = generate_pair(_small_cfg(seed=4), "homogeneous")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(train, p1)
    save_csv(load_csv(p1, train.num_classes), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_header_format(tmp_path):
    train, _, _ = generate_pair(_small_cfg(), "homogeneous")
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


@pytest.mark.parametrize("rows, row, width", [
    ("1,2,3,4,5,0\n1,2,3,4,5,1\n", 1, 6),  # every row wider than the header
    ("1,2,3,0\n1,2,3,4,5,1\n", 2, 6),      # a ragged row
    ("1,2,3,0\n\n1,2,1\n", 2, 3),          # a short row after a blank line
])
def test_csv_rejects_rows_whose_width_differs_from_the_header(tmp_path, rows, row, width):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,f2,label\n" + rows)
    message = f"{path}: data row {row} has {width} values, but the header has 4 columns"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_csv(path)


def test_csv_unparsable_value_names_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n0.0,x,0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: could not convert"):
        load_csv(path)
