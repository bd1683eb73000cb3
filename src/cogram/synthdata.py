"""Synthetic multi-class tasks: Gaussian subclusters with nonlinear distortion.

Each class gets a random nonnegative center (folded normal, so magnitude
profiles identify classes); subclusters add signed directional shifts around
it; samples get a sine/clamped-tangent warp plus additive noise. Test splits
use fresh draws from a derived seed and a noise multiplier. Everything is a
pure function of the config, so reruns are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass
class DataConfig:
    num_classes: int = 20
    dim: int = 32
    samples_per_class: int = 200
    test_samples_per_class: int = 50
    subclusters_per_class: int = 3
    center_scale: float = 3.0
    subcluster_shift_scale: float = 1.0
    base_noise_sigma: float = 0.4
    test_noise_multiplier: float = 1.25
    a_sin: float = 0.3
    a_tan: float = 0.1
    tan_clamp: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.samples_per_class < 1 or self.test_samples_per_class < 1:
            raise ValueError("sample counts must be positive")
        if self.subclusters_per_class < 1:
            raise ValueError("subclusters_per_class must be >= 1")
        for name in ("center_scale", "subcluster_shift_scale", "base_noise_sigma",
                     "a_sin", "a_tan", "tan_clamp"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.test_noise_multiplier < 1.0:
            raise ValueError("test_noise_multiplier must be >= 1")


@dataclass
class Dataset:
    features: np.ndarray  # (N, dim)
    labels: np.ndarray    # (N,) ints in 0..num_classes-1
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature rows must match label count")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def one_hot(self) -> np.ndarray:
        return np.eye(self.num_classes, dtype=np.float64)[self.labels]


def one_hot(labels, num_classes: int) -> np.ndarray:
    return np.eye(num_classes, dtype=np.float64)[np.asarray(labels, dtype=np.int64)]


def concat(a: Dataset, b: Dataset) -> Dataset:
    if a.num_classes != b.num_classes or a.dim != b.dim:
        raise ValueError("datasets are not mergeable")
    return Dataset(
        np.vstack([a.features, b.features]),
        np.concatenate([a.labels, b.labels]),
        a.num_classes,
    )


@dataclass
class _Geometry:
    """Frozen class layout: centers shared per task, shifts per generator."""

    centers: np.ndarray  # (C, dim)
    shifts: np.ndarray   # (C, S, dim)
    cfg: DataConfig      # noise/distortion parameters used when sampling


def _draw_centers(cfg: DataConfig, seed) -> np.ndarray:
    # Folded normal keeps centers nonnegative: with signed centers the
    # magnitude-based evaluation prototypes land off the data manifold and
    # their loss stops tracking model quality, which breaks merge guidance.
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(0.0, cfg.center_scale, size=(cfg.num_classes, cfg.dim)))


def _draw_shifts(cfg: DataConfig, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(
        0.0, cfg.subcluster_shift_scale,
        size=(cfg.num_classes, cfg.subclusters_per_class, cfg.dim),
    )


def _split_counts(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _distort(x: np.ndarray, cfg: DataConfig) -> np.ndarray:
    warped = np.clip(np.tan(x), -cfg.tan_clamp, cfg.tan_clamp)
    return x + cfg.a_sin * np.sin(x) + cfg.a_tan * warped


def _sample(geom: _Geometry, per_class: int, noise_sigma: float, seed) -> Dataset:
    """Draw per_class samples per class from the geometry, distort, add noise."""
    cfg = geom.cfg
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    counts = _split_counts(per_class, geom.shifts.shape[1])
    for c in range(cfg.num_classes):
        for s, n in enumerate(counts):
            if n == 0:
                continue
            mean = geom.centers[c] + geom.shifts[c, s]
            x = rng.normal(mean, cfg.base_noise_sigma, size=(n, cfg.dim))
            x = _distort(x, cfg)
            x += rng.normal(0.0, noise_sigma, size=x.shape)
            blocks.append(x)
            labels.append(np.full(n, c, dtype=np.int64))
    return Dataset(np.vstack(blocks), np.concatenate(labels), cfg.num_classes)


def generate_task(cfg: DataConfig) -> tuple[Dataset, Dataset]:
    """One train/test pair sharing class geometry; test gets noisier fresh draws."""
    center_ss, shift_ss, train_ss, test_ss = np.random.SeedSequence(cfg.seed).spawn(4)
    geom = _Geometry(_draw_centers(cfg, center_ss), _draw_shifts(cfg, shift_ss), cfg)
    train_sigma = cfg.base_noise_sigma * 0.25
    train = _sample(geom, cfg.samples_per_class, train_sigma, train_ss)
    test = _sample(
        geom, cfg.test_samples_per_class, train_sigma * cfg.test_noise_multiplier, test_ss
    )
    return train, test


def heterogeneous_variant(cfg: DataConfig) -> DataConfig:
    """The perturbed generator for the second subnetwork in heterogeneous mode."""
    return replace(
        cfg,
        subclusters_per_class=cfg.subclusters_per_class + 1,
        base_noise_sigma=cfg.base_noise_sigma * 1.5,
        a_sin=cfg.a_sin * 1.5,
        a_tan=cfg.a_tan * 1.5,
    )


def generate_pair(cfg: DataConfig, mode: str) -> tuple[Dataset, Dataset, Dataset]:
    """Two subnetwork training sets plus a shared, noisier test set.

    The class centers are shared across A, B and test (same task); each
    training set draws its own subcluster shifts and samples. Homogeneous: B
    uses A's config on its own seed; the test set draws fresh subclusters
    around the shared centers. Heterogeneous: B uses a perturbed config
    (one extra subcluster, 1.5x noise and distortion); the test set takes
    half of each class from A's generator and half from B's.
    """
    if mode not in ("homogeneous", "heterogeneous"):
        raise ValueError(f"unknown mode {mode!r}")
    center_ss, ga_ss, gb_ss, sa_ss, sb_ss, gt_ss, st_a_ss, st_b_ss = (
        np.random.SeedSequence(cfg.seed).spawn(8)
    )
    centers = _draw_centers(cfg, center_ss)
    cfg_b = cfg if mode == "homogeneous" else heterogeneous_variant(cfg)

    geom_a = _Geometry(centers, _draw_shifts(cfg, ga_ss), cfg)
    geom_b = _Geometry(centers, _draw_shifts(cfg_b, gb_ss), cfg_b)
    train_sigma_a = cfg.base_noise_sigma * 0.25
    train_sigma_b = cfg_b.base_noise_sigma * 0.25
    data_a = _sample(geom_a, cfg.samples_per_class, train_sigma_a, sa_ss)
    data_b = _sample(geom_b, cfg.samples_per_class, train_sigma_b, sb_ss)

    if mode == "homogeneous":
        geom_t = _Geometry(centers, _draw_shifts(cfg, gt_ss), cfg)
        test = _sample(
            geom_t, cfg.test_samples_per_class,
            train_sigma_a * cfg.test_noise_multiplier, st_a_ss,
        )
    else:
        n_a = (cfg.test_samples_per_class + 1) // 2
        n_b = cfg.test_samples_per_class - n_a
        part_a = _sample(geom_a, n_a, train_sigma_a * cfg.test_noise_multiplier, st_a_ss)
        part_b = _sample(geom_b, n_b, train_sigma_b * cfg.test_noise_multiplier, st_b_ss)
        test = concat(part_a, part_b)
    return data_a, data_b, test


# --- CSV i/o -----------------------------------------------------------------


def save_csv(dataset: Dataset, path) -> None:
    """Header f0..f{dim-1},label; floats at full round-trip precision."""
    header = ",".join(f"f{j}" for j in range(dataset.dim)) + ",label"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row, label in zip(dataset.features, dataset.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def load_csv(path, num_classes: int | None = None) -> Dataset:
    """Read a CSV written by save_csv. Without ``num_classes`` the label
    range is 0..max label.

    Raises ValueError for non-finite features, labels that are not whole
    numbers and labels outside 0..num_classes-1, instead of coercing them.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        columns = header.split(",")
        if not columns or columns[-1] != "label":
            raise ValueError(f"{path}: expected a trailing 'label' column")
        raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    if raw.size == 0:
        raise ValueError(f"{path}: no data rows")
    features, column = raw[:, :-1], raw[:, -1]
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: data row {np.argmin(finite) + 1} has a non-finite feature")
    whole = np.isfinite(column) & (column == np.floor(column))
    if not whole.all():
        row = np.argmin(whole)
        raise ValueError(
            f"{path}: data row {row + 1} has label {float(column[row])!r}, not a whole number"
        )
    labels = column.astype(np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    outside = (labels < 0) | (labels >= num_classes)
    if outside.any():
        raise ValueError(
            f"{path}: label {labels[np.argmax(outside)]} is outside the label range "
            f"0..{num_classes - 1}"
        )
    return Dataset(features, labels, num_classes)
