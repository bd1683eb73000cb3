"""Synthetic multi-class tasks: Gaussian subclusters with nonlinear distortion.

Each class gets a random nonnegative center (folded normal, so magnitude
profiles identify classes); subclusters add signed directional shifts around
it; samples get a sine/clamped-tangent warp plus additive noise. Test splits
use fresh draws from a derived seed and a noise multiplier. Everything is a
pure function of the config, so reruns are byte-identical.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np


def check_number(name: str, value, low=0, *, integer: bool = False, strict: bool = False,
                 below=None) -> None:
    """The check of numeric config fields: a finite real (an integer when
    ``integer``), not a bool, >= low (> low if ``strict``) and < ``below``."""
    ok = (not isinstance(value, bool)
          and isinstance(value, numbers.Integral if integer else numbers.Real)
          and math.isfinite(value)
          and (value > low if strict else value >= low)
          and (below is None or value < below))
    if not ok:
        bounds = f"{'>' if strict else '>='} {low}" + ("" if below is None else f" and < {below}")
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {kind} {bounds}, got {value!r}")


MODES = ("homogeneous", "heterogeneous")  # how B's data relates to A's; the first is the default


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
        for name, low in (("num_classes", 2), ("dim", 1), ("samples_per_class", 1),
                          ("test_samples_per_class", 1), ("subclusters_per_class", 1),
                          ("seed", 0)):
            check_number(name, getattr(self, name), low, integer=True)
        for name in ("center_scale", "subcluster_shift_scale", "base_noise_sigma",
                     "a_sin", "a_tan", "tan_clamp"):
            check_number(name, getattr(self, name), strict=True)
        check_number("test_noise_multiplier", self.test_noise_multiplier, 1)


@dataclass(frozen=True)
class Dataset:
    """Labelled rows; the one check of data: it refuses no rows, features not
    (N, dim), N != label count, a non-finite feature, a label that is not a
    whole number or is outside 0..C-1. No field can be reassigned and the
    labels are a read-only copy, so the losses can trust them."""

    features: np.ndarray  # (N, dim)
    labels: np.ndarray    # (N,) ints in 0..num_classes-1
    num_classes: int

    def __post_init__(self):
        # C-contiguous rows: training gathers its batches from them
        object.__setattr__(self, "features", np.ascontiguousarray(self.features, np.float64))
        labels = np.asarray(self.labels)
        if len(self.features) == 0:
            raise ValueError("empty dataset")
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d (rows, dim), got shape {self.features.shape}")
        if labels.shape != (len(self),):
            raise ValueError(f"{len(self)} feature rows but labels of shape {labels.shape}")
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            raise ValueError(f"data row {np.argmin(finite) + 1} has a non-finite feature")
        if labels.dtype.kind not in "iu":
            labels = labels.astype(np.float64)
            whole = np.isfinite(labels) & (labels == np.floor(labels))
            if not whole.all():
                row = np.argmin(whole)
                raise ValueError(f"data row {row + 1} has label {float(labels[row])!r}, "
                                 "not a whole number")
        outside = (labels < 0) | (labels >= self.num_classes)
        if outside.any():
            raise ValueError(f"label {int(labels[np.argmax(outside)])} is outside the label "
                             f"range 0..{self.num_classes - 1}")
        labels = labels.astype(np.int64)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def one_hot(self) -> np.ndarray:
        return np.eye(self.num_classes)[self.labels]


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
    half of each class from A's generator (rounded up) and half from B's.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (want {' or '.join(MODES)})")
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
        test = _sample(geom_a, n_a, train_sigma_a * cfg.test_noise_multiplier, st_a_ss)
        if n_b:  # with one test row per class, B's half is empty
            part_b = _sample(geom_b, n_b, train_sigma_b * cfg.test_noise_multiplier, st_b_ss)
            test = concat(test, part_b)
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

    Raises ValueError for rows whose width differs from the header's and
    for what ``Dataset`` refuses, instead of coercing them.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        columns = header.split(",")
        if not columns or columns[-1] != "label":
            raise ValueError(f"{path}: expected a trailing 'label' column")
        try:
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:  # a ragged row, or a value that is not a number
            fh.seek(0)
            fh.readline()
            for row, line in enumerate((line for line in fh if line.strip()), 1):
                _check_width(path, row, line.count(",") + 1, len(columns))
            raise ValueError(f"{path}: {exc}") from None
    if raw.size == 0:
        raise ValueError(f"{path}: no data rows")
    _check_width(path, 1, raw.shape[1], len(columns))
    features, labels = raw[:, :-1], raw[:, -1]
    if num_classes is None:  # Dataset refuses a label that is not finite
        num_classes = int(np.max(labels, where=np.isfinite(labels), initial=0)) + 1
    try:
        return Dataset(features, labels, num_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_width(path, row: int, width: int, header_width: int) -> None:
    if width != header_width:
        raise ValueError(
            f"{path}: data row {row} has {width} values, but the header has {header_width} columns"
        )
