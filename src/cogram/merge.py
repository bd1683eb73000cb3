"""Loss-guided granular merging of two subnetworks into a base network.

The sweep walks layers back to front. For each structure the candidates
from A and B are swapped into the current network M, their losses on a
fixed evaluation set (a ``synthdata.Dataset``: rows and their class labels)
are compared, and the loss gap decides the action: inside the per-level
threshold band the structure is blended directly with a sigmoid mixing
factor; outside it the decision is refined one granularity level down
(neurons, then single weights). Refined updates are only kept when they
strictly lower the loss; otherwise the structure rolls back to the coarser
fusion, bit for bit. The whole merge can be applied iteratively, each pass
operating on the latest fused network.

A block of layer k is named by a key, ``()``, ``(i,)`` or ``(i, j)``, at
the level ``GRANULARITIES[len(key)]``; A's is ``a.theta[a.positions[k][key]]``.

One evaluator per layer (``_LayerEvaluator``) scores every candidate of
that layer: it caches the activation entering the layer as a ``Dataset``
with the evaluation set's labels, writes each candidate in place into the
parameters of its private network for this layer and the ones above, and
keeps or restores it. A layer or neuron candidate is one loss call. A
weight decision scores A's and B's scalar in one loss call on a
``net.NetworkStack`` of two copies of that network, then the blend in one
loss call. Every loss is the cross-entropy (``net.cross_entropy_loss``),
the loss the networks are trained with. Every score runs the one forward
loop and loss kernel with exactly the operations of a full forward pass,
so the merge is bit-identical to building each candidate as a new network
and evaluating it from the input, the reference engine of the tests. The
finished layer leaves as a new, validated network.

On an evaluation set of ``net.BLOCK_ROWS`` rows or more, the evaluator of a
layer with a layer above it caches the layer's activated output (block
mode): a neuron's write makes one aligned block of ``BLOCK_COLUMNS`` output
columns stale, and a score recomputes only the stale blocks before running
the layers above from the cache. That keeps the bits only where BLAS
computes a block of columns in the order of additions of the whole product.
OpenBLAS's gemm did so at 1,000-4,000 rows for 2-16 columns, but at 512 rows
only for 4 columns or more, some blocks differed at 256 and 300 rows, and a
one-column product (gemv) never matched. So a probe at construction checks
every column block on the evaluator's own input and weights, and if one
differs the evaluator keeps the full pass.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import net as netmod
from .net import Network
from .prototypes import DEFAULT_EPSILON, build_prototypes_kmeans, build_raw_batch
from .synthdata import Dataset, check_number
from .training import OptimizerConfig, TrainReport, train

GRANULARITIES = ("layer", "neuron", "weight")
MAX_KICKOFF_EPOCHS = 9  # the kickoff is a short phase


@dataclass(frozen=True)
class LevelThresholds:
    """One level's band: numbers >= 0 (infinity included), stored as floats."""

    tau_min: float = 0.0
    tau_max: float = math.inf

    def __post_init__(self):
        for name in ("tau_min", "tau_max"):
            value = getattr(self, name)
            if value != math.inf:
                check_number(name, value)
            object.__setattr__(self, name, float(value))
        if not self.tau_min <= self.tau_max:
            raise ValueError(f"tau_min must be <= tau_max, got {self.tau_min} > {self.tau_max}")


@dataclass(frozen=True)
class Thresholds:
    layer: LevelThresholds = LevelThresholds()
    neuron: LevelThresholds = LevelThresholds()
    weight: LevelThresholds = LevelThresholds()

    @classmethod
    def uniform(cls, tau_min: float = LevelThresholds.tau_min,
                tau_max: float = LevelThresholds.tau_max) -> "Thresholds":
        level = LevelThresholds(tau_min, tau_max)
        return cls(layer=level, neuron=level, weight=level)

    def for_level(self, level: str) -> LevelThresholds:
        return getattr(self, level)


@dataclass
class MergeConfig:
    lam: float = 5.5                      # sigmoid steepness
    thresholds: Thresholds = field(default_factory=Thresholds)
    max_granularity: str = "layer"        # deepest level the sweep may enter
    epsilon: float = DEFAULT_EPSILON      # prototype stabilizer
    prototype: str = "onehot"             # the evaluation set, see _parse_prototype
    eval_seed: int = 0
    iterations: int = 1

    def __post_init__(self):
        check_number("lambda", self.lam, strict=True)  # the key sweeps and reports use
        check_number("epsilon", self.epsilon, strict=True)
        for name, low in (("iterations", 1), ("eval_seed", 0)):
            check_number(name, getattr(self, name), low, integer=True)
        if self.max_granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.max_granularity!r}")
        mode, size = _parse_prototype(self.prototype)
        self.prototype = mode if size is None else f"{mode}:{size}"


def _parse_prototype(spec) -> tuple[str, int | None]:
    """A prototype spec's mode and size: ``onehot``, ``kmeans:K`` (K prototypes
    per class), ``batch:N`` (N raw rows) or ``batch`` (every row, size None)."""
    mode, colon, size = spec.partition(":") if isinstance(spec, str) else ("", "", "")
    if mode in ("onehot", "batch") and not colon:
        return mode, None
    if mode in ("kmeans", "batch") and size.removeprefix("-").isdecimal():
        number = int(size)
        check_number(f"{'K' if mode == 'kmeans' else 'N'} in prototype {spec!r}", number, 1,
                     integer=True)
        return mode, number
    raise ValueError(f"bad prototype spec {spec!r} (want onehot, kmeans:K, batch or batch:N)")


@dataclass(frozen=True)
class KickoffConfig:
    """The gradient kickoff: ``kickoff_epochs`` at the fine-tuning rate times
    ``lr_multiplier`` (best 2-3; others only warn), then ``finetune_epochs``
    at the fine-tuning rate. The kickoff is short: at most
    ``MAX_KICKOFF_EPOCHS`` epochs."""

    kickoff_epochs: int = 8
    finetune_epochs: int = 20
    lr_multiplier: float = 2.5

    def __post_init__(self):
        check_number("kickoff_epochs", self.kickoff_epochs, 0, integer=True,
                     below=MAX_KICKOFF_EPOCHS + 1)
        check_number("finetune_epochs", self.finetune_epochs, 0, integer=True)
        check_number("lr_multiplier", self.lr_multiplier, strict=True)


@dataclass
class DecisionRecord:
    level: str
    layer: int
    neuron: int | None
    weight: int | None
    loss_a: float
    loss_b: float
    delta: float
    case: int
    alpha: float | None
    action: str                           # "merged" | "refined" | "rolled_back"
    loss_pre: float | None = None
    loss_post: float | None = None


@dataclass
class MergeReport:
    records: list[DecisionRecord]
    loss_before: float
    loss_after: float
    wall_time_s: float


# --- the scalar pieces --------------------------------------------------------


def mixing_factor(delta_l: float, lam: float) -> float:
    """alpha = 1 / (1 + exp(lam * delta_l)); weights A's parameters.

    Negative delta (A better) gives alpha > 0.5. Evaluated branch-wise so
    huge |lam * delta_l| saturates to 0 or 1 instead of overflowing.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if not math.isfinite(delta_l):
        raise ValueError("delta_l must be finite")
    z = lam * delta_l
    if z >= 0:
        e = math.exp(-z)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(z))


def convex_combine(block_a, block_b, alpha: float):
    """alpha * A + (1 - alpha) * B, elementwise (works for scalars too)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    a = np.asarray(block_a, dtype=np.float64)
    b = np.asarray(block_b, dtype=np.float64)
    if a.shape != b.shape:
        raise netmod.ShapeError(f"blocks differ in shape: {a.shape} vs {b.shape}")
    if a.ndim == 0:  # numpy scalars run the same operations faster than 0-d arrays
        a, b = a[()], b[()]
    out = alpha * a + (1.0 - alpha) * b
    return float(out) if out.ndim == 0 else out


def classify_case(delta_l: float, tau_min: float, tau_max: float) -> int:
    """1: |delta| below tau_min (uncertain). 2: above tau_max (too coarse).
    3: inside the band, boundaries included (merge directly)."""
    if not 0.0 <= tau_min <= tau_max:
        raise ValueError("need 0 <= tau_min <= tau_max")
    gap = abs(delta_l)
    if gap < tau_min:
        return 1
    if gap > tau_max:
        return 2
    return 3


BLOCK_COLUMNS = 8  # the columns of the working layer's output one neuron's write makes stale


class _LayerEvaluator:
    """Loss of M with candidate parameters written into layer k.

    While layer k is decided every other layer of M is fixed, so the
    activation entering layer k is computed once. The evaluator keeps the
    parameters of layers k and up as the three rows of one matrix: row 0,
    ``theta``, is its private network, and rows 1 and 2 are a
    ``net.NetworkStack`` for A's and B's candidate of a weight decision. A
    candidate is written in place (``put``) by its block's key, at the
    block's positions in every row (``positions[key]``), and ``layer``, the
    private network's first layer, shows every write. A score is one call of
    ``net.cross_entropy_loss``, run into one workspace: its operations are
    exactly those of a full forward pass over M with the working layer, and
    it allocates no array.

    By default a score runs the private network from the cached input. In
    block mode (see the module docstring) it runs the layers above from the
    cached output of the working layer, after the one forward loop has
    recomputed each stale column block over that block's weight columns. A
    write to neuron i marks i's block stale, a layer write marks them all.
    The mode is entered at construction only if every column block of the
    whole product passes the probe (``_blocks_match``).

    ``pair_losses`` scores A's and B's scalar of one weight decision in one
    stacked pass of rows 1 and 2 from the cached input; their workspace is
    made on the first weight decision. Writes to rows 1 and 2 leave the
    cached output valid.
    """

    def __init__(self, m: Network, layer_idx: int, eval_set: Dataset):
        self.layer_idx = layer_idx
        self._below = m.layers[:layer_idx]
        in_dim = m.layers[layer_idx].in_dim
        x = eval_set.features
        if layer_idx > 0:
            x = netmod.forward(Network(self._below, m.input_dim, in_dim), x)
        upper = Network(m.layers[layer_idx:], in_dim, m.num_classes)
        self._params = np.tile(upper.theta, (3, 1))
        self.theta = self._params[0]
        self._upper = upper.with_theta(self.theta)
        self._pair = netmod.NetworkStack(upper, self._params[1:])
        self.positions = upper.positions[0]
        self.layer = self._upper.layers[0]
        self._rows = Dataset(x, eval_set.labels, eval_set.num_classes)
        self._pair_work: netmod.Workspace | None = None
        self._input_dim = m.input_dim
        # what a score runs, and in block mode each column block's one-layer
        # plan, its buffer in one scratch array and the cache's columns it fills
        self._scored, self._scored_rows = self._upper, self._rows
        self._blocks: list[tuple] = []
        self._stale: list[bool] = []
        if len(x) >= netmod.BLOCK_ROWS and layer_idx + 1 < len(m.layers):
            self._cache_output()
        self._work = netmod.Workspace(self._scored, len(x))

    def _cache_output(self) -> None:
        """Enter block mode unless a column block fails the probe."""
        x, plan = self._rows.features, self._upper._plan
        weights_t, biases, activation = plan[0]
        out_dim = weights_t.shape[1]
        cache = np.matmul(x, weights_t)
        scratch = np.empty(len(x) * BLOCK_COLUMNS)
        blocks = []
        for lo in range(0, out_dim, BLOCK_COLUMNS):
            cols = slice(lo, min(lo + BLOCK_COLUMNS, out_dim))
            out = scratch[: len(x) * (cols.stop - lo)].reshape(len(x), -1)
            if not _blocks_match(x, weights_t[:, cols], out, cache[:, cols]):
                return
            blocks.append((((weights_t[:, cols], biases[:, cols], activation),), (out,),
                           cache[:, cols]))
        netmod._forward_into(plan[:1], x, (cache,))
        self._scored = Network(self._upper.layers[1:], out_dim, self._upper.num_classes)
        self._scored_rows = Dataset(cache, self._rows.labels, self._rows.num_classes)
        self._blocks, self._stale = blocks, [False] * len(blocks)

    def loss(self) -> float:
        for b, stale in enumerate(self._stale):
            if stale:
                plan, out, cached = self._blocks[b]
                np.copyto(cached, netmod._forward_into(plan, self._rows.features, out))
                self._stale[b] = False
        return netmod.cross_entropy_loss(self._scored, self._scored_rows, work=self._work)

    def pair_losses(self, key: tuple, value_a: float, value_b: float) -> list[float]:
        """Losses with A's and with B's scalar at ``key``, (neuron, weight),
        of the working layer, from one stacked pass; the working layer is
        untouched."""
        if self._pair_work is None:
            self._pair_work = netmod.Workspace(self._upper, len(self._rows), stack=2)
        params, pos = self._params, self.positions[key]
        params[1, pos], params[2, pos] = value_a, value_b
        losses = netmod.cross_entropy_loss(self._pair, self._rows, work=self._pair_work)
        params[1:, pos] = params[0, pos]
        return losses

    def put(self, key: tuple, block) -> None:
        """Write ``block`` at the block ``key`` of the working layer."""
        self._params[:, self.positions[key]] = block
        if self._stale:
            if key:
                self._stale[key[0] // BLOCK_COLUMNS] = True
            else:
                self._stale = [True] * len(self._stale)

    def difference(self, key: tuple, block_a, block_b) -> tuple[float, float, float]:
        """Loss with A's block at ``key`` of the working layer, with B's
        block, and their gap. B's block stays written."""
        self.put(key, block_a)
        l_a = self.loss()
        self.put(key, block_b)
        l_b = self.loss()
        return l_a, l_b, l_a - l_b

    def network(self) -> Network:
        """M with the working layer, copied and validated as a new network."""
        return Network(self._below + self._upper.layers, self._input_dim, self._upper.num_classes)


def _blocks_match(x, weights_t, out, full) -> bool:
    """The probe of block mode: whether the product of ``x`` and a column
    block's weights, computed alone into ``out``, equals ``full``, those
    columns of the whole product, bit for bit."""
    return np.array_equal(np.matmul(x, weights_t, out=out), full)


# --- evaluation data ----------------------------------------------------------


def check_context(spec, smallest_class: int, rows: int) -> tuple[str, int | None]:
    """The mode and size of the prototype ``spec`` for data of ``rows`` rows
    whose smallest class has ``smallest_class``; refuses a K above the
    smallest class's rows and an N above all rows."""
    mode, size = _parse_prototype(spec)
    if mode == "kmeans" and size > smallest_class:
        raise ValueError(f"K in prototype {spec!r} must be at most the {smallest_class} "
                         f"rows of the smallest class, got {size}")
    if mode == "batch" and size is not None and size > rows:
        raise ValueError(f"N in prototype {spec!r} must be at most the {rows} rows of the "
                         f"data, got {size}")
    return mode, size


def build_eval_set(dataset: Dataset, config: MergeConfig) -> Dataset:
    """The fixed evaluation set every decision in a merge run is measured on.
    ``onehot`` is ``kmeans:1``: one cluster per class, all of its rows."""
    smallest_class = int(np.unique(dataset.labels, return_counts=True)[1].min())
    mode, size = check_context(config.prototype, smallest_class, len(dataset))
    if mode in ("onehot", "kmeans"):
        return build_prototypes_kmeans(
            dataset, size or 1, kmeans_seed=config.eval_seed, epsilon=config.epsilon
        )
    return build_raw_batch(dataset, size or len(dataset), seed=config.eval_seed)


# --- the sweep ----------------------------------------------------------------


def _record(config: MergeConfig, layer: int, key: tuple, l_a: float, l_b: float) -> DecisionRecord:
    """The record of a decision on the block at ``key`` of ``layer`` between
    A's candidate (loss ``l_a``) and B's: their gap, classified against the
    level's band, and the mixing factor. Its action is "merged" until the
    caller says otherwise."""
    level = GRANULARITIES[len(key)]
    neuron, weight = (*key, None, None)[:2]
    delta = l_a - l_b
    band = config.thresholds.for_level(level)
    alpha = mixing_factor(delta, config.lam)
    return DecisionRecord(
        level=level, layer=layer, neuron=neuron, weight=weight, loss_a=l_a, loss_b=l_b,
        delta=delta, case=classify_case(delta, band.tau_min, band.tau_max), alpha=alpha,
        action="merged",
    )


def _weigh(
    ev: _LayerEvaluator, key: tuple, a: Network, b: Network, config: MergeConfig
) -> tuple[DecisionRecord, np.ndarray]:
    """Score A's and B's block at ``key`` of the working layer, the layer
    ``()`` or a neuron ``(i,)``, one loss call each. Returns the decision's
    record and the blend of the two blocks."""
    k = ev.layer_idx
    block_a, block_b = (x.theta[x.positions[k][key]] for x in (a, b))
    l_a, l_b, _ = ev.difference(key, block_a, block_b)
    rec = _record(config, k, key, l_a, l_b)
    return rec, convex_combine(block_a, block_b, rec.alpha)


def merge_weight_level(
    ev: _LayerEvaluator,
    neuron_idx: int,
    weight_idx: int,
    a: Network,
    b: Network,
    config: MergeConfig,
    report: MergeReport,
    loss_pre: float,
) -> float:
    """Blend one scalar of the working layer (index in_dim is the bias); keep
    it only on strict improvement over ``loss_pre``, else the neuron-level
    value stays. A's and B's scalar are scored in one stacked pass, the blend
    in one loss call. Terminal level: threshold cases are logged but trigger
    no descent.

    Returns the loss after the decision.
    """
    k, key = ev.layer_idx, (neuron_idx, weight_idx)
    value_a, value_b = (x.theta[x.positions[k][key]] for x in (a, b))
    rec = _record(config, k, key, *ev.pair_losses(key, value_a, value_b))
    before = ev.theta[ev.positions[key]]
    ev.put(key, convex_combine(value_a, value_b, rec.alpha))
    rec.loss_pre, rec.loss_post = loss_pre, ev.loss()
    report.records.append(rec)
    if rec.loss_post < loss_pre:
        return rec.loss_post
    rec.action = "rolled_back"
    ev.put(key, before)
    return loss_pre


def merge_neuron_level(
    ev: _LayerEvaluator,
    neuron_idx: int,
    a: Network,
    b: Network,
    config: MergeConfig,
    report: MergeReport,
) -> None:
    """Blend one neuron (weight row + bias) of the working layer against the
    layer-level baseline.

    Inside the threshold band (or when neurons are the granularity limit)
    the blend is kept only on strict loss improvement. Outside the band the
    blend becomes the provisional baseline for a weight-level pass, and the
    whole neuron rolls back to the layer-level parameters unless the pass
    beats the entry loss. A rollback leaves the evaluator's parameters
    bit-identical to the entry.
    """
    key = (neuron_idx,)
    baseline = ev.theta[ev.positions[key]]
    loss_pre = ev.loss()
    rec, fused = _weigh(ev, key, a, b, config)
    rec.loss_pre = loss_pre
    ev.put(key, fused)
    report.records.append(rec)
    rec.loss_post = ev.loss()
    if rec.case != 3 and config.max_granularity != "neuron":
        rec.action = "refined"  # to single weights, from the fused-neuron baseline
        for weight_idx in range(ev.layer.in_dim + 1):  # incoming weights, then the bias
            rec.loss_post = merge_weight_level(
                ev, neuron_idx, weight_idx, a, b, config, report, rec.loss_post
            )
    if rec.loss_post < loss_pre:
        return
    rec.action = "rolled_back"
    ev.put(key, baseline)


def merge_layer_level(
    m: Network,
    layer_idx: int,
    a: Network,
    b: Network,
    config: MergeConfig,
    eval_set: Dataset,
    report: MergeReport,
) -> Network:
    """Blend one whole layer; no rollback exists at this level.

    Inside the band (or when layers are the granularity limit) the blend is
    final. Outside it the blend still goes in as the provisional baseline
    and every neuron of the layer is refined individually, all in one
    evaluator for the layer.
    """
    ev = _LayerEvaluator(m, layer_idx, eval_set)
    rec, fused = _weigh(ev, (), a, b, config)
    ev.put((), fused)
    report.records.append(rec)
    if rec.case != 3 and config.max_granularity != "layer":
        rec.action = "refined"
        for neuron_idx in range(ev.layer.out_dim):
            merge_neuron_level(ev, neuron_idx, a, b, config, report)
    return ev.network()


def cogram_merge(
    m: Network,
    a: Network,
    b: Network,
    config: MergeConfig,
    eval_set: Dataset,
) -> tuple[Network, MergeReport]:
    """One full back-to-front sweep over all layers of M, every decision
    measured on the fixed ``eval_set``."""
    netmod.require_compatible(m, a)
    netmod.require_compatible(m, b)
    start = time.perf_counter()
    report = MergeReport(
        records=[], loss_before=netmod.cross_entropy_loss(m, eval_set), loss_after=math.nan,
        wall_time_s=0.0,
    )
    for layer_idx in reversed(range(len(m.layers))):
        m = merge_layer_level(m, layer_idx, a, b, config, eval_set, report)
    report.loss_after = netmod.cross_entropy_loss(m, eval_set)
    report.wall_time_s = time.perf_counter() - start
    return m, report


def cogram_iterate(
    m0: Network,
    a: Network,
    b: Network,
    config: MergeConfig,
    data: Dataset | None = None,
    eval_set: Dataset | None = None,
) -> tuple[Network, list[MergeReport]]:
    """Apply the merge config.iterations times, always on the latest M.

    The evaluation set is built once up front from ``data``, normally the
    combined A/B training set, unless a prebuilt ``eval_set`` is passed;
    rebuilding it would use the same seeds and produce the identical set, so
    it is shared across iterations.
    """
    if eval_set is None:
        if data is None:
            raise ValueError("cogram_iterate needs either data or a prebuilt eval_set")
        eval_set = build_eval_set(data, config)
    m = m0
    reports = []
    for _ in range(config.iterations):
        m, report = cogram_merge(m, a, b, config, eval_set)
        reports.append(report)
    return m, reports


# --- gradient kickoff ---------------------------------------------------------


def gradient_kickoff(
    m: Network,
    combined_train_data: Dataset,
    optimizer: OptimizerConfig,
    kickoff: KickoffConfig = KickoffConfig(),
    batch_size: int = 64,
    seed: int = 0,
) -> tuple[Network, tuple[TrainReport, TrainReport]]:
    """Short elevated-rate training phase, then regular fine-tuning with
    ``optimizer``. The kickoff trains with every setting of ``optimizer`` but
    its learning rate, which ``kickoff.lr_multiplier`` scales."""
    if not 2.0 <= kickoff.lr_multiplier <= 3.0:
        warnings.warn(
            f"kickoff/finetune learning-rate ratio {kickoff.lr_multiplier:.3g} is outside the "
            "recommended [2, 3] band",
            stacklevel=2,
        )
    kick_ss, fine_ss = np.random.SeedSequence(seed).spawn(2)
    kick_seed = int(kick_ss.generate_state(1, dtype=np.uint64)[0])
    fine_seed = int(fine_ss.generate_state(1, dtype=np.uint64)[0])
    kick_cfg = replace(optimizer, learning_rate=optimizer.learning_rate * kickoff.lr_multiplier)
    m, kick_report = train(
        m, combined_train_data, kick_cfg, kickoff.kickoff_epochs, batch_size, kick_seed,
    )
    m, fine_report = train(
        m, combined_train_data, optimizer, kickoff.finetune_epochs, batch_size, fine_seed,
    )
    return m, (kick_report, fine_report)


# --- report serialization -----------------------------------------------------


def config_to_json_dict(config: MergeConfig) -> dict:
    """``config`` field by field, in field order, with ``lam`` written as
    ``"lambda"`` and an unbounded tau as ``"inf"``."""
    doc = {"lambda" if name == "lam" else name: value for name, value in asdict(config).items()}
    doc["thresholds"] = {
        level: {name: "inf" if tau == math.inf else tau for name, tau in taus.items()}
        for level, taus in doc["thresholds"].items()
    }
    return doc


def _require_keys(what: str, doc, written: dict) -> None:
    """Raise FormatError unless ``doc`` is an object with exactly the keys of
    ``written``, and so on down each object in ``written``."""
    if not isinstance(doc, dict):
        raise netmod.FormatError(f"{what} must be a JSON object, got {doc!r}")
    unknown, missing = sorted(set(doc) - set(written)), sorted(set(written) - set(doc))
    if unknown or missing:
        raise netmod.FormatError(f"{what}: unknown keys {unknown}, missing keys {missing}")
    for key, value in written.items():
        if isinstance(value, dict):
            _require_keys(f"{what} {key!r}", doc[key], value)


def config_from_json_dict(doc: dict) -> MergeConfig:
    """Inverse of config_to_json_dict; refuses a key it does not write or
    lacks, every value the settings refuse, and a value it would write in
    another spelling."""
    _require_keys("report config", doc, config_to_json_dict(MergeConfig()))
    fields = {"lam" if key == "lambda" else key: value for key, value in doc.items()}
    fields["thresholds"] = Thresholds(**{
        level: LevelThresholds(**{name: math.inf if tau == "inf" else tau
                                  for name, tau in taus.items()})
        for level, taus in doc["thresholds"].items()
    })
    config = MergeConfig(**fields)
    for key, written in config_to_json_dict(config).items():
        if doc[key] != written:
            raise netmod.FormatError(f"report config {key} {doc[key]!r} is written {written!r}")
    return config


def _require_list(what: str, value) -> list:
    if not isinstance(value, list):
        raise netmod.FormatError(f"{what} must be a JSON list, got {value!r}")
    return value


def _require_loss(what: str, value, optional: bool = False) -> None:
    """Raise FormatError unless ``value`` is a finite number, or None if
    ``optional``: a loss as the writer writes it."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise netmod.FormatError(f"{what} must be a finite number, got {value!r}")


# DecisionRecord's fields, in report order, and each one's key in the report
_RECORD_KEYS = {"level": "level", "layer": "layer", "neuron": "neuron", "weight": "weight",
                "loss_a": "L_A", "loss_b": "L_B", "delta": "delta_L", "case": "case",
                "alpha": "alpha", "action": "action", "loss_pre": "L_pre", "loss_post": "L_post"}


def _record_to_json_dict(rec: DecisionRecord) -> dict:
    return {key: getattr(rec, name) for name, key in _RECORD_KEYS.items()}


def _record_from_json_dict(what: str, doc) -> DecisionRecord:
    _require_keys(what, doc, dict.fromkeys(_RECORD_KEYS.values()))
    for key in ("L_A", "L_B", "delta_L", "L_pre", "L_post"):
        _require_loss(f"{what} {key}", doc[key], optional=key in ("L_pre", "L_post"))
    return DecisionRecord(**{name: doc[key] for name, key in _RECORD_KEYS.items()})


def write_report(fh, reports: list[MergeReport], config: MergeConfig) -> None:
    """Writes the report JSON of ``reports`` to the text file ``fh``: the
    config, then per iteration its records, one at a time, and losses, then
    the total wall time. The text is never whole in memory; it is the text
    ``json.dumps(..., allow_nan=False)`` gives for the document as one tree,
    byte for byte."""
    encode = json.JSONEncoder(allow_nan=False).encode
    fh.write(f'{{"config": {encode(config_to_json_dict(config))}, "iterations": [')
    for i, rep in enumerate(reports):
        fh.write(', {"records": [' if i else '{"records": [')
        for j, record in enumerate(rep.records):
            fh.write((", " if j else "") + encode(_record_to_json_dict(record)))
        fh.write(f'], "loss_before": {encode(rep.loss_before)}, '
                 f'"loss_after": {encode(rep.loss_after)}}}')
    fh.write(f'], "wall_time_s": {encode(sum(rep.wall_time_s for rep in reports))}}}')


def reports_to_json(reports: list[MergeReport], config: MergeConfig) -> str:
    """The text write_report writes."""
    buf = io.StringIO()
    write_report(buf, reports, config)
    return buf.getvalue()


def reports_from_json(text: str) -> tuple[list[MergeReport], MergeConfig, float]:
    """Inverse of reports_to_json. Per-iteration wall times are not stored in
    the file, so the total is assigned to the first report (keeping the sum,
    and with it re-serialization, exact)."""
    doc = json.loads(text)
    _require_keys("report", doc, dict.fromkeys(("config", "iterations", "wall_time_s")))
    config = config_from_json_dict(doc["config"])
    check_number("report wall_time_s", doc["wall_time_s"])
    total = float(doc["wall_time_s"])
    reports = []
    for i, it in enumerate(_require_list("report iterations", doc["iterations"])):
        what = f"report iteration {i}"
        _require_keys(what, it, dict.fromkeys(("records", "loss_before", "loss_after")))
        for key in ("loss_before", "loss_after"):
            _require_loss(f"{what} {key}", it[key])
        reports.append(MergeReport(
            records=[_record_from_json_dict(f"{what} record {j}", r)
                     for j, r in enumerate(_require_list(f"{what} records", it["records"]))],
            loss_before=it["loss_before"],
            loss_after=it["loss_after"],
            wall_time_s=total if i == 0 else 0.0,
        ))
    return reports, config, total
