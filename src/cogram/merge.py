"""Loss-guided granular merging of two subnetworks into a base network.

The sweep walks layers back to front. For each structure the candidates
from A and B are swapped into the current network M, their losses on a
fixed evaluation set are compared, and the loss gap decides the action:
inside the per-level threshold band the structure is blended directly
with a sigmoid mixing factor; outside it the decision is refined one
granularity level down (neurons, then single weights). Refined updates
are only kept when they strictly lower the loss; otherwise the structure
rolls back to the coarser fusion, bit for bit. The whole merge can be
applied iteratively, each pass operating on the latest fused network.

One evaluator per layer (``_LayerEvaluator``) scores every candidate of
that layer: it caches the activation entering the layer, writes each
candidate in place into a private copy of the layer, and keeps or restores
it. A score uses exactly the operations of a full forward pass, so the
merge is bit-identical to building each candidate network with
``set_structure`` and evaluating it from the input, the reference engine
of the tests. The finished layer leaves as a new, validated network.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import net as netmod
from .net import DenseLayer, Network, StructureAddress
from .prototypes import (
    PrototypeSet,
    build_prototypes_kmeans,
    build_prototypes_onehot,
    build_raw_batch,
)
from .synthdata import Dataset
from .training import OptimizerConfig, TrainReport, train

GRANULARITIES = ("layer", "neuron", "weight")


@dataclass(frozen=True)
class LevelThresholds:
    tau_min: float = 0.0
    tau_max: float = math.inf

    def __post_init__(self):
        if not 0.0 <= self.tau_min <= self.tau_max:
            raise ValueError("need 0 <= tau_min <= tau_max")


@dataclass(frozen=True)
class Thresholds:
    layer: LevelThresholds = LevelThresholds()
    neuron: LevelThresholds = LevelThresholds()
    weight: LevelThresholds = LevelThresholds()

    @classmethod
    def uniform(cls, tau_min: float, tau_max: float) -> "Thresholds":
        level = LevelThresholds(tau_min, tau_max)
        return cls(layer=level, neuron=level, weight=level)

    def for_level(self, level: str) -> LevelThresholds:
        return getattr(self, level)


@dataclass
class MergeConfig:
    lam: float = 5.5                      # sigmoid steepness
    thresholds: Thresholds = field(default_factory=Thresholds)
    max_granularity: str = "layer"        # deepest level the sweep may enter
    epsilon: float = 1e-6                 # prototype stabilizer
    eval_mode: str = "onehot"             # "onehot" | "kmeans" | "batch"
    k_per_class: int = 2
    batch_size: int | None = None         # batch mode; None = whole dataset
    eval_seed: int = 0
    iterations: int = 1
    loss: str = "cross_entropy"           # "cross_entropy" | "mse"

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.max_granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.max_granularity!r}")
        if self.eval_mode not in ("onehot", "kmeans", "batch"):
            raise ValueError(f"unknown eval_mode {self.eval_mode!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.loss not in ("cross_entropy", "mse"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")


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
    config: MergeConfig


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


def _loss_function(kind: str):
    if kind == "cross_entropy":
        return netmod.cross_entropy_loss
    if kind == "mse":
        return netmod.mse_loss
    raise ValueError(f"unknown loss {kind!r}")


class _LayerEvaluator:
    """Loss of M with candidate parameters written into layer k.

    While layer k is decided every other layer of M is fixed, so the
    activation entering layer k is computed once. Candidates are written in
    place into a private working copy of layer k (``layer``); ``view`` is M
    with that working layer, the network each score is the loss of. A score
    runs layer k and the hidden layers above it into buffers allocated once,
    then hands the last of them, with the output layer alone, to the net loss
    function: the loss kernel stays net's own (finiteness check included),
    each score is one call of it, and its operations are exactly those of a
    full forward pass over ``view``.
    """

    def __init__(self, m: Network, layer_idx: int, eval_set: PrototypeSet, loss: str):
        self.m = m
        self.layer_idx = layer_idx
        self._lossf = _loss_function(loss)
        src = m.layers[layer_idx]
        self.layer = DenseLayer(src.weights.copy(), src.biases.copy(), src.activation)
        layers = list(m.layers)
        layers[layer_idx] = self.layer
        self.view = Network(layers, m.input_dim, m.num_classes)

        x = np.asarray(eval_set.inputs, dtype=np.float64)
        if layer_idx > 0:
            below = Network(layers[:layer_idx], m.input_dim, layers[layer_idx - 1].out_dim)
            x = netmod.forward(below, x)
        self._input = x
        self._hidden = hidden = layers[layer_idx:-1]
        self._buffers = [np.empty((x.shape[0], layer.out_dim)) for layer in hidden]
        head = layers[-1]
        self._head = Network([head], head.in_dim, m.num_classes)
        top = self._buffers[-1] if hidden else x
        self._rows = SimpleNamespace(inputs=top, targets=eval_set.targets)

    def loss(self) -> float:
        a = self._input
        for layer, out in zip(self._hidden, self._buffers):
            np.matmul(a, layer.weights.T, out=out)
            out += layer.biases
            a = netmod._apply_activation(out, layer.activation, inplace=True)
        return self._lossf(self._head, self._rows)

    def block(self, addr: StructureAddress):
        return netmod.get_structure(self.view, addr)

    def write(self, addr: StructureAddress, block) -> None:
        """set_structure in place: the addressed block of the working layer."""
        w, b = self.layer.weights, self.layer.biases
        if addr.neuron is None:
            w[...] = block[:, :-1]
            b[...] = block[:, -1]
        elif addr.weight is None:
            w[addr.neuron] = block[:-1]
            b[addr.neuron] = block[-1]
        elif addr.weight == self.layer.in_dim:
            b[addr.neuron] = block
        else:
            w[addr.neuron, addr.weight] = block

    def difference(self, addr: StructureAddress, block_a, block_b) -> tuple[float, float, float]:
        """Loss with A's block at addr, with B's block, and their gap. B's
        block stays written."""
        self.write(addr, block_a)
        l_a = self.loss()
        self.write(addr, block_b)
        l_b = self.loss()
        return l_a, l_b, l_a - l_b

    def network(self) -> Network:
        """M with the working layer, copied and validated as a new network."""
        addr = StructureAddress(self.layer_idx)
        return netmod.set_structure(self.m, addr, self.block(addr))


def loss_difference(
    m: Network,
    addr: StructureAddress,
    a: Network,
    b: Network,
    eval_set: PrototypeSet,
    loss: str = "cross_entropy",
) -> tuple[float, float, float]:
    """Loss of M with A's block at addr, with B's block, and their gap.

    M is never modified: the candidates go into a private copy of its layer.
    """
    netmod.require_compatible(m, a)
    netmod.require_compatible(m, b)
    block_a, block_b = netmod.get_structure(a, addr), netmod.get_structure(b, addr)
    return _LayerEvaluator(m, addr.layer, eval_set, loss).difference(addr, block_a, block_b)


# --- evaluation data ----------------------------------------------------------


def build_eval_set(dataset: Dataset, config: MergeConfig) -> PrototypeSet:
    """The fixed evaluation set every decision in a merge run is measured on."""
    if config.eval_mode == "onehot":
        return build_prototypes_onehot(dataset, epsilon=config.epsilon)
    if config.eval_mode == "kmeans":
        return build_prototypes_kmeans(
            dataset, config.k_per_class, kmeans_seed=config.eval_seed, epsilon=config.epsilon
        )
    size = config.batch_size if config.batch_size is not None else len(dataset)
    return build_raw_batch(dataset, size, seed=config.eval_seed)


# --- the sweep ----------------------------------------------------------------


def _weigh(
    ev: _LayerEvaluator, addr: StructureAddress, a: Network, b: Network, config: MergeConfig
) -> tuple[DecisionRecord, np.ndarray | float]:
    """Score A's and B's block at addr and classify the gap. Returns the
    decision's record (action "merged" until the caller says otherwise) and
    the blend of the two blocks."""
    block_a, block_b = netmod.get_structure(a, addr), netmod.get_structure(b, addr)
    l_a, l_b, delta = ev.difference(addr, block_a, block_b)
    band = config.thresholds.for_level(addr.level)
    alpha = mixing_factor(delta, config.lam)
    rec = DecisionRecord(
        level=addr.level, layer=addr.layer, neuron=addr.neuron, weight=addr.weight,
        loss_a=l_a, loss_b=l_b, delta=delta,
        case=classify_case(delta, band.tau_min, band.tau_max), alpha=alpha, action="merged",
    )
    return rec, convex_combine(block_a, block_b, alpha)


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
    value stays. Terminal level: threshold cases are logged but trigger no
    descent.

    Returns the loss after the decision.
    """
    addr = StructureAddress(ev.layer_idx, neuron_idx, weight_idx)
    before = ev.block(addr)
    rec, fused = _weigh(ev, addr, a, b, config)
    ev.write(addr, fused)
    rec.loss_pre, rec.loss_post = loss_pre, ev.loss()
    report.records.append(rec)
    if rec.loss_post < loss_pre:
        return rec.loss_post
    rec.action = "rolled_back"
    ev.write(addr, before)
    return loss_pre


def merge_neuron_level(
    ev: _LayerEvaluator,
    neuron_idx: int,
    a: Network,
    b: Network,
    config: MergeConfig,
    report: MergeReport,
    check_restores: bool = False,
) -> None:
    """Blend one neuron (weight row + bias) of the working layer against the
    layer-level baseline.

    Inside the threshold band (or when neurons are the granularity limit)
    the blend is kept only on strict loss improvement. Outside the band the
    blend becomes the provisional baseline for a weight-level pass, and the
    whole neuron rolls back to the layer-level parameters unless the pass
    beats the entry loss. ``check_restores`` asserts that a rollback leaves
    the working layer, and its loss, bit-identical to the neuron's entry.
    """
    addr = StructureAddress(ev.layer_idx, neuron_idx)
    baseline = ev.block(addr)
    if check_restores:
        entry = ev.layer.weights.copy(), ev.layer.biases.copy()
    loss_pre = ev.loss()
    rec, fused = _weigh(ev, addr, a, b, config)
    rec.loss_pre = loss_pre
    ev.write(addr, fused)
    report.records.append(rec)
    if rec.case == 3 or config.max_granularity == "neuron":
        rec.loss_post = ev.loss()
    else:  # refine to single weights from the fused-neuron baseline
        rec.action = "refined"
        running = ev.loss()
        for weight_idx in range(ev.layer.in_dim + 1):  # incoming weights, then the bias
            running = merge_weight_level(
                ev, neuron_idx, weight_idx, a, b, config, report, running
            )
        rec.loss_post = running
    if rec.loss_post < loss_pre:
        return
    rec.action = "rolled_back"
    ev.write(addr, baseline)
    if check_restores:
        assert np.array_equal(ev.layer.weights, entry[0])
        assert np.array_equal(ev.layer.biases, entry[1])
        assert ev.loss() == loss_pre


def merge_layer_level(
    m: Network,
    layer_idx: int,
    a: Network,
    b: Network,
    config: MergeConfig,
    eval_set: PrototypeSet,
    report: MergeReport,
    check_restores: bool = False,
) -> Network:
    """Blend one whole layer; no rollback exists at this level.

    Inside the band (or when layers are the granularity limit) the blend is
    final. Outside it the blend still goes in as the provisional baseline
    and every neuron of the layer is refined individually, all in one
    evaluator for the layer.
    """
    ev = _LayerEvaluator(m, layer_idx, eval_set, config.loss)
    addr = StructureAddress(layer_idx)
    rec, fused = _weigh(ev, addr, a, b, config)
    ev.write(addr, fused)
    report.records.append(rec)
    if rec.case != 3 and config.max_granularity != "layer":
        rec.action = "refined"
        for neuron_idx in range(ev.layer.out_dim):
            merge_neuron_level(
                ev, neuron_idx, a, b, config, report, check_restores=check_restores
            )
    return ev.network()


def cogram_merge(
    m: Network,
    a: Network,
    b: Network,
    config: MergeConfig,
    data: Dataset | None = None,
    eval_set: PrototypeSet | None = None,
    check_restores: bool = False,
) -> tuple[Network, MergeReport]:
    """One full back-to-front sweep over all layers of M.

    The evaluation set is built once (from ``data``, normally the combined
    A/B training set) and stays fixed for every decision in the run. Pass
    ``eval_set`` directly to reuse a prebuilt one.
    """
    netmod.require_compatible(m, a)
    netmod.require_compatible(m, b)
    if eval_set is None:
        if data is None:
            raise ValueError("cogram_merge needs either data or a prebuilt eval_set")
        eval_set = build_eval_set(data, config)
    lossf = _loss_function(config.loss)
    start = time.perf_counter()
    report = MergeReport(
        records=[], loss_before=lossf(m, eval_set), loss_after=math.nan,
        wall_time_s=0.0, config=config,
    )
    for layer_idx in reversed(range(len(m.layers))):
        m = merge_layer_level(
            m, layer_idx, a, b, config, eval_set, report, check_restores=check_restores
        )
    report.loss_after = lossf(m, eval_set)
    report.wall_time_s = time.perf_counter() - start
    return m, report


def cogram_iterate(
    m0: Network,
    a: Network,
    b: Network,
    config: MergeConfig,
    data: Dataset | None = None,
    eval_set: PrototypeSet | None = None,
    check_restores: bool = False,
) -> tuple[Network, list[MergeReport]]:
    """Apply the merge config.iterations times, always on the latest M.

    The evaluation set is built once up front; rebuilding it would use the
    same seeds and produce the identical set, so it is shared across
    iterations.
    """
    if eval_set is None:
        if data is None:
            raise ValueError("cogram_iterate needs either data or a prebuilt eval_set")
        eval_set = build_eval_set(data, config)
    m = m0
    reports = []
    for _ in range(config.iterations):
        m, report = cogram_merge(
            m, a, b, config, eval_set=eval_set, check_restores=check_restores
        )
        reports.append(report)
    return m, reports


# --- gradient kickoff ---------------------------------------------------------


def gradient_kickoff(
    m: Network,
    combined_train_data: Dataset,
    kickoff_config: OptimizerConfig,
    finetune_config: OptimizerConfig,
    kickoff_epochs: int = 8,
    finetune_epochs: int = 20,
    batch_size: int = 64,
    seed: int = 0,
    test_data: Dataset | None = None,
) -> tuple[Network, tuple[TrainReport, TrainReport]]:
    """Short elevated-rate training phase, then regular fine-tuning.

    The kickoff rate should sit 2-3x above the fine-tuning rate; ratios
    outside that band only warn. Kickoff stays under 10 epochs by contract.
    """
    if len(combined_train_data) == 0:
        raise ValueError("empty dataset")
    if not 0 <= kickoff_epochs < 10:
        raise ValueError("kickoff_epochs must be in 0..9 (kickoff is a short phase)")
    if finetune_epochs < 0:
        raise ValueError("finetune_epochs must be >= 0")
    ratio = kickoff_config.learning_rate / finetune_config.learning_rate
    if not 2.0 <= ratio <= 3.0:
        warnings.warn(
            f"kickoff/finetune learning-rate ratio {ratio:.3g} is outside the "
            "recommended [2, 3] band",
            stacklevel=2,
        )
    kick_ss, fine_ss = np.random.SeedSequence(seed).spawn(2)
    kick_seed = int(kick_ss.generate_state(1, dtype=np.uint64)[0])
    fine_seed = int(fine_ss.generate_state(1, dtype=np.uint64)[0])
    m, kick_report = train(
        m, combined_train_data, kickoff_config, kickoff_epochs, batch_size,
        kick_seed, test_data,
    )
    m, fine_report = train(
        m, combined_train_data, finetune_config, finetune_epochs, batch_size,
        fine_seed, test_data,
    )
    return m, (kick_report, fine_report)


def kickoff_optimizer_configs(
    finetune_lr: float,
    lr_multiplier: float = 2.5,
    optimizer: str = "adam",
    momentum: float = 0.9,
    clip_norm: float | None = None,
) -> tuple[OptimizerConfig, OptimizerConfig]:
    """Matched (kickoff, finetune) optimizer configs from one base rate."""
    kick = OptimizerConfig(
        kind=optimizer, learning_rate=finetune_lr * lr_multiplier,
        momentum=momentum, clip_norm=clip_norm,
    )
    fine = OptimizerConfig(
        kind=optimizer, learning_rate=finetune_lr, momentum=momentum,
        clip_norm=clip_norm,
    )
    return kick, fine


# --- report serialization -----------------------------------------------------


def _tau_to_json(v: float):
    return "inf" if math.isinf(v) else v


def _tau_from_json(v) -> float:
    return math.inf if v == "inf" else float(v)


def config_to_json_dict(config: MergeConfig) -> dict:
    return {
        "lambda": config.lam,
        "thresholds": {
            level: {
                "tau_min": _tau_to_json(config.thresholds.for_level(level).tau_min),
                "tau_max": _tau_to_json(config.thresholds.for_level(level).tau_max),
            }
            for level in GRANULARITIES
        },
        "max_granularity": config.max_granularity,
        "epsilon": config.epsilon,
        "eval_mode": config.eval_mode,
        "k_per_class": config.k_per_class,
        "batch_size": config.batch_size,
        "eval_seed": config.eval_seed,
        "iterations": config.iterations,
        "loss": config.loss,
    }


def config_from_json_dict(doc: dict) -> MergeConfig:
    thresholds = Thresholds(**{
        level: LevelThresholds(
            _tau_from_json(doc["thresholds"][level]["tau_min"]),
            _tau_from_json(doc["thresholds"][level]["tau_max"]),
        )
        for level in GRANULARITIES
    })
    return MergeConfig(
        lam=doc["lambda"],
        thresholds=thresholds,
        max_granularity=doc["max_granularity"],
        epsilon=doc["epsilon"],
        eval_mode=doc["eval_mode"],
        k_per_class=doc["k_per_class"],
        batch_size=doc["batch_size"],
        eval_seed=doc["eval_seed"],
        iterations=doc["iterations"],
        loss=doc["loss"],
    )


def _record_to_json_dict(rec: DecisionRecord) -> dict:
    return {
        "level": rec.level,
        "layer": rec.layer,
        "neuron": rec.neuron,
        "weight": rec.weight,
        "L_A": rec.loss_a,
        "L_B": rec.loss_b,
        "delta_L": rec.delta,
        "case": rec.case,
        "alpha": rec.alpha,
        "action": rec.action,
        "L_pre": rec.loss_pre,
        "L_post": rec.loss_post,
    }


def _record_from_json_dict(doc: dict) -> DecisionRecord:
    return DecisionRecord(
        level=doc["level"], layer=doc["layer"], neuron=doc["neuron"],
        weight=doc["weight"], loss_a=doc["L_A"], loss_b=doc["L_B"],
        delta=doc["delta_L"], case=doc["case"], alpha=doc["alpha"],
        action=doc["action"], loss_pre=doc["L_pre"], loss_post=doc["L_post"],
    )


def reports_to_json(reports: list[MergeReport], config: MergeConfig) -> str:
    doc = {
        "config": config_to_json_dict(config),
        "iterations": [
            {
                "records": [_record_to_json_dict(r) for r in rep.records],
                "loss_before": rep.loss_before,
                "loss_after": rep.loss_after,
            }
            for rep in reports
        ],
        "wall_time_s": sum(rep.wall_time_s for rep in reports),
    }
    return json.dumps(doc, allow_nan=False)


def reports_from_json(text: str) -> tuple[list[MergeReport], MergeConfig, float]:
    """Inverse of reports_to_json. Per-iteration wall times are not stored in
    the file, so the total is assigned to the first report (keeping the sum,
    and with it re-serialization, exact)."""
    doc = json.loads(text)
    config = config_from_json_dict(doc["config"])
    total = float(doc["wall_time_s"])
    reports = [
        MergeReport(
            records=[_record_from_json_dict(r) for r in it["records"]],
            loss_before=it["loss_before"],
            loss_after=it["loss_after"],
            wall_time_s=total if i == 0 else 0.0,
            config=config,
        )
        for i, it in enumerate(doc["iterations"])
    ]
    return reports, config, total
