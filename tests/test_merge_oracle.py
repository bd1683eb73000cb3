"""The merge engine against a construct-then-evaluate reference.

The reference, in ``merge_reference``, is the straightforward engine: every
candidate is built as a new network and scored with a full forward pass from
the input. The engine scores candidates in one per-layer evaluator instead
(cached layer input, candidates written in place, one workspace); its
records, reports and merged parameters must match the reference bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogram import merge, net as netmod
from cogram.merge import LevelThresholds, MergeConfig, MergeReport, Thresholds
from cogram.synthdata import Dataset
from conftest import self_consistent_eval
from merge_reference import assert_matches_reference, block_of, ref_loss, with_block

# --- engine against reference -----------------------------------------------------


SIZES = [5, 6, 4, 3]


def _dataset(seed=0, n=40, sizes=SIZES):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, sizes[0])), np.arange(n) % sizes[-1], sizes[-1])


def _trio(activation, seed=0, sizes=SIZES, output="identity"):
    """Three random networks with nonzero biases and an ``output`` last layer."""
    rng = np.random.default_rng(seed)
    nets = []
    for i in range(3):
        net = netmod.random_network(sizes, seed + i, hidden_activation=activation)
        acts = [l.activation for l in net.layers[:-1]] + [output]
        layers = [netmod.DenseLayer(l.weights, rng.normal(scale=0.1, size=l.out_dim), act)
                  for l, act in zip(net.layers, acts)]
        nets.append(netmod.Network(layers, net.input_dim, net.num_classes))
    return nets


def _assert_engine_matches_reference(m, a, b, config, eval_set):
    merged, reports = merge.cogram_iterate(m, a, b, config, eval_set=eval_set)
    assert_matches_reference(m, a, b, config, eval_set, merged, reports)
    return merged, reports


EVAL_MODES = {
    "onehot": {"prototype": "onehot"},
    "kmeans": {"prototype": "kmeans:2"},
    "batch": {"prototype": "batch:24", "eval_seed": 3},
}
BANDS = {"descend": Thresholds.uniform(0.0, 0.0), "band": Thresholds.uniform(0.002, 0.05)}


# the activation of the last layer, whose outputs are the logits; relu and
# tanh ones keep the logits small and the loss gaps about a tenth as wide,
# so their band is a tenth as wide to still reach every case and level
OUTPUTS = ["identity", "relu", "tanh"]
NARROW_BANDS = {"descend": BANDS["descend"], "band": Thresholds.uniform(0.0002, 0.005)}


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("eval_mode", EVAL_MODES)
@pytest.mark.parametrize("granularity", merge.GRANULARITIES)
def test_engine_matches_reference_bit_for_bit(granularity, eval_mode, activation, band, output):
    bands = BANDS if output == "identity" else NARROW_BANDS
    config = MergeConfig(thresholds=bands[band], max_granularity=granularity, iterations=2,
                         **EVAL_MODES[eval_mode])
    eval_set = merge.build_eval_set(_dataset(), config)
    m, a, b = _trio(activation, output=output)
    _, reports = _assert_engine_matches_reference(m, a, b, config, eval_set)
    levels = {rec.level for rep in reports for rec in rep.records}
    assert levels == set(merge.GRANULARITIES[:merge.GRANULARITIES.index(granularity) + 1])


def test_engine_matches_reference_at_the_benchmark_shape():
    # 2,048 rows through 64-wide layers: BLAS takes its full-tile paths
    sizes = [32, 64, 64, 20]
    config = MergeConfig(thresholds=BANDS["descend"], max_granularity="neuron",
                         prototype="batch:2048", eval_seed=1)
    eval_set = merge.build_eval_set(_dataset(n=2048, sizes=sizes), config)
    assert eval_set.features.shape == (2048, 32)
    m, a, b = _trio("relu", sizes=sizes)
    _, reports = _assert_engine_matches_reference(m, a, b, config, eval_set)
    assert sum(rec.level == "neuron" for rec in reports[0].records) == 64 + 64 + 20


def test_engine_matches_reference_at_the_benchmark_weight_shape():
    # 20 one-hot rows through 64-wide layers down to single weights: every
    # stacked (2, 20, 64) @ (64, 64) product must equal the reference's 2-d GEMMs
    sizes = [32, 64, 64, 20]
    config = MergeConfig(thresholds=BANDS["descend"], max_granularity="weight")
    eval_set = merge.build_eval_set(_dataset(n=400, sizes=sizes), config)
    assert eval_set.features.shape == (20, 32)
    m, a, b = _trio("relu", sizes=sizes)
    _, reports = _assert_engine_matches_reference(m, a, b, config, eval_set)
    records = reports[0].records
    descended = [rec for rec in records if rec.level == "neuron" and rec.case != 3]
    weights = sum(rec.level == "weight" for rec in records)
    assert weights == sum(sizes[rec.layer] + 1 for rec in descended) > 6000


@pytest.fixture
def evaluator_modes(monkeypatch):
    """Whether each evaluator a merge makes scores in block mode."""
    modes = []

    class Recorded(merge._LayerEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            modes.append(bool(self._blocks))

    monkeypatch.setattr(merge, "_LayerEvaluator", Recorded)
    return modes


# 16 and 24 outputs give whole blocks of BLOCK_COLUMNS, 12 a narrower last one
LARGE_SIZES = [10, 16, 24, 12, 5]


@pytest.mark.parametrize("output", ["identity", "tanh"])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("rows", [netmod.BLOCK_ROWS, 1000, 2047])
def test_engine_matches_reference_on_large_contexts(rows, activation, output, evaluator_modes):
    # BLOCK_ROWS rows or more: block-mode scores and the class-major kernel
    config = MergeConfig(thresholds=BANDS["descend"], max_granularity="neuron",
                         prototype=f"batch:{rows}", eval_seed=2)
    eval_set = merge.build_eval_set(_dataset(n=2100, sizes=LARGE_SIZES), config)
    m, a, b = _trio(activation, sizes=LARGE_SIZES, output=output)
    _, reports = _assert_engine_matches_reference(m, a, b, config, eval_set)
    assert sum(rec.level == "neuron" for rec in reports[0].records) == 16 + 24 + 12 + 5
    assert evaluator_modes[0] is False  # the output layer, decided first, has none above it


def test_engine_matches_reference_on_a_large_context_down_to_weights():
    sizes = [6, 16, 8, 3]
    config = MergeConfig(thresholds=BANDS["descend"], max_granularity="weight",
                         prototype=f"batch:{netmod.BLOCK_ROWS}", eval_seed=4)
    eval_set = merge.build_eval_set(_dataset(n=600, sizes=sizes), config)
    m, a, b = _trio("relu", sizes=sizes)
    _, reports = _assert_engine_matches_reference(m, a, b, config, eval_set)
    assert sum(rec.level == "weight" for rec in reports[0].records) > 100


@pytest.mark.parametrize("granularity", ["neuron", "weight"])
@pytest.mark.parametrize("rows", [20, 1024])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_neuron_entry_loss_is_the_committed_loss_of_the_neuron_before_it(
        seed, rows, granularity, evaluator_modes):
    # each neuron's L_pre, scored afresh, equals bit for bit the loss its
    # predecessor in the layer committed: L_post if kept, L_pre if rolled back
    config = MergeConfig(thresholds=BANDS["descend"], max_granularity=granularity,
                         prototype=f"batch:{rows}", eval_seed=seed, iterations=2)
    eval_set = merge.build_eval_set(_dataset(seed, n=rows, sizes=LARGE_SIZES), config)
    m, a, b = _trio("relu", seed, sizes=LARGE_SIZES)
    _, reports = merge.cogram_iterate(m, a, b, config, eval_set=eval_set)
    pairs = 0
    for report in reports:
        before = None
        for rec in report.records:
            if rec.level == "neuron" and before is not None:
                committed = before.loss_pre if before.action == "rolled_back" else before.loss_post
                assert rec.loss_pre == committed, (before, rec)
                pairs += 1
            if rec.level != "weight":
                before = rec if rec.level == "neuron" else None
    assert pairs == 2 * sum(out - 1 for out in LARGE_SIZES[1:])
    assert any(evaluator_modes) == (rows >= netmod.BLOCK_ROWS)


def test_engine_matches_reference_when_the_probe_fails(monkeypatch, evaluator_modes):
    monkeypatch.setattr(merge, "_blocks_match", lambda *args: False)
    config = MergeConfig(thresholds=BANDS["descend"], max_granularity="neuron",
                         prototype="batch:1000")
    eval_set = merge.build_eval_set(_dataset(n=1000, sizes=LARGE_SIZES), config)
    m, a, b = _trio("tanh", sizes=LARGE_SIZES)
    _assert_engine_matches_reference(m, a, b, config, eval_set)
    assert evaluator_modes == [False] * 4


def test_benchmark_shape_takes_the_block_path_and_the_class_major_kernel(monkeypatch):
    # A canary: the speed of the merge-neuron-batch workload rests on both
    # fast paths, and a BLAS or numpy upgrade that breaks either fails here.
    sizes = [32, 64, 64, 20]
    config = MergeConfig(prototype="batch:2048", eval_seed=1)
    eval_set = merge.build_eval_set(_dataset(n=2048, sizes=sizes), config)
    m, a, _ = _trio("relu", sizes=sizes)
    class_major = []
    kernel = netmod._class_major_cross_entropy
    monkeypatch.setattr(netmod, "_class_major_cross_entropy",
                        lambda *args: class_major.append(1) or kernel(*args))
    for k in range(3):
        ev = merge._LayerEvaluator(m, k, eval_set)
        assert len(ev._blocks) == (64 // merge.BLOCK_COLUMNS if k < 2 else 0), k
        block = block_of(a, k, (5,))
        ev.put((5,), block)
        class_major.clear()
        assert ev.loss() == ref_loss(with_block(m, k, (5,), block), eval_set)
        assert class_major == [1], k


@pytest.mark.parametrize("granularity", merge.GRANULARITIES)
def test_tie_a_equals_b_equals_m_rolls_everything_back(granularity):
    m, _, _ = _trio("relu")
    config = MergeConfig(thresholds=BANDS["descend"], max_granularity=granularity)
    eval_set = merge.build_eval_set(_dataset(), config)
    merged, reports = _assert_engine_matches_reference(m, m, m, config, eval_set)
    assert netmod.parameters_equal(merged, m)
    assert all(rec.action == "rolled_back" for rep in reports for rec in rep.records
               if rec.level != "layer")


# --- properties of the evaluator ----------------------------------------------------


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def _merge_case(draw):
    """Random small M, A, B and evaluation set, and one layer of M."""
    sizes = [draw(st.integers(2, 5)) for _ in range(draw(st.integers(2, 4)))]
    activation = draw(st.sampled_from(["relu", "tanh", "identity"]))
    seed = draw(st.integers(0, 2**16))
    m, a, b = (netmod.random_network(sizes, seed + i, hidden_activation=activation)
               for i in range(3))
    rng = np.random.default_rng(seed)
    rows = draw(st.integers(1, 6))
    eval_set = Dataset(rng.normal(size=(rows, sizes[0])),
                       rng.integers(0, sizes[-1], size=rows), sizes[-1])
    layer = draw(st.integers(0, len(sizes) - 2))
    return m, a, b, eval_set, layer, rng


@PROPERTY_SETTINGS
@given(_merge_case(), st.data())
def test_evaluator_loss_equals_full_forward_loss(case, data):
    m, _, _, eval_set, k, rng = case
    out_dim, in_dim = m.layers[k].weights.shape
    neuron = data.draw(st.none() | st.integers(0, out_dim - 1))
    weight = None if neuron is None else data.draw(st.none() | st.integers(0, in_dim))
    key = tuple(i for i in (neuron, weight) if i is not None)
    block = block_of(m, k, key) + rng.normal(size=np.shape(block_of(m, k, key)))

    ev = merge._LayerEvaluator(m, k, eval_set)
    assert ev.loss() == ref_loss(m, eval_set)
    ev.put(key, block)
    assert ev.loss() == ref_loss(with_block(m, k, key, block), eval_set)


FORCE_WEIGHTS = MergeConfig(
    thresholds=Thresholds(neuron=LevelThresholds(math.inf, math.inf)),
    max_granularity="weight",
)


@PROPERTY_SETTINGS
@given(_merge_case(), st.data())
def test_running_loss_never_increases_across_a_weight_pass(case, data):
    m, a, b, eval_set, k, _ = case
    neuron = data.draw(st.integers(0, m.layers[k].out_dim - 1))
    report = MergeReport([], 0.0, 0.0, 0.0)
    ev = merge._LayerEvaluator(m, k, eval_set)
    merge.merge_neuron_level(ev, neuron, a, b, FORCE_WEIGHTS, report)
    head, *weights = report.records
    assert head.case == 1 and len(weights) == m.layers[k].in_dim + 1
    running = weights[0].loss_pre
    for rec in weights:
        assert rec.loss_pre == running
        running = rec.loss_post if rec.action == "merged" else rec.loss_pre
        assert running <= rec.loss_pre
    assert head.loss_post == running


@PROPERTY_SETTINGS
@given(_merge_case(), st.data())
def test_rolled_back_neuron_row_is_bit_identical_to_its_baseline(case, data):
    m, a, b, eval_set, k, rng = case
    # M scaled to a cross-entropy of exactly 0.0: no change to it lowers the loss
    m, eval_set = self_consistent_eval(m, rng, len(eval_set))
    config = data.draw(st.sampled_from([MergeConfig(max_granularity="neuron"), FORCE_WEIGHTS]))
    neuron = data.draw(st.integers(0, m.layers[k].out_dim - 1))
    report = MergeReport([], 0.0, 0.0, 0.0)
    ev = merge._LayerEvaluator(m, k, eval_set)
    baseline = ev.theta[ev.positions[neuron]].tobytes()
    merge.merge_neuron_level(ev, neuron, a, b, config, report)
    if report.records[0].action == "rolled_back":
        assert ev.theta[ev.positions[neuron]].tobytes() == baseline
        assert netmod.serialize(ev.network()) == netmod.serialize(m)
        assert ev.loss() == report.records[0].loss_pre
