"""The merge engine against a construct-then-evaluate reference.

The reference below is the straightforward engine: every candidate is built
as a new network with ``set_structure`` and scored with a full forward pass
from the input. The engine scores candidates in one per-layer evaluator
instead (cached layer input, candidates written in place, reused buffers);
its records, reports and merged parameters must match the reference bit for
bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogram import merge, net as netmod
from cogram.merge import (
    DecisionRecord,
    LevelThresholds,
    MergeConfig,
    MergeReport,
    Thresholds,
    classify_case,
    convex_combine,
    mixing_factor,
)
from cogram.net import StructureAddress, get_structure, set_structure
from cogram.synthdata import Dataset
from conftest import ArrayEvalSet


# --- the reference engine -------------------------------------------------------


def _ref_loss(kind):
    return netmod.cross_entropy_loss if kind == "cross_entropy" else netmod.mse_loss


def _ref_decide(m, addr, a, b, config, eval_set):
    lossf = _ref_loss(config.loss)
    l_a = lossf(set_structure(m, addr, get_structure(a, addr)), eval_set)
    l_b = lossf(set_structure(m, addr, get_structure(b, addr)), eval_set)
    delta = l_a - l_b
    band = config.thresholds.for_level(addr.level)
    case = classify_case(delta, band.tau_min, band.tau_max)
    alpha = mixing_factor(delta, config.lam)
    fused = convex_combine(get_structure(a, addr), get_structure(b, addr), alpha)
    return l_a, l_b, delta, case, alpha, fused


def _ref_weight(m, k, n, w, a, b, config, eval_set, records, loss_pre):
    addr = StructureAddress(k, n, w)
    l_a, l_b, delta, case, alpha, fused = _ref_decide(m, addr, a, b, config, eval_set)
    candidate = set_structure(m, addr, fused)
    loss_post = _ref_loss(config.loss)(candidate, eval_set)
    if loss_post < loss_pre:
        action, m, current = "merged", candidate, loss_post
    else:
        action, current = "rolled_back", loss_pre
    records.append(DecisionRecord("weight", k, n, w, l_a, l_b, delta, case, alpha,
                                  action, loss_pre, loss_post))
    return m, current


def _ref_neuron(m, k, n, a, b, config, eval_set, records):
    lossf = _ref_loss(config.loss)
    addr = StructureAddress(k, n)
    loss_pre = lossf(m, eval_set)
    l_a, l_b, delta, case, alpha, fused = _ref_decide(m, addr, a, b, config, eval_set)
    if case == 3 or config.max_granularity == "neuron":
        candidate = set_structure(m, addr, fused)
        loss_post = lossf(candidate, eval_set)
        action = "merged" if loss_post < loss_pre else "rolled_back"
        records.append(DecisionRecord("neuron", k, n, None, l_a, l_b, delta, case, alpha,
                                      action, loss_pre, loss_post))
        return candidate if action == "merged" else m
    rec = DecisionRecord("neuron", k, n, None, l_a, l_b, delta, case, alpha,
                         "refined", loss_pre, None)
    records.append(rec)
    work = set_structure(m, addr, fused)
    running = lossf(work, eval_set)
    for w in range(m.layers[k].in_dim + 1):
        work, running = _ref_weight(work, k, n, w, a, b, config, eval_set, records, running)
    rec.loss_post = running
    if running < loss_pre:
        return work
    rec.action = "rolled_back"
    return m


def _ref_layer(m, k, a, b, config, eval_set, records):
    addr = StructureAddress(k)
    l_a, l_b, delta, case, alpha, fused = _ref_decide(m, addr, a, b, config, eval_set)
    m = set_structure(m, addr, fused)
    refine = case != 3 and config.max_granularity != "layer"
    records.append(DecisionRecord("layer", k, None, None, l_a, l_b, delta, case, alpha,
                                  "refined" if refine else "merged"))
    if refine:
        for n in range(m.layers[k].out_dim):
            m = _ref_neuron(m, k, n, a, b, config, eval_set, records)
    return m


def reference_iterate(m, a, b, config, eval_set):
    lossf = _ref_loss(config.loss)
    reports = []
    for _ in range(config.iterations):
        report = MergeReport([], lossf(m, eval_set), math.nan, 0.0, config)
        for k in reversed(range(len(m.layers))):
            m = _ref_layer(m, k, a, b, config, eval_set, report.records)
        report.loss_after = lossf(m, eval_set)
        reports.append(report)
    return m, reports


# --- engine against reference -----------------------------------------------------


SIZES = [5, 6, 4, 3]


def _dataset(seed=0, n=40):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, SIZES[0])), np.arange(n) % SIZES[-1], SIZES[-1])


def _trio(activation, seed=0):
    """Three random networks with nonzero biases."""
    rng = np.random.default_rng(seed)
    nets = []
    for i in range(3):
        net = netmod.random_network(SIZES, seed + i, hidden_activation=activation)
        layers = [netmod.DenseLayer(l.weights, rng.normal(scale=0.1, size=l.out_dim),
                                    l.activation) for l in net.layers]
        nets.append(netmod.Network(layers, net.input_dim, net.num_classes))
    return nets


def _report_text(reports, config):
    for rep in reports:
        rep.wall_time_s = 0.0
    return merge.reports_to_json(reports, config)


def _assert_engine_matches_reference(m, a, b, config, eval_set):
    merged, reports = merge.cogram_iterate(m, a, b, config, eval_set=eval_set,
                                           check_restores=True)
    expected, ref_reports = reference_iterate(m, a, b, config, eval_set)
    # float repr round-trips, so equal text means equal bits
    assert netmod.serialize(merged) == netmod.serialize(expected)
    assert _report_text(reports, config) == _report_text(ref_reports, config)
    return merged, reports


EVAL_MODES = {
    "onehot": {"eval_mode": "onehot"},
    "kmeans": {"eval_mode": "kmeans", "k_per_class": 2},
    "batch": {"eval_mode": "batch", "batch_size": 24, "eval_seed": 3},
}
BANDS = {"descend": Thresholds.uniform(0.0, 0.0), "band": Thresholds.uniform(0.002, 0.05)}


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
@pytest.mark.parametrize("eval_mode", EVAL_MODES)
@pytest.mark.parametrize("granularity", merge.GRANULARITIES)
def test_engine_matches_reference_bit_for_bit(granularity, eval_mode, loss, activation, band):
    config = MergeConfig(thresholds=BANDS[band], max_granularity=granularity, loss=loss,
                         iterations=2, **EVAL_MODES[eval_mode])
    eval_set = merge.build_eval_set(_dataset(), config)
    m, a, b = _trio(activation)
    _, reports = _assert_engine_matches_reference(m, a, b, config, eval_set)
    levels = {rec.level for rep in reports for rec in rep.records}
    assert levels == set(merge.GRANULARITIES[:merge.GRANULARITIES.index(granularity) + 1])


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
    eval_set = ArrayEvalSet(rng.normal(size=(rows, sizes[0])),
                            np.eye(sizes[-1])[rng.integers(0, sizes[-1], size=rows)])
    layer = draw(st.integers(0, len(sizes) - 2))
    return m, a, b, eval_set, layer, rng


@PROPERTY_SETTINGS
@given(_merge_case(), st.data())
def test_evaluator_loss_equals_full_forward_loss(case, data):
    m, _, _, eval_set, k, rng = case
    loss = data.draw(st.sampled_from(["cross_entropy", "mse"]))
    out_dim, in_dim = m.layers[k].weights.shape
    neuron = data.draw(st.none() | st.integers(0, out_dim - 1))
    weight = None if neuron is None else data.draw(st.none() | st.integers(0, in_dim))
    addr = StructureAddress(k, neuron, weight)
    block = get_structure(m, addr) + rng.normal(size=np.shape(get_structure(m, addr)))

    ev = merge._LayerEvaluator(m, k, eval_set, loss)
    assert ev.loss() == _ref_loss(loss)(m, eval_set)
    ev.write(addr, block)
    assert ev.loss() == _ref_loss(loss)(set_structure(m, addr, block), eval_set)


FORCE_WEIGHTS = MergeConfig(
    thresholds=Thresholds(neuron=LevelThresholds(math.inf, math.inf)),
    max_granularity="weight",
)


@PROPERTY_SETTINGS
@given(_merge_case(), st.data())
def test_running_loss_never_increases_across_a_weight_pass(case, data):
    m, a, b, eval_set, k, _ = case
    neuron = data.draw(st.integers(0, m.layers[k].out_dim - 1))
    report = MergeReport([], 0.0, 0.0, 0.0, FORCE_WEIGHTS)
    ev = merge._LayerEvaluator(m, k, eval_set, FORCE_WEIGHTS.loss)
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
    m, a, b, eval_set, k, _ = case
    # targets equal M's own softmax: any change to M's outputs raises the loss
    eval_set.targets = netmod.softmax(netmod.forward(m, eval_set.inputs))
    config = data.draw(st.sampled_from([MergeConfig(max_granularity="neuron"), FORCE_WEIGHTS]))
    neuron = data.draw(st.integers(0, m.layers[k].out_dim - 1))
    report = MergeReport([], 0.0, 0.0, 0.0, config)
    ev = merge._LayerEvaluator(m, k, eval_set, config.loss)
    baseline = ev.block(StructureAddress(k, neuron)).tobytes()
    merge.merge_neuron_level(ev, neuron, a, b, config, report, check_restores=True)
    if report.records[0].action == "rolled_back":
        assert ev.block(StructureAddress(k, neuron)).tobytes() == baseline
        assert netmod.serialize(ev.network()) == netmod.serialize(m)
