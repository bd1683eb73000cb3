import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogram import merge, net as netmod
from cogram.merge import (
    _LayerEvaluator,
    LevelThresholds,
    MergeConfig,
    Thresholds,
    build_eval_set,
    classify_case,
    cogram_iterate,
    cogram_merge,
    config_from_json_dict,
    config_to_json_dict,
    convex_combine,
    gradient_kickoff,
    KickoffConfig,
    merge_layer_level,
    merge_neuron_level,
    merge_weight_level,
    mixing_factor,
    reports_from_json,
    reports_to_json,
    MergeReport,
)
from cogram.net import (
    DenseLayer,
    Network,
    cross_entropy_loss,
    forward,
    random_network,
)
from cogram.synthdata import Dataset
from cogram.training import OptimizerConfig, accuracy
from conftest import self_consistent_eval


def _param_bytes(net):
    return b"".join(l.weights.tobytes() + l.biases.tobytes() for l in net.layers)


def _random_eval(rng, n, dim, num_classes):
    x = rng.normal(size=(n, dim))
    return Dataset(x, rng.integers(0, num_classes, size=n), num_classes)


def _neuron_decision(ev, neuron, a, b, config, report):
    """merge_neuron_level, checking that a rollback leaves the evaluator's
    parameters, and its loss, bit-identical to the entry."""
    entry = ev.theta.tobytes()
    rec_idx = len(report.records)
    merge_neuron_level(ev, neuron, a, b, config, report)
    rec = report.records[rec_idx]
    if rec.action == "rolled_back":
        assert ev.theta.tobytes() == entry
        assert ev.loss() == rec.loss_pre


FORCE_DESCENT = Thresholds(
    layer=LevelThresholds(math.inf, math.inf),
    neuron=LevelThresholds(math.inf, math.inf),
    weight=LevelThresholds(0.0, math.inf),
)


# --- mixing factor ------------------------------------------------------------


def test_mixing_factor_at_zero_is_exactly_half():
    assert mixing_factor(0.0, 5.5) == 0.5


def test_mixing_factor_derived_value():
    # 1 / (1 + e^{5.5 * 0.5}) = 1 / (1 + e^2.75)
    expected = 1.0 / (1.0 + math.exp(2.75))
    got = mixing_factor(0.5, 5.5)
    assert abs(got - expected) < 1e-15
    assert abs(got - 0.0601) < 5e-5


def test_mixing_factor_symmetry_1000_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = float(rng.normal(scale=rng.uniform(0.01, 100)))
        assert abs(mixing_factor(d, 5.5) + mixing_factor(-d, 5.5) - 1.0) <= 1e-15


def test_mixing_factor_saturates_without_nan():
    hi = mixing_factor(1e4, 1.0)
    lo = mixing_factor(-1e4, 1.0)
    assert math.isfinite(hi) and math.isfinite(lo)
    assert 0.0 <= hi < 1e-300
    assert lo == 1.0


def test_mixing_factor_direction():
    assert mixing_factor(-0.3, 5.5) > 0.5  # A better -> lean A
    assert mixing_factor(0.3, 5.5) < 0.5


def test_mixing_factor_validation():
    with pytest.raises(ValueError):
        mixing_factor(0.1, 0.0)
    with pytest.raises(ValueError):
        mixing_factor(math.nan, 1.0)


# --- convex combine --------------------------------------------------------------


def test_convex_combine_endpoints_exact():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    assert np.array_equal(convex_combine(a, b, 1.0), a)
    assert np.array_equal(convex_combine(a, b, 0.0), b)


def test_convex_combine_midpoint():
    assert convex_combine(np.full(3, 2.0), np.full(3, 4.0), 0.5).tolist() == [3.0] * 3


def test_convex_combine_bounds_property():
    rng = np.random.default_rng(2)
    for _ in range(25):
        a, b = rng.normal(size=6), rng.normal(size=6)
        alpha = float(rng.uniform())
        out = convex_combine(a, b, alpha)
        assert np.all(out >= np.minimum(a, b) - 1e-12)
        assert np.all(out <= np.maximum(a, b) + 1e-12)


def test_convex_combine_scalars_and_errors():
    assert convex_combine(2.0, 6.0, 0.25) == 5.0  # 0.25*2 + 0.75*6
    with pytest.raises(netmod.ShapeError):
        convex_combine(np.zeros(3), np.zeros(4), 0.5)
    with pytest.raises(ValueError):
        convex_combine(np.zeros(3), np.zeros(3), 1.5)


# --- case classification -----------------------------------------------------------


def test_classify_case_boundaries_belong_to_case_3():
    assert classify_case(0.0, 0.0, 1.0) == 3          # |dL| = tau_min = 0
    assert classify_case(0.25, 0.25, 1.0) == 3        # lower boundary
    assert classify_case(-1.0, 0.25, 1.0) == 3        # upper boundary
    assert classify_case(1.0, 1.0, 1.0) == 3          # degenerate band


def test_classify_case_below_and_above():
    assert classify_case(-0.005, 0.01, 1.0) == 1
    assert classify_case(2.0, 0.01, 1.0) == 2


def test_classify_case_partition_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        tau_min = float(rng.uniform(0, 1))
        tau_max = tau_min + float(rng.uniform(0, 1))
        for d in (0.0, tau_min, -tau_min, tau_max, -tau_max,
                  float(rng.normal(scale=2.0))):
            case = classify_case(d, tau_min, tau_max)
            assert case in (1, 2, 3)
            if abs(d) in (tau_min, tau_max):
                assert case == 3


def test_classify_case_validation():
    with pytest.raises(ValueError):
        classify_case(0.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        classify_case(0.0, 2.0, 1.0)


# --- loss difference ------------------------------------------------------------------


def _difference(m, k, key, a, b, es):
    """Loss of M with A's block at ``key`` of layer k, with B's block, and
    their gap."""
    ev = _LayerEvaluator(m, k, es, "cross_entropy")
    block_a, block_b = (x.theta[x.positions[k][key]] for x in (a, b))
    return ev.difference(key, block_a, block_b)


def test_loss_difference_zero_for_identical_candidates():
    rng = np.random.default_rng(4)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    es = _random_eval(rng, 6, 5, 3)
    for k, key in ((1, ()), (0, (2,)), (1, (1, 4))):
        l_a, l_b, delta = _difference(m, k, key, a, a, es)
        assert delta == 0.0
        assert l_a == l_b


def test_loss_difference_antisymmetric():
    rng = np.random.default_rng(5)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    b = random_network([5, 4, 3], seed=2)
    es = _random_eval(rng, 6, 5, 3)
    l_a, l_b, delta = _difference(m, 0, (), a, b, es)
    l_b2, l_a2, delta2 = _difference(m, 0, (), b, a, es)
    assert (l_a, l_b) == (l_a2, l_b2)
    assert delta2 == -delta


def test_loss_difference_matches_construct_then_evaluate_oracle():
    rng = np.random.default_rng(6)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    b = random_network([5, 4, 3], seed=2)
    es = _random_eval(rng, 8, 5, 3)
    l_a, l_b, _ = _difference(m, 1, (2,), a, b, es)

    # oracle: assemble each candidate net by hand from copied arrays
    def candidate(src):
        layers = [DenseLayer(l.weights.copy(), l.biases.copy(), l.activation)
                  for l in m.layers]
        layers[1].weights[2] = src.layers[1].weights[2]
        layers[1].biases[2] = src.layers[1].biases[2]
        return Network(layers, m.input_dim, m.num_classes)

    assert l_a == cross_entropy_loss(candidate(a), es)
    assert l_b == cross_entropy_loss(candidate(b), es)


def test_loss_difference_leaves_m_untouched():
    rng = np.random.default_rng(7)
    m = random_network([5, 4, 3], seed=0)
    before = _param_bytes(m)
    _difference(m, 0, (), random_network([5, 4, 3], 1),
                random_network([5, 4, 3], 2), _random_eval(rng, 5, 5, 3))
    assert _param_bytes(m) == before


@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
def test_evaluator_score_allocates_less_than_one_logits_array(loss):
    # 2,048 rows, 20 classes: one N x C float64 array is 320 KiB
    rng = np.random.default_rng(0)
    m = random_network([32, 64, 64, 20], seed=0)
    eval_set = _random_eval(rng, 2048, 32, 20)
    for k in range(len(m.layers)):
        ev = _LayerEvaluator(m, k, eval_set, loss)
        expected = ev.loss()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert ev.loss() == expected
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2048 * 20 * 8, (k, peak)


# --- the stacked pair of a weight decision ------------------------------------------------


FORCE_WEIGHT_PASS = MergeConfig(
    thresholds=Thresholds(neuron=LevelThresholds(math.inf, math.inf)), max_granularity="weight"
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pair_losses_equal_two_single_scores_after_any_history(data):
    sizes = [data.draw(st.integers(2, 5)) for _ in range(data.draw(st.integers(2, 4)))]
    activation = data.draw(st.sampled_from(["relu", "tanh", "identity"]))
    loss = data.draw(st.sampled_from(["cross_entropy", "mse"]))
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    m, a, b = (random_network(sizes, seed + i, hidden_activation=activation) for i in range(3))
    k = data.draw(st.integers(0, len(sizes) - 2))
    out_dim, in_dim = m.layers[k].weights.shape
    if data.draw(st.booleans()):  # M starts at the optimum, so neuron passes roll back
        m, es = self_consistent_eval(m, rng, data.draw(st.integers(1, 6)))
    else:
        es = _random_eval(rng, data.draw(st.integers(1, 6)), sizes[0], sizes[-1])
    config = dataclasses.replace(FORCE_WEIGHT_PASS, loss=loss)
    report = _empty_report()
    ev = _LayerEvaluator(m, k, es, loss)
    for op in data.draw(st.lists(st.sampled_from(["put", "neuron", "weight"]), max_size=4)):
        neuron = data.draw(st.integers(0, out_dim - 1))
        if op == "put":
            ev.put((neuron,), rng.normal(size=in_dim + 1))
        elif op == "neuron":
            _neuron_decision(ev, neuron, a, b, config, report)
        else:
            weight = data.draw(st.integers(0, in_dim))
            merge_weight_level(ev, neuron, weight, a, b, config, report, ev.loss())

    neuron = data.draw(st.integers(0, out_dim - 1))
    pairs = []
    for weight in (data.draw(st.integers(0, in_dim - 1)), in_dim):  # a weight, then the bias
        key = neuron, weight
        values = rng.normal(size=2)
        before = ev.theta.tobytes()
        pairs.append((key, values, ev.pair_losses(key, *values)))
        assert ev.theta.tobytes() == before
    for key, values, pair in pairs:
        kept = ev.theta[ev.positions[key]]
        singles = []
        for value in values:
            ev.put(key, value)
            singles.append(ev.loss())
        ev.put(key, kept)
        assert pair == singles


@pytest.mark.parametrize("rows", [20, 2048])
def test_weight_decision_allocates_nothing_after_the_first(rows):
    rng = np.random.default_rng(0)
    m, a, b = (random_network([32, 64, 64, 20], seed=i) for i in range(3))
    es = _random_eval(rng, rows, 32, 20)
    cfg = MergeConfig()
    for k in range(len(m.layers)):
        ev = _LayerEvaluator(m, k, es, cfg.loss)
        report = _empty_report()
        running = merge_weight_level(ev, 0, 0, a, b, cfg, report, ev.loss())  # makes the pair
        # A broadcasting ufunc takes an iterator buffer of up to bufsize elements
        # (64 KiB by default) on every call; at the smallest bufsize that is 128 bytes.
        bufsize = np.setbufsize(16)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            merge_weight_level(ev, 1, 2, a, b, cfg, report, running)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()
            np.setbufsize(bufsize)
        # the record and a few scalars; less than one 20-row logits array
        assert peak < 20 * 20 * 8, (k, peak)


def test_neuron_granularity_never_makes_the_stacked_buffers(monkeypatch):
    made = []
    workspace = netmod.Workspace

    def spy(net, rows, stack=None, backprop=False):
        if stack is not None:
            made.append(stack)
        return workspace(net, rows, stack, backprop)

    monkeypatch.setattr(netmod, "Workspace", spy)
    rng = np.random.default_rng(16)
    m, a, b = (random_network([5, 4, 3], seed=i) for i in range(3))
    es = _random_eval(rng, 8, 5, 3)
    descend = Thresholds.uniform(0.0, 0.0)
    _, report = cogram_merge(m, a, b, MergeConfig(thresholds=descend, max_granularity="neuron"),
                             eval_set=es)
    assert sum(rec.level == "neuron" for rec in report.records) == 4 + 3
    assert made == []
    _, report = cogram_merge(m, a, b, MergeConfig(thresholds=descend, max_granularity="weight"),
                             eval_set=es)
    assert len(made) == len({rec.layer for rec in report.records if rec.level == "weight"}) == 2


# --- level operations -------------------------------------------------------------------


def _empty_report():
    return MergeReport(records=[], loss_before=0.0, loss_after=0.0, wall_time_s=0.0)


def test_merge_layer_level_identical_candidates_give_exact_copy():
    rng = np.random.default_rng(8)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    es = _random_eval(rng, 6, 5, 3)
    cfg = MergeConfig()
    rep = _empty_report()
    merged = merge_layer_level(m, 1, a, a, cfg, es, rep)
    assert np.array_equal(merged.layers[1].weights, a.layers[1].weights)
    assert np.array_equal(merged.layers[1].biases, a.layers[1].biases)
    # locality: the untouched layer is bitwise equal
    assert merged.layers[0].weights.tobytes() == m.layers[0].weights.tobytes()
    assert merged.layers[0].biases.tobytes() == m.layers[0].biases.tobytes()


def test_merge_layer_level_forced_case3_blend():
    rng = np.random.default_rng(9)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    b = random_network([5, 4, 3], seed=2)
    es = _random_eval(rng, 6, 5, 3)
    cfg = MergeConfig()  # tau_min=0, tau_max=inf -> always case 3
    rep = _empty_report()
    merged = merge_layer_level(m, 0, a, b, cfg, es, rep)
    rec = rep.records[-1]
    assert rec.case == 3 and rec.action == "merged"
    blended = rec.alpha * a.layers[0].weights + (1 - rec.alpha) * b.layers[0].weights
    assert np.array_equal(merged.layers[0].weights, blended)


def test_merge_neuron_level_tie_rolls_back_bit_identical():
    rng = np.random.default_rng(10)
    m = random_network([5, 4, 3], seed=0)
    es = _random_eval(rng, 6, 5, 3)
    cfg = MergeConfig()
    rep = _empty_report()
    ev = _LayerEvaluator(m, 1, es, cfg.loss)
    _neuron_decision(ev, 2, m, m, cfg, rep)
    merged = ev.network()
    rec = rep.records[-1]
    assert rec.action == "rolled_back"
    assert rec.loss_post == rec.loss_pre  # tie rejected by strict <
    assert _param_bytes(merged) == _param_bytes(m)


def test_merge_neuron_level_adversarial_eval_always_rolls_back():
    rng = np.random.default_rng(11)
    m, es = self_consistent_eval(random_network([6, 5, 4], seed=0), rng, 10)
    a = random_network([6, 5, 4], seed=1)
    b = random_network([6, 5, 4], seed=2)
    cfg = MergeConfig()
    rep = _empty_report()
    ev = _LayerEvaluator(m, 0, es, cfg.loss)
    for neuron in range(5):
        _neuron_decision(ev, neuron, a, b, cfg, rep)
    out = ev.network()
    assert all(r.action == "rolled_back" for r in rep.records)
    assert all(r.loss_post >= r.loss_pre for r in rep.records)
    assert _param_bytes(out) == _param_bytes(m)


def test_merge_neuron_level_loss_never_increases():
    rng = np.random.default_rng(12)
    cfg = MergeConfig()
    for trial in range(10):
        m = random_network([5, 4, 3], seed=trial)
        a = random_network([5, 4, 3], seed=trial + 50)
        b = random_network([5, 4, 3], seed=trial + 100)
        es = _random_eval(rng, 8, 5, 3)
        rep = _empty_report()
        before = cross_entropy_loss(m, es)
        ev = _LayerEvaluator(m, 1, es, cfg.loss)
        merge_neuron_level(ev, trial % 3, a, b, cfg, rep)
        out = ev.network()
        assert cross_entropy_loss(out, es) <= before


def test_merge_weight_level_tie_and_locality():
    rng = np.random.default_rng(13)
    m = random_network([5, 4, 3], seed=0)
    es = _random_eval(rng, 6, 5, 3)
    cfg = MergeConfig()
    rep = _empty_report()
    ev = _LayerEvaluator(m, 1, es, cfg.loss)
    merge_weight_level(ev, 1, 2, m, m, cfg, rep, ev.loss())
    out = ev.network()
    assert rep.records[-1].action == "rolled_back"
    assert _param_bytes(out) == _param_bytes(m)

    a = random_network([5, 4, 3], seed=1)
    b = random_network([5, 4, 3], seed=2)
    rep = _empty_report()
    ev = _LayerEvaluator(m, 1, es, cfg.loss)
    merge_weight_level(ev, 1, 2, a, b, cfg, rep, ev.loss())
    out = ev.network()
    if rep.records[-1].action == "merged":
        diff = np.abs(out.layers[1].weights - m.layers[1].weights)
        assert np.count_nonzero(diff) == 1  # exactly one scalar changed
        assert np.array_equal(out.layers[0].weights, m.layers[0].weights)


def test_merge_weight_level_bias_index():
    rng = np.random.default_rng(14)
    m = random_network([4, 3], seed=0)
    a = random_network([4, 3], seed=1)
    b = random_network([4, 3], seed=2)
    a, es = self_consistent_eval(a, rng, 8)  # favors A's parameters
    cfg = MergeConfig()
    rep = _empty_report()
    in_dim = m.layers[0].in_dim
    ev = _LayerEvaluator(m, 0, es, cfg.loss)
    merge_weight_level(ev, 1, in_dim, a, b, cfg, rep, ev.loss())
    out = ev.network()
    rec = rep.records[-1]
    assert rec.weight == in_dim
    assert np.array_equal(out.layers[0].weights, m.layers[0].weights)  # only bias may move


# --- full merge -----------------------------------------------------------------------


@pytest.mark.parametrize("granularity", ["layer", "neuron", "weight"])
def test_cogram_merge_identity_fusion(granularity):
    rng = np.random.default_rng(15)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    es = _random_eval(rng, 6, 5, 3)
    cfg = MergeConfig(thresholds=FORCE_DESCENT, max_granularity=granularity)
    merged, report = cogram_merge(m, a, a, cfg, es)
    assert np.max(np.abs(merged.theta - a.theta)) <= 1e-15
    assert report.records


def test_cogram_merge_layer_oracle_bit_exact():
    # independent straight-line sweep: swap layer, compare losses, sigmoid
    # blend, back to front; must match the engine bit for bit
    rng = np.random.default_rng(16)
    lam = 5.5
    for trial in range(10):
        m = random_network([6, 5, 5, 4], seed=trial)
        a = random_network([6, 5, 5, 4], seed=trial + 30)
        b = random_network([6, 5, 5, 4], seed=trial + 60)
        es = _random_eval(rng, 8, 6, 4)

        expected_layers = [DenseLayer(l.weights.copy(), l.biases.copy(), l.activation)
                           for l in m.layers]
        for k in reversed(range(3)):
            def swapped(src):
                layers = list(expected_layers)
                layers[k] = DenseLayer(src.layers[k].weights.copy(),
                                       src.layers[k].biases.copy(),
                                       src.layers[k].activation)
                return Network(layers, 6, 4)

            l_a = cross_entropy_loss(swapped(a), es)
            l_b = cross_entropy_loss(swapped(b), es)
            z = lam * (l_a - l_b)
            if z >= 0:
                e = math.exp(-z)
                alpha = e / (1.0 + e)
            else:
                alpha = 1.0 / (1.0 + math.exp(z))
            expected_layers[k] = DenseLayer(
                alpha * a.layers[k].weights + (1 - alpha) * b.layers[k].weights,
                alpha * a.layers[k].biases + (1 - alpha) * b.layers[k].biases,
                m.layers[k].activation,
            )
        expected = Network(expected_layers, 6, 4)

        merged, _ = cogram_merge(m, a, b, MergeConfig(lam=lam), eval_set=es)
        assert netmod.parameters_equal(merged, expected)


def test_cogram_merge_sweeps_layers_back_to_front():
    rng = np.random.default_rng(17)
    m = random_network([6, 5, 4, 3], seed=0)
    a = random_network([6, 5, 4, 3], seed=1)
    b = random_network([6, 5, 4, 3], seed=2)
    es = _random_eval(rng, 6, 6, 3)
    _, report = cogram_merge(m, a, b, MergeConfig(), eval_set=es)
    layer_order = [r.layer for r in report.records if r.level == "layer"]
    assert layer_order == [2, 1, 0]


def test_cogram_merge_deterministic():
    rng_data = np.random.default_rng(18)
    feats = rng_data.normal(size=(40, 5))
    labels = rng_data.integers(0, 3, size=40)
    data = Dataset(feats, labels, 3)
    cfg = MergeConfig(thresholds=Thresholds.uniform(0.01, 0.5),
                      max_granularity="weight")
    results = []
    for _ in range(2):
        m = random_network([5, 4, 3], seed=0)
        a = random_network([5, 4, 3], seed=1)
        b = random_network([5, 4, 3], seed=2)
        results.append(cogram_merge(m, a, b, cfg, build_eval_set(data, cfg)))
    (m1, r1), (m2, r2) = results
    assert netmod.parameters_equal(m1, m2)
    assert r1.records == r2.records
    assert r1.loss_before == r2.loss_before and r1.loss_after == r2.loss_after


def test_cogram_merge_report_consistency_and_alpha_direction():
    rng = np.random.default_rng(19)
    for trial in range(5):
        m = random_network([5, 4, 3], seed=trial)
        a = random_network([5, 4, 3], seed=trial + 10)
        b = random_network([5, 4, 3], seed=trial + 20)
        es = _random_eval(rng, 8, 5, 3)
        cfg = MergeConfig(thresholds=Thresholds.uniform(0.02, 0.3),
                          max_granularity="weight")
        _, report = cogram_merge(m, a, b, cfg, es)
        for rec in report.records:
            if rec.delta < 0:
                assert rec.alpha > 0.5
            elif rec.delta > 0:
                assert rec.alpha < 0.5
            if rec.level == "layer":
                continue
            if rec.action == "merged":
                assert rec.loss_post < rec.loss_pre
            elif rec.action == "rolled_back":
                assert rec.loss_post >= rec.loss_pre


def test_cogram_iterate_requires_data_or_eval_set():
    nets = [random_network([4, 3], seed=s) for s in range(3)]
    with pytest.raises(ValueError, match="needs either data or a prebuilt eval_set"):
        cogram_iterate(nets[0], nets[1], nets[2], MergeConfig())


def test_cogram_merge_rejects_incompatible():
    m = random_network([4, 3], seed=0)
    other = random_network([5, 3], seed=1)
    es = _random_eval(np.random.default_rng(0), 2, 4, 3)
    with pytest.raises(netmod.ShapeError):
        cogram_merge(m, other, other, MergeConfig(), es)


# --- iteration --------------------------------------------------------------------------


def test_cogram_iterate_single_iteration_matches_merge():
    rng = np.random.default_rng(20)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    b = random_network([5, 4, 3], seed=2)
    es = _random_eval(rng, 6, 5, 3)
    merged_once, rep_once = cogram_merge(m, a, b, MergeConfig(), eval_set=es)
    merged_iter, reports = cogram_iterate(m, a, b, MergeConfig(iterations=1), eval_set=es)
    assert netmod.parameters_equal(merged_once, merged_iter)
    assert len(reports) == 1
    assert reports[0].records == rep_once.records


def test_cogram_iterate_fixed_point_and_finite_losses():
    rng = np.random.default_rng(21)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    es = _random_eval(rng, 6, 5, 3)
    merged, reports = cogram_iterate(m, a, a, MergeConfig(iterations=3), eval_set=es)
    assert np.max(np.abs(merged.theta - a.theta)) <= 1e-15
    assert len(reports) == 3
    for rep in reports:
        assert math.isfinite(rep.loss_before) and math.isfinite(rep.loss_after)


# --- eval-set construction ----------------------------------------------------------------


def test_build_eval_set_modes():
    rng = np.random.default_rng(22)
    feats = np.abs(rng.normal(size=(40, 5))) + 0.05
    labels = np.repeat(np.arange(4), 10)
    data = Dataset(feats, labels, 4)
    onehot = build_eval_set(data, MergeConfig(prototype="onehot"))
    assert len(onehot) == 4 and np.array_equal(onehot.labels, np.arange(4))
    kmeans = build_eval_set(data, MergeConfig(prototype="kmeans:2"))
    assert len(kmeans) == 8
    batch = build_eval_set(data, MergeConfig(prototype="batch:7"))
    assert len(batch) == 7 and all((feats == row).all(axis=1).any() for row in batch.features)
    whole = build_eval_set(data, MergeConfig(prototype="batch"))
    assert len(whole) == 40
    with pytest.raises(ValueError, match="^N in prototype 'batch:41' must be at most the 40 "
                                         "rows of the data, got 41$"):
        build_eval_set(data, MergeConfig(prototype="batch:41"))


def test_merge_config_validation():
    with pytest.raises(ValueError):
        MergeConfig(lam=0.0)
    with pytest.raises(ValueError):
        MergeConfig(max_granularity="tensor")
    with pytest.raises(ValueError):
        MergeConfig(iterations=0)
    with pytest.raises(ValueError):
        LevelThresholds(0.5, 0.1)


@pytest.mark.parametrize("field, value, message", [
    ("lam", True, "lam must be"), ("lam", "5", "lam must be"), ("lam", math.nan, "lam must be"),
    ("epsilon", "x", "epsilon must be"), ("epsilon", 0.0, "epsilon must be"),
    ("iterations", 2.5, "iterations must be"), ("iterations", True, "iterations must be"),
    ("prototype", "kmeans:0", "K in prototype 'kmeans:0' must be an integer >= 1, got 0"),
    ("prototype", "batch:0", "N in prototype 'batch:0' must be an integer >= 1, got 0"),
    ("prototype", "batch:2.0", "bad prototype spec 'batch:2.0'"),
    ("prototype", 5, "bad prototype spec 5"), ("prototype", None, "bad prototype spec None"),
    ("prototype", "kmeans", "bad prototype spec 'kmeans'"),
    ("prototype", "onehot:1", "bad prototype spec 'onehot:1'"),
    ("eval_seed", -1, "eval_seed must be"), ("eval_seed", 1.5, "eval_seed must be"),
])
def test_merge_config_rejects_bad_field_types_and_ranges(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        MergeConfig(**{field: value})


@pytest.mark.parametrize("tau_min, tau_max", [
    (True, 1.0), (0.0, "1.5"), (math.nan, 1.0), (0.0, math.nan), (-1.0, 1.0), (0.0, -math.inf),
])
def test_level_thresholds_reject_bad_bounds(tau_min, tau_max):
    with pytest.raises(ValueError, match="^tau_m(in|ax) must be"):
        LevelThresholds(tau_min, tau_max)


def test_level_thresholds_store_floats():
    band = LevelThresholds(np.int64(0), 1)
    assert type(band.tau_min) is float and type(band.tau_max) is float
    assert band == LevelThresholds(0.0, 1.0)
    assert LevelThresholds(math.inf, math.inf).tau_min == math.inf


def test_merge_config_accepts_numpy_scalars_and_whole_dataset_batches():
    config = MergeConfig(lam=np.float64(2.0), iterations=np.int64(2), prototype="batch")
    assert config.iterations == 2 and config.prototype == "batch"
    assert MergeConfig(prototype="kmeans:03").prototype == "kmeans:3"  # the canonical spelling


# --- gradient kickoff ------------------------------------------------------------------------


def _toy_data(seed=0, n=60):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, 4))
    labels = (feats[:, 0] > 0).astype(int)
    return Dataset(feats, labels, 2)


def test_gradient_kickoff_zero_epochs_is_identity():
    m = random_network([4, 3, 2], seed=0)
    out, (rep_k, rep_f) = gradient_kickoff(m, _toy_data(), OptimizerConfig(learning_rate=1e-3),
                                           KickoffConfig(kickoff_epochs=0, finetune_epochs=0))
    assert netmod.parameters_equal(out, m)
    assert rep_k.epochs_run == 0 and rep_f.epochs_run == 0


def test_gradient_kickoff_deterministic():
    m = random_network([4, 3, 2], seed=1)
    fine, kickoff = OptimizerConfig(learning_rate=1e-3), KickoffConfig(3, 4)
    out1, _ = gradient_kickoff(m, _toy_data(), fine, kickoff, 16, seed=9)
    out2, _ = gradient_kickoff(m, _toy_data(), fine, kickoff, 16, seed=9)
    assert netmod.parameters_equal(out1, out2)


def test_gradient_kickoff_paper_defaults_run():
    m = random_network([4, 3, 2], seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # multiplier 2.5 must not warn
        out, (rep_k, rep_f) = gradient_kickoff(m, _toy_data(), OptimizerConfig(learning_rate=1e-2),
                                               KickoffConfig())
    assert rep_k.epochs_run == 8 and rep_f.epochs_run == 20
    assert accuracy(out, _toy_data()) >= 0.9  # separable toy task


def test_gradient_kickoff_multiplier_warning_and_empty_data():
    m = random_network([4, 3, 2], seed=3)
    fine = OptimizerConfig(learning_rate=1e-3)
    for multiplier in (1.5, 5.0):
        with pytest.warns(UserWarning, match=f"ratio {multiplier:g} is outside"):
            gradient_kickoff(m, _toy_data(), fine, KickoffConfig(1, 0, multiplier))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the band's ends do not warn
        for multiplier in (2, 3.0):
            gradient_kickoff(m, _toy_data(), fine, KickoffConfig(1, 0, multiplier))
    with pytest.raises(ValueError, match="empty dataset"):
        gradient_kickoff(m, Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 2), fine)


@pytest.mark.parametrize("settings, message", [
    ({"kickoff_epochs": 10}, "kickoff_epochs must be an integer >= 0 and < 10, got 10"),
    ({"kickoff_epochs": -1}, "kickoff_epochs must be an integer >= 0 and < 10, got -1"),
    ({"finetune_epochs": -2}, "finetune_epochs must be an integer >= 0, got -2"),
    ({"lr_multiplier": 0}, "lr_multiplier must be a number > 0, got 0"),
    ({"lr_multiplier": "2"}, "lr_multiplier must be a number > 0, got '2'"),
    ({"lr_multiplier": True}, "lr_multiplier must be a number > 0, got True"),
])
def test_kickoff_config_rejects_bad_settings(settings, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KickoffConfig(**settings)


# --- report serialization ----------------------------------------------------------------------


def test_report_json_round_trip_bit_exact():
    rng = np.random.default_rng(23)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    b = random_network([5, 4, 3], seed=2)
    es = _random_eval(rng, 6, 5, 3)
    cfg = MergeConfig(thresholds=Thresholds.uniform(0.01, 0.4),
                      max_granularity="weight", iterations=2)
    _, reports = cogram_iterate(m, a, b, cfg, eval_set=es)
    text = reports_to_json(reports, cfg)
    reports2, cfg2, total = reports_from_json(text)
    assert reports_to_json(reports2, cfg2) == text
    assert [r.records for r in reports2] == [r.records for r in reports]


def _tree_reports_to_json(reports, config):
    """reports_to_json as it was before it streamed: the whole document as one
    tree of dicts, dumped at once."""
    doc = {
        "config": config_to_json_dict(config),
        "iterations": [
            {
                "records": [merge._record_to_json_dict(r) for r in rep.records],
                "loss_before": rep.loss_before,
                "loss_after": rep.loss_after,
            }
            for rep in reports
        ],
        "wall_time_s": sum(rep.wall_time_s for rep in reports),
    }
    return json.dumps(doc, allow_nan=False)


@pytest.mark.parametrize("iterations", [1, 3])
@pytest.mark.parametrize("granularity", ["layer", "weight"])
def test_report_text_equals_one_tree_dumped_at_once(iterations, granularity):
    rng = np.random.default_rng(29)
    m, a, b = (random_network([6, 12, 5], seed=s) for s in range(3))
    cfg = MergeConfig(thresholds=Thresholds(
        layer=LevelThresholds(0.0, 0.0), neuron=LevelThresholds(0.0, 0.0),
        weight=LevelThresholds(0.0, math.inf),
    ), max_granularity=granularity, iterations=iterations)
    _, reports = cogram_iterate(m, a, b, cfg, eval_set=_random_eval(rng, 7, 6, 5))
    if granularity == "weight":  # many records, joined as json.dumps joins list items
        assert len(reports[0].records) > 100
    assert reports_to_json(reports, cfg) == _tree_reports_to_json(reports, cfg)


@pytest.mark.parametrize("iterations", [0, 1, 2])
def test_report_text_of_iterations_without_records(iterations):
    cfg = MergeConfig(thresholds=Thresholds.uniform(0.5, math.inf))
    reports = [MergeReport([], 0.25, 0.125, 1.5) for _ in range(iterations)]
    assert reports_to_json(reports, cfg) == _tree_reports_to_json(reports, cfg)
    with pytest.raises(ValueError):  # NaN losses are refused, as json.dumps refuses them
        reports_to_json([MergeReport([], math.nan, 0.0, 0.0)], cfg)


def test_config_json_round_trip_with_infinities():
    cfg = MergeConfig(thresholds=Thresholds(
        layer=LevelThresholds(0.0, math.inf),
        neuron=LevelThresholds(0.1, 0.2),
        weight=LevelThresholds(math.inf, math.inf),
    ), prototype="batch:7")
    doc = config_to_json_dict(cfg)
    back = config_from_json_dict(doc)
    assert back == cfg
