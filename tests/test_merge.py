import math
import warnings

import numpy as np
import pytest

from cogram import net as netmod
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
    kickoff_optimizer_configs,
    loss_difference,
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
    StructureAddress,
    cross_entropy_loss,
    forward,
    get_structure,
    random_network,
    set_structure,
    softmax,
)
from cogram.prototypes import Prototype, PrototypeSet
from cogram.synthdata import Dataset
from cogram.training import OptimizerConfig
from conftest import ArrayEvalSet


def _param_bytes(net):
    return b"".join(l.weights.tobytes() + l.biases.tobytes() for l in net.layers)


def _random_eval(rng, n, dim, num_classes):
    x = rng.normal(size=(n, dim))
    y = np.eye(num_classes)[rng.integers(0, num_classes, size=n)]
    return ArrayEvalSet(x, y)


def _self_consistent_eval(net, rng, n):
    """Targets equal M's own softmax outputs: M is the strict global optimum
    of the cross-entropy on this set, so any output change raises the loss."""
    x = rng.normal(size=(n, net.input_dim))
    y = softmax(forward(net, x))
    return ArrayEvalSet(x, y)


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


def test_loss_difference_zero_for_identical_candidates():
    rng = np.random.default_rng(4)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    es = _random_eval(rng, 6, 5, 3)
    for addr in (StructureAddress(1), StructureAddress(0, 2), StructureAddress(1, 1, 4)):
        l_a, l_b, delta = loss_difference(m, addr, a, a, es)
        assert delta == 0.0
        assert l_a == l_b


def test_loss_difference_antisymmetric():
    rng = np.random.default_rng(5)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    b = random_network([5, 4, 3], seed=2)
    es = _random_eval(rng, 6, 5, 3)
    addr = StructureAddress(0)
    l_a, l_b, delta = loss_difference(m, addr, a, b, es)
    l_b2, l_a2, delta2 = loss_difference(m, addr, b, a, es)
    assert (l_a, l_b) == (l_a2, l_b2)
    assert delta2 == -delta


def test_loss_difference_matches_construct_then_evaluate_oracle():
    rng = np.random.default_rng(6)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    b = random_network([5, 4, 3], seed=2)
    es = _random_eval(rng, 8, 5, 3)
    addr = StructureAddress(1, 2)
    l_a, l_b, _ = loss_difference(m, addr, a, b, es)

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
    loss_difference(m, StructureAddress(0), random_network([5, 4, 3], 1),
                    random_network([5, 4, 3], 2), _random_eval(rng, 5, 5, 3))
    assert _param_bytes(m) == before


# --- level operations -------------------------------------------------------------------


def _report_for(config):
    return MergeReport(records=[], loss_before=0.0, loss_after=0.0,
                       wall_time_s=0.0, config=config)


def test_merge_layer_level_identical_candidates_give_exact_copy():
    rng = np.random.default_rng(8)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    es = _random_eval(rng, 6, 5, 3)
    cfg = MergeConfig()
    rep = _report_for(cfg)
    merged = merge_layer_level(m, 1, a, a, cfg, es, rep)
    assert np.array_equal(merged.layers[1].weights, a.layers[1].weights)
    assert np.array_equal(merged.layers[1].biases, a.layers[1].biases)
    assert merged.layers[0] is m.layers[0]  # locality


def test_merge_layer_level_forced_case3_blend():
    rng = np.random.default_rng(9)
    m = random_network([5, 4, 3], seed=0)
    a = random_network([5, 4, 3], seed=1)
    b = random_network([5, 4, 3], seed=2)
    es = _random_eval(rng, 6, 5, 3)
    cfg = MergeConfig()  # tau_min=0, tau_max=inf -> always case 3
    rep = _report_for(cfg)
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
    rep = _report_for(cfg)
    ev = _LayerEvaluator(m, 1, es, cfg.loss)
    merge_neuron_level(ev, 2, m, m, cfg, rep, check_restores=True)
    merged = ev.network()
    rec = rep.records[-1]
    assert rec.action == "rolled_back"
    assert rec.loss_post == rec.loss_pre  # tie rejected by strict <
    assert _param_bytes(merged) == _param_bytes(m)


def test_merge_neuron_level_adversarial_eval_always_rolls_back():
    rng = np.random.default_rng(11)
    m = random_network([6, 5, 4], seed=0)
    es = _self_consistent_eval(m, rng, 10)
    a = random_network([6, 5, 4], seed=1)
    b = random_network([6, 5, 4], seed=2)
    cfg = MergeConfig()
    rep = _report_for(cfg)
    ev = _LayerEvaluator(m, 0, es, cfg.loss)
    for neuron in range(5):
        merge_neuron_level(ev, neuron, a, b, cfg, rep, check_restores=True)
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
        rep = _report_for(cfg)
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
    rep = _report_for(cfg)
    ev = _LayerEvaluator(m, 1, es, cfg.loss)
    merge_weight_level(ev, 1, 2, m, m, cfg, rep, ev.loss())
    out = ev.network()
    assert rep.records[-1].action == "rolled_back"
    assert _param_bytes(out) == _param_bytes(m)

    a = random_network([5, 4, 3], seed=1)
    b = random_network([5, 4, 3], seed=2)
    rep = _report_for(cfg)
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
    es = _self_consistent_eval(a, rng, 8)  # favors A's parameters
    cfg = MergeConfig()
    rep = _report_for(cfg)
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
    merged, report = cogram_merge(m, a, a, cfg, eval_set=es, check_restores=True)
    assert netmod.max_parameter_difference(merged, a) <= 1e-15
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
        results.append(cogram_merge(m, a, b, cfg, data=data))
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
        _, report = cogram_merge(m, a, b, cfg, eval_set=es, check_restores=True)
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


def test_cogram_merge_requires_data_or_eval_set():
    nets = [random_network([4, 3], seed=s) for s in range(3)]
    with pytest.raises(ValueError):
        cogram_merge(nets[0], nets[1], nets[2], MergeConfig())


def test_cogram_merge_rejects_incompatible():
    m = random_network([4, 3], seed=0)
    other = random_network([5, 3], seed=1)
    with pytest.raises(netmod.ShapeError):
        cogram_merge(m, other, other, MergeConfig(), eval_set=None, data=None)


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
    assert netmod.max_parameter_difference(merged, a) <= 1e-15
    assert len(reports) == 3
    for rep in reports:
        assert math.isfinite(rep.loss_before) and math.isfinite(rep.loss_after)


# --- eval-set construction ----------------------------------------------------------------


def test_build_eval_set_modes():
    rng = np.random.default_rng(22)
    feats = np.abs(rng.normal(size=(40, 5))) + 0.05
    labels = np.repeat(np.arange(4), 10)
    data = Dataset(feats, labels, 4)
    onehot = build_eval_set(data, MergeConfig(eval_mode="onehot"))
    assert len(onehot) == 4 and onehot.eval_mode == "prototypes"
    kmeans = build_eval_set(data, MergeConfig(eval_mode="kmeans", k_per_class=2))
    assert len(kmeans) == 8
    batch = build_eval_set(data, MergeConfig(eval_mode="batch", batch_size=7))
    assert len(batch) == 7 and batch.eval_mode == "raw_batch"
    whole = build_eval_set(data, MergeConfig(eval_mode="batch"))
    assert len(whole) == 40


def test_merge_config_validation():
    with pytest.raises(ValueError):
        MergeConfig(lam=0.0)
    with pytest.raises(ValueError):
        MergeConfig(max_granularity="tensor")
    with pytest.raises(ValueError):
        MergeConfig(iterations=0)
    with pytest.raises(ValueError):
        LevelThresholds(0.5, 0.1)


# --- gradient kickoff ------------------------------------------------------------------------


def _toy_data(seed=0, n=60):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, 4))
    labels = (feats[:, 0] > 0).astype(int)
    return Dataset(feats, labels, 2)


def test_gradient_kickoff_zero_epochs_is_identity():
    m = random_network([4, 3, 2], seed=0)
    kick, fine = kickoff_optimizer_configs(1e-3, 2.5)
    out, (rep_k, rep_f) = gradient_kickoff(m, _toy_data(), kick, fine,
                                           kickoff_epochs=0, finetune_epochs=0)
    assert netmod.parameters_equal(out, m)
    assert rep_k.epochs_run == 0 and rep_f.epochs_run == 0


def test_gradient_kickoff_deterministic():
    m = random_network([4, 3, 2], seed=1)
    kick, fine = kickoff_optimizer_configs(1e-3, 2.5)
    out1, _ = gradient_kickoff(m, _toy_data(), kick, fine, 3, 4, 16, seed=9)
    out2, _ = gradient_kickoff(m, _toy_data(), kick, fine, 3, 4, 16, seed=9)
    assert netmod.parameters_equal(out1, out2)


def test_gradient_kickoff_paper_defaults_run():
    m = random_network([4, 3, 2], seed=2)
    kick, fine = kickoff_optimizer_configs(1e-2, 2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # ratio 2.5 must not warn
        out, (rep_k, rep_f) = gradient_kickoff(m, _toy_data(), kick, fine,
                                               kickoff_epochs=8, finetune_epochs=20)
    assert rep_k.epochs_run == 8 and rep_f.epochs_run == 20
    assert rep_f.final_train_accuracy >= 0.9  # separable toy task


def test_gradient_kickoff_ratio_warning_and_epoch_limit():
    m = random_network([4, 3, 2], seed=3)
    kick, fine = kickoff_optimizer_configs(1e-3, 5.0)
    with pytest.warns(UserWarning, match="ratio"):
        gradient_kickoff(m, _toy_data(), kick, fine, 1, 0)
    kick, fine = kickoff_optimizer_configs(1e-3, 2.5)
    with pytest.raises(ValueError):
        gradient_kickoff(m, _toy_data(), kick, fine, kickoff_epochs=10)
    with pytest.raises(ValueError):
        gradient_kickoff(m, Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 2),
                         kick, fine)


def test_kickoff_optimizer_configs():
    kick, fine = kickoff_optimizer_configs(2e-3, 3.0, optimizer="sgd_momentum")
    assert kick.learning_rate == 6e-3
    assert fine.learning_rate == 2e-3
    assert kick.kind == fine.kind == "sgd_momentum"
    assert kick.momentum == 0.9


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


def test_config_json_round_trip_with_infinities():
    cfg = MergeConfig(thresholds=Thresholds(
        layer=LevelThresholds(0.0, math.inf),
        neuron=LevelThresholds(0.1, 0.2),
        weight=LevelThresholds(math.inf, math.inf),
    ))
    doc = config_to_json_dict(cfg)
    back = config_from_json_dict(doc)
    assert back == cfg
