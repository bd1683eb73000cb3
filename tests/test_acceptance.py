"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The sweep-based criteria (6-8) run the real CLI sweep machinery and are
reused by the determinism criterion (9), which repeats each sweep and
byte-compares the CSVs.
"""

import json
import math
import time

import numpy as np
import pytest

from cogram import net as netmod
from cogram.cli import ExperimentConfig, run_sweep
from cogram.merge import (
    LevelThresholds,
    MergeConfig,
    Thresholds,
    classify_case,
    cogram_iterate,
    cogram_merge,
    convex_combine,
    mixing_factor,
    reports_from_json,
    reports_to_json,
)
from cogram.net import (
    DenseLayer,
    Network,
    cross_entropy_loss,
    random_network,
)
from cogram.prototypes import geometric_mean_prototype
from cogram.synthdata import DataConfig
from conftest import ArrayEvalSet, assert_gradients_match_finite_differences
from merge_reference import assert_matches_reference


def _announce(number, name, detail=""):
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS {detail}".rstrip())


def _random_eval(rng, n, dim, num_classes):
    x = rng.normal(size=(n, dim))
    y = np.eye(num_classes)[rng.integers(0, num_classes, size=n)]
    return ArrayEvalSet(x, y)


# --- criterion 1: gradient correctness ----------------------------------------


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    shapes = [(4, 3, 2), (8, 8, 5), (32, 16, 20)]
    for trial in range(20):
        sizes = shapes[trial % 3]
        rng = np.random.default_rng(10_000 + trial)
        net = random_network(list(sizes), seed=20_000 + trial)
        x = rng.normal(size=(4, sizes[0]))
        y = np.eye(sizes[-1])[rng.integers(0, sizes[-1], size=4)]
        assert_gradients_match_finite_differences(net, x, y, h=1e-5, tol=1e-5)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    _announce(1, "gradient correctness", f"(20 networks, {elapsed:.2f}s)")


# --- criterion 2: equation unit suite ------------------------------------------


def test_criterion_02_equation_unit_suite():
    # sigmoid mixing factor
    assert mixing_factor(0.0, 5.5) == 0.5
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = float(rng.normal(scale=rng.uniform(0.01, 50)))
        assert abs(mixing_factor(d, 5.5) + mixing_factor(-d, 5.5) - 1.0) <= 1e-15

    # convex combination endpoints and bounds
    a, b = rng.normal(size=12), rng.normal(size=12)
    assert np.array_equal(convex_combine(a, b, 1.0), a)
    assert np.array_equal(convex_combine(a, b, 0.0), b)
    for _ in range(100):
        alpha = float(rng.uniform())
        out = convex_combine(a, b, alpha)
        assert np.all(out >= np.minimum(a, b) - 1e-12)
        assert np.all(out <= np.maximum(a, b) + 1e-12)

    # threshold boundaries are inclusive to case 3
    for tau_min, tau_max in ((0.0, 1.0), (0.2, 0.7), (0.5, 0.5)):
        assert classify_case(tau_min, tau_min, tau_max) == 3
        assert classify_case(-tau_min, tau_min, tau_max) == 3
        assert classify_case(tau_max, tau_min, tau_max) == 3
        assert classify_case(-tau_max, tau_min, tau_max) == 3
    assert classify_case(0.0, 0.0, 1.0) == 3

    # geometric-mean prototype vs direct product formula
    eps = 1e-6
    for n in range(1, 9):
        samples = rng.uniform(-10, 10, size=(n, 6))
        direct = np.prod(np.abs(samples) + eps, axis=0) ** (1.0 / n)
        got = geometric_mean_prototype(samples, epsilon=eps)
        assert np.max(np.abs(got - direct) / np.abs(direct)) < 1e-10

    # uniform predictor cross-entropy
    c = 20
    net = Network([DenseLayer(np.zeros((c, 32)), np.zeros(c), "identity")], 32, c)
    es = ArrayEvalSet(rng.normal(size=(c, 32)), np.eye(c))
    assert abs(cross_entropy_loss(net, es) - math.log(20)) < 1e-12
    _announce(2, "equation unit suite")


# --- criterion 3: identity fusion ------------------------------------------------


def test_criterion_03_identity_fusion():
    elapsed = 0.0  # of the merges alone, not of their reference
    rng = np.random.default_rng(1)
    force = Thresholds(
        layer=LevelThresholds(math.inf, math.inf),
        neuron=LevelThresholds(math.inf, math.inf),
        weight=LevelThresholds(0.0, math.inf),
    )
    worst = 0.0
    for pair in range(50):
        depth = int(rng.integers(1, 3))
        sizes = [int(rng.integers(3, 8))] + \
            [int(rng.integers(3, 8)) for _ in range(depth)] + [int(rng.integers(2, 6))]
        m = random_network(sizes, seed=3000 + pair)
        a = random_network(sizes, seed=4000 + pair)
        es = _random_eval(rng, 6, sizes[0], sizes[-1])
        for granularity in ("layer", "neuron", "weight"):
            thresholds = Thresholds() if granularity == "layer" else force
            cfg = MergeConfig(thresholds=thresholds, max_granularity=granularity)
            start = time.perf_counter()
            merged, report = cogram_merge(m, a, a, cfg, es)
            elapsed += time.perf_counter() - start
            assert_matches_reference(m, a, a, cfg, es, merged, [report])
            worst = max(worst, float(np.max(np.abs(merged.theta - a.theta))))
            assert worst <= 1e-15, (sizes, granularity, worst)
    assert elapsed < 30.0, f"identity fusion took {elapsed:.1f}s"
    _announce(3, "identity fusion",
              f"(150 merges, max deviation {worst:.1e}, {elapsed:.2f}s)")


# --- criterion 4: layer-level oracle equivalence -----------------------------------


def test_criterion_04_layer_level_oracle():
    lam = 5.5
    rng = np.random.default_rng(2)
    for trial in range(10):
        sizes = [6, 5, 5, 4]
        m = random_network(sizes, seed=trial)
        a = random_network(sizes, seed=trial + 100)
        b = random_network(sizes, seed=trial + 200)
        es = _random_eval(rng, 8, sizes[0], sizes[-1])

        # straight-line reference: swap whole layers back to front, sigmoid
        # blend with the loss gap; plain loops and fresh array copies only
        layers = [DenseLayer(l.weights.copy(), l.biases.copy(), l.activation)
                  for l in m.layers]
        for k in reversed(range(len(layers))):
            losses = {}
            for tag, src in (("a", a), ("b", b)):
                candidate_layers = list(layers)
                candidate_layers[k] = DenseLayer(
                    src.layers[k].weights.copy(), src.layers[k].biases.copy(),
                    src.layers[k].activation,
                )
                candidate = Network(candidate_layers, m.input_dim, m.num_classes)
                losses[tag] = cross_entropy_loss(candidate, es)
            z = lam * (losses["a"] - losses["b"])
            if z >= 0:
                e = math.exp(-z)
                alpha = e / (1.0 + e)
            else:
                alpha = 1.0 / (1.0 + math.exp(z))
            layers[k] = DenseLayer(
                alpha * a.layers[k].weights + (1 - alpha) * b.layers[k].weights,
                alpha * a.layers[k].biases + (1 - alpha) * b.layers[k].biases,
                m.layers[k].activation,
            )
        expected = Network(layers, m.input_dim, m.num_classes)

        merged, _ = cogram_merge(m, a, b, MergeConfig(lam=lam), eval_set=es)
        assert netmod.parameters_equal(merged, expected), f"trio {trial}"
    _announce(4, "layer-level oracle equivalence", "(10 trios, bit-exact)")


# --- criterion 5: rollback monotonicity ----------------------------------------------


def _check_committed_trajectory(records):
    """Committed eval loss never increases across the neuron/weight records of
    one refined layer; weight chains stay consistent inside their neuron."""
    idx = 0
    while idx < len(records):
        rec = records[idx]
        if rec.level == "layer":
            idx += 1
            continue
        # start of one layer's neuron run
        prev_committed = None
        while idx < len(records) and records[idx].level == "neuron":
            neuron = records[idx]
            assert neuron.loss_pre is not None and neuron.loss_post is not None
            if prev_committed is not None:
                assert neuron.loss_pre == prev_committed
            if neuron.action == "merged":
                assert neuron.loss_post < neuron.loss_pre
                committed = neuron.loss_post
            elif neuron.action == "rolled_back":
                assert neuron.loss_post >= neuron.loss_pre
                committed = neuron.loss_pre
            else:  # refined into weights; outer guard enforced strict gain
                assert neuron.loss_post < neuron.loss_pre
                committed = neuron.loss_post
            idx += 1
            # this neuron's weight records chain on the provisional baseline
            chain = None
            while idx < len(records) and records[idx].level == "weight":
                w = records[idx]
                if chain is not None:
                    assert w.loss_pre == chain
                if w.action == "merged":
                    assert w.loss_post < w.loss_pre
                    chain = w.loss_post
                else:
                    assert w.loss_post >= w.loss_pre
                    chain = w.loss_pre
                idx += 1
            assert committed <= neuron.loss_pre
            if prev_committed is not None:
                assert committed <= prev_committed
            prev_committed = committed


def test_criterion_05_rollback_monotonicity():
    rng = np.random.default_rng(3)
    merges = 0
    rollbacks = 0
    for trial in range(20):
        sizes = [6, int(rng.integers(4, 8)), 4]
        m = random_network(sizes, seed=trial + 500)
        a = random_network(sizes, seed=trial + 600)
        b = random_network(sizes, seed=trial + 700)
        es = _random_eval(rng, 8, sizes[0], sizes[-1])
        cfg = MergeConfig(
            thresholds=Thresholds.uniform(
                float(rng.uniform(0.0, 0.05)), float(rng.uniform(0.1, 0.6))
            ),
            max_granularity="weight",
        )
        # the reference builds every candidate anew, so a rollback that does
        # not restore its bits shows up as a difference from it
        merged, report = cogram_merge(m, a, b, cfg, es)
        assert_matches_reference(m, a, b, cfg, es, merged, [report])
        _check_committed_trajectory(report.records)
        merges += 1
        rollbacks += sum(1 for r in report.records if r.action == "rolled_back")
    assert rollbacks > 0, "protocol never exercised a rollback"

    # tie case: candidates equal everywhere, every attempt must roll back and
    # the result must be bit-identical to the layer-level baseline (= A)
    m = random_network([5, 4, 3], seed=1)
    a = random_network([5, 4, 3], seed=2)
    es = _random_eval(rng, 6, 5, 3)
    force = Thresholds(
        layer=LevelThresholds(math.inf, math.inf),
        neuron=LevelThresholds(math.inf, math.inf),
        weight=LevelThresholds(0.0, math.inf),
    )
    cfg = MergeConfig(thresholds=force, max_granularity="weight")
    merged, report = cogram_merge(m, a, a, cfg, es)
    assert_matches_reference(m, a, a, cfg, es, merged, [report])
    assert netmod.parameters_equal(merged, a)
    assert all(r.action == "rolled_back" for r in report.records
               if r.level in ("neuron", "weight"))
    _announce(5, "rollback monotonicity",
              f"({merges} merges, {rollbacks} rollbacks, zero violations)")


# --- criteria 6-9: sweep reproductions --------------------------------------------------


def _sweep_config(mode, methods, seeds):
    return ExperimentConfig(
        data=DataConfig(),
        mode=mode,
        arch=[32, 64, 64, 20],
        epochs=30,
        batch_size=64,
        merge=MergeConfig(lam=5.5, prototype="onehot", max_granularity="layer"),
        kickoff_epochs=8,
        finetune_epochs=20,
        lr_multiplier=2.5,
        methods=methods,
        seeds=seeds,
    )


SEEDS = list(range(10))


@pytest.fixture(scope="module")
def sweep_test1(tmp_path_factory):
    cfg = _sweep_config("homogeneous", ["fisher", "fisher+cogram"], SEEDS)
    out = tmp_path_factory.mktemp("sweep_t1")
    start = time.perf_counter()
    doc = run_sweep(cfg, out)
    return cfg, out, doc, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep_test2(tmp_path_factory):
    cfg = _sweep_config("heterogeneous", ["fisher", "fisher+cogram"], SEEDS)
    out = tmp_path_factory.mktemp("sweep_t2")
    start = time.perf_counter()
    doc = run_sweep(cfg, out)
    return cfg, out, doc, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep_kickoff(tmp_path_factory):
    cfg = _sweep_config("homogeneous", ["fisher+cogram+kickoff"], SEEDS)
    out = tmp_path_factory.mktemp("sweep_kick")
    start = time.perf_counter()
    doc = run_sweep(cfg, out)
    return cfg, out, doc, time.perf_counter() - start


def test_criterion_06_directional_test1(sweep_test1):
    _, _, doc, elapsed = sweep_test1
    assert all(row["status"] == "ok" for row in doc["rows"])
    mean_fisher = doc["summary"]["fisher"]["mean_accuracy"]
    mean_cogram = doc["summary"]["fisher_cogram"]["mean_accuracy"]
    assert mean_cogram > mean_fisher, (mean_cogram, mean_fisher)
    assert elapsed < 300.0, f"sweep took {elapsed:.0f}s"
    _announce(6, "directional Test 1 (homogeneous)",
              f"(fisher+cogram {mean_cogram:.3f} > fisher {mean_fisher:.3f}, "
              f"{elapsed:.0f}s)")


def test_criterion_07_directional_test2(sweep_test2):
    _, _, doc, elapsed = sweep_test2
    assert all(row["status"] == "ok" for row in doc["rows"])
    mean_fisher = doc["summary"]["fisher"]["mean_accuracy"]
    mean_cogram = doc["summary"]["fisher_cogram"]["mean_accuracy"]
    assert mean_cogram > mean_fisher, (mean_cogram, mean_fisher)
    assert elapsed < 300.0, f"sweep took {elapsed:.0f}s"
    _announce(7, "directional Test 2 (heterogeneous)",
              f"(fisher+cogram {mean_cogram:.3f} > fisher {mean_fisher:.3f}, "
              f"{elapsed:.0f}s)")


def test_criterion_08_kickoff_soft(sweep_kickoff):
    _, _, doc, _ = sweep_kickoff
    rows = [row for row in doc["rows"] if row["status"] == "ok"]
    assert rows
    wins = sum(
        1 for row in rows
        if row["accuracies"]["fisher_cogram_kickoff"] >= max(row["acc_A"], row["acc_B"])
    )
    ratio = wins / len(rows)
    if ratio < 0.6:
        note = (f"[ACCEPTANCE] criterion 8 (kickoff): SOFT MISS - merged model "
                f"beat both subnetworks in only {wins}/{len(rows)} seeds "
                f"({ratio:.0%} < 60%). The training recipe for the subnetworks "
                f"is not specified by the source material, so this outcome is "
                f"recorded rather than failed.")
        print(note)
        pytest.xfail(note)
    _announce(8, "kickoff claim",
              f"(merged >= max(A, B) in {wins}/{len(rows)} seeds)")


def test_criterion_09_sweep_determinism(sweep_test1, sweep_test2, sweep_kickoff,
                                         tmp_path_factory):
    for label, (cfg, out, _, _) in (
        ("test1", sweep_test1), ("test2", sweep_test2), ("kickoff", sweep_kickoff)
    ):
        rerun_dir = tmp_path_factory.mktemp(f"rerun_{label}")
        run_sweep(cfg, rerun_dir)
        first = (out / "sweep.csv").read_bytes()
        second = (rerun_dir / "sweep.csv").read_bytes()
        assert first == second, f"{label} sweep.csv differs between runs"
    _announce(9, "sweep determinism", "(criteria 6-8 byte-identical on rerun)")


# --- criterion 10: format fidelity ---------------------------------------------------------


def test_criterion_10_format_fidelity():
    rng = np.random.default_rng(4)
    for trial in range(100):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 9)) for _ in range(depth + 1)] + [int(rng.integers(2, 9))]
        net = random_network(sizes, seed=trial)
        text = netmod.serialize(net)
        loaded = netmod.deserialize(text)
        assert netmod.parameters_equal(net, loaded)
        assert netmod.serialize(loaded) == text

    # merge reports round-trip bit-exact too
    for trial in range(5):
        m = random_network([5, 4, 3], seed=trial)
        a = random_network([5, 4, 3], seed=trial + 10)
        b = random_network([5, 4, 3], seed=trial + 20)
        es = _random_eval(rng, 6, 5, 3)
        cfg = MergeConfig(
            thresholds=Thresholds.uniform(0.01, 0.3),
            max_granularity=("layer", "neuron", "weight")[trial % 3],
            iterations=1 + trial % 2,
        )
        _, reports = cogram_iterate(m, a, b, cfg, eval_set=es)
        text = reports_to_json(reports, cfg)
        reports2, cfg2, _ = reports_from_json(text)
        assert reports_to_json(reports2, cfg2) == text
    _announce(10, "format fidelity", "(100 models + 5 reports, bit-exact)")
