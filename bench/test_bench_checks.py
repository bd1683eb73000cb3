"""Self-test of the benchmark's checks: they must agree with cogram where both
compute the same thing, and reject outputs that break the method's properties.

    PYTHONPATH=src python -m pytest -q bench
"""

import json

import numpy as np
import pytest

import checks
from cogram import baseline, merge, net as netmod, training
from cogram.synthdata import Dataset


def _tiny_net(seed):
    return netmod.random_network([4, 5, 3], seed)


def _tiny_data(seed, n=30):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, 4)), np.arange(n) % 3, 3)


def _saved(net, tmp_path, name):
    path = tmp_path / name
    netmod.save_model(net, path)
    return checks.read_model(path)


def test_forward_pass_agrees_with_cogram(tmp_path):
    net = _tiny_net(1)
    data = _tiny_data(2)
    model = _saved(net, tmp_path, "m.json")
    np.testing.assert_allclose(
        checks.logits(model, data.features), netmod.forward(net, data.features),
        rtol=0, atol=1e-12,
    )
    assert checks.accuracy(model, data.features, data.labels) == training.accuracy(net, data)
    reported = {
        "accuracy": training.accuracy(net, data),
        "loss": netmod.cross_entropy_arrays(net, data.features, data.one_hot()),
        "n": len(data),
    }
    assert checks.check_eval(model, data.features, data.labels, reported) == []
    reported["loss"] *= 1.001
    assert checks.check_eval(model, data.features, data.labels, reported)


def test_between_accepts_blends_and_rejects_a_perturbed_model(tmp_path):
    a, b = _tiny_net(3), _tiny_net(4)
    model_a, model_b = _saved(a, tmp_path, "a.json"), _saved(b, tmp_path, "b.json")
    blend = _saved(baseline.uniform_average(a, b), tmp_path, "avg.json")
    assert checks.check_between(blend, model_a, model_b) == []
    assert checks.check_between(model_b, model_a, model_b) == []

    weights, biases, activation = blend[0]
    w_a, w_b = model_a[0][0], model_b[0][0]
    weights = weights.copy()
    weights[0, 0] = max(w_a[0, 0], w_b[0, 0]) + 1e-6
    perturbed = [(weights, biases, activation)] + blend[1:]
    assert checks.check_between(perturbed, model_a, model_b)


def _weight_merge_report():
    a, b = _tiny_net(5), _tiny_net(6)
    data = _tiny_data(7)
    config = merge.MergeConfig(
        thresholds=merge.Thresholds.uniform(0.0, 0.0), max_granularity="weight"
    )
    fused, reports = merge.cogram_iterate(baseline.uniform_average(a, b), a, b, config, data=data)
    report = json.loads(merge.reports_to_json(reports, config))
    x_eval, y_eval = checks.onehot_eval_set(data.features, data.labels)
    model = [(l.weights, l.biases, l.activation) for l in fused.layers]
    shapes = [l.weights.shape for l in a.layers]
    return report, shapes, checks.cross_entropy(model, x_eval, y_eval)


def test_report_check_accepts_a_real_merge():
    report, shapes, eval_loss = _weight_merge_report()
    assert checks.check_report(report, shapes, eval_loss) == []


@pytest.mark.parametrize("field, change", [
    ("alpha", lambda rec: rec["alpha"] * 0.5 + 0.25),
    ("case", lambda rec: 3 - rec["case"] % 3),
    ("L_post", lambda rec: rec["L_pre"] + 1.0),
])
def test_report_check_rejects_a_broken_record(field, change):
    report, shapes, eval_loss = _weight_merge_report()
    records = report["iterations"][0]["records"]
    rec = next(r for r in records if r["level"] == "weight" and r["action"] == "merged")
    rec[field] = change(rec)
    assert checks.check_report(report, shapes, eval_loss)


def test_report_check_rejects_a_missing_weight_record():
    report, shapes, eval_loss = _weight_merge_report()
    records = report["iterations"][0]["records"]
    del records[next(i for i, r in enumerate(records) if r["level"] == "weight")]
    assert checks.check_report(report, shapes, eval_loss)


def test_sweep_check():
    rows = [{"seed": s, "status": "ok", "acc_A": 0.5, "acc_B": 0.75, "error": None,
             "accuracies": {"fisher_cogram": 0.25}, "eval_losses": {"fisher": 0.1}}
            for s in (0, 1)]
    doc = {"rows": rows}
    assert checks.check_sweep(doc, [0, 1], {0: 4, 1: 4}) == []
    assert checks.check_sweep(doc, [0, 1], {0: 3, 1: 4})  # 0.5 is no share of 3 rows
    rows[1]["eval_losses"]["fisher"] = float("nan")
    assert checks.check_sweep(doc, [0, 1], {0: 4, 1: 4})
