import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cogram import cli, net as netmod, training
from cogram.cli import SweepRow, main
from cogram.merge import KickoffConfig, LevelThresholds, MergeConfig, Thresholds
from cogram.synthdata import Dataset, load_csv, save_csv
from cogram.training import OptimizerConfig

REPORT_KEYS = ["epoch_losses", "final_train_accuracy", "final_test_accuracy", "epochs_run", "seed"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset triple + two trained models, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    config = {
        "mode": "homogeneous", "num_classes": 4, "dim": 6,
        "samples_per_class": 40, "test_samples_per_class": 15, "seed": 5,
    }
    cfg_path = root / "gen.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(root / "data")]) == 0
    for name, seed in (("a", 1), ("b", 2)):
        rc = main([
            "train", "--data", str(root / "data" / f"data_{name}.csv"),
            "--arch", "6,12,4", "--epochs", "15", "--seed", str(seed),
            "--out", str(root / f"{name}.json"),
        ])
        assert rc == 0
    return root


def test_gen_data_counts_and_rerun_byte_identical(tmp_path, capsys):
    config = {"mode": "heterogeneous", "num_classes": 3, "dim": 4,
              "samples_per_class": 12, "test_samples_per_class": 6, "seed": 1}
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d1")]) == 0
    out = capsys.readouterr().out
    assert "36 rows" in out and "18 rows" in out
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d2")]) == 0
    for name in ("data_a.csv", "data_b.csv", "test.csv"):
        b1 = (tmp_path / "d1" / name).read_bytes()
        b2 = (tmp_path / "d2" / name).read_bytes()
        assert b1 == b2


def test_gen_data_default_config_counts(tmp_path, capsys):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps({}))  # all defaults, homogeneous
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 0
    out = capsys.readouterr().out
    assert "data_a.csv (4000 rows)" in out
    assert "data_b.csv (4000 rows)" in out
    assert "test.csv (1000 rows)" in out


def test_gen_data_heterogeneous_with_one_test_row_per_class(tmp_path, capsys):
    config = {"mode": "heterogeneous", "num_classes": 3, "dim": 4,
              "samples_per_class": 5, "test_samples_per_class": 1}
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 0
    assert "test.csv (3 rows)" in capsys.readouterr().out
    assert load_csv(tmp_path / "d" / "test.csv", 3).labels.tolist() == [0, 1, 2]


def test_gen_data_invalid_mode_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps({"mode": "sideways"}))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    assert "mode" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-data", "sweep"])
def test_config_document_must_be_a_json_object(tmp_path, capsys, command):
    # a list used to fail with a TypeError (exit 1): "pop expected at most 1 argument"
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config file {path} must be a JSON object, got [1, 2]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_data_unknown_field_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps({"mode": "homogeneous", "sample_count": 10}))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    assert "sample_count" in capsys.readouterr().err


def test_train_writes_model_and_report(workspace):
    model = netmod.load_model(workspace / "a.json")
    assert model.input_dim == 6 and model.num_classes == 4
    report = json.loads((workspace / "a.report.json").read_text())
    assert list(report) == REPORT_KEYS and report["final_test_accuracy"] is None
    assert report["epochs_run"] == 15
    assert len(report["epoch_losses"]) == 15


def test_train_test_accuracy_is_the_eval_accuracy(workspace, tmp_path, capsys):
    test_csv = str(workspace / "data" / "test.csv")
    rc = main(["train", "--data", str(workspace / "data" / "data_a.csv"), "--arch", "6,12,4",
               "--epochs", "3", "--test-data", test_csv, "--out", str(tmp_path / "m.json")])
    assert rc == 0
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "m.report.json").read_text())
    assert list(report) == REPORT_KEYS
    assert main(["eval", "--model", str(tmp_path / "m.json"), "--data", test_csv]) == 0
    accuracy = json.loads(capsys.readouterr().out)["accuracy"]
    assert report["final_test_accuracy"] == accuracy
    assert f", test acc {accuracy:.4f}; model -> " in out


def test_train_test_data_of_another_width_exits_2_before_training(workspace, tmp_path, capsys,
                                                                  monkeypatch):
    narrow = tmp_path / "narrow.csv"
    save_csv(Dataset(np.zeros((2, 2)), [0, 1], 4), narrow)

    def no_train(*args, **kwargs):
        raise AssertionError("trained before --test-data was checked")

    monkeypatch.setattr(cli.training, "train", no_train)
    rc = main(["train", "--data", str(workspace / "data" / "data_a.csv"), "--arch", "6,12,4",
               "--test-data", str(narrow), "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "--test-data has 2 features, but arch input is 6" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("narrow_flags", [("--data-a", "--data-b"), ("--data-a",), ("--data-b",)])
def test_merge_data_of_another_width_exits_2_naming_the_flag(workspace, tmp_path, capsys,
                                                              narrow_flags):
    narrow = tmp_path / "narrow.csv"
    save_csv(Dataset(np.zeros((2, 2)), [0, 1], 4), narrow)
    args = _merge_args(workspace, tmp_path, "--method", "fisher")
    for flag in narrow_flags:
        args[args.index(flag) + 1] = str(narrow)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{narrow_flags[0]} has 2 features, but arch input is 6 (in {narrow})" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_data_of_another_width_exits_2_naming_the_flag(workspace, tmp_path, capsys, command):
    narrow = tmp_path / "narrow.csv"
    save_csv(Dataset(np.zeros((2, 2)), [0, 1], 4), narrow)
    args = {"train": ["train", "--arch", "6,12,4", "--out", str(tmp_path / "m.json")],
            "eval": ["eval", "--model", str(workspace / "a.json")]}[command]
    assert main([*args, "--data", str(narrow)]) == 2
    assert f"--data has 2 features, but arch input is 6 (in {narrow})" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["train", "merge", "eval"])
def test_csv_rows_wider_than_the_header_exit_2(workspace, tmp_path, capsys, command):
    lines = (workspace / "data" / "data_a.csv").read_text().splitlines()
    bad = tmp_path / "wide.csv"  # the header loses f0, the rows keep it
    bad.write_text("\n".join([lines[0].split(",", 1)[1], *lines[1:]]) + "\n")
    out = str(tmp_path / "m.json")
    argv = {
        "train": ["train", "--data", str(bad), "--arch", "6,12,4", "--out", out],
        "merge": ["merge", "--method", "fisher", "--model-a", str(workspace / "a.json"),
                  "--model-b", str(workspace / "b.json"), "--data-a", str(bad),
                  "--data-b", str(workspace / "data" / "data_b.csv"), "--out", out],
        "eval": ["eval", "--model", str(workspace / "a.json"), "--data", str(bad)],
    }[command]
    assert main(argv) == 2
    assert f"{bad}: data row 1 has 7 values, but the header has 6 columns" in \
        capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_train_zero_epochs_saves_seeded_init(workspace, tmp_path):
    rc = main([
        "train", "--data", str(workspace / "data" / "data_a.csv"),
        "--arch", "6,12,4", "--epochs", "0", "--seed", "7",
        "--out", str(tmp_path / "init.json"),
    ])
    assert rc == 0
    saved = netmod.load_model(tmp_path / "init.json")
    assert netmod.parameters_equal(saved, netmod.random_network([6, 12, 4], 7))


def test_train_missing_dataset_exits_2(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"),
               "--arch", "6,12,4", "--out", str(tmp_path / "m.json")])
    assert rc == 2


def test_train_arch_output_smaller_than_label_range_exits_2(workspace, tmp_path, capsys):
    data = workspace / "data" / "data_a.csv"
    rc = main(["train", "--data", str(data), "--arch", "6,12,3",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "label range" in capsys.readouterr().err


def test_train_negative_epochs_exits_2(workspace, tmp_path, capsys):
    rc = main(["train", "--data", str(workspace / "data" / "data_a.csv"),
               "--arch", "6,12,4", "--epochs", "-1", "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "epochs" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("flags, flag", [
    (["--lr", "nan"], "--lr"),
    (["--lr", "inf"], "--lr"),
    (["--lr", "0"], "--lr"),
    (["--clip-norm", "0"], "--clip-norm"),
    (["--clip-norm", "nan"], "--clip-norm"),
])
def test_train_bad_optimizer_settings_exit_2(workspace, tmp_path, capsys, flags, flag):
    rc = main(["train", "--data", str(workspace / "data" / "data_a.csv"),
               "--arch", "6,12,4", "--epochs", "1", "--out", str(tmp_path / "m.json")] + flags)
    assert rc == 2
    assert f"{flag} must be a number > 0" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--arch", "6,0,4"], "each --arch size must be an integer >= 1, got 0"),  # was exit 1
    (["--arch", "6,-2,4"], "each --arch size must be an integer >= 1, got -2"),
    (["--arch", "6,x,4"], "--arch must be comma-separated layer sizes, got '6,x,4'"),
    (["--arch", "6"], "--arch must be a list of at least two layer sizes, got [6]"),
    (["--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    (["--epochs", "-1"], "--epochs must be an integer >= 0, got -1"),
    (["--batch-size", "0"], "--batch-size must be an integer >= 1, got 0"),
    (["--lr", "0"], "--lr must be a number > 0, got 0.0"),
    (["--clip-norm", "0"], "--clip-norm must be a number > 0, got 0.0"),
])
def test_train_bad_flags_exit_2_naming_the_flag(workspace, tmp_path, capsys, monkeypatch,
                                               flags, message):
    def no_read(*args, **kwargs):
        raise AssertionError("data was read before the flags were checked")

    monkeypatch.setattr(cli.synthdata, "load_csv", no_read)
    rc = main(["train", "--data", str(workspace / "data" / "data_a.csv"), "--arch", "6,12,4",
               "--epochs", "1", "--out", str(tmp_path / "m.json")] + flags)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()
    assert not (tmp_path / "m.report.json").exists()


def test_eval_rejects_non_integer_labels_with_exit_2(workspace, tmp_path, capsys):
    lines = (workspace / "data" / "test.csv").read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",1.7"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["eval", "--model", str(workspace / "a.json"), "--data", str(bad)])
    assert rc == 2
    assert "not a whole number" in capsys.readouterr().err


def test_eval_reproduces_train_report_accuracy(workspace, tmp_path, capsys):
    report = json.loads((workspace / "a.report.json").read_text())
    rc = main(["eval", "--model", str(workspace / "a.json"),
               "--data", str(workspace / "data" / "data_a.csv")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accuracy"] == report["final_train_accuracy"]


def test_eval_out_writes_the_printed_result(workspace, tmp_path, capsys):
    data = workspace / "data" / "test.csv"
    rc = main(["eval", "--model", str(workspace / "a.json"), "--data", str(data),
               "--out", str(tmp_path / "eval.json")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["accuracy", "loss", "n"] and doc["n"] == len(load_csv(data, 4))
    assert (tmp_path / "eval.json").read_text() == json.dumps(doc, indent=2)


def test_eval_zero_weight_model_balanced_labels(tmp_path, capsys):
    layers = [netmod.DenseLayer(np.zeros((4, 6)), np.zeros(4), "identity")]
    netmod.save_model(netmod.Network(layers, 6, 4), tmp_path / "zero.json")
    feats = np.random.default_rng(0).normal(size=(40, 6))
    labels = np.repeat(np.arange(4), 10)
    from cogram.synthdata import Dataset, save_csv
    save_csv(Dataset(feats, labels, 4), tmp_path / "bal.csv")
    rc = main(["eval", "--model", str(tmp_path / "zero.json"),
               "--data", str(tmp_path / "bal.csv")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accuracy"] == 0.25  # ties resolve to class 0; balanced labels


def test_eval_loss_matches_full_batch_oracle(workspace, tmp_path, capsys):
    rc = main(["eval", "--model", str(workspace / "a.json"),
               "--data", str(workspace / "data" / "test.csv")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    model = netmod.load_model(workspace / "a.json")
    test = load_csv(workspace / "data" / "test.csv", 4)
    from cogram.prototypes import build_raw_batch
    full = build_raw_batch(test, len(test), seed=0)
    assert abs(doc["loss"] - netmod.cross_entropy_loss(model, full)) < 1e-12


@pytest.fixture
def one_feature_model(tmp_path):
    """A 1-input, 1-class model document and a CSV it evaluates on: int()
    would map True and 1.5 onto its true dimensions."""
    from cogram.synthdata import Dataset, save_csv
    layers = [netmod.DenseLayer(np.ones((1, 1)), np.zeros(1), "identity")]
    save_csv(Dataset(np.arange(5.0)[:, None], np.zeros(5, dtype=int), 1), tmp_path / "d.csv")
    return netmod.to_json_dict(netmod.Network(layers, 1, 1)), tmp_path / "d.csv"


@pytest.mark.parametrize("key, value, message", [
    ("layers", 5, "'layers' must be a list"),
    ("input_dim", [3], "must be integers"),
    ("num_classes", None, "must be integers"),
    ("input_dim", 1.5, "must be integers"),
    ("num_classes", True, "must be integers"),
])
def test_eval_rejects_malformed_model_with_exit_2(one_feature_model, tmp_path, capsys,
                                                  key, value, message):
    doc, data = one_feature_model
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
    model.write_text(json.dumps({**doc, key: value}))
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(data)]) == 2
    assert message in capsys.readouterr().err


def test_merge_average_of_identical_models(workspace, tmp_path):
    rc = main(["merge", "--method", "average",
               "--model-a", str(workspace / "a.json"),
               "--model-b", str(workspace / "a.json"),
               "--out", str(tmp_path / "avg.json")])
    assert rc == 0
    merged = netmod.load_model(tmp_path / "avg.json")
    assert netmod.parameters_equal(merged, netmod.load_model(workspace / "a.json"))


def test_merge_fisher_cogram_pipeline(workspace, tmp_path):
    rc = main(["merge", "--method", "fisher+cogram",
               "--model-a", str(workspace / "a.json"),
               "--model-b", str(workspace / "b.json"),
               "--data-a", str(workspace / "data" / "data_a.csv"),
               "--data-b", str(workspace / "data" / "data_b.csv"),
               "--lambda", "5.5", "--granularity", "layer",
               "--out", str(tmp_path / "m.json"),
               "--report", str(tmp_path / "r.json")])
    assert rc == 0
    merged = netmod.load_model(tmp_path / "m.json")
    assert merged.num_classes == 4
    report = json.loads((tmp_path / "r.json").read_text())
    assert list(report["config"]) == ["lambda", "thresholds", "max_granularity", "epsilon",
                                      "prototype", "eval_seed", "iterations"]
    assert report["config"]["lambda"] == 5.5 and report["config"]["prototype"] == "onehot"
    layer_records = [r for r in report["iterations"][0]["records"]
                     if r["level"] == "layer"]
    assert [r["layer"] for r in layer_records] == [1, 0]


def test_merge_with_kickoff_runs(workspace, tmp_path):
    rc = main(["merge", "--method", "fisher+cogram+kickoff",
               "--model-a", str(workspace / "a.json"),
               "--model-b", str(workspace / "b.json"),
               "--data-a", str(workspace / "data" / "data_a.csv"),
               "--data-b", str(workspace / "data" / "data_b.csv"),
               "--kickoff-epochs", "2", "--finetune-epochs", "3",
               "--lr", "0.001", "--lr-mult", "2.5",
               "--out", str(tmp_path / "mk.json")])
    assert rc == 0
    assert (tmp_path / "mk.json").exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_merge_fisher_samples_below_one_exits_2(workspace, tmp_path, capsys, samples):
    rc = main(["merge", "--method", "fisher",
               "--model-a", str(workspace / "a.json"),
               "--model-b", str(workspace / "b.json"),
               "--data-a", str(workspace / "data" / "data_a.csv"),
               "--data-b", str(workspace / "data" / "data_b.csv"),
               "--fisher-samples", samples, "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert f"--fisher-samples must be an integer >= 1, got {samples}" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_merge_incompatible_models_exits_2(workspace, tmp_path):
    other = netmod.random_network([6, 9, 4], seed=0)
    netmod.save_model(other, tmp_path / "other.json")
    rc = main(["merge", "--method", "average",
               "--model-a", str(workspace / "a.json"),
               "--model-b", str(tmp_path / "other.json"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2


def _merge_args(workspace, tmp_path, *flags):
    return ["merge", *flags,
            "--model-a", str(workspace / "a.json"),
            "--model-b", str(workspace / "b.json"),
            "--data-a", str(workspace / "data" / "data_a.csv"),
            "--data-b", str(workspace / "data" / "data_b.csv"),
            "--out", str(tmp_path / "m.json")]


@pytest.mark.parametrize("flags", [
    ["--method", "cogram"],
    ["--method", "kickoff"],
    ["--method", "cogram+kickoff"],
    ["--method", "fisher+kickoff+cogram"],
    ["--method", "average+cogram+cogram"],
    ["--method", "fisher+fisher"],
    ["--init", "m0.json", "--method", "fisher+cogram"],
    ["--init", "m0.json", "--method", "average"],
    ["--init", "m0.json", "--method", "fisher"],
    ["--init", "m0.json", "--method", "fisher+kickoff"],
    ["--init", "m0.json", "--method", "kickoff+cogram"],
    ["--init", "m0.json", "--method", "cogram+cogram"],
])
def test_merge_method_outside_the_grammar_exits_2(workspace, tmp_path, capsys, flags):
    # a method without a start point, a repeated or misordered stage, or a
    # start point named after --init, which gives one already
    assert main(_merge_args(workspace, tmp_path, *flags)) == 2
    err = capsys.readouterr().err
    assert f"unknown method {flags[flags.index('--method') + 1]!r}" in err and "--init" in err
    assert not (tmp_path / "m.json").exists()


# every method the stage grammar {average|fisher}[+cogram][+kickoff] allows,
# in sweep.csv's column order
ALL_METHODS = [
    "average", "average+cogram", "average+cogram+kickoff", "average+kickoff",
    "fisher", "fisher+cogram", "fisher+cogram+kickoff", "fisher+kickoff",
]
TINY_KICKOFF = ["--kickoff-epochs", "1", "--finetune-epochs", "1"]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_merge_runs_each_method_of_the_grammar(workspace, tmp_path, method):
    """Each chain runs, a chain with a cogram stage also writing its report.
    One with stages after its start point gives the bytes of those stages
    run with --init on the saved start point."""
    def merged(*flags):
        report = ["--report", str(tmp_path / "r.json")] if "cogram" in flags[-1] else []
        args = _merge_args(workspace, tmp_path, *flags, *TINY_KICKOFF, "--granularity", "neuron",
                           "--tau-max", "0", *report)
        assert main(args) == 0
        if not report:
            return (tmp_path / "m.json").read_bytes(), None
        doc = json.loads((tmp_path / "r.json").read_text())
        doc.pop("wall_time_s")
        return (tmp_path / "m.json").read_bytes(), doc

    model, report = merged("--method", method)
    start, *after = method.split("+")
    if not after:
        return
    (tmp_path / "start.json").write_bytes(merged("--method", start)[0])
    after = "+".join(after)
    assert merged("--init", str(tmp_path / "start.json"), "--method", after) == (model, report)
    if "cogram" in after:
        assert len(report["iterations"][0]["records"]) == 2 + 12 + 4


@pytest.mark.parametrize("flags", [
    ["--method", "fisher"],
    ["--method", "average+kickoff"],
    ["--init", "m0.json", "--method", "kickoff"],
])
def test_merge_report_without_a_cogram_stage_exits_2_before_any_file_is_read(
        workspace, tmp_path, capsys, monkeypatch, flags):
    # every report is a merge report, and only a cogram stage makes one
    def no_file(*args, **kwargs):
        raise AssertionError("a file was read before the flags were checked")

    monkeypatch.setattr(cli.netmod, "load_model", no_file)
    monkeypatch.setattr(cli.synthdata, "load_csv", no_file)
    args = _merge_args(workspace, tmp_path, *flags, "--report", str(tmp_path / "r.json"))
    assert main(args) == 2
    method = flags[-1]
    assert f"--report needs a cogram stage, got --method {method!r}" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("method, data", [
    ("fisher", []),
    ("average+cogram", ["--data-a"]),
    ("average+kickoff", ["--data-b"]),
])
def test_merge_stage_that_reads_rows_needs_both_data_flags(workspace, tmp_path, capsys,
                                                           method, data):
    args = ["merge", "--method", method, "--model-a", str(workspace / "a.json"),
            "--model-b", str(workspace / "b.json"), "--out", str(tmp_path / "m.json")]
    for flag in data:
        args += [flag, str(workspace / "data" / f"data_{flag[-1]}.csv")]
    assert main(args) == 2
    stage = method.split("+")[-1]
    assert f"the {stage} stage needs --data-a and --data-b" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_merge_init_model_is_the_start_point(workspace, tmp_path):
    # a saved average merge as the start point gives average+cogram's merge
    average = tmp_path / "average.json"
    netmod.save_model(cli.baseline.uniform_average(netmod.load_model(workspace / "a.json"),
                                                   netmod.load_model(workspace / "b.json")),
                      average)
    models = []
    for flags in (["--method", "average+cogram"],
                  ["--init", str(average), "--method", "cogram"],
                  ["--init", str(workspace / "b.json"), "--method", "cogram"]):
        assert main(_merge_args(workspace, tmp_path, *flags, "--granularity", "neuron")) == 0
        models.append((tmp_path / "m.json").read_bytes())
    assert models[0] == models[1] != models[2]


@pytest.mark.parametrize("flags", [["--lam", "3"], ["--kickoff"], ["--granul", "neuron"]])
def test_merge_flag_prefixes_are_unrecognized(workspace, tmp_path, capsys, flags):
    # --lam used to set --lambda, and --kickoff would read as --kickoff-epochs
    with pytest.raises(SystemExit) as exc:
        main(_merge_args(workspace, tmp_path, "--method", "fisher+cogram", *flags))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("init, message", [
    ("missing.json", "file not found: {}"),
    ("other.json", "--init model is not architecture-compatible"),
])
def test_merge_bad_init_exits_2_before_data_is_read(workspace, tmp_path, capsys, monkeypatch,
                                                     init, message):
    def no_data(*args, **kwargs):
        raise AssertionError("data was read or the evaluation set built before --init was loaded")

    monkeypatch.setattr(cli.synthdata, "load_csv", no_data)
    monkeypatch.setattr(cli.merge, "build_eval_set", no_data)
    netmod.save_model(netmod.random_network([6, 9, 4], seed=0), tmp_path / "other.json")
    path = tmp_path / init
    args = _merge_args(workspace, tmp_path, "--init", str(path), "--method", "cogram",
                       "--prototype", "kmeans:2")
    assert main(args) == 2
    assert message.format(path) in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_merge_missing_data_file_exits_2(workspace, tmp_path, capsys):
    args = _merge_args(workspace, tmp_path, "--method", "fisher")
    args[args.index("--data-a") + 1] = str(tmp_path / "missing.csv")
    assert main(args) == 2
    assert f"file not found: {tmp_path / 'missing.csv'}" in capsys.readouterr().err


def _sweep_config(tmp_path, seeds, methods):
    doc = {
        "data": {"num_classes": 3, "dim": 5, "samples_per_class": 25,
                 "test_samples_per_class": 10},
        "mode": "homogeneous",
        "arch": [5, 8, 3],
        "train": {"epochs": 8},
        "methods": methods,
        "seeds": seeds,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return path


def test_sweep_csv_shape_and_summary(tmp_path, capsys):
    cfg = _sweep_config(tmp_path, [0, 1], ["average"])
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "seed,acc_A,acc_B,acc_average,status"
    assert len(lines) == 3
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    accs = [row["accuracies"]["average"] for row in doc["rows"]]
    assert abs(doc["summary"]["average"]["mean_accuracy"] - np.mean(accs)) < 1e-15


def test_sweep_rerun_byte_identical(tmp_path):
    cfg = _sweep_config(tmp_path, [0, 1], ["fisher", "fisher+cogram"])
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o1")]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 0
    assert (tmp_path / "o1" / "sweep.csv").read_bytes() == \
        (tmp_path / "o2" / "sweep.csv").read_bytes()


def test_sweep_loss_columns_only_for_fisher_methods(tmp_path):
    cfg = _sweep_config(tmp_path, [0], ["fisher", "fisher+cogram"])
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    header = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[0]
    assert header == ("seed,acc_A,acc_B,acc_fisher,acc_fisher_cogram,"
                      "loss_fisher,loss_fisher_cogram,status")


def test_sweep_respects_thread_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("COGRAM_THREADS", "1")
    cfg = _sweep_config(tmp_path, [0], ["average"])
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3", ""])
def test_sweep_bad_thread_count_exits_2_before_any_output(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("COGRAM_THREADS", value)
    monkeypatch.setattr(cli, "run_experiment_seed", None)  # a seed that ran would fail
    cfg = _sweep_config(tmp_path, [0], ["average"])
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"COGRAM_THREADS must be an integer >= 1, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"methods": ["teleport"], "seeds": [0]}))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "teleport" in capsys.readouterr().err


@pytest.mark.parametrize("section, settings", [
    ("kickoff", {"kickoff_epochs": 12}),
    ("kickoff", {"finetune_epochs": -2}),
    ("train", {"epochs": -1}),
    ("train", {"batch_size": 0}),
    ("train", {"epochs": 2.5}),
    ("train", {"learning_rate": True}),
    ("train", {"learning_rate": float("nan")}),
    ("train", {"betas": [2, 3]}),
    ("train", {"eps": -1}),
    ("train", {"clip_norm": 0}),
    ("kickoff", {"lr_multiplier": -1}),
])
def test_sweep_bad_training_settings_exit_2(tmp_path, capsys, section, settings):
    path = _sweep_config(tmp_path, [0], ["fisher+cogram+kickoff"])
    doc = json.loads(path.read_text())
    doc.setdefault(section, {}).update(settings)
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert next(iter(settings)) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("settings, message", [
    ({"arch": [5, 0, 3]}, "each arch size must be an integer >= 1, got 0"),
    ({"arch": [5, 2.5, 3]}, "each arch size must be an integer >= 1, got 2.5"),
    ({"arch": 5}, "arch must be a list of at least two layer sizes, got 5"),
    ({"seeds": [-1]}, "each seed must be an integer >= 0, got -1"),
    ({"seeds": [0, True]}, "each seed must be an integer >= 0, got True"),
    ({"seeds": [0, 0]}, "seeds must be unique, got [0, 0]"),
    ({"seeds": 5}, "seeds must be a nonempty list, got 5"),
    ({"seeds": []}, "seeds must be a nonempty list, got []"),
    ({"methods": ["fisher", "fisher"]}, "methods must be unique, got ['fisher', 'fisher']"),
    ({"kickoff": {"lr_multiplier": 0}}, "lr_multiplier must be a number > 0, got 0"),
    ({"kickoff": {"lr_multiplier": "2"}}, "lr_multiplier must be a number > 0, got '2'"),
    ({"train": {"epochs": 8, "x": 1}}, "unknown train config fields: ['x']"),
    ({"kickoff": {"epochs": 1}}, "unknown kickoff config fields: ['epochs']"),
    ({"mode": "mixed"}, "mode must be homogeneous or heterogeneous, got 'mixed'"),
    ({"arch": [5, 8, 4]}, "arch [5, 8, 4] does not match data (dim=5, classes=3)"),
    ({"arch": [6, 8, 3]}, "arch [6, 8, 3] does not match data (dim=5, classes=3)"),
    ({"epoch": 8}, "unknown experiment config fields: ['epoch']"),
])
def test_sweep_bad_experiment_settings_exit_2(tmp_path, capsys, settings, message):
    path = _sweep_config(tmp_path, [0], ["fisher+cogram+kickoff"])
    doc = json.loads(path.read_text())
    doc.update(settings)
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data, message", [
    ({"num_classes": 3.0}, "num_classes must be an integer >= 2, got 3.0"),
    ({"samples_per_class": True}, "samples_per_class must be an integer >= 1, got True"),
])
def test_bad_data_settings_exit_2_before_any_seed_runs(tmp_path, capsys, data, message):
    # 3.0 classes used to fail every seed with a TypeError while the sweep exited 0,
    # and True samples per class ran as 1
    path = _sweep_config(tmp_path, [0, 1], ["average"])
    doc = json.loads(path.read_text())
    doc["data"].update(data)
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"bad data config: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({**doc["data"], "seed": 0}))
    assert main(["gen-data", "--config", str(gen), "--out", str(tmp_path / "data")]) == 2
    assert f"bad data config: {message}" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("seed", [0, 5])
def test_sweep_data_seed_exits_2_before_any_seed_runs(tmp_path, capsys, monkeypatch, seed):
    # each of the sweep's seeds generates its own data, so a data seed would be ignored
    def no_seed(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(cli, "run_experiment_seed", no_seed)
    path = _sweep_config(tmp_path, [0], ["average"])
    doc = json.loads(path.read_text())
    doc["data"]["seed"] = seed
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"a sweep's data config takes no seed, got {seed}; list the data seeds under seeds" in err
    assert not (tmp_path / "out").exists()


def test_sweep_config_that_is_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text('{"seeds": [0],}')
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config file {path} is not valid JSON: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("methods", ["average", [], None])
def test_sweep_methods_must_be_a_nonempty_list(tmp_path, capsys, methods):
    # a string used to be read per character: "unknown method 'a'"
    path = _sweep_config(tmp_path, [0], methods)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"methods must be a nonempty list, got {methods!r}" in err
    assert "unknown method" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, value", [
    ("data", "x"), ("train", 5), ("merge", 5), ("kickoff", [8]), ("merge", None),
])
def test_sweep_config_sections_must_be_json_objects(tmp_path, capsys, section, value):
    # "merge": 5 used to exit 1 with a TypeError, and "data": "x" to report
    # "unknown data config fields: ['x']"
    path = _sweep_config(tmp_path, [0], ["fisher+cogram+kickoff"])
    doc = json.loads(path.read_text())
    doc[section] = value
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{section} must be a JSON object, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _tiny_kickoff(path):
    doc = json.loads(path.read_text())
    doc["kickoff"] = {"kickoff_epochs": 1, "finetune_epochs": 1}
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("method", ALL_METHODS)
def test_sweep_runs_each_method_of_the_grammar(tmp_path, method):
    path = _tiny_kickoff(_sweep_config(tmp_path, [0], [method]))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    column = method.replace("+", "_")
    loss = method.startswith("fisher") and "kickoff" not in method
    assert lines[0] == f"seed,acc_A,acc_B,acc_{column}," + f"loss_{column}," * loss + "status"
    assert lines[1].endswith(",ok")


def test_sweep_orders_columns_by_stages_and_shares_prefixes(tmp_path, monkeypatch):
    # one sweep of all eight methods, listed out of order, gives each the
    # numbers a sweep of that method alone gives
    monkeypatch.setenv("COGRAM_THREADS", "1")
    path = _tiny_kickoff(_sweep_config(tmp_path, [0], ALL_METHODS[::-1]))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "all")]) == 0
    header, row = (tmp_path / "all" / "sweep.csv").read_text().splitlines()
    columns = [m.replace("+", "_") for m in ALL_METHODS]
    assert header.split(",") == ["seed", "acc_A", "acc_B", *(f"acc_{c}" for c in columns),
                                 "loss_fisher", "loss_fisher_cogram", "status"]
    together = dict(zip(header.split(","), row.split(",")))
    for method, column in zip(ALL_METHODS, columns):
        alone = _tiny_kickoff(_sweep_config(tmp_path, [0], [method]))
        assert main(["sweep", "--config", str(alone), "--out", str(tmp_path / column)]) == 0
        header, row = (tmp_path / column / "sweep.csv").read_text().splitlines()
        for name, cell in zip(header.split(","), row.split(",")):
            assert together[name] == cell, (method, name)


@pytest.mark.parametrize("method", [
    "cogram", "kickoff", "Fisher", "fisher+", "fisher+fisher", "fisher+kickoff+cogram",
    "average+cogram+cogram", "+fisher", "", 5, ["fisher"], "teleport",
])
def test_sweep_malformed_method_exits_2_before_any_seed(tmp_path, capsys, monkeypatch, method):
    def no_seed(*args, **kwargs):
        raise AssertionError("a seed ran before the methods were checked")

    monkeypatch.setattr(cli, "run_experiment_seed", no_seed)
    path = _sweep_config(tmp_path, [0], ["fisher", method])
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"unknown method {method!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_runs_each_shared_stage_prefix_once_per_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("COGRAM_THREADS", "1")
    calls = {}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(cli.baseline, "fisher_information")
    count(cli.merge, "cogram_iterate")
    count(cli.merge, "gradient_kickoff")
    methods = ["fisher", "fisher+cogram", "fisher+cogram+kickoff"]
    path = _tiny_kickoff(_sweep_config(tmp_path, [0, 1], methods))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"fisher_information": 4, "cogram_iterate": 2, "gradient_kickoff": 2}


@pytest.mark.parametrize("kind", ["adam", "sgd_momentum"])
def test_kickoff_keeps_every_setting_of_the_training_optimizer(monkeypatch, kind):
    seen = []

    def spy(m, data, config, epochs, *args):
        seen.append((config, epochs))
        return m, None

    monkeypatch.setattr(cli.merge, "train", spy)
    train = {"kind": kind, "learning_rate": 2e-3, "momentum": 0.5, "betas": [0.8, 0.99],
             "eps": 1e-6, "clip_norm": 1.5, "epochs": 1}
    cfg = cli._experiment_from_dict({
        "data": {"num_classes": 3, "dim": 5, "samples_per_class": 10,
                 "test_samples_per_class": 5},
        "arch": [5, 4, 3], "train": train, "kickoff": {"lr_multiplier": 3.0},
        "methods": ["average+kickoff"], "seeds": [0],
    })
    assert cli.run_experiment_seed(cfg, 0).status == "ok"
    [(kick, kick_epochs), (fine, fine_epochs)] = seen
    assert (kick_epochs, fine_epochs) == (8, 20)
    assert fine == cfg.optimizer
    assert kick.learning_rate == 6e-3 and fine.learning_rate == 2e-3
    for config in (kick, fine):
        assert (config.kind, config.momentum, config.clip_norm) == (kind, 0.5, 1.5)
        assert (tuple(config.betas), config.eps) == ((0.8, 0.99), 1e-6)


def test_sweep_times_each_method_stage_under_its_key(tmp_path):
    for methods, timed in ((["average"], set()), (["average+kickoff"], {"kickoff"}),
                           (["fisher+cogram"], {"fisher", "cogram"})):
        path = _tiny_kickoff(_sweep_config(tmp_path, [0], methods))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        stage_s = json.loads((tmp_path / "out" / "sweep.json").read_text())["rows"][0]["stage_s"]
        assert {k for k in ("fisher", "cogram", "kickoff") if stage_s[k] > 0.0} == timed


@pytest.mark.parametrize("settings, message", [
    ({"tau_min": True}, "tau_min must be a number >= 0, got True"),
    ({"tau_max": "1.5"}, "tau_max must be a number >= 0, got '1.5'"),
    ({"tau_max": float("nan")}, "tau_max must be a number >= 0, got nan"),
    ({"tau_min": -0.5}, "tau_min must be a number >= 0, got -0.5"),
    ({"tau_min": 0.5, "tau_max": 0.1}, "tau_min must be <= tau_max, got 0.5 > 0.1"),
])
def test_sweep_bad_thresholds_exit_2(tmp_path, capsys, settings, message):
    path = _sweep_config(tmp_path, [0], ["fisher+cogram"])
    doc = json.loads(path.read_text())
    doc["merge"] = settings
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"bad merge config: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [0, -3, 2.5, True])
def test_sweep_bad_fisher_samples_exit_2(tmp_path, capsys, value):
    path = _sweep_config(tmp_path, [0], ["fisher"])
    doc = json.loads(path.read_text())
    doc["fisher_samples"] = value
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "fisher_samples must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("settings, message", [
    ({"prototype": "kmeans:0"}, "K in prototype 'kmeans:0' must be an integer >= 1, got 0"),
    ({"prototype": "batch:0"}, "N in prototype 'batch:0' must be an integer >= 1, got 0"),
    ({"prototype": "batch:-3"}, "N in prototype 'batch:-3' must be an integer >= 1, got -3"),
    ({"prototype": "kmeans:x"}, "bad prototype spec 'kmeans:x'"),
    ({"prototype": 5}, "bad prototype spec 5"),
    ({"iterations": 2.5}, "iterations must be an integer >= 1, got 2.5"),
    ({"eval_seed": 1.5}, "eval_seed must be an integer >= 0, got 1.5"),
    ({"eval_seed": -1}, "eval_seed must be an integer >= 0, got -1"),
    ({"lambda": "5"}, "lambda must be a number > 0, got '5'"),
    ({"lambda": True}, "lambda must be a number > 0, got True"),
    ({"epsilon": "x"}, "epsilon must be a number > 0, got 'x'"),
    ({"loss": "mse"}, "unknown merge config fields: ['loss']"),
    # the helper's data: 25 rows of each of 3 classes per side
    ({"prototype": "kmeans:51"},
     "K in prototype 'kmeans:51' must be at most the 50 rows of the smallest class, got 51"),
    ({"prototype": "batch:151"},
     "N in prototype 'batch:151' must be at most the 150 rows of the data, got 151"),
    ({"lambda": -1}, "bad merge config: lambda must be a number > 0, got -1"),
    ({"tau_min": 2, "tau_max": 1}, "bad merge config: tau_min must be <= tau_max, got 2.0 > 1.0"),
    ({"prototype": "lam"}, "bad prototype spec 'lam'"),
])
def test_sweep_bad_merge_settings_exit_2_before_any_seed(tmp_path, capsys, settings, message):
    path = _sweep_config(tmp_path, [0], ["fisher+cogram"])
    doc = json.loads(path.read_text())
    doc["merge"] = settings
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("prototype", ["kmeans:50", "batch:150"])
def test_sweep_eval_set_of_all_its_rows_runs(tmp_path, prototype):
    path = _sweep_config(tmp_path, [0], ["fisher+cogram"])
    doc = json.loads(path.read_text())
    doc["merge"] = {"prototype": prototype}
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1].endswith(",ok")


@pytest.mark.parametrize("settings", [
    {"lam": 3.0},
    {"max_granularity": "neuron"},
    {"prototype": "kmeans:2", "k_per_class": 0},
    {"prototype": "batch", "batch_size": 10},
])
def test_sweep_merge_settings_have_one_key_each(tmp_path, capsys, settings):
    path = _sweep_config(tmp_path, [0], ["fisher+cogram"])
    doc = json.loads(path.read_text())
    doc["merge"] = settings
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    unknown = sorted(k for k in settings if k != "prototype")
    assert f"unknown merge config fields: {unknown}" in capsys.readouterr().err


def test_settings_flags_default_to_their_settings_fields():
    parser = cli.build_parser()
    train = parser.parse_args(["train", "--data", "a.csv", "--out", "m.json"])
    merge = parser.parse_args(["merge", "--method", "fisher", "--model-a", "a.json",
                               "--model-b", "b.json", "--out", "m.json"])
    experiment, optimizer = cli.ExperimentConfig(cli.DataConfig()), OptimizerConfig()
    config, band, kickoff = MergeConfig(), LevelThresholds(), KickoffConfig()
    assert config.thresholds == Thresholds.uniform(band.tau_min, band.tau_max)
    flags = [
        (train, {"arch": ",".join(map(str, experiment.arch)), "epochs": experiment.epochs,
                 "batch_size": experiment.batch_size, "optimizer": optimizer.kind,
                 "lr": optimizer.learning_rate, "clip_norm": optimizer.clip_norm}),
        (merge, {"lam": config.lam, "granularity": config.max_granularity,
                 "tau_min": band.tau_min, "tau_max": band.tau_max,
                 "iterations": config.iterations, "prototype": config.prototype,
                 "fisher_samples": experiment.fisher_samples,
                 "kickoff_epochs": kickoff.kickoff_epochs,
                 "finetune_epochs": kickoff.finetune_epochs, "lr": optimizer.learning_rate,
                 "lr_mult": kickoff.lr_multiplier, "batch_size": experiment.batch_size}),
    ]
    for args, defaults in flags:
        assert {name: getattr(args, name) for name in defaults} == defaults


def test_config_settings_left_out_take_the_dataclass_defaults():
    assert cli._experiment_from_dict({}) == cli.ExperimentConfig(cli.DataConfig())
    assert cli._mergeconfig_from_dict({}) == MergeConfig()
    assert cli._mergeconfig_from_dict({"tau_min": 0.5, "tau_max": None}) == \
        MergeConfig(thresholds=Thresholds.uniform(0.5, math.inf))


@pytest.mark.parametrize("flags, message", [
    (["--method", "fisher", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    (["--method", "fisher", "--fisher-samples", "0"],
     "--fisher-samples must be an integer >= 1, got 0"),
    (["--method", "fisher+cogram+kickoff", "--batch-size", "0"],
     "--batch-size must be an integer >= 1, got 0"),
    (["--method", "average+kickoff", "--batch-size", "-4"],
     "--batch-size must be an integer >= 1, got -4"),
    (["--method", "fisher+cogram+kickoff", "--kickoff-epochs", "12"],
     "--kickoff-epochs must be an integer >= 0 and < 10, got 12"),
    (["--method", "fisher+cogram+kickoff", "--kickoff-epochs", "-1"],
     "--kickoff-epochs must be an integer >= 0 and < 10, got -1"),
    (["--method", "fisher+cogram+kickoff", "--finetune-epochs", "-2"],
     "--finetune-epochs must be an integer >= 0, got -2"),
    (["--method", "fisher+cogram+kickoff", "--lr", "0"], "--lr must be a number > 0, got 0.0"),
    (["--method", "fisher+cogram+kickoff", "--lr", "nan"],
     "--lr must be a number > 0, got nan"),
    (["--method", "fisher+cogram+kickoff", "--lr-mult", "-1"],
     "--lr-mult must be a number > 0, got -1.0"),
    (["--init", "m0.json", "--method", "kickoff", "--lr", "0"],
     "--lr must be a number > 0, got 0.0"),
    (["--method", "fisher+cogram", "--lambda", "0"], "--lambda must be a number > 0, got 0.0"),
    (["--init", "m0.json", "--method", "cogram", "--iterations", "0"],
     "--iterations must be an integer >= 1, got 0"),
    (["--method", "fisher+cogram", "--tau-min", "-1"],
     "--tau-min must be a number >= 0, got -1.0"),
    (["--method", "fisher+cogram", "--tau-max", "nan"],
     "--tau-max must be a number >= 0, got nan"),
    (["--method", "fisher+cogram", "--tau-min", "2", "--tau-max", "1"],
     "--tau-min must be <= --tau-max, got 2.0 > 1.0"),
    (["--method", "fisher+cogram", "--prototype", "kmeans:0"],
     "K in prototype 'kmeans:0' must be an integer >= 1, got 0"),
    (["--method", "fisher+cogram", "--prototype", "iterations"],  # a value, not a field
     "bad prototype spec 'iterations'"),
])
def test_merge_bad_numeric_flags_exit_2_before_any_stage(workspace, tmp_path, capsys,
                                                         monkeypatch, flags, message):
    def no_stage(*args, **kwargs):
        raise AssertionError("data was read or a merge stage ran before the flags were checked")

    for name in ("uniform_average", "fisher_information"):
        monkeypatch.setattr(cli.baseline, name, no_stage)
    monkeypatch.setattr(cli.merge, "cogram_iterate", no_stage)
    monkeypatch.setattr(cli.synthdata, "load_csv", no_stage)
    assert main(_merge_args(workspace, tmp_path, *flags)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("spec, message", [
    ("kmeans:0", "K in prototype 'kmeans:0' must be an integer >= 1, got 0"),
    ("kmeans:x", "bad prototype spec 'kmeans:x'"),
    ("batch:0", "N in prototype 'batch:0' must be an integer >= 1, got 0"),
    ("batch:1000",  # the two CSV files hold 320 rows
     "N in prototype 'batch:1000' must be at most the 320 rows of the data, got 1000"),
    ("kmeans:81",  # 80 rows of each of the 4 classes
     "K in prototype 'kmeans:81' must be at most the 80 rows of the smallest class, got 81"),
])
def test_merge_bad_prototype_exits_2_before_the_fisher_pass(workspace, tmp_path, capsys,
                                                             monkeypatch, spec, message):
    def no_fisher(*args, **kwargs):
        raise AssertionError("the Fisher pass ran before the merge config was checked")

    monkeypatch.setattr(cli.baseline, "fisher_information", no_fisher)
    rc = main(["merge", "--method", "fisher+cogram",
               "--model-a", str(workspace / "a.json"),
               "--model-b", str(workspace / "b.json"),
               "--data-a", str(workspace / "data" / "data_a.csv"),
               "--data-b", str(workspace / "data" / "data_b.csv"),
               "--prototype", spec, "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_flag_table_names_settings_fields_and_parser_flags():
    # the names settings errors use: the field names, but "lambda" for MergeConfig.lam
    settings = {"lambda" if f.name == "lam" else f.name
                for cls in (MergeConfig, LevelThresholds, KickoffConfig, OptimizerConfig)
                for f in dataclasses.fields(cls)}
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    flags = {*commands["merge"]._option_string_actions, *commands["train"]._option_string_actions}
    assert set(cli._FLAGS) <= settings
    assert set(cli._FLAGS.values()) <= flags


def test_sweep_rows_carry_stage_timings(tmp_path):
    methods = ["average", "fisher", "fisher+cogram", "fisher+cogram+kickoff"]
    cfg = _sweep_config(tmp_path, [0, 1], methods)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "sweep.json").read_text())["rows"]
    for row in rows:
        assert row["status"] == "ok"
        assert list(row["stage_s"]) == list(cli.STAGES)
        assert all(v >= 0.0 for v in row["stage_s"].values())
        assert sum(row["stage_s"].values()) <= row["wall_time_s"]


def _four_method_experiment():
    return cli._experiment_from_dict({
        "data": {"num_classes": 4, "dim": 6, "samples_per_class": 25,
                 "test_samples_per_class": 10},
        "mode": "heterogeneous",
        "arch": [6, 10, 8, 4],
        "train": {"epochs": 3, "batch_size": 32, "clip_norm": 1.0},
        "kickoff": {"kickoff_epochs": 1, "finetune_epochs": 2},
        "methods": ["average", "fisher", "fisher+cogram", "fisher+cogram+kickoff"],
        "seeds": [6],
    })


def test_experiment_seed_row_is_unchanged_by_lock_step_training():
    """A and B train as one stack; the row, timings aside, is the one the
    separately trained A and B gave (captured before they trained together)."""
    row = cli.run_experiment_seed(_four_method_experiment(), 6)
    assert list(row.stage_s) == list(cli.STAGES)
    assert (row.seed, row.status, row.acc_a, row.acc_b, row.error) == (6, "ok", 0.3, 0.375, None)
    assert row.accuracies == {"average": 0.25, "fisher": 0.575, "fisher_cogram": 0.4,
                              "fisher_cogram_kickoff": 0.65}
    assert row.eval_losses == {"average": 1.976557263524887, "fisher": 0.8748400942267882,
                               "fisher_cogram": 1.1094064593142028,
                               "fisher_cogram_kickoff": 0.84158522666998}


def test_experiment_seed_measures_accuracy_only_on_the_test_set(monkeypatch):
    """A and B, then each method: no accuracy pass whose result is thrown away."""
    cfg = _four_method_experiment()
    seen = []
    accuracy = training.accuracy

    def spy(net, dataset):
        seen.append(dataset)
        return accuracy(net, dataset)

    monkeypatch.setattr(training, "accuracy", spy)
    cli.run_experiment_seed(cfg, 6)
    assert len(seen) == 2 + len(cfg.methods)
    assert all(dataset is seen[0] for dataset in seen) and len(seen[0]) == 4 * 10


def test_sweep_csv_same_bytes_for_one_and_two_workers(tmp_path, monkeypatch):
    cfg = _sweep_config(tmp_path, [0, 1], ["average", "fisher", "fisher+cogram"])
    for workers in ("1", "2"):
        monkeypatch.setenv("COGRAM_THREADS", workers)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / workers)]) == 0
    assert (tmp_path / "1" / "sweep.csv").read_bytes() == \
        (tmp_path / "2" / "sweep.csv").read_bytes()


def _no_eval_set(dataset, config):
    raise ValueError("no evaluation set")


def test_sweep_failed_seed_is_flagged_but_kept(tmp_path, capsys, monkeypatch):
    # an evaluation set that cannot be built fails each seed at merge time;
    # rows must survive with status=failed and empty metric cells, and a
    # sweep whose every seed failed exits 1 with the first seed's error
    monkeypatch.setenv("COGRAM_THREADS", "1")  # the seeds run in this process
    monkeypatch.setattr(cli.merge, "build_eval_set", _no_eval_set)
    doc = {
        "data": {"num_classes": 3, "dim": 5, "samples_per_class": 10,
                 "test_samples_per_class": 5},
        "arch": [5, 8, 3],
        "train": {"epochs": 1},
        "methods": ["fisher", "fisher+cogram"],
        "seeds": [0, 1],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    rows = json.loads((tmp_path / "out" / "sweep.json").read_text())["rows"]
    assert [(r["seed"], r["status"]) for r in rows] == [(0, "failed"), (1, "failed")]
    assert capsys.readouterr().err == \
        f"failure: every seed failed; seed 0: {rows[0]['error']}\n"
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per seed
    for line in lines[1:]:
        assert line.endswith(",failed")


def _seed_or_die(cfg, seed):
    """Stands in for run_experiment_seed: seed 1's worker process dies."""
    if seed == 1:
        time.sleep(1.0)  # lets seed 0's result reach the parent first
        os._exit(1)
    return SweepRow(seed=seed, acc_a=0.5, acc_b=0.5, accuracies={"average": 0.5})


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the stand-in reaches the workers only through fork")
def test_sweep_survives_a_dead_worker(tmp_path, monkeypatch):
    monkeypatch.setenv("COGRAM_THREADS", "2")
    monkeypatch.setattr(cli, "run_experiment_seed", _seed_or_die)
    cfg = _sweep_config(tmp_path, [1, 0], ["average"])
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[1:] == ["0,0.5,0.5,0.5,ok", "1,,,,failed"]
    rows = json.loads((tmp_path / "out" / "sweep.json").read_text())["rows"]
    assert [r["seed"] for r in rows] == [0, 1]
    assert rows[1]["error"].startswith("BrokenProcessPool")


def test_console_entrypoint_via_subprocess(workspace):
    src = os.path.dirname(os.path.dirname(cli.__file__))  # the package under test
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cogram.cli", "eval",
         "--model", str(workspace / "a.json"),
         "--data", str(workspace / "data" / "test.csv")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert 0.0 <= doc["accuracy"] <= 1.0


# runs each argument list through cli.main in one process, stopping at the first failure
_RUN_COMMANDS = ("import json, sys\nfrom cogram.cli import main\n"
                 "sys.exit(not all(main(argv) == 0 for argv in json.loads(sys.argv[1])))")


def _without_timings(doc: dict) -> dict:
    """A merge report or sweep.json without its wall times and stage timings."""
    doc.pop("wall_time_s", None)
    for row in doc.get("rows", []):
        row.pop("wall_time_s")
        row["stage_s"] = list(row["stage_s"])
    return doc


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Data, trained models, a weight-level merge and a 2-seed sweep get the
    same bytes under 1 and 2 BLAS threads, timings aside. OpenBLAS reads its
    thread count when numpy loads, so each count runs in a new process. The
    merge scores on 512 rows, enough for OpenBLAS to run the first layer's
    product (512 x 32 x 64) on both threads."""
    data = {"num_classes": 20, "dim": 32, "samples_per_class": 30, "test_samples_per_class": 10}
    (tmp_path / "gen.json").write_text(json.dumps({"mode": "heterogeneous", "seed": 3, **data}))
    (tmp_path / "sweep.json").write_text(json.dumps({
        "data": data, "mode": "heterogeneous", "arch": [32, 64, 20], "train": {"epochs": 3},
        "merge": {"granularity": "neuron", "tau_max": 0, "prototype": "batch:300"},
        "kickoff": {"kickoff_epochs": 1, "finetune_epochs": 1},
        "methods": ["average", "fisher", "fisher+cogram", "fisher+cogram+kickoff"],
        "seeds": [0, 1],
    }))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        commands = [
            ["gen-data", "--config", f"{tmp_path}/gen.json", "--out", f"{out}/data"],
            *(["train", "--data", f"{out}/data/data_{n}.csv", "--arch", "32,64,20", "--epochs",
               "3", "--seed", str(seed), "--test-data", f"{out}/data/test.csv",
               "--out", f"{out}/{n}.json"] for n, seed in (("a", 1), ("b", 2))),
            ["merge", "--method", "fisher+cogram", "--granularity", "weight", "--tau-max", "0",
             "--prototype", "batch:512", "--model-a", f"{out}/a.json",
             "--model-b", f"{out}/b.json", "--data-a", f"{out}/data/data_a.csv",
             "--data-b", f"{out}/data/data_b.csv", "--out", f"{out}/m.json",
             "--report", f"{out}/m.report.json"],
            ["sweep", "--config", f"{tmp_path}/sweep.json", "--out", f"{out}/sweep"],
        ]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)], env=env,
                       check=True, capture_output=True, timeout=300)
        files = sorted(f for f in out.rglob("*") if f.is_file())
        outputs.append({str(f.relative_to(out)): f.read_bytes() for f in files})
    assert len(outputs[0]) == 11 and list(outputs[0]) == list(outputs[1])
    for name, text in outputs[0].items():
        if name in ("m.report.json", "sweep/sweep.json"):
            assert _without_timings(json.loads(text)) == \
                _without_timings(json.loads(outputs[1][name])), name
        else:
            assert text == outputs[1][name], name


def test_cli_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
