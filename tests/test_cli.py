import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cogram import cli, net as netmod
from cogram.cli import SweepRow, main
from cogram.synthdata import load_csv


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


def test_gen_data_invalid_mode_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps({"mode": "sideways"}))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    assert "mode" in capsys.readouterr().err


def test_gen_data_unknown_field_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps({"mode": "homogeneous", "sample_count": 10}))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    assert "sample_count" in capsys.readouterr().err


def test_train_writes_model_and_report(workspace):
    model = netmod.load_model(workspace / "a.json")
    assert model.input_dim == 6 and model.num_classes == 4
    report = json.loads((workspace / "a.report.json").read_text())
    assert report["epochs_run"] == 15
    assert len(report["epoch_losses"]) == 15


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


def test_merge_average_of_identical_models(workspace, tmp_path):
    rc = main(["merge", "--method", "average",
               "--model-a", str(workspace / "a.json"),
               "--model-b", str(workspace / "a.json"),
               "--out", str(tmp_path / "avg.json")])
    assert rc == 0
    merged = netmod.load_model(tmp_path / "avg.json")
    assert netmod.parameters_equal(merged, netmod.load_model(workspace / "a.json"))


def test_merge_cogram_without_init_exits_2(workspace, tmp_path, capsys):
    rc = main(["merge", "--method", "cogram",
               "--model-a", str(workspace / "a.json"),
               "--model-b", str(workspace / "b.json"),
               "--data-a", str(workspace / "data" / "data_a.csv"),
               "--data-b", str(workspace / "data" / "data_b.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "--init" in capsys.readouterr().err


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
    assert report["config"]["lambda"] == 5.5
    layer_records = [r for r in report["iterations"][0]["records"]
                     if r["level"] == "layer"]
    assert [r["layer"] for r in layer_records] == [1, 0]


def test_merge_with_kickoff_runs(workspace, tmp_path):
    rc = main(["merge", "--method", "fisher+cogram",
               "--model-a", str(workspace / "a.json"),
               "--model-b", str(workspace / "b.json"),
               "--data-a", str(workspace / "data" / "data_a.csv"),
               "--data-b", str(workspace / "data" / "data_b.csv"),
               "--kickoff", "--kickoff-epochs", "2", "--finetune-epochs", "3",
               "--lr", "0.001", "--lr-mult", "2.5",
               "--out", str(tmp_path / "mk.json")])
    assert rc == 0
    assert (tmp_path / "mk.json").exists()


def test_merge_incompatible_models_exits_2(workspace, tmp_path):
    other = netmod.random_network([6, 9, 4], seed=0)
    netmod.save_model(other, tmp_path / "other.json")
    rc = main(["merge", "--method", "average",
               "--model-a", str(workspace / "a.json"),
               "--model-b", str(tmp_path / "other.json"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2


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


def test_sweep_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"methods": ["teleport"], "seeds": [0]}))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "teleport" in capsys.readouterr().err


def test_sweep_failed_seed_is_flagged_but_kept(tmp_path):
    # an impossible evaluation batch size fails each seed at merge time;
    # rows must survive with status=failed and empty metric cells
    doc = {
        "data": {"num_classes": 3, "dim": 5, "samples_per_class": 10,
                 "test_samples_per_class": 5},
        "arch": [5, 8, 3],
        "train": {"epochs": 1},
        "merge": {"prototype": "batch:999999"},
        "methods": ["fisher", "fisher+cogram"],
        "seeds": [0, 1],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
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
    proc = subprocess.run(
        [sys.executable, "-m", "cogram.cli", "eval",
         "--model", str(workspace / "a.json"),
         "--data", str(workspace / "data" / "test.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert 0.0 <= doc["accuracy"] <= 1.0


def test_cli_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
