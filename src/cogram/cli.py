"""Command-line front end: data generation, training, merging, evaluation,
and multi-seed sweeps.

Exit codes: 0 success, 2 usage/config errors, 1 runtime failures. Every
command is deterministic given its flags and seeds, so sweep outputs are
byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import baseline, merge, net as netmod, synthdata, training
from .merge import MergeConfig, Thresholds
from .synthdata import DataConfig, Dataset
from .training import OptimizerConfig

KNOWN_METHODS = ("average", "fisher", "fisher+cogram", "fisher+cogram+kickoff")

_METHOD_COLUMN = {
    "average": "average",
    "fisher": "fisher",
    "fisher+cogram": "fisher_cogram",
    "fisher+cogram+kickoff": "fisher_cogram_kickoff",
}


class UsageError(ValueError):
    """Bad flags or config contents; maps to exit code 2."""


def _role_seed(seed: int, role: int) -> int:
    """Independent integer seed for one pipeline role under a sweep seed."""
    return int(np.random.SeedSequence([seed, role]).generate_state(1, dtype=np.uint64)[0])


def _fmt(value: float) -> str:
    return repr(float(value))


# --- configs ------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    data: DataConfig
    mode: str = "homogeneous"
    arch: list[int] = field(default_factory=lambda: [32, 64, 64, 20])
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epochs: int = 30
    batch_size: int = 64
    merge: MergeConfig = field(default_factory=MergeConfig)
    fisher_samples: int = 512
    kickoff_epochs: int = 8
    finetune_epochs: int = 20
    lr_multiplier: float = 2.5
    methods: list[str] = field(default_factory=lambda: ["fisher", "fisher+cogram"])
    seeds: list[int] = field(default_factory=lambda: list(range(10)))

    def __post_init__(self):
        if not self.seeds:
            raise UsageError("seed list must be nonempty")
        if not self.methods:
            raise UsageError("methods must be nonempty")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise UsageError(f"unknown method {m!r} (known: {', '.join(KNOWN_METHODS)})")
        if self.mode not in ("homogeneous", "heterogeneous"):
            raise UsageError(f"mode must be homogeneous or heterogeneous, got {self.mode!r}")
        if self.arch[0] != self.data.dim or self.arch[-1] != self.data.num_classes:
            raise UsageError(
                f"arch {self.arch} does not match data (dim={self.data.dim}, "
                f"classes={self.data.num_classes})"
            )


def _dataconfig_from_dict(doc: dict) -> DataConfig:
    known = {f.name for f in fields(DataConfig)}
    unknown = set(doc) - known
    if unknown:
        raise UsageError(f"unknown data config fields: {sorted(unknown)}")
    try:
        return DataConfig(**doc)
    except ValueError as exc:
        raise UsageError(f"bad data config: {exc}") from exc


def _mergeconfig_from_dict(doc: dict) -> MergeConfig:
    doc = dict(doc)
    tau_min = doc.pop("tau_min", 0.0)
    tau_max = doc.pop("tau_max", None)
    lam = doc.pop("lambda", doc.pop("lam", 5.5))
    granularity = doc.pop("granularity", doc.pop("max_granularity", "layer"))
    prototype = doc.pop("prototype", None)
    kwargs = dict(
        lam=lam,
        thresholds=Thresholds.uniform(
            float(tau_min), math.inf if tau_max is None else float(tau_max)
        ),
        max_granularity=granularity,
    )
    if prototype is not None:
        kwargs.update(_parse_prototype_spec(prototype))
    for key in ("epsilon", "eval_seed", "iterations", "loss", "k_per_class", "batch_size"):
        if key in doc:
            kwargs[key] = doc.pop(key)
    if doc:
        raise UsageError(f"unknown merge config fields: {sorted(doc)}")
    try:
        return MergeConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(f"bad merge config: {exc}") from exc


def _parse_prototype_spec(spec: str) -> dict:
    """onehot | kmeans:K | batch:N (batch: omitted N = whole dataset)."""
    parts = spec.split(":")
    if parts[0] == "onehot" and len(parts) == 1:
        return {"eval_mode": "onehot"}
    if parts[0] == "kmeans" and len(parts) == 2:
        return {"eval_mode": "kmeans", "k_per_class": int(parts[1])}
    if parts[0] == "batch":
        if len(parts) == 1:
            return {"eval_mode": "batch", "batch_size": None}
        if len(parts) == 2:
            return {"eval_mode": "batch", "batch_size": int(parts[1])}
    raise UsageError(f"bad prototype spec {spec!r} (want onehot, kmeans:K or batch:N)")


def _experiment_from_dict(doc: dict) -> ExperimentConfig:
    doc = dict(doc)
    data = _dataconfig_from_dict(doc.pop("data", {}))
    train_doc = dict(doc.pop("train", {}))
    epochs = train_doc.pop("epochs", 30)
    batch_size = train_doc.pop("batch_size", 64)
    try:
        optimizer = OptimizerConfig(**train_doc) if train_doc else OptimizerConfig()
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad train config: {exc}") from exc
    merge_cfg = _mergeconfig_from_dict(doc.pop("merge", {}))
    kick_doc = dict(doc.pop("kickoff", {}))
    kwargs = dict(
        data=data,
        optimizer=optimizer,
        epochs=epochs,
        batch_size=batch_size,
        merge=merge_cfg,
        kickoff_epochs=kick_doc.pop("kickoff_epochs", 8),
        finetune_epochs=kick_doc.pop("finetune_epochs", 20),
        lr_multiplier=kick_doc.pop("lr_multiplier", 2.5),
    )
    if kick_doc:
        raise UsageError(f"unknown kickoff config fields: {sorted(kick_doc)}")
    for key in ("mode", "arch", "fisher_samples", "methods", "seeds"):
        if key in doc:
            kwargs[key] = doc.pop(key)
    if doc:
        raise UsageError(f"unknown experiment config fields: {sorted(doc)}")
    return ExperimentConfig(**kwargs)


def _load_json_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc


# --- per-seed experiment pipeline ----------------------------------------------


@dataclass
class SweepRow:
    seed: int
    status: str = "ok"
    acc_a: float | None = None
    acc_b: float | None = None
    accuracies: dict = field(default_factory=dict)   # method column -> accuracy
    eval_losses: dict = field(default_factory=dict)  # method column -> prototype loss
    wall_time_s: float = 0.0
    error: str | None = None


def run_experiment_seed(cfg: ExperimentConfig, seed: int) -> SweepRow:
    """Generate the pair, train A/B, run every configured method, evaluate."""
    start = time.perf_counter()
    data_cfg = synthdata.DataConfig(**{**asdict(cfg.data), "seed": seed})
    data_a, data_b, test = synthdata.generate_pair(data_cfg, cfg.mode)

    net_a = netmod.random_network(cfg.arch, _role_seed(seed, 1))
    net_a, _ = training.train(
        net_a, data_a, cfg.optimizer, cfg.epochs, cfg.batch_size, _role_seed(seed, 2)
    )
    net_b = netmod.random_network(cfg.arch, _role_seed(seed, 3))
    net_b, _ = training.train(
        net_b, data_b, cfg.optimizer, cfg.epochs, cfg.batch_size, _role_seed(seed, 4)
    )

    row = SweepRow(seed=seed)
    row.acc_a = training.accuracy(net_a, test)
    row.acc_b = training.accuracy(net_b, test)

    combined = synthdata.concat(data_a, data_b)
    eval_set = merge.build_eval_set(combined, cfg.merge)
    lossf = netmod.cross_entropy_loss if cfg.merge.loss == "cross_entropy" else netmod.mse_loss

    needs_fisher = any(m != "average" for m in cfg.methods)
    fused_fisher = None
    if needs_fisher:
        f_a = baseline.fisher_information(net_a, data_a, cfg.fisher_samples, _role_seed(seed, 5))
        f_b = baseline.fisher_information(net_b, data_b, cfg.fisher_samples, _role_seed(seed, 6))
        fused_fisher = baseline.fisher_merge(net_a, net_b, f_a, f_b)

    fused_cogram = None
    if any(m.startswith("fisher+cogram") for m in cfg.methods):
        fused_cogram, _ = merge.cogram_iterate(
            fused_fisher, net_a, net_b, cfg.merge, eval_set=eval_set
        )

    for method in cfg.methods:
        column = _METHOD_COLUMN[method]
        if method == "average":
            fused = baseline.uniform_average(net_a, net_b)
        elif method == "fisher":
            fused = fused_fisher
        elif method == "fisher+cogram":
            fused = fused_cogram
        else:  # fisher+cogram+kickoff
            kick_cfg, fine_cfg = merge.kickoff_optimizer_configs(
                cfg.optimizer.learning_rate, cfg.lr_multiplier,
                optimizer=cfg.optimizer.kind, momentum=cfg.optimizer.momentum,
                clip_norm=cfg.optimizer.clip_norm,
            )
            fused, _ = merge.gradient_kickoff(
                fused_cogram, combined, kick_cfg, fine_cfg,
                cfg.kickoff_epochs, cfg.finetune_epochs, cfg.batch_size,
                _role_seed(seed, 8),
            )
        row.accuracies[column] = training.accuracy(fused, test)
        row.eval_losses[column] = lossf(fused, eval_set)
    row.wall_time_s = time.perf_counter() - start
    return row


def _csv_columns(methods: list[str]) -> list[str]:
    columns = ["seed", "acc_A", "acc_B"]
    for method in KNOWN_METHODS:
        if method in methods:
            columns.append(f"acc_{_METHOD_COLUMN[method]}")
    for method in ("fisher", "fisher+cogram"):
        if method in methods:
            columns.append(f"loss_{_METHOD_COLUMN[method]}")
    columns.append("status")
    return columns


def _row_to_csv(row: SweepRow, columns: list[str]) -> str:
    cells = []
    for col in columns:
        if col == "seed":
            cells.append(str(row.seed))
        elif col == "status":
            cells.append(row.status)
        elif col == "acc_A":
            cells.append("" if row.acc_a is None else _fmt(row.acc_a))
        elif col == "acc_B":
            cells.append("" if row.acc_b is None else _fmt(row.acc_b))
        elif col.startswith("acc_"):
            value = row.accuracies.get(col[4:])
            cells.append("" if value is None else _fmt(value))
        else:  # loss_*
            value = row.eval_losses.get(col[5:])
            cells.append("" if value is None else _fmt(value))
    return ",".join(cells)


def _seed_worker(args) -> SweepRow:
    cfg, seed = args
    try:
        return run_experiment_seed(cfg, seed)
    except Exception as exc:  # failed seeds stay in the sweep, flagged
        return SweepRow(seed=seed, status="failed", error=f"{type(exc).__name__}: {exc}")


def _pool_row(future, seed: int) -> SweepRow:
    """A seed's row from the pool; a seed whose worker died is failed, not fatal."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        return SweepRow(seed=seed, status="failed", error=f"{type(exc).__name__}: {exc}")


def run_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """All seeds, optionally in parallel; writes sweep.csv and sweep.json."""
    os.makedirs(out_dir, exist_ok=True)
    seeds = sorted(cfg.seeds)
    max_workers = int(os.environ.get("COGRAM_THREADS", os.cpu_count() or 1))
    max_workers = max(1, min(max_workers, len(seeds)))
    if max_workers == 1:
        rows = [_seed_worker((cfg, s)) for s in seeds]
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(_seed_worker, (cfg, s)) for s in seeds]
            rows = [_pool_row(f, s) for f, s in zip(futures, seeds)]

    columns = _csv_columns(cfg.methods)
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(_row_to_csv(row, columns) + "\n")

    summary = {}
    for method in cfg.methods:
        column = _METHOD_COLUMN[method]
        values = [r.accuracies[column] for r in rows if r.status == "ok"]
        if values:
            summary[column] = {
                "mean_accuracy": float(np.mean(values)),
                "std_accuracy": float(np.std(values)),
                "n": len(values),
            }
    for label, values in (
        ("subnet_A", [r.acc_a for r in rows if r.status == "ok"]),
        ("subnet_B", [r.acc_b for r in rows if r.status == "ok"]),
    ):
        if values:
            summary[label] = {
                "mean_accuracy": float(np.mean(values)),
                "std_accuracy": float(np.std(values)),
                "n": len(values),
            }

    doc = {
        "mode": cfg.mode,
        "methods": cfg.methods,
        "seeds": seeds,
        "rows": [
            {
                "seed": r.seed,
                "status": r.status,
                "acc_A": r.acc_a,
                "acc_B": r.acc_b,
                "accuracies": r.accuracies,
                "eval_losses": r.eval_losses,
                "wall_time_s": r.wall_time_s,
                "error": r.error,
            }
            for r in rows
        ],
        "summary": summary,
    }
    with open(os.path.join(out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return doc


# --- subcommands ---------------------------------------------------------------


def cmd_gen_data(args) -> int:
    doc = _load_json_config(args.config)
    mode = doc.pop("mode", "homogeneous")
    if mode not in ("homogeneous", "heterogeneous"):
        raise UsageError(f"mode must be homogeneous or heterogeneous, got {mode!r}")
    cfg = _dataconfig_from_dict(doc)
    data_a, data_b, test = synthdata.generate_pair(cfg, mode)
    os.makedirs(args.out, exist_ok=True)
    for name, ds in (("data_a.csv", data_a), ("data_b.csv", data_b), ("test.csv", test)):
        synthdata.save_csv(ds, os.path.join(args.out, name))
    print(f"wrote {args.out}/data_a.csv ({len(data_a)} rows), "
          f"data_b.csv ({len(data_b)} rows), test.csv ({len(test)} rows); "
          f"dim={cfg.dim} classes={cfg.num_classes} mode={mode}")
    return 0


def cmd_train(args) -> int:
    arch = [int(v) for v in args.arch.split(",")]
    try:
        dataset = synthdata.load_csv(args.data, arch[-1])
    except FileNotFoundError as exc:
        raise UsageError(f"dataset not found: {args.data}") from exc
    if arch[0] != dataset.dim:
        raise UsageError(f"arch input {arch[0]} != dataset dim {dataset.dim}")
    opt = OptimizerConfig(
        kind=args.optimizer, learning_rate=args.lr, clip_norm=args.clip_norm
    )
    test_data = synthdata.load_csv(args.test_data, arch[-1]) if args.test_data else None
    net0 = netmod.random_network(arch, args.seed)
    trained, report = training.train(
        net0, dataset, opt, args.epochs, args.batch_size, args.seed, test_data
    )
    netmod.save_model(trained, args.out)
    report_path = args.report or (os.path.splitext(args.out)[0] + ".report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "epoch_losses": report.epoch_losses,
                "final_train_accuracy": report.final_train_accuracy,
                "final_test_accuracy": report.final_test_accuracy,
                "epochs_run": report.epochs_run,
                "seed": report.seed,
            },
            fh, indent=2,
        )
    print(f"trained {args.arch} for {args.epochs} epochs: "
          f"train acc {report.final_train_accuracy:.4f}"
          + (f", test acc {report.final_test_accuracy:.4f}" if test_data is not None else "")
          + f"; model -> {args.out}")
    return 0


def _load_model_checked(path) -> netmod.Network:
    try:
        return netmod.load_model(path)
    except FileNotFoundError as exc:
        raise UsageError(f"model not found: {path}") from exc


def cmd_merge(args) -> int:
    method = args.method
    if method == "fisher+cogram":
        method = "cogram"
        if args.init is None:
            args.init = "fisher"
    if method == "cogram" and args.init is None:
        raise UsageError(
            "merge method 'cogram' needs an initial fused network: pass "
            "--init fisher, --init average, or --init <model.json>"
        )
    net_a = _load_model_checked(args.model_a)
    net_b = _load_model_checked(args.model_b)
    if not netmod.compatible(net_a, net_b):
        raise UsageError("models are not architecture-compatible")

    data_a = synthdata.load_csv(args.data_a, net_a.num_classes) if args.data_a else None
    data_b = synthdata.load_csv(args.data_b, net_b.num_classes) if args.data_b else None

    def fisher_init() -> netmod.Network:
        if data_a is None or data_b is None:
            raise UsageError("fisher merging needs --data-a and --data-b")
        f_a = baseline.fisher_information(net_a, data_a, args.fisher_samples, _role_seed(args.seed, 5))
        f_b = baseline.fisher_information(net_b, data_b, args.fisher_samples, _role_seed(args.seed, 6))
        return baseline.fisher_merge(net_a, net_b, f_a, f_b)

    reports = []
    merge_cfg = None
    if method == "average":
        fused = baseline.uniform_average(net_a, net_b)
    elif method == "fisher":
        fused = fisher_init()
    else:
        if args.init == "fisher":
            m0 = fisher_init()
        elif args.init == "average":
            m0 = baseline.uniform_average(net_a, net_b)
        else:
            m0 = _load_model_checked(args.init)
            if not netmod.compatible(m0, net_a):
                raise UsageError("--init model is not architecture-compatible")
        if data_a is None or data_b is None:
            raise UsageError("cogram merging needs --data-a and --data-b")
        combined = synthdata.concat(data_a, data_b)
        merge_cfg = MergeConfig(
            lam=args.lam,
            thresholds=Thresholds.uniform(
                args.tau_min, math.inf if args.tau_max is None else args.tau_max
            ),
            max_granularity=args.granularity,
            iterations=args.iterations,
            eval_seed=args.seed,
            **_parse_prototype_spec(args.prototype),
        )
        fused, reports = merge.cogram_iterate(m0, net_a, net_b, merge_cfg, data=combined)

    if args.kickoff:
        if data_a is None or data_b is None:
            raise UsageError("--kickoff needs --data-a and --data-b")
        combined = synthdata.concat(data_a, data_b)
        kick_cfg, fine_cfg = merge.kickoff_optimizer_configs(args.lr, args.lr_mult)
        fused, _ = merge.gradient_kickoff(
            fused, combined, kick_cfg, fine_cfg,
            args.kickoff_epochs, args.finetune_epochs, args.batch_size,
            _role_seed(args.seed, 8),
        )

    netmod.save_model(fused, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            if reports:
                fh.write(merge.reports_to_json(reports, merge_cfg))
            else:
                json.dump({"method": args.method, "records": []}, fh)
    print(f"merged with method={args.method}; model -> {args.out}"
          + (f", report -> {args.report}" if args.report else ""))
    return 0


def cmd_eval(args) -> int:
    model = _load_model_checked(args.model)
    try:
        dataset = synthdata.load_csv(args.data, model.num_classes)
    except FileNotFoundError as exc:
        raise UsageError(f"dataset not found: {args.data}") from exc
    acc = training.accuracy(model, dataset)
    loss = netmod.cross_entropy_arrays(model, dataset.features, dataset.one_hot())
    doc = {"accuracy": acc, "loss": loss, "n": len(dataset)}
    print(json.dumps(doc))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    return 0


def cmd_sweep(args) -> int:
    cfg = _experiment_from_dict(_load_json_config(args.config))
    doc = run_sweep(cfg, args.out)
    print(f"sweep over {len(doc['seeds'])} seeds ({doc['mode']}) -> {args.out}/sweep.csv")
    for name, stats in doc["summary"].items():
        print(f"  {name}: mean acc {stats['mean_accuracy']:.4f} "
              f"(std {stats['std_accuracy']:.4f}, n={stats['n']})")
    return 0


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogram",
        description="Train, merge, and benchmark small dense classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate an A/B/test dataset triple")
    p.add_argument("--config", required=True, help="JSON file with DataConfig fields + mode")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a subnetwork on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--arch", default="32,64,64,20", help="comma-separated layer sizes")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--optimizer", choices=["adam", "sgd_momentum"], default="adam")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--clip-norm", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-data", default=None)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--report", default=None, help="report JSON path (default: <out>.report.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("merge", help="merge two trained models")
    p.add_argument("--method", required=True,
                   choices=["average", "fisher", "cogram", "fisher+cogram"])
    p.add_argument("--init", default=None,
                   help="cogram initializer: fisher | average | <model.json>")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--data-a", default=None)
    p.add_argument("--data-b", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=5.5)
    p.add_argument("--granularity", choices=["layer", "neuron", "weight"], default="layer")
    p.add_argument("--tau-min", type=float, default=0.0)
    p.add_argument("--tau-max", type=float, default=None, help="default: unbounded")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--prototype", default="onehot", help="onehot | kmeans:K | batch:N")
    p.add_argument("--fisher-samples", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kickoff", action="store_true")
    p.add_argument("--kickoff-epochs", type=int, default=8)
    p.add_argument("--finetune-epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3, help="fine-tuning learning rate")
    p.add_argument("--lr-mult", type=float, default=2.5)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", help="accuracy and loss of a model on a CSV dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="multi-seed method comparison")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (netmod.FormatError, netmod.ShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
