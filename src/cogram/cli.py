"""Command-line front end: data generation, training, merging, evaluation,
and multi-seed sweeps.

A merge method is a start point and the stages run on it, joined by "+":
``{average|fisher}[+cogram][+kickoff]``. ``cogram sweep`` runs the methods
its config lists and ``cogram merge`` the one its --method names; --init
<model.json> puts a saved model in as the start point, and --method then names
only the stages after it. Both run the chain through ``_Pipeline``.

Exit codes: 0 success, 2 usage/config errors, 1 runtime failures. Every
command is deterministic given its flags and seeds, so sweep outputs are
byte-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import baseline, merge, net as netmod, synthdata, training
from .merge import KickoffConfig, LevelThresholds, MergeConfig, Thresholds
from .synthdata import DataConfig, Dataset, check_number
from .training import OPTIMIZERS, OptimizerConfig

# the stages of a merge method: a start point (average or fisher), then cogram
# and kickoff, each optional and in this order; sweep.csv orders its columns so
METHOD_STAGES = ("average", "fisher", "cogram", "kickoff")

DEFAULT_ARCH = (32, 64, 64, 20)  # a sweep's and `cogram train`'s layer sizes


class UsageError(ValueError):
    """Bad flags or config contents; maps to exit code 2."""


def _role_seed(seed: int, role: int) -> int:
    """Independent integer seed for one pipeline role under a sweep seed."""
    return int(np.random.SeedSequence([seed, role]).generate_state(1, dtype=np.uint64)[0])


def _fmt(value: float) -> str:
    return repr(float(value))


def _method_stages(method, init: str | None = None) -> tuple[str, ...]:
    """A method name's stages: ``"fisher+cogram"`` -> ``("fisher", "cogram")``.
    After a saved start point ``init`` the name holds only the stages run on
    it: ``"cogram"`` -> ``(init, "cogram")``."""
    named = tuple(method.split("+")) if isinstance(method, str) else (method,)
    stages = named if init is None else (init, *named)
    steps = tuple(s for s in METHOD_STAGES[2:] if s in stages[1:])  # each once, in order
    starts = (("average",), ("fisher",)) if init is None else ((init,),)
    if stages[:1] not in starts or stages[1:] != steps:
        raise UsageError(f"unknown method {method!r} (want {{average|fisher}}[+cogram][+kickoff]"
                         ", or cogram, kickoff or cogram+kickoff after --init <model.json>)")
    return stages


def _check_arch(name: str, arch) -> None:
    """Layer sizes, a sweep's ``arch`` or ``cogram train --arch``: a list of
    at least two integers >= 1."""
    if not (isinstance(arch, list) and len(arch) >= 2):
        raise UsageError(f"{name} must be a list of at least two layer sizes, got {arch!r}")
    for size in arch:
        check_number(f"each {name} size", size, 1, integer=True)


# --- configs ------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    data: DataConfig
    mode: str = synthdata.MODES[0]
    arch: list[int] = field(default_factory=lambda: list(DEFAULT_ARCH))
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epochs: int = 30
    batch_size: int = 64
    merge: MergeConfig = field(default_factory=MergeConfig)
    fisher_samples: int = 512
    kickoff: KickoffConfig = field(default_factory=KickoffConfig)
    methods: list[str] = field(default_factory=lambda: ["fisher", "fisher+cogram"])
    seeds: list[int] = field(default_factory=lambda: list(range(10)))

    def __post_init__(self):
        if not (isinstance(self.seeds, list) and self.seeds):
            raise UsageError(f"seeds must be a nonempty list, got {self.seeds!r}")
        for seed in self.seeds:
            check_number("each seed", seed, 0, integer=True)
        if len(set(self.seeds)) != len(self.seeds):
            raise UsageError(f"seeds must be unique, got {self.seeds}")
        if not (isinstance(self.methods, list) and self.methods):
            raise UsageError(f"methods must be a nonempty list, got {self.methods!r}")
        for method in self.methods:
            _method_stages(method)
        if len(set(self.methods)) != len(self.methods):
            raise UsageError(f"methods must be unique, got {self.methods}")
        if self.mode not in synthdata.MODES:
            raise UsageError(f"mode must be {' or '.join(synthdata.MODES)}, got {self.mode!r}")
        _check_arch("arch", self.arch)
        if self.arch[0] != self.data.dim or self.arch[-1] != self.data.num_classes:
            raise UsageError(
                f"arch {self.arch} does not match data (dim={self.data.dim}, "
                f"classes={self.data.num_classes})"
            )
        for name, low in (("epochs", 0), ("batch_size", 1), ("fisher_samples", 1)):
            check_number(name, getattr(self, name), low, integer=True)
        # the eval set's source, A's and B's rows: samples_per_class per class each
        per_class = 2 * self.data.samples_per_class
        merge.check_context(self.merge.prototype, per_class, per_class * self.data.num_classes)


def _json_object(name: str, value) -> dict:
    """A copy of ``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise UsageError(f"{name} must be a JSON object, got {value!r}")
    return dict(value)


def _section(name: str, cls, doc: dict):
    """The ``cls`` whose fields are the keys of ``doc``, the config section
    ``name``; an unknown key, or a value ``cls`` refuses, is a usage error."""
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise UsageError(f"unknown {name} config fields: {sorted(unknown)}")
    try:
        return cls(**doc)
    except ValueError as exc:
        raise UsageError(f"bad {name} config: {exc}") from exc


def _mergeconfig_from_dict(doc: dict) -> MergeConfig:
    """A sweep's merge section; ``granularity`` is read as ``max_granularity``."""
    if "granularity" in doc:  # the key of bench/run.py's sweep config
        if "max_granularity" in doc:
            raise UsageError("bad merge config: give max_granularity or granularity, not both")
        doc["max_granularity"] = doc.pop("granularity")
    try:
        return merge.config_from_json_dict(doc, partial=True)
    except ValueError as exc:
        raise UsageError(f"bad merge config: {exc}") from exc


def _experiment_from_dict(doc: dict) -> ExperimentConfig:
    data_doc = _json_object("data", doc.pop("data", {}))
    if "seed" in data_doc:  # each of the sweep's seeds generates its own data
        raise UsageError(f"a sweep's data config takes no seed, got {data_doc['seed']!r}; "
                         "list the data seeds under seeds")
    data = _section("data", DataConfig, data_doc)
    train_doc = _json_object("train", doc.pop("train", {}))
    kwargs = {key: train_doc.pop(key) for key in ("epochs", "batch_size") if key in train_doc}
    kwargs["optimizer"] = _section("train", OptimizerConfig, train_doc)
    kwargs["merge"] = _mergeconfig_from_dict(_json_object("merge", doc.pop("merge", {})))
    kwargs["kickoff"] = _section("kickoff", KickoffConfig,
                                 _json_object("kickoff", doc.pop("kickoff", {})))
    for key in ("mode", "arch", "fisher_samples", "methods", "seeds"):
        if key in doc:
            kwargs[key] = doc.pop(key)
    if doc:
        raise UsageError(f"unknown experiment config fields: {sorted(doc)}")
    return ExperimentConfig(data, **kwargs)


def _load_data(flag: str, path, input_dim: int, num_classes: int) -> Dataset:
    """The dataset in the CSV file ``path``, given as ``flag``, for a model of
    ``input_dim`` inputs and ``num_classes`` classes."""
    dataset = synthdata.load_csv(path, num_classes)
    if dataset.dim != input_dim:
        raise UsageError(
            f"{flag} has {dataset.dim} features, but arch input is {input_dim} (in {path})"
        )
    return dataset


def _check_out_dirs(*outputs) -> None:
    """Each (flag, path) of a file a command will write, or of None: the
    file's directory must exist. Checked before any input is read."""
    for flag, path in outputs:
        directory = path and os.path.dirname(path)
        if directory and not os.path.isdir(directory):
            raise UsageError(f"{flag} {path!r}: directory {directory!r} does not exist")


def _load_json_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    return _json_object(f"config file {path}", doc)


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
    stage_s: dict = field(default_factory=dict)      # stage -> seconds, see STAGES
    error: str | None = None


# sweep.json's row keys that differ from SweepRow's field names
_ROW_KEYS = {"acc_a": "acc_A", "acc_b": "acc_B"}

# the stages of one sweep seed, timed into SweepRow.stage_s
STAGES = ("data", "train", "fisher", "eval_set", "cogram", "kickoff", "evaluate")


@contextlib.contextmanager
def _timed(stage_s: dict, stage: str):
    """Adds the wall time of the ``with`` body to ``stage_s[stage]``."""
    start = time.perf_counter()
    yield
    stage_s[stage] += time.perf_counter() - start


@dataclass
class _Pipeline:
    """Runs methods' stages on one A/B pair, each prefix of stages once.

    ``done`` maps a prefix of stages to the network it built and the CoGraM
    reports behind it. A start point no stage builds (``merge --init
    <model.json>``) is put in by the caller under its own one-stage prefix.
    """

    net_a: netmod.Network
    net_b: netmod.Network
    data_a: Dataset | None
    data_b: Dataset | None
    combined: Dataset | None                # A's and B's rows, which kickoff trains on
    seed: int
    fisher_samples: int
    merge_cfg: MergeConfig | None
    optimizer: OptimizerConfig | None       # the fine-tuning rate and kind of kickoff
    kickoff: KickoffConfig | None
    batch_size: int
    eval_set: Dataset | None = None         # what cogram scores candidates on
    stage_s: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    done: dict = field(default_factory=dict)

    def run(self, stages: tuple[str, ...]) -> tuple[netmod.Network, list]:
        """The network and CoGraM reports of a chain of stages."""
        for n in range(1, len(stages) + 1):
            if stages[:n] not in self.done:
                self.done[stages[:n]] = self._stage(stages[n - 1], self.done.get(stages[:n - 1]))
        return self.done[stages]

    def _stage(self, stage: str, before) -> tuple[netmod.Network, list]:
        """What ``stage`` builds from ``before``, the result of the stages before it."""
        a, b = self.net_a, self.net_b
        if stage == "average":
            return baseline.uniform_average(a, b), []
        with _timed(self.stage_s, stage):
            if stage == "fisher":
                samples = self.fisher_samples
                f_a = baseline.fisher_information(a, self.data_a, samples, _role_seed(self.seed, 5))
                f_b = baseline.fisher_information(b, self.data_b, samples, _role_seed(self.seed, 6))
                return baseline.fisher_merge(a, b, f_a, f_b), []
            start, reports = before
            if stage == "cogram":
                return merge.cogram_iterate(start, a, b, self.merge_cfg, eval_set=self.eval_set)
            fused, _ = merge.gradient_kickoff(
                start, self.combined, self.optimizer, self.kickoff, self.batch_size,
                _role_seed(self.seed, 8),
            )
            return fused, reports


def run_experiment_seed(cfg: ExperimentConfig, seed: int) -> SweepRow:
    """Generate the pair, train A/B, run every configured method, evaluate."""
    start = time.perf_counter()
    row = SweepRow(seed=seed, stage_s=dict.fromkeys(STAGES, 0.0))
    stage_s = row.stage_s
    with _timed(stage_s, "data"):
        data_cfg = synthdata.DataConfig(**{**asdict(cfg.data), "seed": seed})
        data_a, data_b, test = synthdata.generate_pair(data_cfg, cfg.mode)

    with _timed(stage_s, "train"):  # A and B in lock-step
        (net_a, _), (net_b, _) = training.train_stack(
            [netmod.random_network(cfg.arch, _role_seed(seed, role)) for role in (1, 3)],
            [data_a, data_b], cfg.optimizer, cfg.epochs, cfg.batch_size,
            [_role_seed(seed, 2), _role_seed(seed, 4)],
        )

    with _timed(stage_s, "evaluate"):
        row.acc_a = training.accuracy(net_a, test)
        row.acc_b = training.accuracy(net_b, test)

    with _timed(stage_s, "eval_set"):
        combined = synthdata.concat(data_a, data_b)
        eval_set = merge.build_eval_set(combined, cfg.merge)

    pipeline = _Pipeline(
        net_a, net_b, data_a, data_b, combined, seed,
        fisher_samples=cfg.fisher_samples, merge_cfg=cfg.merge, optimizer=cfg.optimizer,
        kickoff=cfg.kickoff, batch_size=cfg.batch_size, eval_set=eval_set, stage_s=stage_s,
    )
    for method in cfg.methods:
        fused, _ = pipeline.run(_method_stages(method))
        with _timed(stage_s, "evaluate"):
            row.accuracies[_column(method)] = training.accuracy(fused, test)
            row.eval_losses[_column(method)] = netmod.cross_entropy_loss(fused, eval_set)
    row.wall_time_s = time.perf_counter() - start
    return row


def _column(method: str) -> str:
    """A method's key in sweep.csv's column names and in sweep.json."""
    return method.replace("+", "_")


def _csv_columns(methods: list[str]) -> list[str]:
    """An accuracy column per method, ordered by METHOD_STAGES, then an eval-set
    loss column per Fisher-started method without a kickoff."""
    ordered = sorted(methods, key=lambda m: [METHOD_STAGES.index(s) for s in _method_stages(m)])
    losses = [m for m in ordered if m.startswith("fisher") and "kickoff" not in m]
    return ["seed", "acc_A", "acc_B", *(f"acc_{_column(m)}" for m in ordered),
            *(f"loss_{_column(m)}" for m in losses), "status"]


def _row_to_csv(row: SweepRow, columns: list[str]) -> str:
    values = {"acc_A": row.acc_a, "acc_B": row.acc_b,
              **{f"acc_{column}": v for column, v in row.accuracies.items()},
              **{f"loss_{column}": v for column, v in row.eval_losses.items()}}
    cells = {column: "" if v is None else _fmt(v) for column, v in values.items()}
    cells.update(seed=str(row.seed), status=row.status)
    return ",".join(cells.get(column, "") for column in columns)


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


def _worker_count() -> int:
    """The sweep's worker processes: ``COGRAM_THREADS``, an integer >= 1, or
    else one per CPU."""
    value = os.environ.get("COGRAM_THREADS")
    if value is None:
        return os.cpu_count() or 1
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"COGRAM_THREADS must be an integer >= 1, got {value!r}")
    return workers


def run_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """All seeds, optionally in parallel; writes sweep.csv and sweep.json."""
    max_workers = min(_worker_count(), len(cfg.seeds))
    os.makedirs(out_dir, exist_ok=True)
    seeds = sorted(cfg.seeds)
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

    ok = [r for r in rows if r.status == "ok"]
    accuracies = {_column(m): [r.accuracies[_column(m)] for r in ok] for m in cfg.methods}
    accuracies.update(subnet_A=[r.acc_a for r in ok], subnet_B=[r.acc_b for r in ok])
    summary = {
        label: {
            "mean_accuracy": float(np.mean(values)),
            "std_accuracy": float(np.std(values)),
            "n": len(values),
        }
        for label, values in accuracies.items()
        if values
    }

    doc = {
        "mode": cfg.mode,
        "methods": cfg.methods,
        "seeds": seeds,
        "rows": [{_ROW_KEYS.get(k, k): v for k, v in asdict(r).items()} for r in rows],
        "summary": summary,
    }
    with open(os.path.join(out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return doc


# --- subcommands ---------------------------------------------------------------


def cmd_gen_data(args) -> int:
    doc = _load_json_config(args.config)
    mode = doc.pop("mode", synthdata.MODES[0])
    cfg = _section("data", DataConfig, doc)
    data_a, data_b, test = synthdata.generate_pair(cfg, mode)
    os.makedirs(args.out, exist_ok=True)
    for name, ds in (("data_a.csv", data_a), ("data_b.csv", data_b), ("test.csv", test)):
        synthdata.save_csv(ds, os.path.join(args.out, name))
    print(f"wrote {args.out}/data_a.csv ({len(data_a)} rows), "
          f"data_b.csv ({len(data_b)} rows), test.csv ({len(test)} rows); "
          f"dim={cfg.dim} classes={cfg.num_classes} mode={mode}")
    return 0


# a name in a settings error (the field's, but "lambda" for ``lam``) -> the flag of
# ``cogram merge`` or ``cogram train`` that fills that setting
_FLAGS = {"lambda": "--lambda", "tau_min": "--tau-min", "tau_max": "--tau-max",
          "iterations": "--iterations", "kickoff_epochs": "--kickoff-epochs",
          "finetune_epochs": "--finetune-epochs", "lr_multiplier": "--lr-mult",
          "learning_rate": "--lr", "clip_norm": "--clip-norm"}


_WORD = re.compile(r"'[^']*'|\w+")  # a quoted value the user wrote is one word


@contextlib.contextmanager
def _flag_errors():
    """For settings built from flags in the ``with`` body: an error that names
    settings names their flags instead, wherever they appear in it; quoted
    values keep their spelling."""
    try:
        yield
    except ValueError as exc:
        message = _WORD.sub(lambda word: _FLAGS.get(word[0], word[0]), str(exc))
        if message == str(exc):
            raise
        raise UsageError(message) from None


def cmd_train(args) -> int:
    try:
        arch = [int(v) for v in args.arch.split(",")]
    except ValueError:
        raise UsageError(f"--arch must be comma-separated layer sizes, got {args.arch!r}") from None
    _check_arch("--arch", arch)
    check_number("--seed", args.seed, 0, integer=True)
    check_number("--epochs", args.epochs, 0, integer=True)
    check_number("--batch-size", args.batch_size, 1, integer=True)
    with _flag_errors():
        opt = OptimizerConfig(kind=args.optimizer, learning_rate=args.lr, clip_norm=args.clip_norm)
    # the default report, <out>.report.json, is written beside --out
    _check_out_dirs(("--out", args.out), ("--report", args.report))
    dataset = _load_data("--data", args.data, arch[0], arch[-1])
    test_data = None
    if args.test_data:
        test_data = _load_data("--test-data", args.test_data, arch[0], arch[-1])
    net0 = netmod.random_network(arch, args.seed)
    trained, report = training.train(
        net0, dataset, opt, args.epochs, args.batch_size, args.seed
    )
    train_acc = training.accuracy(trained, dataset)
    test_acc = training.accuracy(trained, test_data) if test_data is not None else None
    netmod.save_model(trained, args.out)
    report_path = args.report or (os.path.splitext(args.out)[0] + ".report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"epoch_losses": report.epoch_losses, "final_train_accuracy": train_acc,
                   "final_test_accuracy": test_acc, "epochs_run": report.epochs_run,
                   "seed": report.seed}, fh, indent=2)
    print(f"trained {args.arch} for {args.epochs} epochs: "
          f"train acc {train_acc:.4f}"
          + (f", test acc {test_acc:.4f}" if test_data is not None else "")
          + f"; model -> {args.out}")
    return 0


def cmd_merge(args) -> int:
    stages = _method_stages(args.method, args.init)
    # the flags of the stages that run, before any file is read
    if args.report and "cogram" not in stages:
        raise UsageError(f"--report needs a cogram stage, got --method {args.method!r}")
    check_number("--seed", args.seed, 0, integer=True)
    check_number("--fisher-samples", args.fisher_samples, 1, integer=True)
    if "kickoff" in stages:
        check_number("--batch-size", args.batch_size, 1, integer=True)
    merge_cfg = kickoff = optimizer = None
    with _flag_errors():
        if "cogram" in stages:
            merge_cfg = MergeConfig(
                lam=args.lam, thresholds=Thresholds.uniform(args.tau_min, args.tau_max),
                max_granularity=args.granularity, prototype=args.prototype,
                eval_seed=args.seed, iterations=args.iterations,
            )
        if "kickoff" in stages:
            kickoff = KickoffConfig(args.kickoff_epochs, args.finetune_epochs, args.lr_mult)
            optimizer = OptimizerConfig(learning_rate=args.lr)
    _check_out_dirs(("--out", args.out), ("--report", args.report))
    net_a = netmod.load_model(args.model_a)
    net_b = netmod.load_model(args.model_b)
    if not netmod.compatible(net_a, net_b):
        raise UsageError("models are not architecture-compatible")
    done = {}
    if args.init is not None:
        start = netmod.load_model(args.init)
        if not netmod.compatible(start, net_a):
            raise UsageError("--init model is not architecture-compatible")
        done[stages[:1]] = (start, [])

    data_a, data_b = (
        _load_data(flag, path, net_a.input_dim, net_a.num_classes) if path else None
        for flag, path in (("--data-a", args.data_a), ("--data-b", args.data_b))
    )
    needs_data = [s for s in stages if s in METHOD_STAGES[1:]]  # all but average read rows
    if needs_data and (data_a is None or data_b is None):
        raise UsageError(f"the {needs_data[0]} stage needs --data-a and --data-b")
    pipeline = _Pipeline(
        net_a, net_b, data_a, data_b,
        synthdata.concat(data_a, data_b) if needs_data else None, args.seed,
        fisher_samples=args.fisher_samples, merge_cfg=merge_cfg, optimizer=optimizer,
        kickoff=kickoff, batch_size=args.batch_size, done=done,
    )
    if merge_cfg is not None:
        pipeline.eval_set = merge.build_eval_set(pipeline.combined, merge_cfg)
    fused, reports = pipeline.run(stages)

    netmod.save_model(fused, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            merge.write_report(fh, reports, merge_cfg)
    print(f"merged with method={args.method}; model -> {args.out}"
          + (f", report -> {args.report}" if args.report else ""))
    return 0


def cmd_eval(args) -> int:
    _check_out_dirs(("--out", args.out))
    model = netmod.load_model(args.model)
    dataset = _load_data("--data", args.data, model.input_dim, model.num_classes)
    acc = training.accuracy(model, dataset)
    loss = netmod.cross_entropy_loss(model, dataset)
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
    if all(row["status"] == "failed" for row in doc["rows"]):
        first = doc["rows"][0]
        print(f"failure: every seed failed; seed {first['seed']}: {first['error']}",
              file=sys.stderr)
        return 1
    return 0


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogram",
        description="Train, merge, and benchmark small dense classifiers.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate an A/B/test dataset triple", allow_abbrev=False)
    p.add_argument("--config", required=True, help="JSON file with DataConfig fields + mode")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a subnetwork on a CSV dataset", allow_abbrev=False)
    p.add_argument("--data", required=True)
    p.add_argument("--arch", default=",".join(map(str, DEFAULT_ARCH)),
                   help="comma-separated layer sizes")
    p.add_argument("--epochs", type=int, default=ExperimentConfig.epochs)
    p.add_argument("--batch-size", type=int, default=ExperimentConfig.batch_size)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default=OptimizerConfig.kind)
    p.add_argument("--lr", type=float, default=OptimizerConfig.learning_rate)
    p.add_argument("--clip-norm", type=float, default=OptimizerConfig.clip_norm)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-data", default=None)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--report", default=None, help="report JSON path (default: <out>.report.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("merge", help="merge two trained models", allow_abbrev=False)
    p.add_argument("--method", required=True,
                   help="{average|fisher}[+cogram][+kickoff]; after --init: cogram, kickoff "
                        "or cogram+kickoff")
    p.add_argument("--init", default=None, help="a saved model.json as the start point")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--data-a", default=None)
    p.add_argument("--data-b", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=MergeConfig.lam)
    p.add_argument("--granularity", choices=merge.GRANULARITIES,
                   default=MergeConfig.max_granularity)
    p.add_argument("--tau-min", type=float, default=LevelThresholds.tau_min)
    p.add_argument("--tau-max", type=float, default=LevelThresholds.tau_max,
                   help="default: unbounded")
    p.add_argument("--iterations", type=int, default=MergeConfig.iterations)
    p.add_argument("--prototype", default=MergeConfig.prototype,
                   help="onehot | kmeans:K | batch | batch:N")
    p.add_argument("--fisher-samples", type=int, default=ExperimentConfig.fisher_samples)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kickoff-epochs", type=int, default=KickoffConfig.kickoff_epochs)
    p.add_argument("--finetune-epochs", type=int, default=KickoffConfig.finetune_epochs)
    p.add_argument("--lr", type=float, default=OptimizerConfig.learning_rate,
                   help="fine-tuning learning rate")
    p.add_argument("--lr-mult", type=float, default=KickoffConfig.lr_multiplier)
    p.add_argument("--batch-size", type=int, default=ExperimentConfig.batch_size)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", help="accuracy and loss of a model on a CSV dataset",
                       allow_abbrev=False)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="multi-seed method comparison", allow_abbrev=False)
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # UsageError, FormatError and ShapeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:  # a path given on the command line
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
