"""Benchmark of the cogram command line: a seed sweep, a weight-level merge
and a batch-evaluated neuron-level merge, all in this one process.

    python3 bench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports cogram from ``src/``
and writes everything under ``bench_out/<workload>/``. It calls
``cogram.cli.main`` in-process with ``COGRAM_THREADS=1``, so the sweep
starts no worker pool, pins BLAS to one thread and fixes glibc's malloc
thresholds (see ``MALLOC_SETTINGS``).

A run sets up its inputs (``cogram gen-data``, and ``cogram train`` for A
and B of each merge pair), then repeats whole rounds of the timed commands
until ``--seconds`` have passed. It checks every command's output with
``checks.py``, which does not use cogram's code. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
operations (sweep seeds, or merge commands), and ``metrics``. Those are the
end-to-end metrics with ``--trace 0``. With ``--trace 1`` they are the
per-layer metrics of ``tracing.py`` and the tracing overhead; that run times
one untraced round first and traces the set-up and the remaining rounds.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The heterogeneous default experiment: 20 classes in 32 dimensions, a
# 32-64-64-20 ReLU network trained 30 epochs with Adam on each side.
DATA = {"mode": "heterogeneous", "num_classes": 20, "dim": 32}
ARCH = [32, 64, 64, 20]
EPOCHS = 30
SWEEP_SEEDS = 2      # data seeds per sweep command
PAIRS = 2            # trained A/B pairs per merge run, one merge each per round
BATCH_ROWS = 2048    # eval-set rows of merge-neuron-batch
MERGE_SEED = 0       # `cogram merge --seed`: Fisher samples and the raw-batch draw
WALL_TIME = re.compile(rb'"wall_time_s": [^,}]*')  # the one part of a report that may differ
# One process and one BLAS thread; set before numpy is first imported.
THREAD_SETTINGS = {
    "COGRAM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# glibc's malloc tunes its mmap and trim thresholds as a process runs: the
# first time the process frees a mapping above the threshold, the threshold
# rises to that size. From then on the ~1 MiB temporaries of a forward pass
# over 2,048 rows come from the heap instead of fresh mappings, and a
# merge-neuron-batch merge takes 2.1 s instead of 3.8 s, with 2k page faults
# instead of 690k. When that happens depends on everything the process did
# before, the benchmark's own checks included. So both thresholds are fixed
# at glibc's documented defaults (mallopt parameter number -> bytes).
MALLOC_SETTINGS = {"M_MMAP_THRESHOLD": (-3, 128 * 1024), "M_TRIM_THRESHOLD": (-1, 128 * 1024)}

class SetupError(RuntimeError):
    """A set-up command failed; the run has no inputs to measure."""


class Workload:
    """Set-up, the timed commands of one round, and their checks."""

    def __init__(self, cli, checks, out_dir: str, seed: int):
        self.cli = cli
        self.checks = checks
        self.out = out_dir
        self.seed = seed
        self.first_outputs: dict[int, object] = {}

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        """One cogram command in this process; its output is kept, not shown."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def setup_command(self, argv: list[str]) -> None:
        code, text = self.run_cli(argv)
        if code != 0:
            raise SetupError(f"cogram {' '.join(argv)} exited {code}: {text.strip()}")

    def gen_data(self, data_seed: int) -> str:
        path = os.path.join(self.out, f"data{data_seed}")
        config = os.path.join(self.out, f"gen{data_seed}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({**DATA, "seed": data_seed}, fh)
        self.setup_command(["gen-data", "--config", config, "--out", path])
        return path

    def check(self, index: int) -> list[str]:
        """Full check of a command's first output; later outputs must equal it."""
        output = self.output(index)
        if index not in self.first_outputs:
            self.first_outputs[index] = output
            return self.check_first(index)
        return [] if output == self.first_outputs[index] else [f"command {index}: output changed"]


class Sweep(Workload):
    """`cogram sweep` with all four methods over SWEEP_SEEDS seeds."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seeds = [SWEEP_SEEDS * self.seed + i for i in range(SWEEP_SEEDS)]
        self.config = os.path.join(self.out, "experiment.json")
        self.result_dir = os.path.join(self.out, "sweep")
        self.data_dirs: dict[int, str] = {}

    def setup(self, phase) -> list[float]:
        """Generates each seed's data as the sweep will (the check reads its test set)."""
        times = []
        for s in self.seeds:
            with phase():
                start = time.perf_counter()
                self.data_dirs[s] = self.gen_data(s)
                times.append(time.perf_counter() - start)
        experiment = {
            "data": {k: DATA[k] for k in ("num_classes", "dim")},
            "mode": DATA["mode"],
            "arch": ARCH,
            "train": {"kind": "adam", "learning_rate": 0.001, "epochs": EPOCHS, "batch_size": 64},
            "merge": {"lambda": 5.5, "granularity": "layer", "prototype": "onehot"},
            "kickoff": {"kickoff_epochs": 8, "finetune_epochs": 20, "lr_multiplier": 2.5},
            "methods": ["average", "fisher", "fisher+cogram", "fisher+cogram+kickoff"],
            "seeds": self.seeds,
        }
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(experiment, fh)
        return times

    def commands(self) -> list[list[str]]:
        return [["sweep", "--config", self.config, "--out", self.result_dir]]

    def operations(self, index: int, code: int) -> tuple[int, int]:
        """(attempted, failed) operations of one command: here, sweep seeds."""
        if code != 0:
            return len(self.seeds), len(self.seeds)
        return len(self.seeds), sum(r["status"] == "failed" for r in self.sweep_doc()["rows"])

    def sweep_doc(self) -> dict:
        with open(os.path.join(self.result_dir, "sweep.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def output(self, index: int):
        with open(os.path.join(self.result_dir, "sweep.csv"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def check_first(self, index: int) -> list[str]:
        sizes = {
            s: len(self.checks.read_csv(os.path.join(d, "test.csv"))[1])
            for s, d in self.data_dirs.items()
        }
        return self.checks.check_sweep(self.sweep_doc(), self.seeds, sizes)

    def accuracy(self) -> float:
        rows = self.sweep_doc()["rows"]
        return statistics.fmean(r["accuracies"]["fisher_cogram"] for r in rows if r["status"] == "ok")


class Merge(Workload):
    """`cogram merge --method fisher+cogram` of PAIRS trained pairs, τ band (0, 0)."""

    granularity = ""
    batch_rows: int | None = None  # None: one-hot prototypes

    def __init__(self, *args):
        super().__init__(*args)
        self.data_seeds = [PAIRS * self.seed + i for i in range(PAIRS)]
        self.pairs: list[dict[str, str]] = []
        self.accuracies: dict[int, float] = {}

    def setup(self, phase) -> list[float]:
        times = []
        for s in self.data_seeds:
            with phase():
                start = time.perf_counter()
                data = self.gen_data(s)
                pair = {"data": data}
                for side, train_seed in (("a", 2 * s), ("b", 2 * s + 1)):
                    pair[side] = os.path.join(self.out, f"model{s}_{side}.json")
                    self.setup_command([
                        "train", "--data", os.path.join(data, f"data_{side}.csv"),
                        "--arch", ",".join(map(str, ARCH)), "--epochs", str(EPOCHS),
                        "--seed", str(train_seed), "--out", pair[side],
                    ])
                times.append(time.perf_counter() - start)
            pair["merged"] = os.path.join(self.out, f"merged{s}.json")
            pair["report"] = os.path.join(self.out, f"report{s}.json")
            self.pairs.append(pair)
        return times

    def commands(self) -> list[list[str]]:
        return [
            ["merge", "--method", "fisher+cogram",
             "--model-a", p["a"], "--model-b", p["b"],
             "--data-a", os.path.join(p["data"], "data_a.csv"),
             "--data-b", os.path.join(p["data"], "data_b.csv"),
             "--granularity", self.granularity, "--tau-min", "0", "--tau-max", "0",
             "--prototype", "onehot" if self.batch_rows is None else f"batch:{self.batch_rows}",
             "--seed", str(MERGE_SEED), "--out", p["merged"], "--report", p["report"]]
            for p in self.pairs
        ]

    def operations(self, index: int, code: int) -> tuple[int, int]:
        return 1, int(code != 0)

    def output(self, index: int):
        digest = hashlib.sha256()
        for key in ("merged", "report"):
            with open(self.pairs[index][key], "rb") as fh:
                digest.update(WALL_TIME.sub(b"", fh.read()))
        return digest.hexdigest()

    def eval_set(self, x, labels):
        if self.batch_rows is None:
            return self.checks.onehot_eval_set(x, labels)
        return self.checks.batch_eval_set(x, labels, self.batch_rows, seed=MERGE_SEED)

    def check_first(self, index: int) -> list[str]:
        ck = self.checks
        pair = self.pairs[index]
        merged, model_a, model_b = (ck.read_model(pair[k]) for k in ("merged", "a", "b"))
        problems = ck.check_between(merged, model_a, model_b)

        test_csv = os.path.join(pair["data"], "test.csv")
        eval_json = os.path.join(self.out, f"eval{index}.json")
        code, text = self.run_cli(["eval", "--model", pair["merged"], "--data", test_csv,
                                   "--out", eval_json])
        x_test, y_test = ck.read_csv(test_csv)
        self.accuracies[index] = ck.accuracy(merged, x_test, y_test)
        if code == 0:
            with open(eval_json, encoding="utf-8") as fh:
                problems += ck.check_eval(merged, x_test, y_test, json.load(fh))
        else:
            problems.append(f"cogram eval exited {code}: {text.strip()}")

        x, labels = ck.read_csv(*(os.path.join(pair["data"], f"data_{s}.csv") for s in "ab"))
        eval_x, eval_y = self.eval_set(x, labels)
        with open(pair["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        shapes = [w.shape for w, _, _ in model_a]
        problems += ck.check_report(report, shapes, ck.cross_entropy(merged, eval_x, eval_y))
        return [f"pair {index}: {p}" for p in problems]

    def accuracy(self) -> float:
        return statistics.fmean(self.accuracies.values())


class MergeWeight(Merge):
    """Descent to single weights on the one-hot prototype set (20 rows)."""

    granularity = "weight"


class MergeNeuronBatch(Merge):
    """Neuron-level merge evaluated on a raw batch of BATCH_ROWS training rows."""

    granularity = "neuron"
    batch_rows = BATCH_ROWS


WORKLOAD_CLASSES = {"sweep": Sweep, "merge-weight": MergeWeight,
                    "merge-neuron-batch": MergeNeuronBatch}


@dataclasses.dataclass
class Tally:
    times: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)


def run_round(workload: Workload, tally: Tally, phase) -> None:
    """Every timed command once; outputs are checked after the clock stops."""
    for index, argv in enumerate(workload.commands()):
        with phase():
            start = time.perf_counter()
            code, text = workload.run_cli(argv)
            tally.times.append(time.perf_counter() - start)
        attempted, failed = workload.operations(index, code)
        tally.attempted += attempted
        tally.failed += failed
        if code == 0:
            tally.problems += workload.check(index)
        else:
            print(f"command {index} exited {code}: {text.strip()}", file=sys.stderr)


def pin_malloc() -> dict:
    """Fix glibc's malloc thresholds; returns the settings it could make."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return {}
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return {name: value for name, (param, value) in MALLOC_SETTINGS.items()
            if mallopt(param, value) == 1}


def settings(malloc: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": THREAD_SETTINGS,
        "malloc": malloc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_CLASSES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    os.environ.update(THREAD_SETTINGS)
    malloc = pin_malloc()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        from cogram import cli
    except ImportError as exc:
        print(f"error: cannot import cogram from {src}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(src, "cogram"):
        print(f"error: cogram was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import checks
    import tracing

    out_dir = os.path.join(ROOT, "bench_out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workload = WORKLOAD_CLASSES[args.workload](cli, checks, out_dir, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    untraced = contextlib.nullcontext
    if tracer is None:
        instrumented = setup_phase = command_phase = untraced
    else:
        instrumented = tracer.installed
        setup_phase = functools.partial(tracer.root, tracing.ROOT_SETUP)
        command_phase = functools.partial(tracer.root, tracing.ROOT_COMMAND)
    reference = Tally()  # the untraced round of a traced run
    tally = Tally()
    try:
        with instrumented():
            setup_times = workload.setup(setup_phase)
        start = time.perf_counter()
        if tracer is not None:
            run_round(workload, reference, untraced)
        with instrumented():
            while not tally.times or time.perf_counter() - start < args.seconds:
                run_round(workload, tally, command_phase)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = tally.attempted + reference.attempted
    failed = tally.failed + reference.failed
    problems = reference.problems + tally.problems

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(tally.times), "s"),
            "acc_merged": (workload.accuracy(), "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        commands = len(workload.commands())
        metrics = {name: (value, _unit(name))
                   for name, value in tracing.layer_metrics(tracer, commands).items()}
        with_trace, without = statistics.median(tally.times), statistics.median(reference.times)
        metrics["trace.wall_s"] = (with_trace, "s")
        metrics["trace.untraced_wall_s"] = (without, "s")
        metrics["trace.overhead_ratio"] = (with_trace / without - 1.0, "ratio")
        tracer.save(os.path.join(out_dir, "spans.npz"))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "settings": settings(malloc), "setup_times_s": setup_times,
        "command_times_s": reference.times + tally.times, "problems": problems,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print("settings: " + json.dumps(record["settings"]))
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
