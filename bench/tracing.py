"""Span tracing of cogram from outside the program.

``Tracer.installed`` replaces every public function of every ``cogram``
module with a wrapper, through the module attribute, so that calls made
inside the program (``netmod.forward(...)``, a module's own globals, names
imported with ``from .x import f``) all go through the wrapper. Each call
records one span: its name (``module.function``), start, end, parent span
and one number the call measured (rows passed to ``net.forward``, rows of
an evaluation set built, neuron and weight decisions a merge kept). Spans
stay in memory, in flat arrays, until the run ends.

``Tracer.root`` opens a span of the benchmark's own around one phase (a
set-up or a timed command); ``layer_metrics`` turns the spans under each
root into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import sys
import time
from array import array

import numpy as np

ROOT_SETUP = "bench.setup"
ROOT_COMMAND = "bench.command"


def _rows_in(args, kwargs, result) -> float:
    inputs = args[1] if len(args) > 1 else kwargs["inputs"]
    shape = np.shape(inputs)
    return float(shape[0]) if len(shape) == 2 else 1.0


def _rows_out(args, kwargs, result) -> float:
    return float(len(result))


def _kept_decisions(args, kwargs, result) -> float:
    _, reports = result
    return float(sum(
        rec.level != "layer" and rec.action != "rolled_back"
        for report in reports for rec in report.records
    ))


# what a span records besides its times, by span name
MEASURES = {
    "net.forward": _rows_in,
    "prototypes.build_prototypes_onehot": _rows_out,
    "prototypes.build_prototypes_kmeans": _rows_out,
    "prototypes.build_raw_batch": _rows_out,
    "merge.cogram_iterate": _kept_decisions,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _recorder(self, name: str):
        """(open, close) for spans of one name, with the arrays bound locally:
        the wrappers run hundreds of thousands of times per command."""
        nid = self._intern(name)
        stack, clock = self._stack, time.perf_counter
        add_name, add_parent, add_start = self.name.append, self.parent.append, self.start.append
        end, add_end, add_value = self.end, self.end.append, self.value.append

        def open_span() -> int:
            idx = len(end)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            add_value(0.0)
            stack.append(idx)
            add_start(clock())
            return idx

        def close_span(idx: int) -> None:
            end[idx] = clock()
            stack.pop()

        return open_span, close_span

    @contextlib.contextmanager
    def root(self, name: str):
        open_span, close_span = self._recorder(name)
        idx = open_span()
        try:
            yield
        finally:
            close_span(idx)

    def _wrap(self, name: str, fn):
        open_span, close_span = self._recorder(name)
        measure = MEASURES.get(name)
        value = self.value

        def wrapper(*args, **kwargs):
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if measure is not None:
                value[idx] = measure(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, package: str = "cogram"):
        """Wrap every public function of the imported ``package`` modules."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", obj)
        patches = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        try:
            yield
        finally:
            for mod, attr, obj in reversed(patches):
                setattr(mod, attr, obj)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end), value=np.asarray(self.value),
        )


class _Spans:
    """Array views of a tracer's spans with the per-root sums the metrics need."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.asarray(tracer.name)
        self.parent = np.asarray(tracer.parent)
        self.dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        self.value = np.asarray(tracer.value)
        self.n = len(self.name)
        idx = np.arange(self.n)
        root = np.where(self.parent < 0, idx, self.parent)
        while True:  # parents precede children; chase to the top-level span
            up = np.where(self.parent[root] < 0, root, self.parent[root])
            if np.array_equal(up, root):
                break
            root = up
        self.root = root

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def module_mask(self, *modules: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] in modules]
        return np.isin(self.name, ids)

    def under(self, mask: np.ndarray) -> np.ndarray:
        """True for spans with a proper ancestor in ``mask``."""
        found = np.zeros(self.n, dtype=bool)
        p = self.parent.copy()
        while (p >= 0).any():
            live = p >= 0
            found[live] |= mask[p[live]]
            p[live] = self.parent[p[live]]
        return found

    def per_root(self, contribution: np.ndarray) -> np.ndarray:
        return np.bincount(self.root, weights=contribution, minlength=self.n)

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        return mask & ~self.under(mask)


def layer_metrics(tracer: Tracer, commands_per_round: int) -> dict[str, float]:
    """Per-layer metrics for one timed command with its share of the set-up.

    Each metric is summed over the spans under each root. The value is the
    set-up roots' total divided by the commands one round runs (so one
    command carries the set-up of its own inputs) plus the median over the
    timed command roots.
    """
    s = _Spans(tracer)
    setup_roots = np.flatnonzero(s.mask(ROOT_SETUP) & (s.parent < 0))
    command_roots = np.flatnonzero(s.mask(ROOT_COMMAND) & (s.parent < 0))

    def combine(per_root: np.ndarray) -> float:
        share = per_root[setup_roots].sum() / commands_per_round
        return float(share + statistics.median(per_root[command_roots]))

    def calls(*names):
        return combine(s.per_root(s.mask(*names).astype(float)))

    def seconds(*names):
        return combine(s.per_root(s.dur * s.outermost(s.mask(*names))))

    def self_seconds(names, children):
        """Time in ``names`` spans minus their outermost ``children`` descendants."""
        own = s.outermost(s.mask(*names))
        inner = children & s.under(own) & ~s.under(children)
        return combine(s.per_root(s.dur * own) - s.per_root(s.dur * inner))

    loss_evals = s.mask("net.cross_entropy_loss", "net.mse_loss") & s.under(
        s.mask("merge.cogram_iterate"))
    n_loss = combine(s.per_root(loss_evals.astype(float)))
    kept = combine(s.per_root(s.value * s.mask("merge.cogram_iterate")))
    decided = calls("merge.merge_neuron_level", "merge.merge_weight_level")
    seed_times = [s.dur[s.mask("cli.run_experiment_seed") & (s.root == r)] for r in command_roots]
    return {
        "net.forward_calls": calls("net.forward"),
        "net.forward_rows": combine(s.per_root(s.value * s.mask("net.forward"))),
        "net.forward_s": seconds("net.forward"),
        "net.set_structure_calls": calls("net.set_structure"),
        "net.set_structure_s": seconds("net.set_structure"),
        "net.backward_calls": calls("net.backward_arrays"),
        "net.backward_s": seconds("net.backward_arrays"),
        "net.model_io_s": seconds("net.load_model", "net.save_model"),
        "training.train_s": seconds("training.train"),
        "training.steps": calls("training.optimizer_step"),
        "training.optimizer_step_s": seconds("training.optimizer_step"),
        "baseline.fisher_s": seconds("baseline.fisher_information", "baseline.fisher_merge"),
        "prototypes.build_s": seconds(*[n for n in MEASURES if n.startswith("prototypes.")]),
        "prototypes.eval_rows": combine(s.per_root(s.value * s.module_mask("prototypes"))),
        "synthdata.generate_s": seconds("synthdata.generate_pair", "synthdata.generate_task"),
        "synthdata.load_csv_s": seconds("synthdata.load_csv"),
        "merge.cogram_s": seconds("merge.cogram_iterate"),
        "merge.self_s": self_seconds(["merge.cogram_iterate"], s.module_mask("net", "prototypes")),
        "merge.loss_evals": n_loss,
        "merge.loss_eval_us": 1e6 * _ratio(combine(s.per_root(s.dur * loss_evals)), n_loss),
        "merge.decisions.layer": calls("merge.merge_layer_level"),
        "merge.decisions.neuron": calls("merge.merge_neuron_level"),
        "merge.decisions.weight": calls("merge.merge_weight_level"),
        "merge.kept_ratio": _ratio(kept, decided),
        "merge.kickoff_s": seconds("merge.gradient_kickoff"),
        "cli.seed_s": statistics.median([float(np.median(t)) if len(t) else 0.0 for t in seed_times]),
        "cli.self_s": self_seconds(["cli.main"], ~s.module_mask("cli", "bench")),
        "trace.spans": combine(s.per_root((s.parent >= 0).astype(float))),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
