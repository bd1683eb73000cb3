"""Correctness checks for the benchmark's outputs, written without cogram.

Everything here reads the files the program wrote (model JSON, CSV
datasets, merge reports, sweep results) with json and numpy only, and
recomputes what it can with its own code: the forward pass, the
accuracy, the evaluation set and its loss. The rest is checked against
properties of the method (convexity of every blend, the mixing rule, the
threshold cases, strict improvement of kept updates). Each check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Relative slack for values the program and this file compute in a
# different summation order; parameters compare by a few ulps.
LOSS_RTOL = 1e-9
PARAM_ULPS = 8
EPSILON = 1e-6  # prototype stabilizer, MergeConfig's default


# --- reading the program's files ----------------------------------------------


def read_model(path) -> list[tuple[np.ndarray, np.ndarray, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [
        (np.array(layer["weights"], dtype=np.float64),
         np.array(layer["biases"], dtype=np.float64),
         layer["activation"])
        for layer in doc["layers"]
    ]


def read_csv(*paths) -> tuple[np.ndarray, np.ndarray]:
    """Features and integer labels of one or more datasets, rows in file order."""
    raw = np.vstack([np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in paths])
    return raw[:, :-1], raw[:, -1].astype(np.int64)


# --- the reference computation --------------------------------------------------


def logits(model, x: np.ndarray) -> np.ndarray:
    a = x
    for weights, biases, activation in model:
        z = a @ weights.T + biases
        if activation == "relu":
            a = np.maximum(z, 0.0)
        elif activation == "tanh":
            a = np.tanh(z)
        elif activation == "identity":
            a = z
        else:
            raise ValueError(f"unknown activation {activation!r}")
    return a


def accuracy(model, x: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits(model, x), axis=1) == labels))


def cross_entropy(model, x: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of one-hot targets; log-sum-exp with max shift."""
    z = logits(model, x)
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(log_norm - z[np.arange(len(labels)), labels]))


def onehot_eval_set(x: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One prototype per class: the geometric mean of |x| + epsilon."""
    classes = np.unique(labels)
    protos = np.stack([
        np.exp(np.log(np.abs(x[labels == c]) + EPSILON).mean(axis=0)) for c in classes
    ])
    return protos, classes


def batch_eval_set(x, labels, size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw-batch mode: a seeded sample of rows without replacement."""
    rows = np.random.default_rng(seed).choice(len(labels), size=size, replace=False)
    return x[rows], labels[rows]


def mixing_factor(delta: float, lam: float) -> float:
    """alpha = 1 / (1 + exp(lam * delta)), without overflow."""
    z = lam * delta
    if z > 0:
        return math.exp(-z) / (1.0 + math.exp(-z))
    return 1.0 / (1.0 + math.exp(z))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# --- checks ---------------------------------------------------------------------


def check_eval(model, x, labels, cogram_eval: dict) -> list[str]:
    """This file's accuracy and loss on a dataset against `cogram eval`.

    Accuracy may differ by one sample, for a logit tie broken by the last bit.
    """
    problems = []
    acc = accuracy(model, x, labels)
    if abs(acc - cogram_eval["accuracy"]) > 1.0 / len(labels) + 1e-12:
        problems.append(f"accuracy {cogram_eval['accuracy']} from cogram eval, {acc} recomputed")
    loss = cross_entropy(model, x, labels)
    if not _close(loss, cogram_eval["loss"], LOSS_RTOL):
        problems.append(f"loss {cogram_eval['loss']} from cogram eval, {loss} recomputed")
    if cogram_eval["n"] != len(labels):
        problems.append(f"cogram eval saw {cogram_eval['n']} rows, the file has {len(labels)}")
    return problems


def check_between(merged, model_a, model_b) -> list[str]:
    """Every merged parameter lies between A's and B's, elementwise.

    The Fisher initializer, every blend and every rollback are convex
    combinations, so nothing may leave the box [min(A, B), max(A, B)]
    by more than a few rounding steps.
    """
    problems = []
    for k, (lm, la, lb) in enumerate(zip(merged, model_a, model_b)):
        for part, (m, a, b) in (("weights", (lm[0], la[0], lb[0])),
                                ("biases", (lm[1], la[1], lb[1]))):
            if not (m.shape == a.shape == b.shape):
                problems.append(f"layer {k} {part}: shapes {m.shape}, {a.shape}, {b.shape}")
                continue
            slack = PARAM_ULPS * np.finfo(np.float64).eps * np.maximum(np.abs(a), np.abs(b))
            outside = (m < np.minimum(a, b) - slack) | (m > np.maximum(a, b) + slack)
            if outside.any():
                problems.append(
                    f"layer {k} {part}: {int(outside.sum())} parameters outside [A, B]"
                )
    if len(merged) != len(model_a) or len(merged) != len(model_b):
        problems.append("models differ in depth")
    return problems


def _expected_case(delta: float, band: dict) -> int:
    tau_min = float(band["tau_min"])
    tau_max = math.inf if band["tau_max"] == "inf" else float(band["tau_max"])
    if abs(delta) < tau_min:
        return 1
    if abs(delta) > tau_max:
        return 2
    return 3


def check_report(report: dict, layer_shapes: list[tuple[int, int]], eval_loss: float) -> list[str]:
    """Decision records against the mixing rule, the threshold bands and rollback.

    ``layer_shapes`` holds (out_dim, in_dim) per layer; ``eval_loss`` is this
    file's loss of the merged model on the recomputed evaluation set.
    """
    problems = []
    cfg = report["config"]
    lam = float(cfg["lambda"])
    deepest = cfg["max_granularity"]
    iterations = report["iterations"]
    if len(iterations) != cfg["iterations"]:
        problems.append(f"{len(iterations)} iterations reported, {cfg['iterations']} configured")
    for it in iterations:
        records = it["records"]
        for i, rec in enumerate(records):
            where = f"record {i} ({rec['level']} {rec['layer']}/{rec['neuron']}/{rec['weight']})"
            delta = rec["L_A"] - rec["L_B"]
            if not _close(rec["delta_L"], delta, 1e-12) and abs(rec["delta_L"] - delta) > 1e-15:
                problems.append(f"{where}: delta {rec['delta_L']} != L_A - L_B = {delta}")
            alpha = mixing_factor(rec["delta_L"], lam)
            if abs(rec["alpha"] - alpha) > 1e-12 * max(alpha, 1e-300) + 1e-300:
                problems.append(f"{where}: alpha {rec['alpha']}, rule gives {alpha}")
            case = _expected_case(rec["delta_L"], cfg["thresholds"][rec["level"]])
            if rec["case"] != case:
                problems.append(f"{where}: case {rec['case']}, band gives {case}")
            kept_needs_gain = rec["level"] in ("neuron", "weight") and rec["action"] != "rolled_back"
            if kept_needs_gain and not rec["L_post"] < rec["L_pre"]:
                problems.append(f"{where}: kept with L_post {rec['L_post']} >= L_pre {rec['L_pre']}")
            if rec["action"] == "rolled_back" and rec["L_post"] < rec["L_pre"]:
                problems.append(f"{where}: rolled back although L_post < L_pre")
            descends = _descends(rec, deepest)
            if rec["action"] == "refined" and not descends:
                problems.append(f"{where}: refined inside the band or at the deepest level")
            if rec["action"] == "merged" and descends:
                problems.append(f"{where}: merged outside the band above the deepest level")
        problems += _check_structure(records, layer_shapes, deepest)
        problems += _check_running_loss(records)
        if not all(math.isfinite(v) and v > 0 for v in (it["loss_before"], it["loss_after"])):
            problems.append(f"losses before/after not finite positive: {it['loss_before']}, {it['loss_after']}")
    if iterations and not _close(iterations[-1]["loss_after"], eval_loss, LOSS_RTOL):
        problems.append(
            f"report loss_after {iterations[-1]['loss_after']}, recomputed {eval_loss}"
        )
    return problems


def _key(rec: dict) -> tuple:
    return rec["level"], rec["layer"], rec["neuron"], rec["weight"]


def _descends(rec: dict, deepest: str) -> bool:
    """Outside the band (case 1 or 2) a structure above the deepest level is refined."""
    return rec["case"] != 3 and rec["level"] != deepest and rec["level"] != "weight"


def _check_structure(records, layer_shapes, deepest) -> list[str]:
    """Layers back to front; every refined structure is followed by all its parts."""
    layers = [r["layer"] for r in records if r["level"] == "layer"]
    if layers != list(reversed(range(len(layer_shapes)))):
        return [f"layer records in order {layers}"]
    problems = []
    parts = {"neuron": 0, "weight": 0}
    for i, rec in enumerate(records):
        if not _descends(rec, deepest):
            continue
        out_dim, in_dim = layer_shapes[rec["layer"]]
        if rec["level"] == "layer":
            want = [("neuron", rec["layer"], n, None) for n in range(out_dim)]
            got = [_key(r) for r in records[i + 1:]
                   if r["level"] == "neuron" and r["layer"] == rec["layer"]]
        else:
            want = [("weight", rec["layer"], rec["neuron"], w) for w in range(in_dim + 1)]
            got = [_key(r) for r in records[i + 1:i + 2 + in_dim]]
        parts[want[0][0]] += len(want)
        if got != want:
            problems.append(f"{rec['level']} {rec['layer']}/{rec['neuron']} refined "
                            "without one record per part, in order")
    for level, count in parts.items():
        found = sum(r["level"] == level for r in records)
        if found != count:
            problems.append(f"{found} {level} records, refinement accounts for {count}")
    return problems


def _check_running_loss(records) -> list[str]:
    """Within one refined neuron, each weight starts from the loss the last one left."""
    problems = []
    previous = None
    for rec in records:
        if rec["level"] != "weight":
            previous = None
            continue
        if previous is not None:
            left = previous["L_post"] if previous["action"] == "merged" else previous["L_pre"]
            if rec["L_pre"] != left:
                problems.append(
                    f"weight {rec['layer']}/{rec['neuron']}/{rec['weight']}: L_pre {rec['L_pre']} "
                    f"!= loss left by the previous weight {left}"
                )
        previous = rec
    return problems


def check_sweep(doc: dict, seeds: list[int], test_sizes: dict[int, int]) -> list[str]:
    """One ok row per seed; accuracies in [0, 1] and whole counts of the test
    set; prototype losses finite and positive."""
    problems = []
    rows = doc["rows"]
    if sorted(r["seed"] for r in rows) != sorted(seeds):
        problems.append(f"rows for seeds {[r['seed'] for r in rows]}, expected {sorted(seeds)}")
    for row in rows:
        if row["status"] != "ok":
            problems.append(f"seed {row['seed']}: status {row['status']} ({row['error']})")
            continue
        n = test_sizes[row["seed"]]
        accs = {"acc_A": row["acc_A"], "acc_B": row["acc_B"], **row["accuracies"]}
        for name, acc in accs.items():
            if not 0.0 <= acc <= 1.0 or abs(acc * n - round(acc * n)) > 1e-6:
                problems.append(f"seed {row['seed']}: {name} = {acc} is no share of {n} test rows")
        for name, loss in row["eval_losses"].items():
            if not (math.isfinite(loss) and loss > 0):
                problems.append(f"seed {row['seed']}: loss {name} = {loss}")
    return problems
