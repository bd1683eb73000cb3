"""The reference merge engine of the tests: the straightforward engine,
which builds every candidate as a new network from copies of the layers'
arrays, through its own block writer, and scores it with a full forward pass
from the input, through its own copy of the allocating forward pass and loss
kernel, kept verbatim, so a change to net's shared kernel cannot move the
reference along with the engine.

``assert_matches_reference`` checks a merge's network and reports against
it bit for bit. A rollback that does not restore its bits shows up there,
because the reference builds every candidate from scratch.
"""

import math

import numpy as np

from cogram import merge, net as netmod
from cogram.merge import DecisionRecord, MergeReport, classify_case, convex_combine, mixing_factor


def _ref_forward(net, x):
    a = x
    for layer in net.layers:
        z = a @ layer.weights.T
        z += layer.biases
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.activation == "tanh":
            a = np.tanh(z)
        else:
            a = z
    return a


def _ref_log_softmax(z):
    if not np.isfinite(z).all():
        raise ValueError("log_softmax requires finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    shifted -= np.log(e.sum(axis=-1, keepdims=True))
    return shifted


def ref_loss(kind):
    def lossf(net, eval_set):
        x = np.asarray(eval_set.features, dtype=np.float64)
        if x.shape[0] == 0:
            raise ValueError("empty evaluation set")
        logits = _ref_forward(net, x)
        targets = np.eye(logits.shape[-1])[eval_set.labels]  # the labels' one-hot targets
        if kind == "cross_entropy":
            return float(-np.mean(np.sum(targets * _ref_log_softmax(logits), axis=-1)))
        return float(np.mean((logits - targets) ** 2))

    return lossf


def block_of(net, k, key):
    """Layer k's block at ``key``, ``()`` for the layer, ``(i,)`` for neuron i
    or ``(i, j)`` for one weight: the layer's weights with its biases as the
    last column, cut by the key."""
    layer = net.layers[k]
    return np.column_stack([layer.weights, layer.biases])[key]


def with_block(net, k, key, block):
    """A new network built from copies of ``net``'s layers, with layer k's
    block at ``key`` replaced by ``block``."""
    layers = []
    for i, layer in enumerate(net.layers):
        wb = np.column_stack([layer.weights, layer.biases])
        if i == k:
            wb[key] = block
        layers.append(netmod.DenseLayer(wb[:, :-1], wb[:, -1], layer.activation))
    return netmod.Network(layers, net.input_dim, net.num_classes)


def _ref_decide(m, k, key, a, b, config, eval_set):
    lossf = ref_loss(config.loss)
    l_a = lossf(with_block(m, k, key, block_of(a, k, key)), eval_set)
    l_b = lossf(with_block(m, k, key, block_of(b, k, key)), eval_set)
    delta = l_a - l_b
    band = config.thresholds.for_level(("layer", "neuron", "weight")[len(key)])
    case = classify_case(delta, band.tau_min, band.tau_max)
    alpha = mixing_factor(delta, config.lam)
    fused = convex_combine(block_of(a, k, key), block_of(b, k, key), alpha)
    return l_a, l_b, delta, case, alpha, fused


def _ref_weight(m, k, n, w, a, b, config, eval_set, records, loss_pre):
    l_a, l_b, delta, case, alpha, fused = _ref_decide(m, k, (n, w), a, b, config, eval_set)
    candidate = with_block(m, k, (n, w), fused)
    loss_post = ref_loss(config.loss)(candidate, eval_set)
    if loss_post < loss_pre:
        action, m, current = "merged", candidate, loss_post
    else:
        action, current = "rolled_back", loss_pre
    records.append(DecisionRecord("weight", k, n, w, l_a, l_b, delta, case, alpha,
                                  action, loss_pre, loss_post))
    return m, current


def _ref_neuron(m, k, n, a, b, config, eval_set, records):
    lossf = ref_loss(config.loss)
    loss_pre = lossf(m, eval_set)
    l_a, l_b, delta, case, alpha, fused = _ref_decide(m, k, (n,), a, b, config, eval_set)
    if case == 3 or config.max_granularity == "neuron":
        candidate = with_block(m, k, (n,), fused)
        loss_post = lossf(candidate, eval_set)
        action = "merged" if loss_post < loss_pre else "rolled_back"
        records.append(DecisionRecord("neuron", k, n, None, l_a, l_b, delta, case, alpha,
                                      action, loss_pre, loss_post))
        return candidate if action == "merged" else m
    rec = DecisionRecord("neuron", k, n, None, l_a, l_b, delta, case, alpha,
                         "refined", loss_pre, None)
    records.append(rec)
    work = with_block(m, k, (n,), fused)
    running = lossf(work, eval_set)
    for w in range(m.layers[k].in_dim + 1):
        work, running = _ref_weight(work, k, n, w, a, b, config, eval_set, records, running)
    rec.loss_post = running
    if running < loss_pre:
        return work
    rec.action = "rolled_back"
    return m


def _ref_layer(m, k, a, b, config, eval_set, records):
    l_a, l_b, delta, case, alpha, fused = _ref_decide(m, k, (), a, b, config, eval_set)
    m = with_block(m, k, (), fused)
    refine = case != 3 and config.max_granularity != "layer"
    records.append(DecisionRecord("layer", k, None, None, l_a, l_b, delta, case, alpha,
                                  "refined" if refine else "merged"))
    if refine:
        for n in range(m.layers[k].out_dim):
            m = _ref_neuron(m, k, n, a, b, config, eval_set, records)
    return m


def reference_iterate(m, a, b, config, eval_set):
    lossf = ref_loss(config.loss)
    reports = []
    for _ in range(config.iterations):
        report = MergeReport([], lossf(m, eval_set), math.nan, 0.0)
        for k in reversed(range(len(m.layers))):
            m = _ref_layer(m, k, a, b, config, eval_set, report.records)
        report.loss_after = lossf(m, eval_set)
        reports.append(report)
    return m, reports


def _report_text(reports, config):
    for rep in reports:
        rep.wall_time_s = 0.0
    return merge.reports_to_json(reports, config)


def assert_matches_reference(m, a, b, config, eval_set, merged, reports):
    """``merged`` and ``reports``, the engine's merge of A and B from M, are
    the reference's, bit for bit."""
    expected, ref_reports = reference_iterate(m, a, b, config, eval_set)
    # float repr round-trips, so equal text means equal bits
    assert netmod.serialize(merged) == netmod.serialize(expected)
    assert _report_text(reports, config) == _report_text(ref_reports, config)
