"""Whole-dataset passes run in row blocks and stay bounded in memory.

``forward`` without a workspace runs the forward loop over blocks of at most
``net.BLOCK_ROWS`` rows. Its logits, the losses built on it and
``training.accuracy`` must equal a one-shot pass over all rows, bit for bit:
the reference below is the allocating forward pass as it was before row
blocks, kept verbatim, so a change to net's shared loop cannot move the
reference along with it. The memory bounds are measured with tracemalloc,
which sees numpy's array allocations.
"""

import tracemalloc

import numpy as np
import pytest

from cogram import merge, net as netmod, training
from cogram.merge import DecisionRecord, MergeConfig, MergeReport
from cogram.net import DenseLayer, Network
from cogram.synthdata import Dataset


def _ref_apply_activation(z, activation, inplace=False):
    out = z if inplace else None
    if activation == "relu":
        return np.maximum(z, 0.0, out=out)
    if activation == "tanh":
        return np.tanh(z, out=out)
    return z


def _ref_forward(net, x):
    """The one-shot allocating forward pass: every layer over all rows at once."""
    acts = [np.empty((x.shape[0], out_dim)) for out_dim, _ in net._shapes]
    a = x
    for (weights, biases, activation), out in zip(net._plan, acts):
        np.matmul(a, weights, out=out)
        out += biases
        a = _ref_apply_activation(out, activation, inplace=True)
    return a


ROWS = [1, 511, 512, 513, 3 * 512 + 7]
SIZES = [33, 64, 40, 7]
# Layers of fewer than 5 outputs fed by 32 or more inputs: blocked, these
# row counts would put some blocks on OpenBLAS's small-matrix kernel and the
# whole pass on its gemm, so such networks run in one block. 5 outputs is
# the narrowest layer that is blocked.
NARROW = [[32, 64, c] for c in (1, 2, 3, 5)] + [[32, 3, 64, 7]]
CASES = [(n, SIZES) for n in ROWS] + [(n, s) for s in NARROW for n in (700, 1100, 3000)]


def _network(hidden, output, seed=0, sizes=SIZES):
    rng = np.random.default_rng(seed)
    layers = [
        DenseLayer(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)),
                   rng.normal(0.0, 0.1, size=fan_out),
                   output if k == len(sizes) - 2 else hidden)
        for k, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:]))
    ]
    return Network(layers, sizes[0], sizes[-1])


def _rows(n, seed=1, sizes=SIZES):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, sizes[-1], size=n)
    return rng.normal(size=(n, sizes[0])), labels


@pytest.mark.parametrize("n, sizes", CASES)
@pytest.mark.parametrize("hidden", ["relu", "tanh"])
@pytest.mark.parametrize("output", ["relu", "tanh", "identity"])
def test_blocked_passes_equal_one_shot_reference(n, sizes, hidden, output):
    net = _network(hidden, output, sizes=sizes)
    x, labels = _rows(n, sizes=sizes)
    ref = _ref_forward(net, x)
    logits = netmod.forward(net, x)
    assert logits.shape == (n, sizes[-1])
    assert logits.tobytes() == ref.tobytes()
    dataset = Dataset(x, labels, sizes[-1])
    for kind, lossf in (("cross_entropy", netmod.cross_entropy_loss), ("mse", netmod.mse_loss)):
        expected = netmod._loss_of_logits(kind, _ref_forward(net, x), labels)
        assert lossf(net, dataset) == expected
    expected = float(np.mean(np.argmax(ref, axis=1) == labels))
    assert training.accuracy(net, dataset) == expected


def test_one_row_and_zero_rows():
    net = _network("relu", "identity")
    x, _ = _rows(3)
    assert netmod.forward(net, x[1:2]).tobytes() == _ref_forward(net, x[1:2]).tobytes()
    empty = netmod.forward(net, np.zeros((0, SIZES[0])))
    assert empty.shape == (0, SIZES[-1])


def _spy_blocks(monkeypatch, net, n):
    """Runs ``forward`` over ``n`` rows; per call of the loop, its rows, the
    rows of each buffer and each buffer's address."""
    calls = []

    def spy(plan, a, acts):
        calls.append((a.shape[0], [b.shape[0] for b in acts], [b.ctypes.data for b in acts]))
        return loop(plan, a, acts)

    loop = netmod._forward_into
    monkeypatch.setattr(netmod, "_forward_into", spy)
    x, _ = _rows(n, sizes=[net.input_dim, net.num_classes])
    return netmod.forward(net, x), calls


@pytest.mark.parametrize("n, sizes", [
    (1, [1]), (512, [512]), (513, [256, 257]), (1024, [512, 512]),
    (3 * 512 + 7, [385, 386, 386, 386]), (4000, [500] * 8),
])
def test_blocks_are_even_and_run_through_the_one_loop(monkeypatch, n, sizes):
    logits, calls = _spy_blocks(monkeypatch, _network("relu", "identity"), n)
    assert [rows for rows, _, _ in calls] == sizes
    assert all(set(shapes) == {rows} for rows, shapes, _ in calls)
    # every block runs into the same hidden-layer buffers, and its logits
    # straight into its rows of the result
    assert len({tuple(data[:-1]) for _, _, data in calls}) == 1
    starts = np.cumsum([0] + sizes[:-1])
    row_bytes = SIZES[-1] * logits.itemsize
    assert [data[-1] for _, _, data in calls] == [logits.ctypes.data + s * row_bytes for s in starts]


@pytest.mark.parametrize("sizes, blocks", [
    ([32, 64, 4], 1), ([32, 4, 64, 7], 1), ([32, 64, 5], 6), ([32, 5, 64, 7], 6),
])
def test_a_layer_under_the_blocked_width_keeps_the_pass_whole(monkeypatch, sizes, blocks):
    _, calls = _spy_blocks(monkeypatch, _network("relu", "identity", sizes=sizes), 3000)
    assert len(calls) == blocks and sum(rows for rows, _, _ in calls) == 3000


def test_accuracy_peaks_below_one_hidden_layer_of_all_rows():
    sizes = [16, 64, 64, 10]
    net = _network("relu", "identity", sizes=sizes)
    x, labels = _rows(8 * 512, sizes=sizes)
    data = Dataset(x, labels, sizes[-1])
    tracemalloc.start()
    try:
        training.accuracy(net, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(data) * 64 * 8  # one (N, 64) float64 array


def _weight_report(records=2000, seed=0):
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(records):
        loss_a, loss_b, pre, post = map(float, rng.uniform(0.0, 3.0, size=4))
        alpha = merge.mixing_factor(loss_a - loss_b, 5.5)
        recs.append(DecisionRecord(
            level="weight", layer=i % 3, neuron=i % 64, weight=i % 33, loss_a=loss_a,
            loss_b=loss_b, delta=loss_a - loss_b, case=2, alpha=alpha,
            action="rolled_back" if post >= pre else "merged", loss_pre=pre, loss_post=post,
        ))
    config = MergeConfig(max_granularity="weight")
    return [MergeReport(recs, 1.25, 0.75, 3.5)], config


def test_write_report_peaks_below_the_length_of_its_text(tmp_path):
    reports, config = _weight_report()
    path = tmp_path / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            merge.write_report(fh, reports, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    assert text == merge.reports_to_json(reports, config)
    assert peak < len(text)
