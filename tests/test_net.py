import json
import math

import numpy as np
import pytest

from cogram import net as netmod
from cogram.net import (
    DenseLayer,
    FormatError,
    Network,
    ShapeError,
    backward_arrays,
    cross_entropy_arrays,
    forward,
    mse_loss,
    random_network,
    softmax,
)
from cogram.synthdata import Dataset
from conftest import assert_gradients_match_finite_differences


def _param_bytes(net):
    return b"".join(l.weights.tobytes() + l.biases.tobytes() for l in net.layers)


# --- forward -----------------------------------------------------------------


def test_forward_identity_net():
    net = Network([DenseLayer(np.eye(4), np.zeros(4), "identity")], 4, 4)
    v = np.array([[1.5, -2.0, 0.0, 3.25]])
    assert np.array_equal(forward(net, v), v)


def test_forward_zero_net_annihilates():
    net = Network([DenseLayer(np.zeros((3, 5)), np.zeros(3), "identity")], 5, 3)
    rng = np.random.default_rng(0)
    out = forward(net, rng.normal(size=(7, 5)))
    assert np.array_equal(out, np.zeros((7, 3)))


def test_forward_matches_handrolled_oracle():
    rng = np.random.default_rng(42)
    net = random_network([32, 16, 20], seed=7)
    x = rng.normal(size=(5, 32))
    got = forward(net, x)

    # independent oracle: explicit per-sample, per-neuron loops
    expected = np.zeros((5, 20))
    for s in range(5):
        a = list(x[s])
        for layer in net.layers:
            z = []
            for i in range(layer.out_dim):
                acc = float(layer.biases[i])
                for j in range(layer.in_dim):
                    acc += float(layer.weights[i, j]) * a[j]
                z.append(acc)
            if layer.activation == "relu":
                a = [max(v, 0.0) for v in z]
            elif layer.activation == "tanh":
                a = [math.tanh(v) for v in z]
            else:
                a = z
        expected[s] = a
    rel = np.abs(got - expected) / np.maximum(np.abs(expected), 1e-30)
    assert rel.max() < 1e-12


def test_forward_is_pure():
    net = random_network([6, 5, 3], seed=1)
    before = _param_bytes(net)
    forward(net, np.random.default_rng(2).normal(size=(10, 6)))
    assert _param_bytes(net) == before


def test_forward_rejects_bad_input_shape():
    net = random_network([6, 5, 3], seed=1)
    for bad in (np.zeros((4, 7)), np.zeros(6), np.zeros((1, 4, 6))):
        with pytest.raises(ShapeError):
            forward(net, bad)


# --- softmax -----------------------------------------------------------------


def test_softmax_uniform_on_equal_logits():
    for c in (2, 5, 20):
        out = softmax(np.full(c, 3.7))
        assert np.allclose(out, 1.0 / c, atol=1e-15)
        assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_closed_form():
    out = softmax(np.array([0.0, math.log(3.0)]))
    assert abs(out[0] - 0.25) < 1e-15
    assert abs(out[1] - 0.75) < 1e-15


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=8)
        for shift in (1.0, 500.0, 1000.0):
            assert np.allclose(softmax(v), softmax(v + shift), atol=1e-12)


def test_softmax_sums_to_one_property():
    rng = np.random.default_rng(4)
    for _ in range(50):
        # moderate scale keeps entries strictly inside (0, 1); larger scales
        # saturate to exactly 0/1 in float64 and are covered below
        v = rng.normal(scale=rng.uniform(0.1, 3.0), size=rng.integers(2, 30))
        out = softmax(v)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out > 0) and np.all(out < 1)


def test_softmax_extreme_logits_saturate_cleanly():
    out = softmax(np.array([0.0, 5000.0, -5000.0]))
    assert np.isfinite(out).all()
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        softmax(np.array([0.0, np.inf]))


# --- losses ------------------------------------------------------------------


def test_cross_entropy_uniform_predictor_is_log_c():
    c = 20
    net = Network([DenseLayer(np.zeros((c, 32)), np.zeros(c), "identity")], 32, c)
    es = Dataset(np.random.default_rng(0).normal(size=(c, 32)), np.arange(c), c)
    assert abs(netmod.cross_entropy_loss(net, es) - math.log(20)) < 1e-12


def test_cross_entropy_perfect_prediction_limit():
    # margin 20 -> wrong-class mass ~ 5 * e^-20 ~ 1e-8, so loss -> 0+
    c = 6
    net = Network([DenseLayer(20.0 * np.eye(c), np.zeros(c), "identity")], c, c)
    es = Dataset(np.eye(c), np.arange(c), c)
    loss = netmod.cross_entropy_loss(net, es)
    assert 0.0 < loss < 1e-7


def test_cross_entropy_equals_mean_of_per_sample_oracle():
    rng = np.random.default_rng(11)
    net = random_network([7, 6, 4], seed=3)
    es = Dataset(rng.normal(size=(5, 7)), rng.integers(0, 4, size=5), 4)
    got = netmod.cross_entropy_loss(net, es)

    # oracle: per-sample softmax probabilities, direct log, then average
    per_sample = []
    for k in range(5):
        [logits] = forward(net, es.features[k : k + 1])
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        per_sample.append(-float(np.log(p[es.labels[k]])))
    assert abs(got - np.mean(per_sample)) < 1e-12


def test_cross_entropy_rejects_empty():
    net = random_network([4, 3], seed=0)
    with pytest.raises(ValueError, match="^empty dataset$"):
        cross_entropy_arrays(net, np.zeros((0, 4)), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="^empty evaluation set$"):
        backward_arrays(net, np.zeros((0, 4)), np.zeros(0, dtype=int))


def test_mse_zero_when_outputs_equal_targets():
    # the identity network's outputs are the one-hot targets of the labels
    net = Network([DenseLayer(np.eye(3), np.zeros(3), "identity")], 3, 3)
    labels = np.array([0, 2, 1, 1])
    assert mse_loss(net, Dataset(np.eye(3)[labels], labels, 3)) == 0.0


def test_mse_single_prototype_value():
    # output (3, 0.5) vs target (0, 1): (9 + 0.25) / 2 = 4.625
    net = Network([DenseLayer(np.eye(2), np.zeros(2), "identity")], 2, 2)
    assert mse_loss(net, Dataset(np.array([[3.0, 0.5]]), [1], 2)) == 4.625


def test_mse_quadratic_homogeneity():
    # residuals d from the one-hot targets, then 2d: the loss scales by 4
    net = Network([DenseLayer(np.eye(2), np.zeros(2), "identity")], 2, 2)
    labels = np.array([1, 0])
    d = np.array([[1.0, -2.0], [0.5, 3.0]])
    base = mse_loss(net, Dataset(np.eye(2)[labels] + d, labels, 2))
    scaled = mse_loss(net, Dataset(np.eye(2)[labels] + 2.0 * d, labels, 2))
    assert abs(scaled - 4.0 * base) < 1e-12


# --- bad labels ---------------------------------------------------------------


def _labelled_rows():
    rng = np.random.default_rng(0)
    return random_network([4, 5, 3], seed=0), rng.normal(size=(6, 4)), rng.integers(0, 3, size=6)


@pytest.mark.parametrize("lossf", [netmod.cross_entropy_loss, mse_loss])
def test_losses_refuse_a_dataset_of_another_class_count(lossf):
    # a dataset itself refuses labels that are not whole numbers or are out
    # of range (see test_synthdata)
    net, x, labels = _labelled_rows()
    for classes in (2, 4):
        es = Dataset(x, labels % classes, classes)
        for work in (None, netmod.Workspace(net, 6)):
            with pytest.raises(ShapeError, match=f"^a dataset of {classes} classes does not "
                                                 "fit a network of 3 logits$"):
                lossf(net, es, work=work)


BAD_LABELS = {
    "fewer": (lambda y: y[:5], ShapeError, r"^labels of shape \(5,\) do not fit rows \(6,\)$"),
    "column": (lambda y: y[:, None], ShapeError,
               r"^labels of shape \(6, 1\) do not fit rows \(6,\)$"),
    "stacked": (lambda y: np.stack([y] * 2), ShapeError,
                r"^labels of shape \(2, 6\) do not fit rows \(6,\)$"),
    "float": (lambda y: y.astype(float), ValueError, "^labels must be integers, got float64$"),
    "bool": (lambda y: y == 1, ValueError, "^labels must be integers, got bool$"),
    # a negative label never wraps to the last class
    "negative": (lambda y: np.where(y == 2, -1, y), ValueError,
                 r"^label -1 is outside the label range 0\.\.2$"),
    "too_large": (lambda y: np.where(y == 2, 3, y), ValueError,
                  r"^label 3 is outside the label range 0\.\.2$"),
}


@pytest.mark.parametrize("bad", BAD_LABELS)
@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
def test_backprop_refuses_bad_labels(loss, bad):
    net, x, labels = _labelled_rows()
    change, error, message = BAD_LABELS[bad]
    for work in (None, netmod.Workspace(net, 6, backprop=True)):
        with pytest.raises(error, match=message):
            backward_arrays(net, x, change(labels), loss=loss, work=work)


def test_cross_entropy_arrays_takes_only_one_hot_targets():
    net, x, labels = _labelled_rows()
    for targets in (np.full((6, 3), 1.0 / 3), np.eye(3)[labels][:, :2], np.eye(3)[labels][0]):
        with pytest.raises(ValueError, match="^targets must be one-hot rows"):
            cross_entropy_arrays(net, x, targets)
    assert cross_entropy_arrays(net, x, np.eye(3)[labels]) == \
        netmod.cross_entropy_loss(net, Dataset(x, labels, 3))


def test_stacked_backprop_refuses_labels_of_another_stack_size():
    net = random_network([4, 5, 3], seed=0)
    stack = netmod.NetworkStack(net, np.tile(net.theta, (2, 1)))
    x = np.random.default_rng(0).normal(size=(2, 6, 4))
    with pytest.raises(ShapeError, match=r"^labels of shape \(3, 6\) do not fit rows \(2, 6\)$"):
        backward_arrays(stack, x, np.zeros((3, 6), dtype=int))


def test_loss_function_by_name():
    assert netmod.loss_function("cross_entropy") is netmod.cross_entropy_loss
    assert netmod.loss_function("mse") is netmod.mse_loss
    with pytest.raises(ValueError, match="unknown loss"):
        netmod.loss_function("hinge")


# --- workspaces --------------------------------------------------------------


def _workspace_case(activation, rows, labels="random", seed=0):
    """A network with nonzero biases and a set of ``rows`` rows, labelled at
    random or all with the last class (the last entry of the flat logits)."""
    rng = np.random.default_rng(seed)
    net = random_network([6, 8, 7, 5], seed, hidden_activation=activation)
    layers = [DenseLayer(l.weights, rng.normal(scale=0.1, size=l.out_dim), l.activation)
              for l in net.layers]
    net = Network(layers, net.input_dim, net.num_classes)
    classes = rng.integers(0, 5, size=rows) if labels == "random" else np.full(rows, 4)
    return net, Dataset(rng.normal(size=(rows, 6)), classes, 5)


@pytest.mark.parametrize("rows", [1, 37])
@pytest.mark.parametrize("labels", ["random", "last"])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_workspace_matches_allocating_call_bit_for_bit(activation, labels, rows):
    net, es = _workspace_case(activation, rows, labels)
    work = netmod.Workspace(net, rows)
    for lossf in (netmod.cross_entropy_loss, netmod.mse_loss):
        assert lossf(net, es, work=work) == lossf(net, es)
    logits = forward(net, es.features)
    assert forward(net, es.features, work=work).tobytes() == logits.tobytes()
    assert forward(net, es.features[:1], work=netmod.Workspace(net, 1)).tobytes() == \
        forward(net, es.features[:1]).tobytes()


def test_workspace_reused_across_networks_keeps_no_state():
    (n1, es), (n2, _) = _workspace_case("relu", 9, seed=1), _workspace_case("relu", 9, seed=2)
    work = netmod.Workspace(n1, 9)
    for lossf in (netmod.cross_entropy_loss, netmod.mse_loss):
        expected = lossf(n1, es), lossf(n2, es)
        assert expected[0] != expected[1]
        assert (lossf(n1, es, work=work), lossf(n2, es, work=work)) == expected
        assert (lossf(n2, es, work=work), lossf(n1, es, work=work)) == expected[::-1]


def _overflowing(bad, rows):
    """A network and ``rows`` finite rows whose logit 1 of the middle row is
    ``bad`` (nan, inf or -inf): its weights of 1e308 overflow."""
    weights = np.eye(3)
    weights[1, 1:] = 1e308
    net = Network([DenseLayer(weights, np.zeros(3), "identity")], 3, 3)
    inputs = np.zeros((rows, 3))
    inputs[:, 0] = np.random.default_rng(0).normal(size=rows)
    inputs[rows // 2, 1:] = (10.0, -10.0) if np.isnan(bad) else (10.0 * np.sign(bad), 0.0)
    return net, Dataset(inputs, np.arange(rows) % 3, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_workspace_rejects_non_finite_logits_like_the_allocating_call(bad):
    net, es = _overflowing(bad, 2)
    for work in (None, netmod.Workspace(net, 2)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="^log_softmax requires finite logits$"):
            netmod.cross_entropy_loss(net, es, work=work)


def _one_hot_losses(logits, labels):
    """The cross-entropy and the squared error against the one-hot targets of
    ``labels``, in plain numpy: one reduction per row over its classes, then
    np.mean's sum over the rows; a list for stacked logits."""
    targets = np.eye(logits.shape[-1])[labels]
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    per_row = np.sum(targets * logp, axis=-1)
    squares = (logits - targets) ** 2
    if logits.ndim == 2:
        return {"cross_entropy": -float(np.sum(per_row) / per_row.size),
                "mse": float(np.mean(squares))}
    return {"cross_entropy": [-float(np.sum(v) / v.size) for v in per_row],
            "mse": [float(np.mean(v)) for v in squares]}


def _one_hot_gradient(theta, x, labels, kind):
    """The gradient of a one-layer network whose parameters are ``theta``
    (the (C, d) weights, then the biases) on rows ``x`` with ``labels``, from
    the one-hot delta formula in plain numpy."""
    classes, d = theta.size // (x.shape[-1] + 1), x.shape[-1]
    weights, biases = theta[: classes * d].reshape(classes, d), theta[classes * d :]
    logits = x @ weights.T
    logits += biases
    targets = np.eye(biases.size)[labels]
    n = len(x)
    if kind == "cross_entropy":
        e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
        delta = (e / np.sum(e, axis=-1, keepdims=True) - targets) / n
    else:
        delta = 2.0 * (logits - targets) / (n * biases.size)
    return np.concatenate([(delta.T @ x).ravel(), delta.sum(axis=0)])


CLASS_COUNTS = [*range(1, 41), 63, 64, 65, 127, 128, 129, 130, 257]


@pytest.mark.parametrize("classes", CLASS_COUNTS)
def test_class_major_cross_entropy_equals_the_row_major_kernel(classes):
    # both kernels against the one-hot formula, bit for bit: the row-major one
    # under BLOCK_ROWS rows and with backprop, the class-major one from
    # BLOCK_ROWS rows, whose sums follow numpy's pairwise order for every
    # class count (under 8, 8-128, above); an odd row count runs a stack of
    # two, with shared labels and with labels of each network's own
    rng = np.random.default_rng(classes)
    net = random_network([2, classes], 0)
    for rows in (1, 37, netmod.BLOCK_ROWS - 1, netmod.BLOCK_ROWS, 1000, 2047, 4000):
        stack = (2,) if rows % 2 else ()
        spread = 10.0 ** rng.uniform(-3, 3, size=stack + (rows, 1))  # per row, 1e-3 to 1e3
        logits = rng.normal(size=stack + (rows, classes)) * spread
        before = logits.tobytes()
        for labels in (rng.integers(0, classes, size=rows),
                       rng.integers(0, classes, size=stack + (rows,)),
                       np.full(rows, classes - 1)):
            expected = _one_hot_losses(logits, labels)
            for kind in ("cross_entropy", "mse"):
                for work in (None, netmod.Workspace(net, rows, *stack),
                             netmod.Workspace(net, rows, *stack, backprop=True)):
                    got = netmod._loss_of_logits(kind, logits, labels, work)
                    assert got == expected[kind], (rows, stack, kind, work is None)
                    assert logits.tobytes() == before  # no loss writes into its logits
        if rows > 1000:
            continue
        thetas = net.theta + rng.normal(size=stack + net.theta.shape)
        model = netmod.NetworkStack(net, thetas) if stack else net.with_theta(thetas)
        x = rng.normal(size=stack + (rows, 2))
        for labels in (rng.integers(0, classes, size=rows),
                       rng.integers(0, classes, size=stack + (rows,))):
            for kind in ("cross_entropy", "mse"):
                for work in (None, netmod.Workspace(net, rows, *stack, backprop=True)):
                    _, grad = backward_arrays(model, x, labels, loss=kind, work=work)
                    for s in np.ndindex(stack):
                        own = labels[s] if labels.ndim > 1 else labels
                        want = _one_hot_gradient(thetas[s], x[s], own, kind)
                        assert grad[s].tobytes() == want.tobytes(), (rows, s, kind)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_class_major_cross_entropy_rejects_non_finite_logits(bad):
    rows = netmod.BLOCK_ROWS
    net, es = _overflowing(bad, rows)
    for work in (None, netmod.Workspace(net, rows)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="^log_softmax requires finite logits$"):
            netmod.cross_entropy_loss(net, es, work=work)


def test_workspace_of_other_rows_or_widths_is_rejected():
    net, es = _workspace_case("relu", 4)
    wider = random_network([6, 9, 7, 5], 0)
    for work in (netmod.Workspace(net, 3), netmod.Workspace(net, 1), netmod.Workspace(wider, 4)):
        with pytest.raises(ShapeError):
            netmod.cross_entropy_loss(net, es, work=work)
        with pytest.raises(ShapeError):
            forward(net, es.features, work=work)
    for work in (netmod.Workspace(net, 4), netmod.Workspace(net, 3, backprop=True),
                 netmod.Workspace(net, 4, 1, backprop=True)):
        with pytest.raises(ShapeError, match="workspace"):
            backward_arrays(net, es.features, es.labels, work=work)


@pytest.mark.parametrize("rows", [1, 37])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_network_stack_scores_each_network_like_its_own(activation, rows):
    net, es = _workspace_case(activation, rows)
    rng = np.random.default_rng(1)
    thetas = net.theta + rng.normal(size=(3, net.theta.size))  # every layer differs
    stack = netmod.NetworkStack(net, thetas)
    work = netmod.Workspace(net, rows, stack=3)
    for kind in ("cross_entropy", "mse"):
        lossf = netmod.loss_function(kind)
        expected = [lossf(net.with_theta(theta.copy()), es) for theta in thetas]
        for _ in range(2):  # a workspace keeps no state between calls
            assert lossf(stack, es, work=work) == expected


def test_network_stack_losses_reject_what_they_cannot_score():
    net, es = _workspace_case("relu", 4)
    stack = netmod.NetworkStack(net, np.tile(net.theta, (2, 1)))
    work = netmod.Workspace(net, 4, stack=2)
    with pytest.raises(ValueError, match="unknown loss"):
        netmod.loss_function("hinge")(stack, es, work=work)
    for rows, message in (
        (Dataset(es.features[:, :5], es.labels, 5),
         r"inputs must have 6 features, got shape \(4, 5\)"),
        (Dataset(es.features, es.labels % 4, 4),
         r"a dataset of 4 classes does not fit a network of 5 logits"),
    ):
        with pytest.raises(ShapeError, match=message):
            mse_loss(stack, rows, work=work)
    wider = random_network([6, 9, 7, 5], 0)
    for wrong in (netmod.Workspace(net, 4), netmod.Workspace(net, 4, stack=3),
                  netmod.Workspace(net, 3, stack=2), netmod.Workspace(wider, 4, stack=2)):
        with pytest.raises(ShapeError, match="workspace does not fit"):
            mse_loss(stack, es, work=wrong)


def test_network_stack_forward_in_row_blocks_equals_each_network_bit_for_bit():
    # 1,543 rows run in blocks of at most BLOCK_ROWS, each with the stack axis
    rng = np.random.default_rng(5)
    net = random_network([6, 16, 12, 5], 0)
    thetas = net.theta + rng.normal(scale=0.3, size=(3, net.theta.size))
    stack = netmod.NetworkStack(net, thetas)
    x = rng.normal(size=(1543, 6))
    assert len(netmod._row_blocks(len(x), 5)) > 1
    logits = forward(stack, x)
    assert logits.shape == (3, 1543, 5)
    for s, theta in enumerate(thetas):
        own = net.with_theta(theta.copy())
        assert logits[s].tobytes() == forward(own, x).tobytes(), s
    per_network = rng.normal(size=(3, 1543, 6))  # inputs of their own
    logits = forward(stack, per_network)
    for s, theta in enumerate(thetas):
        own = net.with_theta(theta.copy())
        assert logits[s].tobytes() == forward(own, per_network[s]).tobytes(), s


def test_every_pass_refuses_a_workspace_that_does_not_fit_with_one_message():
    net, es = _workspace_case("relu", 4)
    stack = netmod.NetworkStack(net, np.tile(net.theta, (2, 1)))
    x, y = np.stack([es.features] * 2), np.stack([es.labels] * 2)
    wider = random_network([6, 9, 7, 5], 0)
    passes = (
        lambda work: forward(stack, es.features, work=work),
        lambda work: netmod.cross_entropy_loss(stack, es, work=work),
        lambda work: mse_loss(stack, es, work=work),
        lambda work: backward_arrays(stack, x, y, work=work),
    )
    for wrong in (netmod.Workspace(net, 4, backprop=True),  # no stack axis
                  netmod.Workspace(net, 4, stack=3, backprop=True),  # another stack size
                  netmod.Workspace(net, 3, stack=2, backprop=True),  # another row count
                  netmod.Workspace(wider, 4, stack=2, backprop=True)):  # another shape
        for run in passes:
            with pytest.raises(ShapeError, match=r"^workspace does not fit (a pass|backprop) "):
                run(wrong)
    with pytest.raises(ShapeError, match=r"^workspace does not fit backprop over \(2, 4\) rows"):
        backward_arrays(stack, x, y, work=netmod.Workspace(net, 4, stack=2))
    fitting = netmod.Workspace(net, 4, stack=2, backprop=True)
    for run in passes:
        run(fitting)


# --- backward ----------------------------------------------------------------


def test_backward_zero_gradient_at_exact_minimum():
    # the zero net emits the uniform softmax; with every class equally often
    # the output bias gradient, the mean of softmax - onehot, is zero, and
    # every other gradient meets a zero activation or a zero weight
    c = 5
    net = Network(
        [DenseLayer(np.zeros((4, 6)), np.zeros(4), "relu"),
         DenseLayer(np.zeros((c, 4)), np.zeros(c), "identity")],
        6, c,
    )
    x = np.random.default_rng(0).normal(size=(2 * c, 6))
    _, grad = backward_arrays(net, x, np.arange(2 * c) % c)
    assert grad.shape == net.theta.shape
    assert np.linalg.norm(grad) < 1e-8


@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
def test_backward_matches_finite_differences_small_net(loss):
    rng = np.random.default_rng(9)
    net = random_network([4, 3, 2], seed=5)
    x = rng.normal(size=(6, 4))
    labels = rng.integers(0, 2, size=6)
    assert_gradients_match_finite_differences(net, x, labels, kind=loss)


def test_backward_duplication_invariance():
    rng = np.random.default_rng(21)
    net = random_network([5, 4, 3], seed=2)
    x = rng.normal(size=(6, 5))
    labels = rng.integers(0, 3, size=6)
    loss1, g1 = backward_arrays(net, x, labels)
    loss2, g2 = backward_arrays(net, np.vstack([x, x]), np.concatenate([labels, labels]))
    assert abs(loss1 - loss2) < 1e-12
    assert np.allclose(g1, g2, rtol=1e-12, atol=1e-15)


def test_backward_rejects_a_gradient_buffer_not_laid_out_like_theta():
    rng = np.random.default_rng(4)
    net = random_network([5, 4, 3], seed=1)
    x = rng.normal(size=(7, 5))
    labels = rng.integers(0, 3, size=7)
    n = net.theta.size
    for bad in (np.empty(n - 1), np.empty(n + 1), np.empty((1, n)), np.empty(0)):
        with pytest.raises(ShapeError, match="not laid out like"):
            backward_arrays(net, x, labels, out=bad)


# --- parameter layout and positions ---------------------------------------------------


def test_layers_are_read_only_views_of_theta():
    net = random_network([6, 5, 4], seed=1)
    for layer in net.layers:
        with pytest.raises(ValueError, match="read-only"):
            layer.weights[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            layer.biases[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        net.theta[0] = 1.0


def test_network_copies_the_arrays_it_is_given():
    w, b = np.ones((3, 4)), np.zeros(3)
    net = Network([DenseLayer(w, b, "identity")], 4, 3)
    before = net.theta.tobytes()
    w[0, 0], b[1] = 7.0, 7.0
    assert net.theta.tobytes() == before
    assert net.layers[0].weights[0, 0] == 1.0 and net.layers[0].biases[1] == 0.0


def test_with_theta_views_the_vector_it_is_given():
    net = random_network([4, 3], seed=5)
    theta = net.theta.copy()
    view = net.with_theta(theta)
    theta[net.positions[0][1, 4]] = 2.5  # weight in_dim is the bias
    assert view.layers[0].biases[1] == 2.5 and net.layers[0].biases[1] == 0.0
    for bad in (theta[:-1], np.zeros(2 * theta.size)[::2], theta.astype(np.float32)):
        with pytest.raises(ShapeError):
            net.with_theta(bad)


def test_theta_is_in_the_order_of_the_model_file():
    net = random_network([6, 5, 4], seed=2)
    doc = netmod.to_json_dict(net)
    expected = np.concatenate([np.ravel(spec[key]) for spec in doc["layers"]
                               for key in ("weights", "biases")])
    assert net.theta.tobytes() == expected.tobytes()
    assert netmod.deserialize(netmod.serialize(net)).theta.tobytes() == net.theta.tobytes()


def _random_theta_network(sizes, seed):
    net = random_network(sizes, seed=seed)
    return net.with_theta(np.random.default_rng(seed).normal(size=net.theta.size))


def test_positions_hold_every_theta_index_exactly_once():
    for sizes in ([5, 4, 3], [2, 7], [6, 1, 5, 2]):
        net = random_network(sizes, seed=3)
        for k, layer in enumerate(net.layers):
            assert net.positions[k].shape == (layer.out_dim, layer.in_dim + 1)
        seen = np.concatenate([pos.ravel() for pos in net.positions])
        assert np.array_equal(np.sort(seen), np.arange(net.theta.size))


def test_positions_column_in_dim_holds_the_biases():
    net = _random_theta_network([5, 4, 3], seed=4)
    for k, layer in enumerate(net.layers):
        bias_positions = net.positions[k][:, layer.in_dim]
        assert net.theta[bias_positions].tobytes() == layer.biases.tobytes()
        for i in range(layer.out_dim):  # a neuron's block: its weight row, then its bias
            row = net.theta[net.positions[k][i]]
            assert row.tobytes() == np.append(layer.weights[i], layer.biases[i]).tobytes()


def test_theta_at_positions_is_the_layer_weight():
    net = _random_theta_network([5, 4, 3], seed=3)
    for k, layer in enumerate(net.layers):
        for i in range(layer.out_dim):
            for j in range(layer.in_dim):
                assert net.theta[net.positions[k][i, j]] == layer.weights[i, j]
        # the whole layer's block is the weights with the biases as the last column
        block = net.theta[net.positions[k]]
        assert block.tobytes() == np.column_stack([layer.weights, layer.biases]).tobytes()


def test_positions_are_shared_by_with_theta_networks_and_read_only():
    net = random_network([5, 4, 3], seed=2)
    positions = net.positions  # built on first use
    other = net.with_theta(np.zeros_like(net.theta))
    assert all(p is q for p, q in zip(positions, other.positions))
    with pytest.raises(ValueError, match="read-only"):
        net.positions[0][0, 0] = 1


# --- serialization --------------------------------------------------------------


def test_serialize_round_trip_bit_exact():
    net = random_network([7, 6, 5], seed=13)
    text = netmod.serialize(net)
    loaded = netmod.deserialize(text)
    assert netmod.parameters_equal(net, loaded)
    assert netmod.serialize(loaded) == text


def test_deserialize_rejects_row_mismatch_with_layer_index():
    net = random_network([4, 3, 2], seed=0)
    doc = netmod.to_json_dict(net)
    doc["layers"][1]["biases"] = doc["layers"][1]["biases"][:-1]
    with pytest.raises(FormatError, match="layer 1"):
        netmod.from_json_dict(doc)


def test_deserialize_rejects_unknown_format_tag():
    net = random_network([4, 3, 2], seed=0)
    doc = netmod.to_json_dict(net)
    doc["format"] = "cogram-net-v999"
    with pytest.raises(FormatError, match="format"):
        netmod.from_json_dict(doc)


def test_deserialize_rejects_garbage():
    with pytest.raises(FormatError):
        netmod.deserialize("not json at all {")
    with pytest.raises(FormatError):
        netmod.deserialize(json.dumps({"format": "cogram-net-v1"}))


def test_deserialize_rejects_non_finite():
    net = random_network([3, 2], seed=0)
    doc = netmod.to_json_dict(net)
    doc["layers"][0]["weights"][0][0] = 1e400  # becomes inf on the float path
    with pytest.raises(FormatError, match="layer 0"):
        netmod.from_json_dict(doc)


def test_model_file_round_trip(tmp_path):
    net = random_network([5, 4, 3], seed=3)
    path = tmp_path / "model.json"
    netmod.save_model(net, path)
    assert netmod.parameters_equal(netmod.load_model(path), net)


# --- gradient check across required shapes (module invariant) -------------------


@pytest.mark.parametrize("sizes", [(4, 3, 2), (8, 8, 5), (32, 16, 20)])
def test_gradcheck_required_shapes(sizes):
    rng = np.random.default_rng(sum(sizes))
    net = random_network(list(sizes), seed=sum(sizes))
    x = rng.normal(size=(4, sizes[0]))
    labels = rng.integers(0, sizes[-1], size=4)
    assert_gradients_match_finite_differences(net, x, labels, kind="cross_entropy")
