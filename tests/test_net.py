import json
import math

import numpy as np
import pytest

from cogram import net as netmod
from cogram.net import (
    DenseLayer,
    EvalSet,
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
from conftest import ArrayEvalSet, assert_gradients_match_finite_differences


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
    es = ArrayEvalSet(np.random.default_rng(0).normal(size=(c, 32)), np.eye(c))
    assert abs(netmod.cross_entropy_loss(net, es) - math.log(20)) < 1e-12


def test_cross_entropy_perfect_prediction_limit():
    # margin 20 -> wrong-class mass ~ 5 * e^-20 ~ 1e-8, so loss -> 0+
    c = 6
    net = Network([DenseLayer(20.0 * np.eye(c), np.zeros(c), "identity")], c, c)
    es = ArrayEvalSet(np.eye(c), np.eye(c))
    loss = netmod.cross_entropy_loss(net, es)
    assert 0.0 < loss < 1e-7


def test_cross_entropy_equals_mean_of_per_sample_oracle():
    rng = np.random.default_rng(11)
    net = random_network([7, 6, 4], seed=3)
    es = ArrayEvalSet(rng.normal(size=(5, 7)), np.eye(4)[rng.integers(0, 4, size=5)])
    got = netmod.cross_entropy_loss(net, es)

    # oracle: per-sample softmax probabilities, direct log, then average
    per_sample = []
    for k in range(5):
        [logits] = forward(net, es.inputs[k : k + 1])
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        per_sample.append(-float(np.dot(es.targets[k], np.log(p))))
    assert abs(got - np.mean(per_sample)) < 1e-12


def test_cross_entropy_rejects_empty():
    net = random_network([4, 3], seed=0)
    with pytest.raises(ValueError, match="^empty evaluation set$"):
        cross_entropy_arrays(net, np.zeros((0, 4)), np.zeros((0, 3)))


def test_mse_zero_when_outputs_equal_targets():
    net = Network([DenseLayer(np.eye(3), np.zeros(3), "identity")], 3, 3)
    x = np.random.default_rng(1).normal(size=(4, 3))
    assert mse_loss(net, EvalSet(x, x)) == 0.0


def test_mse_single_prototype_value():
    # output (1, 0) vs target (0, 0): (1 + 0) / 2 = 0.5
    net = Network([DenseLayer(np.eye(2), np.zeros(2), "identity")], 2, 2)
    assert mse_loss(net, EvalSet(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))) == 0.5


def test_mse_quadratic_homogeneity():
    net = Network([DenseLayer(np.eye(2), np.zeros(2), "identity")], 2, 2)
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    base = mse_loss(net, EvalSet(x, np.zeros_like(x)))
    scaled = mse_loss(net, EvalSet(2.0 * x, np.zeros_like(x)))
    assert abs(scaled - 4.0 * base) < 1e-12


# --- mis-shaped targets -----------------------------------------------------


@pytest.mark.parametrize("shape", [(6, 1), (3,), (1, 3), (6, 2), (6, 4)])
@pytest.mark.parametrize("lossf", [netmod.cross_entropy_loss, mse_loss])
def test_losses_reject_targets_not_shaped_like_the_logits(lossf, shape):
    # broadcasting would turn each of these into a plausible number
    net = random_network([4, 5, 3], seed=0)
    rng = np.random.default_rng(0)
    es = EvalSet(rng.normal(size=(6, 4)), np.eye(3)[rng.integers(0, 3, size=6)])
    es.targets = np.full(shape, 1.0 / shape[-1])
    for work in (None, netmod.Workspace(net, 6)):
        with pytest.raises(ShapeError, match="do not match logits of shape"):
            lossf(net, es, work=work)
    if len(shape) == 2 and shape[0] == 6:
        with pytest.raises(ShapeError):
            cross_entropy_arrays(net, es.inputs, es.targets)
    with pytest.raises(ShapeError, match="do not match logits of shape"):
        backward_arrays(net, es.inputs, es.targets, loss=lossf.__name__.removesuffix("_loss"))


def test_loss_function_by_name():
    assert netmod.loss_function("cross_entropy") is netmod.cross_entropy_loss
    assert netmod.loss_function("mse") is netmod.mse_loss
    with pytest.raises(ValueError, match="unknown loss"):
        netmod.loss_function("hinge")


# --- workspaces --------------------------------------------------------------


def _workspace_case(activation, rows, soft, seed=0):
    rng = np.random.default_rng(seed)
    net = random_network([6, 8, 7, 5], seed, hidden_activation=activation)
    layers = [DenseLayer(l.weights, rng.normal(scale=0.1, size=l.out_dim), l.activation)
              for l in net.layers]
    net = Network(layers, net.input_dim, net.num_classes)
    targets = (softmax(rng.normal(size=(rows, 5))) if soft
               else np.eye(5)[rng.integers(0, 5, size=rows)])
    return net, ArrayEvalSet(rng.normal(size=(rows, 6)), targets)


@pytest.mark.parametrize("rows", [1, 37])
@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_workspace_matches_allocating_call_bit_for_bit(activation, soft, rows):
    net, es = _workspace_case(activation, rows, soft)
    work = netmod.Workspace(net, rows)
    for lossf in (netmod.cross_entropy_loss, netmod.mse_loss):
        assert lossf(net, es, work=work) == lossf(net, es)
    logits = forward(net, es.inputs)
    assert forward(net, es.inputs, work=work).tobytes() == logits.tobytes()
    assert forward(net, es.inputs[:1], work=netmod.Workspace(net, 1)).tobytes() == \
        forward(net, es.inputs[:1]).tobytes()


def test_workspace_reused_across_networks_keeps_no_state():
    (n1, es), (n2, _) = _workspace_case("relu", 9, True, 1), _workspace_case("relu", 9, True, 2)
    work = netmod.Workspace(n1, 9)
    for lossf in (netmod.cross_entropy_loss, netmod.mse_loss):
        expected = lossf(n1, es), lossf(n2, es)
        assert expected[0] != expected[1]
        assert (lossf(n1, es, work=work), lossf(n2, es, work=work)) == expected
        assert (lossf(n2, es, work=work), lossf(n1, es, work=work)) == expected[::-1]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_workspace_rejects_non_finite_logits_like_the_allocating_call(bad):
    net = Network([DenseLayer(np.eye(3), np.zeros(3), "identity")], 3, 3)
    es = ArrayEvalSet(np.array([[0.0, bad, 1.0], [1.0, 2.0, 3.0]]), np.eye(3)[:2])
    for work in (None, netmod.Workspace(net, 2)):
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="^log_softmax requires finite logits$"):
            netmod.cross_entropy_loss(net, es, work=work)


def test_workspace_of_other_rows_or_widths_is_rejected():
    net, es = _workspace_case("relu", 4, False)
    wider = random_network([6, 9, 7, 5], 0)
    for work in (netmod.Workspace(net, 3), netmod.Workspace(net, 1), netmod.Workspace(wider, 4)):
        with pytest.raises(ShapeError):
            netmod.cross_entropy_loss(net, es, work=work)
        with pytest.raises(ShapeError):
            forward(net, es.inputs, work=work)
    for work in (netmod.Workspace(net, 4), netmod.Workspace(net, 3, backprop=True),
                 netmod.Workspace(net, 4, 1, backprop=True)):
        with pytest.raises(ShapeError, match="workspace"):
            backward_arrays(net, es.inputs, es.targets, work=work)


@pytest.mark.parametrize("rows", [1, 37])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_network_stack_scores_each_network_like_its_own(activation, rows):
    net, es = _workspace_case(activation, rows, True)
    rng = np.random.default_rng(1)
    thetas = net.theta + rng.normal(size=(3, net.theta.size))  # every layer differs
    stack = netmod.NetworkStack(net, thetas)
    work = netmod.Workspace(net, rows, stack=3)
    for kind in ("cross_entropy", "mse"):
        lossf = netmod.loss_function(kind)
        expected = [lossf(net.with_theta(theta.copy()), es) for theta in thetas]
        for _ in range(2):  # a workspace keeps no state between calls
            assert stack.losses(es, kind, work) == expected


def test_network_stack_losses_reject_what_they_cannot_score():
    net, es = _workspace_case("relu", 4, False)
    stack = netmod.NetworkStack(net, np.tile(net.theta, (2, 1)))
    work = netmod.Workspace(net, 4, stack=2)
    with pytest.raises(ValueError, match="unknown loss"):
        stack.losses(es, "hinge", work)
    for inputs, targets in ((es.inputs[:, :5], es.targets), (es.inputs, es.targets[:, :4])):
        with pytest.raises(ShapeError, match=r"do not fit 6 features and logits \(4, 5\)"):
            stack.losses(ArrayEvalSet(inputs, targets), "mse", work)
    wider = random_network([6, 9, 7, 5], 0)
    for wrong in (netmod.Workspace(net, 4), netmod.Workspace(net, 4, stack=3),
                  netmod.Workspace(net, 3, stack=2), netmod.Workspace(wider, 4, stack=2)):
        with pytest.raises(ShapeError, match="workspace does not fit"):
            stack.losses(es, "mse", wrong)


# --- backward ----------------------------------------------------------------


def test_backward_zero_gradient_at_exact_minimum():
    # zero net emits uniform softmax; uniform targets make it an exact optimum
    c = 5
    net = Network(
        [DenseLayer(np.zeros((4, 6)), np.zeros(4), "relu"),
         DenseLayer(np.zeros((c, 4)), np.zeros(c), "identity")],
        6, c,
    )
    x = np.random.default_rng(0).normal(size=(8, 6))
    y = np.full((8, c), 1.0 / c)
    _, grad = backward_arrays(net, x, y)
    assert grad.shape == net.theta.shape
    assert np.linalg.norm(grad) < 1e-8


@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
def test_backward_matches_finite_differences_small_net(loss):
    rng = np.random.default_rng(9)
    net = random_network([4, 3, 2], seed=5)
    x = rng.normal(size=(6, 4))
    y = np.eye(2)[rng.integers(0, 2, size=6)]
    assert_gradients_match_finite_differences(net, x, y, kind=loss)


def test_backward_duplication_invariance():
    rng = np.random.default_rng(21)
    net = random_network([5, 4, 3], seed=2)
    x = rng.normal(size=(6, 5))
    y = np.eye(3)[rng.integers(0, 3, size=6)]
    loss1, g1 = backward_arrays(net, x, y)
    loss2, g2 = backward_arrays(net, np.vstack([x, x]), np.vstack([y, y]))
    assert abs(loss1 - loss2) < 1e-12
    assert np.allclose(g1, g2, rtol=1e-12, atol=1e-15)


def test_backward_rejects_a_gradient_buffer_not_laid_out_like_theta():
    rng = np.random.default_rng(4)
    net = random_network([5, 4, 3], seed=1)
    x = rng.normal(size=(7, 5))
    y = np.eye(3)[rng.integers(0, 3, size=7)]
    n = net.theta.size
    for bad in (np.empty(n - 1), np.empty(n + 1), np.empty((1, n)), np.empty(0)):
        with pytest.raises(ShapeError, match="not laid out like"):
            backward_arrays(net, x, y, out=bad)


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
    y = np.eye(sizes[-1])[rng.integers(0, sizes[-1], size=4)]
    assert_gradients_match_finite_differences(net, x, y, kind="cross_entropy")
