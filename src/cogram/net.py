"""Minimal dense feed-forward networks with analytic gradients.

Everything is float64 numpy. A network keeps all its parameters in one
contiguous vector ``theta`` of its own, and its layers are read-only views
into it. Networks are treated as immutable values: operations are either
pure or return a new network with its own copy of the parameters. Only
the holder of a writable vector behind a network (``Network.with_theta``)
changes it in place: training updates the network it trains, and the
merge engine writes candidates into its private network for the layers it
decides. Parameter-shaped data, a gradient or a Fisher estimate, is one
vector laid out like ``theta`` too; ``Network.layer_views`` gives its
per-layer weight and bias views and ``Network.require_layout`` checks it.

Parameters are addressed by position: ``Network.positions[k][key]`` gives
the positions in ``theta`` of layer k (key ``()``), of neuron i's weight row
and bias (``(i,)``) or of one weight (``(i, j)``, the bias at j = in_dim).

There is one forward loop, ``_forward_into``, one loss kernel,
``_loss_of_logits``, and one backward sweep, ``_pre_activation_deltas``.
``forward``, the losses, backprop and the Fisher pass all run the forward
loop. ``forward`` without a workspace runs it over blocks of at most
``BLOCK_ROWS`` rows that share one buffer per hidden layer, so a pass over a
whole dataset holds one block's activations and the logits of all rows, not
every layer's activations of all rows; a network with a layer of fewer than
``MIN_BLOCKED_WIDTH`` outputs runs in one block, as the blocks would not
give the logits of one pass bit for bit. Backprop (``backward_arrays``) runs
the three in turn into the buffers of a ``Workspace``, made once by the
caller (training makes one per batch size) or else for the call; it keeps
each layer's output and takes each activation's derivative from it.

Losses are measured on an ``EvalSet``, two arrays: the inputs and one target
distribution per row. ``cross_entropy_loss`` and ``mse_loss`` each run
``forward`` and then the loss kernel; ``loss_function`` picks one by name.
All three parts take a leading stack axis. A ``NetworkStack`` holds several
networks of one shape as the rows of one parameter matrix: its ``losses``
scores them all on one evaluation set in one pass, and ``backward_arrays``
backpropagates through them, each with its own inputs, in one pass; every
loss and gradient is bit-identical to its own single-network one.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")

MODEL_FORMAT = "cogram-net-v1"

BLOCK_ROWS = 512  # the most rows a forward pass without a workspace runs at once
MIN_BLOCKED_WIDTH = 5  # a network with a narrower layer runs such a pass in one block


class ShapeError(ValueError):
    """Dimension or layout mismatch between arrays/networks."""


class FormatError(ValueError):
    """Malformed or incompatible model/report file."""


def _as_f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


@dataclass
class DenseLayer:
    """One dense layer. Row i of ``weights`` holds neuron i's incoming weights."""

    weights: np.ndarray  # (out_dim, in_dim)
    biases: np.ndarray   # (out_dim,)
    activation: str = "relu"

    def __post_init__(self):
        self.weights = _as_f64(self.weights)
        self.biases = _as_f64(self.biases)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ShapeError("layer needs a 2-d weight matrix and 1-d bias vector")
        if self.weights.shape[0] != self.biases.shape[0]:
            raise ShapeError(
                f"weight rows ({self.weights.shape[0]}) != biases ({self.biases.shape[0]})"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("layer parameters must be finite")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


class Network:
    """Ordered dense layers mapping ``input_dim`` features to ``num_classes`` logits.

    Every parameter lives in one contiguous float64 vector ``theta``, layer
    by layer: each layer's weights (row-major), then its biases, the order
    of the model file. ``layers`` is a tuple of read-only ``DenseLayer``
    views into ``theta``, and ``positions[k]`` is the (out_dim, in_dim + 1)
    matrix of the positions in ``theta`` of layer k's weights, with its
    biases in the last column. The constructor copies the arrays it is given.
    """

    def __init__(self, layers, input_dim: int, num_classes: int):
        layers = tuple(layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        if layers[0].in_dim != input_dim:
            raise ShapeError(
                f"layer 0 expects {layers[0].in_dim} inputs, input_dim is {input_dim}"
            )
        for k in range(1, len(layers)):
            if layers[k].in_dim != layers[k - 1].out_dim:
                raise ShapeError(
                    f"layer {k} in_dim {layers[k].in_dim} != "
                    f"layer {k - 1} out_dim {layers[k - 1].out_dim}"
                )
        if layers[-1].out_dim != num_classes:
            raise ShapeError(
                f"last layer out_dim {layers[-1].out_dim} != num_classes {num_classes}"
            )
        self.input_dim, self.num_classes = input_dim, num_classes
        self._shapes = tuple(layer.weights.shape for layer in layers)
        self._activations = tuple(layer.activation for layer in layers)
        self._bind(np.concatenate([a.ravel() for l in layers for a in (l.weights, l.biases)]))

    def _bind(self, theta: np.ndarray) -> None:
        self.theta = theta.view()
        self.theta.flags.writeable = False
        self.layers = tuple(
            DenseLayer(w, b, act)
            for w, b, act in zip(*self.layer_views(self.theta), self._activations)
        )
        self._plan = self._plan_of(self.theta)

    def _plan_of(self, theta: np.ndarray) -> tuple:
        """What the forward loop reads of each layer of the network whose
        parameters are ``theta``, or of the stack of networks whose parameters
        are its rows: the weights transposed, the biases as a row, the
        activation."""
        weights, biases = self.layer_views(theta)
        return tuple(
            (w.swapaxes(-1, -2), b[..., None, :], act)
            for w, b, act in zip(weights, biases, self._activations)
        )

    @functools.cached_property
    def positions(self) -> tuple[np.ndarray, ...]:
        """Built on first use and shared with every ``with_theta`` network
        made after that."""
        positions = tuple(
            np.column_stack(pair) for pair in zip(*self.layer_views(np.arange(self.theta.size)))
        )
        for pos in positions:
            pos.flags.writeable = False
        return positions

    def layer_views(self, vec: np.ndarray) -> tuple[list, list]:
        """Per-layer weight and bias views of a vector laid out like ``theta``.
        Leading axes carry through: the rows of an (S, P) matrix give (S, out,
        in) weights and (S, out) biases."""
        lead = vec.shape[:-1]
        weights, biases, at = [], [], 0
        for rows, cols in self._shapes:
            weights.append(vec[..., at : at + rows * cols].reshape(lead + (rows, cols)))
            at += rows * cols
            biases.append(vec[..., at : at + rows])
            at += rows
        return weights, biases

    def require_layout(self, vec, what: str, lead: tuple = ()) -> None:
        """Raise ShapeError unless ``vec`` (a gradient, a Fisher estimate) has
        ``theta``'s shape, the one layout of parameter-shaped data, after the
        leading axes ``lead`` of a stack."""
        if np.shape(vec) != lead + self.theta.shape:
            raise ShapeError(
                f"{what} of shape {np.shape(vec)} is not laid out like the "
                f"network's parameters {lead + self.theta.shape}"
            )

    def with_theta(self, theta: np.ndarray) -> "Network":
        """A network shaped like this one whose parameters are ``theta``
        itself, not a copy: whoever holds ``theta`` can update it in place."""
        if (theta.dtype != np.float64 or theta.shape != self.theta.shape
                or not theta.flags.c_contiguous):
            raise ShapeError(
                f"parameters must be a contiguous float64 vector of shape "
                f"{self.theta.shape}, got {theta.dtype} {theta.shape}"
            )
        net = copy.copy(self)
        net._bind(theta)
        return net


class NetworkStack:
    """S networks shaped like ``net`` whose parameters are the rows of one
    (S, P) float64 matrix ``theta``, not copies: ``networks[s]`` is
    ``net.with_theta(theta[s])``, and whoever holds ``theta`` updates them
    all in place. ``losses`` and ``backward_arrays`` run a stack as one
    network whose activations, losses and gradient carry a leading axis of S.
    """

    def __init__(self, net: Network, theta: np.ndarray):
        if theta.ndim != 2 or len(theta) == 0:
            raise ShapeError(f"a stack's parameters are one row per network, got {theta.shape}")
        self.networks = tuple(net.with_theta(row) for row in theta)
        self.net, self.theta = net, theta
        self._plan = net._plan_of(theta)

    def losses(self, eval_set: EvalSet, kind: str, work: Workspace) -> list[float]:
        """The loss ``kind`` of each network on ``eval_set``, bit for bit its
        own ``loss_function(kind)``, from one pass of the forward loop and the
        loss kernel into ``work``, a ``Workspace`` with ``stack`` S for the
        set's rows; it allocates no array."""
        net, (rows, features) = self.net, eval_set.inputs.shape
        if features != net.input_dim or eval_set.targets.shape != (rows, net.num_classes):
            raise ShapeError(
                f"evaluation inputs {eval_set.inputs.shape} and targets {eval_set.targets.shape} "
                f"do not fit {net.input_dim} features and logits {(rows, net.num_classes)}"
            )
        if work.key != (len(self.theta), rows, net._shapes):
            raise ShapeError(f"workspace does not fit {len(self.theta)} networks over {rows} rows")
        logits = _forward_into(self._plan, eval_set.inputs, work.acts)
        return _loss_of_logits(kind, logits, eval_set.targets, work)


def compatible(a: Network, b: Network) -> bool:
    """True iff the two networks have identical shapes and activations."""
    return (a.input_dim, a.num_classes, a._shapes, a._activations) == (
        b.input_dim, b.num_classes, b._shapes, b._activations
    )


def require_compatible(a: Network, b: Network) -> None:
    if not compatible(a, b):
        raise ShapeError("networks are not architecture-compatible")


def random_network(layer_sizes, seed, hidden_activation: str = "relu") -> Network:
    """He-scaled random init: sizes like [32, 64, 64, 20], identity output layer."""
    sizes = list(layer_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(sizes) - 1):
        fan_in, fan_out = sizes[k], sizes[k + 1]
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        act = "identity" if k == len(sizes) - 2 else hidden_activation
        layers.append(DenseLayer(w, np.zeros(fan_out), act))
    return Network(layers, input_dim=sizes[0], num_classes=sizes[-1])


# --- forward / losses -------------------------------------------------------


def _apply_activation(z: np.ndarray, activation: str, inplace: bool = False) -> np.ndarray:
    out = z if inplace else None
    if activation == "relu":
        return np.maximum(z, 0.0, out=out)
    if activation == "tanh":
        return np.tanh(z, out=out)
    return z


class Workspace:
    """Caller-owned buffers for ``forward``, the losses and backprop over
    ``rows`` inputs to networks shaped like ``net``: one activation buffer per
    layer, and the scratch arrays of the loss (the exp of the shifted logits,
    the finiteness mask, one value per row kept as a column, and the per-row
    loss terms). One workspace serves any network of the same shape; it holds
    no state between calls. With ``stack`` every buffer gets a leading axis
    of that length, for a ``NetworkStack`` of that many networks.

    With ``backprop`` it also holds what ``backward_arrays`` needs: the
    gathered batch ``x`` and ``y``; a log-softmax buffer and a second column,
    so that the loss leaves the logits, the exp and the row sums for the
    backward pass; the derivative of the loss with respect to each hidden
    layer's output (``deltas[k]``, layer k + 1's delta times its weights);
    and each layer's activation derivative (``slopes``).
    """

    def __init__(self, net: Network, rows: int, stack: int | None = None,
                 backprop: bool = False):
        lead = () if stack is None else (stack,)
        self.key = (stack, rows, net._shapes)
        self.acts = [np.empty(lead + (rows, out_dim)) for out_dim, _ in net._shapes]
        self.exp = np.empty(lead + (rows, net.num_classes))
        self.finite = np.empty(lead + (rows, net.num_classes), dtype=bool)
        self.col = np.empty(lead + (rows, 1))
        self.row = np.empty(lead + (rows,))
        self.backprop = backprop
        if backprop:
            self.x = np.empty(lead + (rows, net.input_dim))
            self.y = np.empty(lead + (rows, net.num_classes))
            self.logp = np.empty(lead + (rows, net.num_classes))
            self.log_col = np.empty(lead + (rows, 1))
            self.deltas = [np.empty(lead + (rows, out_dim)) for out_dim, _ in net._shapes[:-1]]
            self.slopes = [np.empty(lead + (rows, out_dim)) for out_dim, _ in net._shapes]


def _forward_into(plan, a: np.ndarray, acts) -> np.ndarray:
    """The one forward loop: per layer of ``plan`` (``Network._plan``: the
    weights transposed, the biases, the activation), ``a @ weights + biases``
    into the next buffer of ``acts``, then the activation in place. A leading
    stack axis on the weights and biases, or on ``a``, carries through."""
    for (weights, biases, activation), out in zip(plan, acts):
        np.matmul(a, weights, out=out)
        out += biases
        a = _apply_activation(out, activation, inplace=True)
    return a


def _row_blocks(n: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) of the fewest blocks of at most ``BLOCK_ROWS`` rows that
    cover ``n`` rows, their sizes differing by at most one, for a network
    whose narrowest layer has ``width`` outputs; one block if that is under
    ``MIN_BLOCKED_WIDTH``. Each block's matmul must take the kernel a whole
    pass takes: BLAS computes a single row (gemv) or a small product
    (OpenBLAS: outputs x rows <= 1,200, 32 or more inputs) in another order
    of additions. Even blocks of a pass over 512 rows hold 257 rows or more,
    so every layer of 5 or more outputs stays above that limit; a narrower
    layer would not."""
    blocks = -(-n // BLOCK_ROWS) if width >= MIN_BLOCKED_WIDTH else min(n, 1)
    return [(n * i // blocks, n * (i + 1) // blocks) for i in range(blocks)]


def forward(net: Network, inputs, work: Workspace | None = None) -> np.ndarray:
    """Logits (N, C) for a batch of inputs (N, d). Pure.

    With ``work`` every layer runs into the workspace's buffers and the
    logits returned are its last one, overwritten by the next call.
    Otherwise the rows run through the same loop in blocks of at most
    ``BLOCK_ROWS`` (see ``_row_blocks``), which share one buffer per hidden
    layer made for the call, and each block's logits go into their rows of
    one new (N, C) array. A pass of ``BLOCK_ROWS`` rows or fewer, or of a
    network with a layer of fewer than ``MIN_BLOCKED_WIDTH`` outputs, is one
    block. The logits are those of a one-shot pass over all rows, bit for
    bit, as long as BLAS computes a row the same way in a block as in the
    whole matrix, which OpenBLAS's gemm does for such blocks.
    """
    x = _as_f64(inputs)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(f"inputs must have {net.input_dim} features, got shape {x.shape}")
    if work is not None:
        if work.key != (None, x.shape[0], net._shapes):
            raise ShapeError(
                f"workspace buffers {[a.shape for a in work.acts]} do not fit "
                f"{[(x.shape[0], out_dim) for out_dim, _ in net._shapes]}"
            )
        return _forward_into(net._plan, x, work.acts)
    blocks = _row_blocks(x.shape[0], min(out_dim for out_dim, _ in net._shapes))
    rows = max((stop - start for start, stop in blocks), default=0)
    hidden = [np.empty((rows, out_dim)) for out_dim, _ in net._shapes[:-1]]
    logits = np.empty((x.shape[0], net.num_classes))
    for start, stop in blocks:
        acts = [h[: stop - start] for h in hidden] + [logits[start:stop]]
        _forward_into(net._plan, x[start:stop], acts)
    return logits


def _pre_activation_deltas(plan, work: Workspace, delta: np.ndarray):
    """The one backward sweep: from ``delta``, a derivative with respect to
    the logits (scaled in place), and the layer outputs in ``work.acts`` left
    by ``_forward_into`` with ``plan``, yields each layer's index and the
    derivative with respect to its pre-activations, last layer first, into
    ``work``'s buffers. Each activation's derivative comes from the layer's
    output a: relu's is a > 0, the mask of z > 0; tanh's is 1 - a**2. A
    leading stack axis carries through."""
    for k in reversed(range(len(plan))):
        weights_t, _, activation = plan[k]
        a, slope = work.acts[k], work.slopes[k]
        if activation == "relu":
            delta *= np.greater(a, 0.0, out=slope)
        elif activation == "tanh":
            np.multiply(a, a, out=slope)
            delta *= np.subtract(1.0, slope, out=slope)
        yield k, delta
        if k > 0:
            delta = np.matmul(delta, weights_t.swapaxes(-1, -2), out=work.deltas[k - 1])


def _shift_exp_sum(logits, caller: str, shifted=None, work: Workspace | None = None):
    """The pass softmax and the losses share: the logits minus their maximum
    over the last axis (into ``shifted`` when given, which may be the logits
    themselves), the exp of that, and the sums of the exp over the last axis.
    Rejects non-finite logits. Scratch comes from ``work`` when given, else
    from new arrays."""
    z = _as_f64(logits)
    finite, e, sums = (None, None, None) if work is None else (work.finite, work.exp, work.col)
    if not np.logical_and.reduce(np.isfinite(z, out=finite), axis=None):
        raise ValueError(f"{caller} requires finite logits")
    shifted = np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True, out=sums), out=shifted)
    e = np.exp(shifted, out=e)
    return shifted, e, np.add.reduce(e, axis=-1, keepdims=True, out=sums)


def softmax(logits) -> np.ndarray:
    """Max-subtracted softmax over the last axis."""
    _, e, sums = _shift_exp_sum(logits, "softmax")
    e /= sums
    return e


def _loss_of_logits(
    loss: str, logits: np.ndarray, targets: np.ndarray, work: Workspace | None = None
):
    """The one loss kernel: mean cross-entropy of softmax(logits) against
    target distributions, or the mean over samples and output dimensions of
    squared residuals.

    ``logits`` (N, C) give one loss, a float. Logits with a leading stack
    axis, (S, N, C) against (N, C) targets or (S, N, C) ones, give a list of S
    losses, each reduced exactly as the loss of its (N, C) slice alone. Every
    intermediate goes into ``work``'s scratch when given, else into new
    arrays. The cross-entropy builds the log-softmax in place in ``logits``,
    so its caller must not keep them, unless ``work`` is made for backprop:
    then the logits are only read, and the exp of the shifted logits and
    their sums stay in ``work.exp`` and ``work.col`` for the backward pass.
    The squared error only reads the logits.
    """
    if loss == "cross_entropy":
        keep = work is not None and work.backprop
        shifted, e, sums = _shift_exp_sum(
            logits, "log_softmax", shifted=work.logp if keep else logits, work=work
        )
        shifted -= np.log(sums, out=work.log_col if keep else sums)
        terms = np.multiply(targets, shifted, out=shifted)
        values = np.add.reduce(terms, axis=-1, out=None if work is None else work.row)
        sign = -1.0
    elif loss == "mse":
        values = np.subtract(logits, targets, out=None if work is None else work.exp)
        np.square(values, out=values)
        sign = 1.0
    else:
        raise ValueError(f"unknown loss {loss!r}")
    # the mean np.mean takes: one add.reduce over all values, over their count
    if logits.ndim == 2:
        return sign * float(np.add.reduce(values, axis=None) / values.size)
    return [sign * float(np.add.reduce(v, axis=None) / v.size) for v in values]


@dataclass(eq=False)
class EvalSet:
    """A fixed evaluation set: ``inputs`` (N, d) and the target distribution
    of each row, ``targets`` (N, C), both float64, with N >= 1."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = _as_f64(self.inputs)
        self.targets = _as_f64(self.targets)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ShapeError(
                f"evaluation inputs and targets must be 2-d, got shapes "
                f"{self.inputs.shape} and {self.targets.shape}"
            )
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ShapeError(
                f"{self.inputs.shape[0]} evaluation inputs but {self.targets.shape[0]} targets"
            )
        if self.inputs.shape[0] == 0:
            raise ValueError("empty evaluation set")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _loss(kind: str, net: Network, eval_set: EvalSet, work: Workspace | None) -> float:
    logits = forward(net, eval_set.inputs, work=work)
    if eval_set.targets.shape != logits.shape:
        raise ShapeError(
            f"targets of shape {eval_set.targets.shape} do not match logits of shape {logits.shape}"
        )
    return _loss_of_logits(kind, logits, eval_set.targets, work)


def cross_entropy_loss(net: Network, eval_set: EvalSet, work: Workspace | None = None) -> float:
    """Mean cross-entropy of softmax(logits) against the target distributions.

    With ``work`` (a ``Workspace`` for the set's rows) the whole pass runs
    into its buffers and allocates no array.
    """
    return _loss("cross_entropy", net, eval_set, work)


def mse_loss(net: Network, eval_set: EvalSet, work: Workspace | None = None) -> float:
    """Mean over rows and output dimensions of squared residuals; ``work`` as
    for cross_entropy_loss."""
    return _loss("mse", net, eval_set, work)


def loss_function(kind: str):
    """``cross_entropy_loss`` or ``mse_loss``, by name."""
    if kind == "cross_entropy":
        return cross_entropy_loss
    if kind == "mse":
        return mse_loss
    raise ValueError(f"unknown loss {kind!r}")


def cross_entropy_arrays(net: Network, inputs: np.ndarray, targets: np.ndarray) -> float:
    """cross_entropy_loss over the evaluation set of these rows."""
    return cross_entropy_loss(net, EvalSet(inputs, targets))


def backward_arrays(
    net: Network | NetworkStack, inputs: np.ndarray, targets: np.ndarray,
    loss: str = "cross_entropy", out: np.ndarray | None = None, work: Workspace | None = None,
) -> tuple[float | list[float], np.ndarray]:
    """Loss and its exact analytic gradient w.r.t. every weight and bias.

    The gradient is one vector laid out like ``theta``: written into ``out``
    when given (which must have ``theta``'s shape, and is returned as the
    second value), into a new vector otherwise. Every other array goes into
    ``work``, a ``Workspace`` with ``backprop`` for these rows, or into one
    made for the call.

    A ``NetworkStack`` of S networks takes (S, N, d) inputs and (S, N, C)
    targets and gives a list of S losses and an (S, P) gradient; each
    network's loss and gradient are bit-identical to its own call.
    """
    if isinstance(net, NetworkStack):
        net, theta, plan = net.net, net.theta, net._plan
    else:
        theta, plan = net.theta, net._plan
    lead = theta.shape[:-1]
    x = _as_f64(inputs)
    y = _as_f64(targets)
    if x.shape[:-2] != lead or x.ndim != len(lead) + 2 or x.shape[-1] != net.input_dim:
        raise ShapeError(f"inputs must have {net.input_dim} features, got shape {x.shape}")
    n = x.shape[-2]
    if n == 0:
        raise ValueError("empty evaluation set")
    if y.shape != lead + (n, net.num_classes):
        raise ShapeError(
            f"targets of shape {y.shape} do not match logits of shape "
            f"{lead + (n, net.num_classes)}"
        )
    if out is None:
        out = np.empty(theta.shape)
    net.require_layout(out, "gradient buffer", lead)
    stack = lead[0] if lead else None
    if work is None:
        work = Workspace(net, n, stack, backprop=True)
    elif work.key != (stack, n, net._shapes) or not work.backprop:
        raise ShapeError(f"workspace does not fit backprop over {lead + (n,)} rows")
    logits = _forward_into(plan, x, work.acts)
    value = _loss_of_logits(loss, logits, y, work)

    delta = work.exp
    if loss == "cross_entropy":
        # the shift/exp/sum of the loss gives d(mean CE)/dlogits = (softmax - y) / n,
        # which holds for any target distribution summing to 1
        delta /= work.col
        delta -= y
        delta /= n
    else:
        np.subtract(logits, y, out=delta)
        delta *= 2.0
        delta /= n * net.num_classes

    grad_w, grad_b = net.layer_views(out)
    for k, delta in _pre_activation_deltas(plan, work, delta):
        np.matmul(delta.swapaxes(-1, -2), x if k == 0 else work.acts[k - 1], out=grad_w[k])
        np.add.reduce(delta, axis=-2, out=grad_b[k])
    return value, out


# --- serialization -----------------------------------------------------------


def to_json_dict(net: Network) -> dict:
    return {
        "format": MODEL_FORMAT,
        "input_dim": net.input_dim,
        "num_classes": net.num_classes,
        "layers": [
            {
                "activation": layer.activation,
                "weights": layer.weights.tolist(),
                "biases": layer.biases.tolist(),
            }
            for layer in net.layers
        ],
    }


def serialize(net: Network) -> str:
    """Model JSON; float repr round-trips 64-bit exactly."""
    return json.dumps(to_json_dict(net), allow_nan=False)


def from_json_dict(doc: dict) -> Network:
    if not isinstance(doc, dict):
        raise FormatError("model document must be a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"unsupported model format {doc.get('format')!r}, expected {MODEL_FORMAT!r}")
    for key in ("input_dim", "num_classes", "layers"):
        if key not in doc:
            raise FormatError(f"model document missing {key!r}")
    dims = doc["input_dim"], doc["num_classes"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in dims):
        raise FormatError(f"input_dim and num_classes must be integers, got {dims}")
    if not (isinstance(doc["layers"], list) and all(isinstance(l, dict) for l in doc["layers"])):
        raise FormatError("model 'layers' must be a list of layer objects")
    layers = []
    for idx, spec in enumerate(doc["layers"]):
        try:
            layers.append(
                DenseLayer(_as_f64(spec["weights"]), _as_f64(spec["biases"]), spec.get("activation"))
            )
        except KeyError as exc:
            raise FormatError(f"layer {idx}: missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise FormatError(f"layer {idx}: {exc}") from exc
    try:
        return Network(layers, *dims)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def deserialize(text: str) -> Network:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    return from_json_dict(doc)


def save_model(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(net))


def load_model(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


def parameters_equal(a: Network, b: Network) -> bool:
    """Bitwise parameter equality (shapes included)."""
    return compatible(a, b) and np.array_equal(a.theta, b.theta)
