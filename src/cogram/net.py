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

Losses are measured on a ``synthdata.Dataset``, rows and their class labels.
``cross_entropy_loss`` and ``mse_loss`` each run ``forward`` and then the
loss kernel, which reads each row's logit at its label and never writes into
the logits; ``loss_function`` picks one by name. Without backprop, over
``BLOCK_ROWS`` rows or more, the kernel takes the cross-entropy class-major:
one copy of the logits into a (C, N) buffer, then whole-row operations over
its class rows, which cost less there than one reduction per row over a few
classes. Its sums replicate numpy's pairwise order of additions for a
contiguous run of C values, so each loss is the row-major one bit for bit;
the row-major kernel keeps backprop and smaller sets, where it is the
faster one, and is the tests' oracle.
All three parts take a leading stack axis. A ``NetworkStack`` holds several
networks of one shape as the rows of one parameter matrix; ``forward``, the
losses and ``backward_arrays`` take it wherever they take a network and run
all its networks in one pass, every logit, loss and gradient bit-identical
to its own single-network one.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass

import numpy as np

from .synthdata import Dataset

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
    all in place. ``forward``, the losses and ``backward_arrays`` run a stack
    as one network whose activations, losses and gradient carry a leading
    axis of S.
    """

    def __init__(self, net: Network, theta: np.ndarray):
        if theta.ndim != 2 or len(theta) == 0:
            raise ShapeError(f"a stack's parameters are one row per network, got {theta.shape}")
        self.networks = tuple(net.with_theta(row) for row in theta)
        self.net, self.theta = net, theta
        self._plan = net._plan_of(theta)


def _parts(net: Network | NetworkStack, inputs) -> tuple[Network, tuple, tuple, np.ndarray]:
    """What a pass of ``net`` over ``inputs`` runs on: the network whose shape
    ``net`` has, the plan of the forward loop, the stack axes (``()``, or
    ``(S,)`` for a stack of S) and the inputs as float64, (N, d) or, for a
    stack, (S, N, d). Raises ShapeError if the inputs do not fit."""
    shape, plan, lead = net, net._plan, ()
    if isinstance(net, NetworkStack):
        shape, lead = net.net, net.theta.shape[:-1]
    x = _as_f64(inputs)
    if x.ndim < 2 or x.shape[:-2] not in ((), lead) or x.shape[-1] != shape.input_dim:
        raise ShapeError(f"inputs must have {shape.input_dim} features, got shape {x.shape}")
    return shape, plan, lead, x


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
    the finiteness mask, two values per row, one kept as a column, and each
    row's offset and label position in the flat logits). One workspace serves
    any network of the same shape; it holds no state between calls. With
    ``stack`` every buffer gets a leading axis of that length, for a
    ``NetworkStack`` of that many networks.

    With ``backprop`` it also holds what ``backward_arrays`` needs: the
    gathered batch ``x`` and ``labels``; the derivative of the loss with
    respect to each hidden layer's output (``deltas[k]``, layer k + 1's delta
    times its weights); and each layer's activation derivative (``slopes``).
    """

    def __init__(self, net: Network, rows: int, stack: int | None = None,
                 backprop: bool = False):
        lead = () if stack is None else (stack,)
        self.key = (lead, rows, net._shapes)
        self.acts = [np.empty(lead + (rows, out_dim)) for out_dim, _ in net._shapes]
        self.exp = np.empty(lead + (rows, net.num_classes))
        self.finite = np.empty(lead + (rows, net.num_classes), dtype=bool)
        self.col = np.empty(lead + (rows, 1))
        self.row = np.empty(lead + (rows,))
        self.offsets = np.arange(0, self.exp.size, net.num_classes).reshape(self.row.shape)
        self.at = np.empty(lead + (rows,), dtype=np.int64)
        self.backprop = backprop
        if backprop:
            self.x = np.empty(lead + (rows, net.input_dim))
            self.labels = np.empty(lead + (rows,), dtype=np.int64)
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


def _require_workspace(work: Workspace, net: Network, lead: tuple, rows: int,
                       backprop: bool = False) -> None:
    """Raise ShapeError unless ``work`` was made for ``rows`` rows of networks
    shaped like ``net`` with the stack axes ``lead``, and for backprop if asked."""
    if work.key != (lead, rows, net._shapes) or (backprop and not work.backprop):
        raise ShapeError(f"workspace does not fit {'backprop' if backprop else 'a pass'} "
                         f"over {lead + (rows,)} rows of layers {net._shapes}")


def forward(net: Network | NetworkStack, inputs, work: Workspace | None = None) -> np.ndarray:
    """Logits (N, C) for a batch of inputs (N, d). Pure. A ``NetworkStack``
    of S networks gives (S, N, C) logits, of inputs its networks share or of
    (S, N, d) ones.

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
    shape, plan, lead, x = _parts(net, inputs)
    n = x.shape[-2]
    if work is not None:
        _require_workspace(work, shape, lead, n)
        return _forward_into(plan, x, work.acts)
    blocks = _row_blocks(n, min(out_dim for out_dim, _ in shape._shapes))
    rows = max((stop - start for start, stop in blocks), default=0)
    hidden = [np.empty(lead + (rows, out_dim)) for out_dim, _ in shape._shapes[:-1]]
    logits = np.empty(lead + (n, shape.num_classes))
    for start, stop in blocks:
        acts = [h[..., : stop - start, :] for h in hidden] + [logits[..., start:stop, :]]
        _forward_into(plan, x[..., start:stop, :], acts)
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


def _require_finite(z: np.ndarray, caller: str, finite=None) -> None:
    """Raise unless every logit is finite; ``finite`` is a boolean scratch
    array shaped like ``z``, or None."""
    if not np.logical_and.reduce(np.isfinite(z, out=finite), axis=None):
        raise ValueError(f"{caller} requires finite logits")


def _shift(z: np.ndarray, caller: str, work: Workspace | None = None):
    """The logits minus their maximum over the last axis, into ``work.exp``
    when given, and that maximum as a column, into ``work.col``. Rejects
    non-finite logits."""
    finite, shifted, col = (None, None, None) if work is None else (work.finite, work.exp, work.col)
    _require_finite(z, caller, finite)
    top = np.maximum.reduce(z, axis=-1, keepdims=True, out=col)
    return np.subtract(z, top, out=shifted), top


def softmax(logits) -> np.ndarray:
    """Max-subtracted softmax over the last axis."""
    e = np.exp(_shift(_as_f64(logits), "softmax")[0])
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _pairwise_class_sum(a: np.ndarray, lo: int, n: int) -> np.ndarray:
    """Rows ``lo`` to ``lo + n`` of axis -2 of ``a`` summed in place into row
    ``lo``, which is returned, in the order numpy's ``add.reduce`` sums a
    contiguous run of n values (its pairwise sum): under 8 values one by one;
    up to 128, eight partial sums r_j = a_j + a_(j+8) + ... over the first
    n - n % 8 values, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the rest one by one; above 128, the two halves split at n // 2 rounded
    down to a multiple of 8, each summed the same way. The other rows are
    left as scratch."""
    if n > 128:
        half = n // 2 - n // 2 % 8
        _pairwise_class_sum(a, lo, half)
        a[..., lo, :] += _pairwise_class_sum(a, lo + half, n - half)
        return a[..., lo, :]
    rest = lo + 1
    if n >= 8:
        rest = lo + n - n % 8
        for i in range(lo + 8, rest, 8):
            a[..., lo:lo + 8, :] += a[..., i:i + 8, :]
        a[..., lo:lo + 8:2, :] += a[..., lo + 1:lo + 8:2, :]
        a[..., lo:lo + 8:4, :] += a[..., lo + 2:lo + 8:4, :]
        a[..., lo, :] += a[..., lo + 4, :]
    for i in range(rest, lo + n):
        a[..., lo, :] += a[..., i, :]
    return a[..., lo, :]


def _at_labels(a: np.ndarray, at: np.ndarray, out=None) -> np.ndarray:
    """The entries of (..., N, C) ``a`` at the flat positions ``at`` of the
    rows' labels (checked before; mode "raise" would copy ``out``)."""
    return np.take(a.reshape(-1), at, out=out, mode="clip")


def _class_major_cross_entropy(logits: np.ndarray, at: np.ndarray, work: Workspace | None):
    """Each row's log-softmax at its label, the row-major kernel's values bit
    for bit, taken over contiguous rows of one class each. The logits are
    copied once into a (C, N) buffer (``work.exp`` when given); the row max
    and the exp sums then run as whole-row operations, the sums in numpy's
    own order of additions (``_pairwise_class_sum``)."""
    *lead, rows, classes = logits.shape
    shape = (*lead, classes, rows)
    _require_finite(logits, "log_softmax", None if work is None else work.finite)
    shifted = np.empty(shape) if work is None else work.exp.reshape(shape)
    np.copyto(shifted, logits.swapaxes(-1, -2))
    row = np.empty((*lead, 1, rows)) if work is None else work.row[..., None, :]
    shifted -= np.maximum.reduce(shifted, axis=-2, keepdims=True, out=row)
    picked = _at_labels(logits, at, None if work is None else work.col[..., 0])
    picked -= row[..., 0, :]
    e = np.exp(shifted, out=shifted)
    np.log(_pairwise_class_sum(e, 0, classes), out=row[..., 0, :])
    return np.subtract(picked, row[..., 0, :], out=picked)


def _loss_of_logits(
    loss: str, logits: np.ndarray, labels: np.ndarray, work: Workspace | None = None
):
    """The one loss kernel: mean cross-entropy of softmax(logits) at each
    row's class label, or the mean over samples and output dimensions of
    squared residuals from the one-hot target of each row's label.

    ``logits`` (N, C) give one loss, a float. Logits with a leading stack
    axis, (S, N, C) against (N,) labels or (S, N) ones, give a list of S
    losses, each reduced exactly as the loss of its (N, C) slice alone. The
    labels are integers in 0..C-1, checked by the caller. The logits are only
    read; every intermediate goes into ``work``'s scratch when given, else
    into new arrays. The flat positions of the rows' labels stay in
    ``work.at``, and with a workspace made for backprop the cross-entropy
    leaves the softmax in ``work.exp``, for the backward pass. Without
    backprop, over ``BLOCK_ROWS`` rows or more, the cross-entropy runs
    class-major (``_class_major_cross_entropy``): its per-row reductions over
    a few classes cost more there than the arithmetic, and it gives the same
    bits.
    """
    if work is None:
        at = np.arange(0, logits.size, logits.shape[-1]).reshape(logits.shape[:-1]) + labels
    else:
        at = np.add(work.offsets, labels, out=work.at)
    if loss == "cross_entropy":
        keep = work is not None and work.backprop
        if keep or logits.shape[-2] < BLOCK_ROWS:
            shifted, top = _shift(logits, "log_softmax", work)
            values = _at_labels(shifted, at, None if work is None else work.row)
            e = np.exp(shifted, out=shifted)
            sums = np.add.reduce(e, axis=-1, keepdims=True, out=top)
            if keep:
                e /= sums  # the softmax, for the backward pass
            values -= np.log(sums, out=sums)[..., 0]
        else:
            values = _class_major_cross_entropy(logits, at, work)
        sign = -1.0
    elif loss == "mse":
        values = np.empty(logits.shape) if work is None else work.exp
        np.copyto(values, logits)
        np.subtract.at(values.reshape(-1), at, 1.0)  # minus the one-hot targets
        np.square(values, out=values)
        sign = 1.0
    else:
        raise ValueError(f"unknown loss {loss!r}")
    # the mean np.mean takes: one add.reduce over all values, over their count
    if logits.ndim == 2:
        return sign * float(np.add.reduce(values, axis=None) / values.size)
    return [sign * float(np.add.reduce(v, axis=None) / v.size) for v in values]


def _loss(kind: str, net: Network | NetworkStack, dataset: Dataset,
          work: Workspace | None) -> float | list[float]:
    logits = forward(net, dataset.features, work=work)
    if logits.shape[-1] != dataset.num_classes:
        raise ShapeError(f"a dataset of {dataset.num_classes} classes does not fit a "
                         f"network of {logits.shape[-1]} logits")
    return _loss_of_logits(kind, logits, dataset.labels, work)


def cross_entropy_loss(net: Network | NetworkStack, dataset: Dataset,
                       work: Workspace | None = None) -> float | list[float]:
    """Mean cross-entropy of softmax(logits) at the rows' labels; a list of
    one per network for a ``NetworkStack``.

    With ``work`` (a ``Workspace`` for the set's rows) the whole pass runs
    into its buffers and allocates no array.
    """
    return _loss("cross_entropy", net, dataset, work)


def mse_loss(net: Network | NetworkStack, dataset: Dataset,
             work: Workspace | None = None) -> float | list[float]:
    """Mean over rows and output dimensions of squared residuals from the
    one-hot targets of the rows' labels; ``work`` as for cross_entropy_loss."""
    return _loss("mse", net, dataset, work)


def loss_function(kind: str):
    """``cross_entropy_loss`` or ``mse_loss``, by name."""
    if kind == "cross_entropy":
        return cross_entropy_loss
    if kind == "mse":
        return mse_loss
    raise ValueError(f"unknown loss {kind!r}")


def cross_entropy_arrays(net: Network, inputs: np.ndarray, targets: np.ndarray) -> float:
    """cross_entropy_loss over these rows; their (N, C) targets must be one-hot."""
    y = _as_f64(targets)
    if y.ndim != 2 or not (np.isin(y, (0.0, 1.0)).all() and (y.sum(axis=-1) == 1.0).all()):
        raise ValueError(f"targets must be one-hot rows, got shape {y.shape}")
    return cross_entropy_loss(net, Dataset(inputs, np.argmax(y, axis=-1), y.shape[-1]))


def backward_arrays(
    net: Network | NetworkStack, inputs: np.ndarray, labels: np.ndarray,
    loss: str = "cross_entropy", out: np.ndarray | None = None, work: Workspace | None = None,
) -> tuple[float | list[float], np.ndarray]:
    """Loss over rows with integer class ``labels`` and its exact analytic
    gradient w.r.t. every weight and bias.

    The gradient is one vector laid out like ``theta``: written into ``out``
    when given (which must have ``theta``'s shape, and is returned as the
    second value), into a new vector otherwise. Every other array goes into
    ``work``, a ``Workspace`` with ``backprop`` for these rows, or into one
    made for the call.

    A ``NetworkStack`` of S networks takes (S, N, d) inputs and (S, N)
    labels, or (N,) ones they share, and gives a list of S losses and an
    (S, P) gradient; each network's loss and gradient are bit-identical to
    its own call.
    """
    shape, plan, lead, x = _parts(net, inputs)
    n = x.shape[-2]
    if n == 0:
        raise ValueError("empty evaluation set")
    labels = np.asarray(labels)
    if labels.shape not in (lead + (n,), (n,)):
        raise ShapeError(f"labels of shape {labels.shape} do not fit rows {lead + (n,)}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    low, high = labels.min(), labels.max()
    if low < 0 or high >= shape.num_classes:
        raise ValueError(f"label {low if low < 0 else high} is outside the label range "
                         f"0..{shape.num_classes - 1}")
    if out is None:
        out = np.empty(lead + shape.theta.shape)
    shape.require_layout(out, "gradient buffer", lead)
    if work is None:
        work = Workspace(shape, n, *lead, backprop=True)
    _require_workspace(work, shape, lead, n, backprop=True)
    logits = _forward_into(plan, x, work.acts)
    value = _loss_of_logits(loss, logits, labels, work)

    # d(mean loss)/dlogits from the one-hot targets of the labels: the
    # cross-entropy's (softmax - onehot) / n, its softmax left in work.exp by
    # the loss, or the squared error's 2 (logits - onehot) / (n C)
    delta = work.exp
    if loss == "mse":
        np.copyto(delta, logits)
    np.subtract.at(delta.reshape(-1), work.at, 1.0)
    if loss == "cross_entropy":
        delta /= n
    else:
        delta *= 2.0
        delta /= n * shape.num_classes

    grad_w, grad_b = shape.layer_views(out)
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
