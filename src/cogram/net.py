"""Minimal dense feed-forward networks with analytic gradients.

Everything is float64 numpy. Networks are treated as immutable values:
operations are either pure or return a new network that shares the
untouched layers with the original. Nothing here mutates parameter
arrays in place; the merge engine writes candidates only into its own
private copy of a layer, so networks it shares stay unchanged.

Parameter addressing convention: a neuron's block is its incoming
weight row plus its bias, and at scalar granularity the bias is
addressable as weight index ``in_dim``. Every parameter is reachable
by exactly one address.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")

MODEL_FORMAT = "cogram-net-v1"


class ShapeError(ValueError):
    """Dimension or address mismatch between arrays/networks."""


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


@dataclass
class Network:
    """Ordered dense layers mapping ``input_dim`` features to ``num_classes`` logits."""

    layers: list[DenseLayer]
    input_dim: int
    num_classes: int

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        if self.layers[0].in_dim != self.input_dim:
            raise ShapeError(
                f"layer 0 expects {self.layers[0].in_dim} inputs, input_dim is {self.input_dim}"
            )
        for k in range(1, len(self.layers)):
            if self.layers[k].in_dim != self.layers[k - 1].out_dim:
                raise ShapeError(
                    f"layer {k} in_dim {self.layers[k].in_dim} != "
                    f"layer {k - 1} out_dim {self.layers[k - 1].out_dim}"
                )
        if self.layers[-1].out_dim != self.num_classes:
            raise ShapeError(
                f"last layer out_dim {self.layers[-1].out_dim} != num_classes {self.num_classes}"
            )


@dataclass(frozen=True)
class StructureAddress:
    """Names a layer, a neuron within it, or a single scalar parameter.

    ``weight == in_dim`` addresses the neuron's bias.
    """

    layer: int
    neuron: int | None = None
    weight: int | None = None

    def __post_init__(self):
        if self.weight is not None and self.neuron is None:
            raise ValueError("weight address requires a neuron index")

    @property
    def level(self) -> str:
        if self.neuron is None:
            return "layer"
        if self.weight is None:
            return "neuron"
        return "weight"


@dataclass
class Gradients:
    """Per-layer weight/bias gradients, shape-congruent with a Network."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def global_norm(self) -> float:
        total = 0.0
        for w, b in zip(self.weights, self.biases):
            total += float(np.sum(w * w)) + float(np.sum(b * b))
        return float(np.sqrt(total))

    def scaled(self, factor: float) -> "Gradients":
        return Gradients(
            weights=[w * factor for w in self.weights],
            biases=[b * factor for b in self.biases],
        )


def compatible(a: Network, b: Network) -> bool:
    """True iff the two networks have identical shapes and activations."""
    if a.input_dim != b.input_dim or a.num_classes != b.num_classes:
        return False
    if len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.weights.shape != lb.weights.shape or la.activation != lb.activation:
            return False
    return True


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


def _activation_derivative(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    if activation == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


def forward_trace(net: Network, x: np.ndarray):
    """Forward pass keeping pre-activations and activations for backprop.

    Returns (pre_activations, activations) where activations[0] is the input
    batch and activations[-1] the logits.
    """
    pres = []
    acts = [x]
    a = x
    for layer in net.layers:
        z = a @ layer.weights.T
        z += layer.biases
        pres.append(z)
        a = _apply_activation(z, layer.activation)
        acts.append(a)
    return pres, acts


def forward(net: Network, inputs) -> np.ndarray:
    """Logits for a batch of inputs (or a single vector). Pure."""
    x = _as_f64(inputs)
    squeezed = x.ndim == 1
    if squeezed:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(f"inputs must have {net.input_dim} features, got shape {x.shape}")
    _, acts = forward_trace(net, x)
    logits = acts[-1]
    return logits[0] if squeezed else logits


def softmax(logits) -> np.ndarray:
    """Max-subtracted softmax over the last axis."""
    z = _as_f64(logits)
    if not np.isfinite(z).all():
        raise ValueError("softmax requires finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits) -> np.ndarray:
    """log(softmax) in fused log-sum-exp form; safe for confident logits."""
    z = _as_f64(logits)
    if not np.isfinite(z).all():
        raise ValueError("log_softmax requires finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _loss_of_logits(loss: str, logits: np.ndarray, targets: np.ndarray) -> float:
    """The one loss kernel: mean cross-entropy of softmax(logits) against
    target distributions, or the mean over samples and output dimensions of
    squared residuals."""
    if loss == "cross_entropy":
        return float(-np.mean(np.sum(targets * log_softmax(logits), axis=-1)))
    if loss == "mse":
        return float(np.mean((logits - targets) ** 2))
    raise ValueError(f"unknown loss {loss!r}")


def _loss_arrays(loss: str, net: Network, inputs, targets) -> float:
    x = _as_f64(inputs)
    if x.shape[0] == 0:
        raise ValueError("empty evaluation set")
    return _loss_of_logits(loss, forward(net, x), _as_f64(targets))


def cross_entropy_arrays(net: Network, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of softmax(logits) against target distributions."""
    return _loss_arrays("cross_entropy", net, inputs, targets)


def mse_arrays(net: Network, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean over samples and output dimensions of squared residuals."""
    return _loss_arrays("mse", net, inputs, targets)


def cross_entropy_loss(net: Network, eval_set) -> float:
    """Mean cross-entropy over an evaluation set (anything with .inputs/.targets)."""
    return cross_entropy_arrays(net, eval_set.inputs, eval_set.targets)


def mse_loss(net: Network, eval_set) -> float:
    """Mean squared error over an evaluation set."""
    return mse_arrays(net, eval_set.inputs, eval_set.targets)


def backward_arrays(
    net: Network, inputs: np.ndarray, targets: np.ndarray, loss: str = "cross_entropy"
) -> tuple[float, Gradients]:
    """Loss and its exact analytic gradient w.r.t. every weight and bias."""
    x = _as_f64(inputs)
    y = _as_f64(targets)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(f"inputs must have {net.input_dim} features, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("empty evaluation set")
    n = x.shape[0]
    pres, acts = forward_trace(net, x)
    logits = acts[-1]

    value = _loss_of_logits(loss, logits, y)
    if loss == "cross_entropy":
        # d(mean CE)/dlogits; holds for any target distribution summing to 1
        delta = (softmax(logits) - y) / n
    else:
        delta = 2.0 * (logits - y) / (n * logits.shape[1])

    grad_w = [None] * len(net.layers)
    grad_b = [None] * len(net.layers)
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        delta = delta * _activation_derivative(pres[k], layer.activation)
        grad_w[k] = delta.T @ acts[k]
        grad_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = delta @ layer.weights
    return value, Gradients(weights=grad_w, biases=grad_b)


def backward(net: Network, eval_set, loss: str = "cross_entropy") -> tuple[float, Gradients]:
    """Backprop over an evaluation set; returns (loss, Gradients)."""
    return backward_arrays(net, eval_set.inputs, eval_set.targets, loss=loss)


# --- addressable extraction / insertion -------------------------------------


def _validate_address(net: Network, addr: StructureAddress) -> DenseLayer:
    if not 0 <= addr.layer < len(net.layers):
        raise ShapeError(f"layer index {addr.layer} out of range")
    layer = net.layers[addr.layer]
    if addr.neuron is not None and not 0 <= addr.neuron < layer.out_dim:
        raise ShapeError(f"neuron index {addr.neuron} out of range for layer {addr.layer}")
    if addr.weight is not None and not 0 <= addr.weight <= layer.in_dim:
        raise ShapeError(
            f"weight index {addr.weight} out of range for layer {addr.layer} "
            f"(bias lives at {layer.in_dim})"
        )
    return layer


def get_structure(net: Network, addr: StructureAddress):
    """Copy out the addressed block.

    Layer blocks are (out_dim, in_dim + 1) with the bias in the last column,
    neuron blocks are length in_dim + 1 with the bias last, weight blocks are
    scalars (index in_dim reads the bias).
    """
    layer = _validate_address(net, addr)
    if addr.neuron is None:
        return np.hstack([layer.weights, layer.biases[:, None]])
    if addr.weight is None:
        return np.append(layer.weights[addr.neuron], layer.biases[addr.neuron])
    if addr.weight == layer.in_dim:
        return float(layer.biases[addr.neuron])
    return float(layer.weights[addr.neuron, addr.weight])


def set_structure(net: Network, addr: StructureAddress, block) -> Network:
    """Return a network with the addressed block replaced.

    All other parameters are the same arrays as in ``net`` (shared, never
    mutated), so byte-identity outside the addressed block is structural.
    """
    layer = _validate_address(net, addr)
    if addr.neuron is None:
        blk = _as_f64(block)
        if blk.shape != (layer.out_dim, layer.in_dim + 1):
            raise ShapeError(
                f"layer block must have shape {(layer.out_dim, layer.in_dim + 1)}, got {blk.shape}"
            )
        new_layer = DenseLayer(blk[:, :-1].copy(), blk[:, -1].copy(), layer.activation)
    elif addr.weight is None:
        blk = _as_f64(block)
        if blk.shape != (layer.in_dim + 1,):
            raise ShapeError(f"neuron block must have length {layer.in_dim + 1}, got {blk.shape}")
        w = layer.weights.copy()
        b = layer.biases.copy()
        w[addr.neuron] = blk[:-1]
        b[addr.neuron] = blk[-1]
        new_layer = DenseLayer(w, b, layer.activation)
    else:
        value = float(block)
        w = layer.weights.copy()
        b = layer.biases.copy()
        if addr.weight == layer.in_dim:
            b[addr.neuron] = value
        else:
            w[addr.neuron, addr.weight] = value
        new_layer = DenseLayer(w, b, layer.activation)
    layers = list(net.layers)
    layers[addr.layer] = new_layer
    return Network(layers, net.input_dim, net.num_classes)


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
    layers = []
    for idx, spec in enumerate(doc["layers"]):
        try:
            weights = _as_f64(spec["weights"])
            biases = _as_f64(spec["biases"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"layer {idx}: bad parameter arrays ({exc})") from exc
        if weights.ndim != 2:
            raise FormatError(f"layer {idx}: weights must be a rectangular matrix")
        if weights.shape[0] != biases.shape[0]:
            raise FormatError(
                f"layer {idx}: declared {weights.shape[0]} rows but {biases.shape[0]} biases"
            )
        activation = spec.get("activation")
        if activation not in ACTIVATIONS:
            raise FormatError(f"layer {idx}: unknown activation {activation!r}")
        if not (np.isfinite(weights).all() and np.isfinite(biases).all()):
            raise FormatError(f"layer {idx}: non-finite parameters")
        layers.append(DenseLayer(weights, biases, activation))
    try:
        return Network(layers, int(doc["input_dim"]), int(doc["num_classes"]))
    except (ShapeError, ValueError) as exc:
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
    if not compatible(a, b):
        return False
    return all(
        np.array_equal(la.weights, lb.weights) and np.array_equal(la.biases, lb.biases)
        for la, lb in zip(a.layers, b.layers)
    )


def max_parameter_difference(a: Network, b: Network) -> float:
    require_compatible(a, b)
    worst = 0.0
    for la, lb in zip(a.layers, b.layers):
        worst = max(worst, float(np.max(np.abs(la.weights - lb.weights), initial=0.0)))
        worst = max(worst, float(np.max(np.abs(la.biases - lb.biases), initial=0.0)))
    return worst
