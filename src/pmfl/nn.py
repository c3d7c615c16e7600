"""Dense feedforward model split into encoder, projection and classifier blocks.

The representation fed to the contrastive loss is the projection output
``z = projection(encoder(x))``; the classifier maps ``z`` to logits.

A model, and a gradient alike, is one :class:`ModelParams`: a single owned,
contiguous float64 vector plus its :class:`ModelSpec`.  The per-layer
``weight``/``bias`` arrays in its ``encoder``, ``projection`` and
``classifier`` lists are views into that vector, so writing through a layer
writes the model, and whole-model arithmetic (SGD steps, update deltas,
aggregation, snapshots) is one vector operation.  Layout: encoder, projection,
classifier; within a layer the weight (row-major) comes before the bias.
A ``(S, P)`` array of such vectors is a stack of S models: its layer views
carry the leading axis, and one forward pass evaluates every model in it.
The training passes can write their activations, the gradient and the SGD
step into arrays the caller owns, so a training loop reuses one set of them
(:class:`pmfl.contrastive.TrainBuffers`).

All arithmetic is float64.  Rectifier activations follow every layer except the
final classifier layer, whose raw outputs are the logits.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

BLOCKS = ("encoder", "projection", "classifier")


class Layer(NamedTuple):
    weight: np.ndarray  # (fan_out, fan_in)
    bias: np.ndarray  # (fan_out,)


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths for the three blocks.

    ``encoder`` and ``projection`` may be empty (the representation then falls
    back to the previous block's output); the classifier needs at least one
    layer and its last width is the number of classes.
    """

    input_dim: int
    encoder: tuple[int, ...]
    projection: tuple[int, ...]
    classifier: tuple[int, ...]

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if len(self.classifier) < 1:
            raise ValueError("classifier needs at least one layer")
        for block in BLOCKS:
            if any(int(w) < 1 for w in getattr(self, block)):
                raise ValueError(f"{block} widths must be >= 1")

    @property
    def num_classes(self) -> int:
        return self.classifier[-1]

    @property
    def representation_layers(self) -> int:
        """Layers from the input to the representation: encoder and projection."""
        return len(self.encoder) + len(self.projection)

    @property
    def representation_dim(self) -> int:
        for dims in (self.projection, self.encoder):
            if dims:
                return dims[-1]
        return self.input_dim

    def block_shapes(self, block: str) -> list[tuple[int, int]]:
        """(fan_out, fan_in) pairs for every layer of ``block``."""
        fan_in = self.input_dim
        for name in BLOCKS:
            shapes = []
            for width in getattr(self, name):
                shapes.append((int(width), fan_in))
                fan_in = int(width)
            if name == block:
                return shapes
        raise ValueError(f"unknown block {block!r}")

    @cached_property
    def layer_offsets(self) -> tuple[tuple[int, int, int], ...]:
        """(start, fan_out, fan_in) of every layer in the flat layout, in order."""
        out = []
        pos = 0
        for block in BLOCKS:
            for fan_out, fan_in in self.block_shapes(block):
                out.append((pos, fan_out, fan_in))
                pos += fan_out * fan_in + fan_out
        return tuple(out)

    @property
    def num_params(self) -> int:
        start, fan_out, fan_in = self.layer_offsets[-1]
        return start + fan_out * fan_in + fan_out


def _layer_views(spec: ModelSpec, vector: np.ndarray) -> list[Layer]:
    """Every layer's weight and bias as views into ``vector``; leading axes stay."""
    lead = vector.shape[:-1]
    views = []
    for start, fan_out, fan_in in spec.layer_offsets:
        stop = start + fan_out * fan_in
        views.append(
            Layer(
                vector[..., start:stop].reshape(*lead, fan_out, fan_in),
                vector[..., stop : stop + fan_out],
            )
        )
    return views


class ModelParams:
    """Concrete weights for one model: a flat vector and per-layer views into it.

    The constructor adopts a contiguous float64 ``vector`` without copying
    it, so the caller hands over ownership (a read-only vector gives a
    read-only model).  A ``(S, P)`` vector is a stack of S models, which the
    forward passes accept.  The layer views are built on first use, since
    most models (SGD results, window rows, stacks) are only ever read as a
    vector.  Pickling and deep-copying carry (spec, vector), so a clone's
    layers alias the clone's own vector.
    """

    def __init__(self, spec: ModelSpec, vector: np.ndarray):
        vector = np.ascontiguousarray(vector, dtype=np.float64)
        if vector.ndim not in (1, 2) or vector.shape[-1] != spec.num_params:
            raise ValueError(
                f"flat vector has {vector.shape} entries, spec needs {spec.num_params}"
            )
        self._spec = spec
        self.vector = vector

    def __reduce__(self):
        return ModelParams, (self._spec, self.vector)

    def spec(self) -> ModelSpec:
        return self._spec

    @cached_property
    def _layers(self) -> list[Layer]:
        return _layer_views(self._spec, self.vector)

    def layers(self) -> list[Layer]:
        return self._layers

    @property
    def encoder(self) -> list[Layer]:
        return self._layers[: len(self._spec.encoder)]

    @property
    def projection(self) -> list[Layer]:
        return self._layers[len(self._spec.encoder) : self._spec.representation_layers]

    @property
    def classifier(self) -> list[Layer]:
        return self._layers[self._spec.representation_layers :]

    @property
    def num_params(self) -> int:
        return self.vector.shape[-1]

    def copy(self) -> "ModelParams":
        return ModelParams(self._spec, self.vector.copy())


@dataclass
class Minibatch:
    """A batch of rows: ``features`` (batch, input_dim), integer ``labels``."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D (batch, input_dim)")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels must be 1-D and match the batch size")
        if self.features.shape[0] < 1:
            raise ValueError("batch must hold at least one row")


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ModelParams:
    """Uniform [-s, s] weights with s = sqrt(6 / (fan_in + fan_out)); zero biases.

    Weights are drawn layer by layer in layout order.
    """
    params = ModelParams(spec, np.zeros(spec.num_params))
    for layer in params.layers():
        fan_out, fan_in = layer.weight.shape
        s = np.sqrt(6.0 / (fan_in + fan_out))
        layer.weight[...] = rng.uniform(-s, s, size=(fan_out, fan_in))
    return params


def flatten(params: ModelParams) -> np.ndarray:
    """The model's flat vector (see the module docstring for the layout).

    A read-only view, not a copy: it follows later writes to the model, and
    a caller that needs to change it copies it first.  Inverse of
    :func:`unflatten`.
    """
    flat = params.vector.view()
    flat.flags.writeable = False
    return flat


def unflatten(spec: ModelSpec, flat: np.ndarray) -> ModelParams:
    """Parameters holding a copy of ``flat`` (see :func:`flatten`)."""
    return ModelParams(spec, np.array(flat, dtype=np.float64))


def partition_slices(spec: ModelSpec) -> dict[str, slice]:
    """Index ranges of each block inside the flat layout; disjoint and covering."""
    out = {}
    pos = 0
    for block in BLOCKS:
        size = sum(o * i + o for o, i in spec.block_shapes(block))
        out[block] = slice(pos, pos + size)
        pos += size
    return out


def _atleast_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ValueError("x must be a feature vector or a (batch, input_dim) matrix")


def _dense_cached(
    layers, h, inputs: list, pres: list, rectify_last: bool, acts=None
) -> np.ndarray:
    """Run ``h`` through ``layers``, appending each layer's input and
    pre-activation to ``inputs`` and ``pres``; a rectifier follows every layer
    but the last, and the last too with ``rectify_last``.  Layers of a stack
    of S models map a shared (n, fan_in) batch to (S, n, fan_out).

    ``acts`` holds a (pre-activation, output) pair of C-contiguous arrays
    per layer to write into; fresh arrays are allocated without it.
    """
    for i, (w, b) in enumerate(layers):
        pre_out, h_out = (None, None) if acts is None else acts[i]
        inputs.append(h)
        pre = np.matmul(h, w.mT, out=pre_out)
        pre += b[..., None, :]
        pres.append(pre)
        h = np.maximum(pre, 0.0, out=h_out) if rectify_last or i < len(layers) - 1 else pre
    return h


def _forward_cached(params: ModelParams, X: np.ndarray, acts=None):
    """Forward pass keeping per-layer inputs and pre-activations for backprop;
    a stack of S models maps the (n, input_dim) batch to (S, n, ...) outputs.
    ``acts`` is as in :func:`_dense_cached`, one pair per layer of the model."""
    layers = params.layers()
    n_rep = params.spec().representation_layers
    rep_acts, head_acts = (None, None) if acts is None else (acts[:n_rep], acts[n_rep:])
    inputs, pres = [], []
    z = _dense_cached(layers[:n_rep], X, inputs, pres, rectify_last=True, acts=rep_acts)
    logits = _dense_cached(layers[n_rep:], z, inputs, pres, rectify_last=False, acts=head_acts)
    return logits, z, inputs, pres


def _backward_cached(
    params: ModelParams,
    inputs: list[np.ndarray],
    pres: list[np.ndarray],
    dlogits: np.ndarray,
    dz_extra: np.ndarray | None = None,
    grad: ModelParams | None = None,
) -> ModelParams:
    """Backprop from logit gradients (plus an optional representation gradient).

    ``dz_extra`` is added where the representation leaves the projection block,
    which is how a loss term that reads ``z`` directly joins the chain.  The
    gradient comes back in the model's own layout, written through its views,
    into ``grad`` when given and into fresh parameters otherwise.  The
    gradient in the input is never formed: nothing reads it.
    """
    layers = params.layers()
    n_rep = params.spec().representation_layers
    # every entry is written below: the layer views tile the vector
    if grad is None:
        grad = ModelParams(params.spec(), np.empty(params.num_params))
    d = dlogits
    for i in range(len(layers) - 1, -1, -1):
        if dz_extra is not None and i == n_rep - 1:
            d = d + dz_extra
        dpre = d if i == len(layers) - 1 else d * (pres[i] > 0.0)
        g = grad.layers()[i]
        np.matmul(dpre.T, inputs[i], out=g.weight)
        dpre.sum(axis=0, out=g.bias)
        if i:
            d = dpre @ layers[i].weight
    return grad


def forward_representation(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Representation z = projection(encoder(x)); accepts a vector or a batch.
    A stack of S models adds a leading axis of S to the result."""
    X, single = _atleast_batch(x)
    _, z, _, _ = _forward_cached(params, X)
    return z[..., 0, :] if single else z


def forward_logits(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class logits for a feature vector or a batch of rows.

    Nothing is kept for a backward pass, so each layer's output is
    rectified in place; the values are those of :func:`_forward_cached`.
    """
    X, single = _atleast_batch(x)
    layers = params.layers()
    h = X
    for i, (w, b) in enumerate(layers):
        h = h @ w.mT
        h += b[..., None, :]
        if i < len(layers) - 1:
            np.maximum(h, 0.0, out=h)
    return h[0] if single else h


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of ``labels`` under softmax(``logits``)."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    _check_labels(labels, logits.shape[-1])
    lp = log_softmax(logits)
    return float(-lp[np.arange(labels.shape[0]), labels].mean())


def cross_entropy_and_grad(
    params: ModelParams,
    batch: Minibatch,
    acts: list | None = None,
    grad: ModelParams | None = None,
) -> tuple[float, ModelParams]:
    """Mean cross-entropy over the batch and its gradient in all three blocks.

    The layer activations go into ``acts`` (see :func:`_dense_cached`) and
    the gradient into ``grad`` where they are given.
    """
    logits, _, inputs, pres = _forward_cached(params, batch.features, acts)
    _check_labels(batch.labels, logits.shape[-1])
    n = batch.labels.shape[0]
    lp = log_softmax(logits)
    loss = float(-lp[np.arange(n), batch.labels].mean())
    dlogits = np.exp(lp)
    dlogits[np.arange(n), batch.labels] -= 1.0
    dlogits /= n
    return loss, _backward_cached(params, inputs, pres, dlogits, grad=grad)


def sgd_step(
    params: ModelParams, grad: ModelParams, lr: float, out: ModelParams | None = None
) -> ModelParams:
    """One descent step ``p - lr * g``, written into ``out`` (which may be
    ``params`` itself) or, without it, into fresh parameters."""
    if out is None:
        out = ModelParams(params.spec(), np.empty_like(params.vector))
    np.subtract(params.vector, lr * grad.vector, out=out.vector)
    return out


def param_delta(after: ModelParams, before: ModelParams) -> np.ndarray:
    """Flat update vector ``after - before``."""
    return after.vector - before.vector
