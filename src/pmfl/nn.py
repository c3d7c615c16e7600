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

One dense routine, :func:`dense`, runs every forward pass: training,
evaluation (:func:`pmfl.metrics.evaluate`) and the public
:func:`forward_logits` and :func:`forward_representation`.  It writes into
a :class:`Workspace`, which also holds the backward pass's arrays and the
gradient, so a training loop or a run's evaluations reuse one set of arrays.

All arithmetic is float64.  Rectifier activations follow every layer except the
final classifier layer, whose raw outputs are the logits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import LabeledDataset

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


def _atleast_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ValueError("x must be a feature vector or a (batch, input_dim) matrix")


def _leading(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading part of a flat array as a C-contiguous array of ``shape``."""
    return flat[: math.prod(shape)].reshape(shape)


class Workspace:
    """Every array a forward or backward pass or an SGD step writes, reused
    from call to call.

    Sized for a stack of up to ``height`` models on up to ``rows`` rows: a
    (pre-activation, output) pair per layer, the scratch arrays of
    :meth:`view` and the model gradient :attr:`grad`.  A pass on fewer rows
    or models uses the leading part of each array, so every view is
    C-contiguous like a fresh array and reductions over it keep their bits.
    A broadcasting ufunc allocates numpy's iteration buffer (up to 64 KiB)
    on every call, so rows and columns are spread to full shape first.
    """

    def __init__(self, spec: ModelSpec, height: int, rows: int):
        if height < 1 or rows < 0:
            raise ValueError("a workspace needs height >= 1 and rows >= 0")
        self.spec, self.height, self.rows = spec, height, rows
        size = height * rows * max(spec.input_dim, *(w for _, w, _ in spec.layer_offsets))
        per_row = ("norms", "sims", "coeff", "row_max", "row_sum", "picked")
        self._sizes = {  # (size, dtype) of each scratch array, made on first use
            **dict.fromkeys((0, 1, 2), (size,)),
            "mask": (size, bool),
            **dict.fromkeys(per_row, (height * rows,)),
            **dict.fromkeys(("pred", "index"), (rows, np.intp)),
            "dz": (rows * spec.representation_dim,),
            "step": (spec.num_params,),
        }
        self._scratch: dict = {}
        self.row_starts = np.arange(rows) * spec.num_classes  # in the flat logits
        self.grad = ModelParams(spec, np.empty(spec.num_params))
        self._views: dict[tuple, object] = {}

    @cached_property
    def _pairs(self) -> list:  # built on first use: passes that keep nothing need none
        size = self.height * self.rows
        return [(np.empty(size * w), np.empty(size * w)) for _, w, _ in self.spec.layer_offsets]

    def activations(self, n: int, height: int | None = None) -> tuple[list, list]:
        """The per-layer pre-activation and output arrays of a pass on ``n``
        rows that keeps them for a backward pass, as two lists.  They are
        (n, width), except that with ``height`` the representation layers
        are (height, n, width), for a stack of models."""
        key = ("pairs", n, height)
        views = self._views.get(key)
        if views is None:
            if n > self.rows or (height or 1) > self.height:
                raise ValueError(f"workspace holds {self.height} models on {self.rows} "
                                 f"rows, the pass needs {height or 1} on {n}")
            n_rep = self.spec.representation_layers
            shapes = [(n, w) if height is None or i >= n_rep else (height, n, w)
                      for i, (_, w, _) in enumerate(self.spec.layer_offsets)]
            views = self._views[key] = tuple(
                [_leading(flats[k], shape) for flats, shape in zip(self._pairs, shapes)]
                for k in (0, 1)
            )
        return views

    def view(self, name, *shape: int) -> np.ndarray:
        """Scratch array ``name`` as an array of ``shape``: operand 0, 1 or 2
        or the boolean ``"mask"``, each the whole stack at the widest layer;
        one value per model and row (``"norms"``, ``"sims"``, ``"coeff"``,
        ``"row_max"``, ``"row_sum"``, ``"picked"``); an index per row
        (``"pred"``, ``"index"``); ``"dz"``, a representation per row; or
        ``"step"``, one model's worth, for :func:`sgd_step`."""
        key = (name, shape)
        view = self._views.get(key)
        if view is None:
            if name not in self._scratch:
                self._scratch[name] = np.empty(*self._sizes[name])
            view = self._views[key] = _leading(self._scratch[name], shape)
        return view

    def spread(self, values: np.ndarray, shape: tuple, k: int = 0) -> np.ndarray:
        """``values`` broadcast to ``shape``, copied into scratch operand ``k``."""
        out = self.view(k, *shape)
        np.copyto(out, values)
        return out


def dense(layers, h: np.ndarray, ws: Workspace, acts=None, rectify_last=False) -> np.ndarray:
    """Run ``h`` through ``layers`` and return the last output; a rectifier
    follows every layer but the last, and the last too with ``rectify_last``.
    The layers of a stack of S models map a shared (n, fan_in) batch to
    (S, n, fan_out).  ``acts``, the two lists of :meth:`Workspace.activations`,
    keeps each layer's pre-activation and output for a backward pass; without
    it the layers write into scratch operands 1 and 2 in turn and rectify in
    place.  Each bias is spread into operand 0 and added without a broadcast.
    """
    for i, (w, b) in enumerate(layers):
        if acts is None:
            pre = out = ws.view(1 + i % 2, *w.shape[:-2], h.shape[-2], w.shape[-2])
        else:
            pre, out = acts[0][i], acts[1][i]
        np.matmul(h, w.mT, out=pre)
        np.add(pre, ws.spread(b[..., None, :], pre.shape), out=pre)
        h = np.maximum(pre, 0.0, out=out) if rectify_last or i < len(layers) - 1 else pre
    return h


def _backward(params: ModelParams, X, pres, outs, dlogits, ws: Workspace, dz=None) -> ModelParams:
    """Backprop from logit gradients into ``ws.grad``, overwriting the
    pre-activations; ``pres`` and ``outs`` are one model's arrays from
    :func:`dense` on the batch ``X``.  ``dz``, the gradient of a loss term
    that reads ``z`` directly, joins where the representation leaves the
    projection block.  The gradient in the input is never formed."""
    layers = params.layers()
    n_rep = params.spec().representation_layers
    grads = ws.grad.layers()  # they tile the vector, so every entry is written
    d = dlogits
    for i in range(len(layers) - 1, -1, -1):
        if dz is not None and i == n_rep - 1:
            np.add(d, dz, out=d)
        if i < len(layers) - 1:
            # d * (pre > 0), with the mask as a float array in place of pre
            np.copyto(pres[i], np.greater(pres[i], 0.0, out=ws.view("mask", *d.shape)))
            d = np.multiply(d, pres[i], out=pres[i])
        np.matmul(d.T, outs[i - 1] if i else X, out=grads[i].weight)
        d.sum(axis=0, out=grads[i].bias)
        if i:
            fan_in = layers[i].weight.shape[1]
            d = np.matmul(d, layers[i].weight, out=ws.view(0, len(d), fan_in))
    return ws.grad


def _forward(params: ModelParams, x: np.ndarray, depth: int, rectify_last: bool) -> np.ndarray:
    """The first ``depth`` layers on a feature vector or a batch, in a fresh
    workspace; a stack of S models adds a leading axis of S."""
    X, single = _atleast_batch(x)
    ws = Workspace(params.spec(), len(params.vector) if params.vector.ndim == 2 else 1, len(X))
    h = dense(params.layers()[:depth], X, ws, rectify_last=rectify_last)
    return h[..., 0, :] if single else h


def forward_representation(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Representation z = projection(encoder(x)); accepts a vector or a batch.
    A stack of S models adds a leading axis of S to the result."""
    return _forward(params, x, params.spec().representation_layers, rectify_last=True)


def forward_logits(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class logits for a feature vector or a batch of rows."""
    return _forward(params, x, len(params.layers()), rectify_last=False)


def _nll(logits: np.ndarray, data: LabeledDataset, ws: Workspace) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of ``data``'s labels under softmax(``logits``)
    and the labels' flat indices; the (n, classes) ``logits`` become their
    log-softmax in place.  The loss is the reference ``cross_entropy`` of
    ``tests/oracles.py`` bit for bit: the ufunc reductions and
    ``add.reduce(x) / n`` are the arithmetic of its ``max``, ``sum`` and
    ``mean`` in fewer Python calls.  It refuses an empty set or one of more classes.
    """
    n, classes = logits.shape
    if n == 0:
        raise ValueError("cannot score an empty set")
    if data.num_classes > classes:
        raise ValueError(f"the set has {data.num_classes} classes, the model {classes}")
    row_max = np.maximum.reduce(logits, axis=-1, keepdims=True, out=ws.view("row_max", n, 1))
    shifted = np.subtract(logits, ws.spread(row_max, logits.shape), out=logits)
    exp = np.exp(shifted, out=ws.view(0, n, classes))  # once the spread row_max is read
    row_sum = np.add.reduce(exp, axis=-1, keepdims=True, out=ws.view("row_sum", n, 1))
    np.log(row_sum, out=row_sum)
    log_probs = np.subtract(shifted, ws.spread(row_sum, logits.shape), out=shifted)
    index = np.add(ws.row_starts[:n], data.labels, out=ws.view("index", n))
    # labels lie below the set's class count; a mode but "raise" writes ``out`` unbuffered
    picked = np.take(log_probs.reshape(-1), index, out=ws.view("picked", n), mode="clip")
    return float(-(np.add.reduce(picked) / n)), index


def _cross_entropy_head(logits: np.ndarray, data: LabeledDataset, ws: Workspace) -> float:
    """Mean cross-entropy of ``data``'s labels; the logits become its gradient in place."""
    loss, index = _nll(logits, data, ws)
    np.exp(logits, out=logits)
    logits.reshape(-1)[index] -= 1.0
    logits /= len(logits)
    return loss


def cross_entropy_and_grad(
    params: ModelParams, batch: LabeledDataset, workspace: Workspace | None = None
) -> tuple[float, ModelParams]:
    """Mean cross-entropy over the batch and its gradient in all three blocks.

    The pass runs in ``workspace`` (a fresh one without it), and the
    gradient returned is its :attr:`Workspace.grad`, which the next call
    overwrites.
    """
    n = batch.num_samples
    ws = Workspace(params.spec(), 1, n) if workspace is None else workspace
    acts = ws.activations(n)
    logits = dense(params.layers(), batch.features, ws, acts)
    loss = _cross_entropy_head(logits, batch, ws)
    return loss, _backward(params, batch.features, *acts, logits, ws)


def sgd_step(
    params: ModelParams,
    grad: ModelParams,
    lr: float,
    out: ModelParams | None = None,
    ws: Workspace | None = None,
) -> ModelParams:
    """One descent step ``p - lr * g``, written into ``out`` (which may be
    ``params`` itself) or, without it, into fresh parameters.

    ``lr * g`` is formed in ``out`` when that is not ``params``; a step in
    place forms it in ``ws``'s ``"step"`` scratch, or in a fresh array
    without ``ws``.
    """
    if out is None:
        out = ModelParams(params.spec(), np.empty_like(params.vector))
    if not np.may_share_memory(out.vector, params.vector):
        scaled = out.vector
    elif ws is not None:
        scaled = ws.view("step", params.num_params)
    else:
        scaled = np.empty_like(params.vector)
    np.multiply(grad.vector, lr, out=scaled)
    np.subtract(params.vector, scaled, out=out.vector)
    return out


def param_delta(after: ModelParams, before: ModelParams) -> np.ndarray:
    """Flat update vector ``after - before``."""
    return after.vector - before.vector
