"""Model-contrastive loss against buffered historical representations.

Each node keeps a sliding buffer of its recent local models.  During a local
iteration, the representations those snapshots (and the current global model)
produce for the minibatch are split into positive and negative samples by
cosine similarity against a per-sample threshold ``mu``, and an InfoNCE-style
term pulls the current representation toward the positives and away from the
negatives.  Buffered and global representations are constants here: the
gradient flows only through the current model's representation.

The threshold for a sample is the similarity between the newest buffered
model's representation and the global one.  With an empty buffer the global
model itself is the reference, so ``mu`` is 1 and only the global term stays
positive.
"""
from __future__ import annotations

import logging
from typing import Iterator

import numpy as np

from .nn import (
    Minibatch,
    ModelParams,
    ModelSpec,
    _backward_cached,
    _dense_cached,
    cross_entropy_and_grad,
    log_softmax,
)
from .nn import forward_representation  # noqa: F401  (perfbench/layers.py wraps it here)

log = logging.getLogger(__name__)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors.

    Identical vectors give exactly 1.0; a zero-norm operand gives 0.0 with a
    logged warning, keeping downstream sums finite.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if np.array_equal(a, b):
        if not a.any():
            log.warning("cosine similarity of zero-norm vectors, returning 0")
            return 0.0
        return 1.0
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        log.warning("cosine similarity with a zero-norm operand, returning 0")
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _cos_rows(a: np.ndarray, b: np.ndarray, na=None, nb=None) -> np.ndarray:
    """Cosine similarity along the last axis, with the same conventions as above.

    Leading axes broadcast; ``na`` and ``nb`` are the row norms of ``a`` and
    ``b`` when the caller already has them.
    """
    na = np.linalg.norm(a, axis=-1) if na is None else na
    nb = np.linalg.norm(b, axis=-1) if nb is None else nb
    denom = na * nb
    bad = denom == 0.0
    dots = np.einsum("...j,...j->...", a, b)
    equal = (a == b).all(axis=-1)
    if bad.any():
        # dead rectifier rows are routine mid-training, so keep this quiet
        log.debug("cosine similarity with zero-norm rows, returning 0 there")
        sims = np.where(bad, 0.0, dots / np.where(bad, 1.0, denom))
        equal &= ~bad
    else:
        sims = dots / denom
    return np.where(equal, 1.0, sims) if equal.any() else sims


def _dcos_rows(
    z: np.ndarray, other: np.ndarray, sims: np.ndarray, nz: np.ndarray, no: np.ndarray
) -> np.ndarray:
    """Gradient of cos(z_i, other_i) in z_i along the last axis; zero where a
    norm is zero.  ``nz`` and ``no`` are the row norms; leading axes broadcast."""
    ok = (nz > 0.0) & (no > 0.0)
    all_ok = ok.all()
    if not all_ok:
        nz, no = np.where(ok, nz, 1.0), np.where(ok, no, 1.0)
    grad = other / (nz * no)[..., None] - sims[..., None] * z / (nz**2)[..., None]
    if not all_ok:
        grad[~ok] = 0.0
    return grad


class LocalBuffer:
    """Sliding window of model snapshots, strictly oldest-first eviction.

    The window is one read-only ``(len, P)`` array, :attr:`rows`, oldest
    first.  Capacity 0 disables buffering (pushes are dropped).  A push
    builds a new array and never writes the old one, so a row read from the
    buffer (a model from :meth:`newest`, say) keeps its values without a copy
    however the buffer moves on.  ``spec`` fixes the row width up front;
    without it the first push does.
    """

    def __init__(self, capacity: int, spec: ModelSpec | None = None):
        if capacity < 0:
            raise ValueError("buffer capacity must be >= 0")
        self.capacity = int(capacity)
        self.spec = spec
        self.rows = np.empty((0, 0 if spec is None else spec.num_params))

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @rows.setter
    def rows(self, rows: np.ndarray) -> None:
        if len(rows) > self.capacity:
            raise ValueError(f"{len(rows)} rows exceed the capacity {self.capacity}")
        rows.flags.writeable = False
        self._rows = rows

    def push(self, params: ModelParams) -> None:
        if self.capacity == 0:
            return
        if self.spec is None:
            self.spec = params.spec()
            self.rows = np.empty((0, self.spec.num_params))
        kept = self.rows[max(len(self) + 1 - self.capacity, 0) :]
        self.rows = np.concatenate([kept, params.vector[None]])

    def newest(self) -> ModelParams | None:
        return ModelParams(self.spec, self.rows[-1]) if len(self) else None

    def oldest(self) -> ModelParams | None:
        return ModelParams(self.spec, self.rows[0]) if len(self) else None

    def entries(self) -> list[ModelParams]:
        """Snapshots ordered oldest to newest, as read-only views of the rows."""
        return list(self)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ModelParams]:
        return (ModelParams(self.spec, row) for row in self.rows)


class TrainBuffers:
    """Every array a local step writes, reused from one step to the next.

    :attr:`stack` holds ``capacity + 3`` models as rows: the current model,
    the threshold reference, the global model, then the window oldest first.
    A step forwards a prefix of it, so the rows are never restacked.
    :meth:`stage` fills it at the start of a participation, :meth:`push`
    moves the current model into the window in place, and SGD writes the
    current row.  The layer pre-activations and outputs have room for
    ``batch_size`` rows of every model; a shorter batch or a lower stack
    uses the leading part of each array, so every view is C-contiguous like
    a fresh array and the reductions over it keep their bits.  One instance
    serves every participation of a run: nothing is carried from one
    :meth:`stage` to the next.
    """

    def __init__(self, spec: ModelSpec, capacity: int, batch_size: int):
        if capacity < 0 or batch_size < 1:
            raise ValueError("buffers need capacity >= 0 and batch_size >= 1")
        self.spec = spec
        self.capacity = capacity
        self.batch_size = batch_size
        self.stack = np.empty((capacity + 3, spec.num_params))
        self.length = 0  # of the window
        self.current = ModelParams(spec, self.stack[0])
        self.grad = ModelParams(spec, np.empty(spec.num_params))
        n_rep = spec.representation_layers
        self._flat = [
            (np.empty(size), np.empty(size))
            for size in (
                (capacity + 3 if i < n_rep else 1) * batch_size * fan_out
                for i, (_, fan_out, _) in enumerate(spec.layer_offsets)
            )
        ]
        self._models: dict[int, ModelParams] = {}
        self._acts: dict[tuple, list] = {}

    def stage(
        self,
        params: ModelParams,
        global_params: ModelParams,
        window,
        mu_reference: ModelParams | None,
    ) -> None:
        """Copy in the current model, the reference (the global model when
        there is none), the global model and ``window``, a
        :class:`LocalBuffer` or its rows."""
        rows = getattr(window, "rows", window)
        if len(rows) > self.capacity:
            raise ValueError(f"{len(rows)} window rows exceed the capacity {self.capacity}")
        self.stack[0] = params.vector
        self.stack[1] = (global_params if mu_reference is None else mu_reference).vector
        self.stack[2] = global_params.vector
        self.length = len(rows)
        if self.length:
            self.stack[3 : 3 + self.length] = rows

    @property
    def window(self) -> np.ndarray:
        """The window's rows, oldest first; a view that :meth:`push` writes."""
        return self.stack[3 : 3 + self.length]

    def push(self) -> None:
        """The current model joins the window as its newest row; at capacity
        the oldest row leaves.  Capacity 0 keeps no window."""
        if not self.capacity:
            return
        if self.length == self.capacity:
            # row by row: one overlapping copy would allocate a temporary
            for i in range(3, 2 + self.length):
                self.stack[i] = self.stack[i + 1]
        else:
            self.length += 1
        self.stack[2 + self.length] = self.stack[0]

    def models(self, height: int) -> ModelParams:
        """The first ``height`` rows of :attr:`stack` as one stack of models,
        whose layer views are built once."""
        stack = self._models.get(height)
        if stack is None:
            stack = self._models[height] = ModelParams(self.spec, self.stack[:height])
        return stack

    def activations(self, height: int | None, n: int) -> list:
        """A (pre-activation, output) pair per layer for ``n`` rows: (height,
        n, width) in the representation layers, or (n, width) with height
        None, and (n, width) in the classifier."""
        acts = self._acts.get((height, n))
        if acts is None:
            if n > self.batch_size:
                raise ValueError(f"buffers hold {self.batch_size} rows, the batch has {n}")
            n_rep = self.spec.representation_layers
            acts = []
            for i, ((_, width, _), flats) in enumerate(zip(self.spec.layer_offsets, self._flat)):
                shape = (n, width) if height is None or i >= n_rep else (height, n, width)
                size = int(np.prod(shape))
                acts.append(tuple(flat[:size].reshape(shape) for flat in flats))
            self._acts[(height, n)] = acts
        return acts


def combined_loss_and_grad(
    params: ModelParams,
    batch: Minibatch,
    global_params: ModelParams,
    buffer,
    temperature: float,
    contrastive_weight: float,
    mu_reference: ModelParams | None = None,
    buffers: TrainBuffers | None = None,
) -> tuple[float, ModelParams]:
    """Cross-entropy plus weighted contrastive term, with its full gradient.

    ``buffer`` is the window of past models, a :class:`LocalBuffer` or its
    (len, P) rows.  ``mu_reference`` is the model whose representation
    anchors the per-sample threshold (callers freeze the buffer head from
    before the round started); ``None`` falls back to the global model,
    making the threshold exactly 1.

    ``buffers`` must hold these arguments, staged by
    :meth:`TrainBuffers.stage` and pushed since, with ``params`` its
    current model; without it they are staged into fresh buffers.  The
    gradient returned lives in the buffers, so the next call overwrites it.

    With ``contrastive_weight`` 0 this is bit-identical to plain cross-entropy
    training: the contrastive machinery is skipped outright.
    """
    if contrastive_weight < 0:
        raise ValueError("contrastive_weight must be >= 0")
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    X = batch.features
    n = X.shape[0]
    if buffers is None:
        buffers = TrainBuffers(params.spec(), len(buffer), n)
        buffers.stage(params, global_params, buffer, mu_reference)
    elif params.vector is not buffers.current.vector or len(buffer) != buffers.length:
        raise ValueError("buffers hold another model or window than the arguments")
    params = buffers.current
    if contrastive_weight == 0.0:
        return cross_entropy_and_grad(params, batch, buffers.activations(None, n), buffers.grad)

    # one stacked pass through the representation layers: the current model,
    # the threshold reference (a second global row when there is none), the
    # global model, snapshots oldest first
    buffered = buffers.length
    stack = buffers.models(buffered + 3 if buffered else 1)
    acts = buffers.activations(len(stack.vector), n)
    n_rep = params.spec().representation_layers
    inputs, pres = [], []
    reps = _dense_cached(
        stack.layers()[:n_rep], X, inputs, pres, rectify_last=True, acts=acts[:n_rep]
    )
    if not n_rep:  # the representation is the input itself
        reps = np.broadcast_to(X, (len(stack.vector), *X.shape))
    # only the current model goes on through the classifier; the first layer's
    # input is the shared batch, the later ones carry the stack axis
    inputs = inputs[:1] + [h[0] for h in inputs[1:]]
    pres = [p[0] for p in pres]
    z = reps[0]
    logits = _dense_cached(
        params.classifier, z, inputs, pres, rectify_last=False, acts=acts[n_rep:]
    )
    lp = log_softmax(logits)
    ce = float(-lp[np.arange(n), batch.labels].mean())
    dlogits = np.exp(lp)
    dlogits[np.arange(n), batch.labels] -= 1.0
    dlogits /= n

    if not buffered:
        return ce, _backward_cached(params, inputs, pres, dlogits, grad=buffers.grad)

    norms = np.linalg.norm(reps, axis=-1)  # (models, n), each used for mu and sims
    others = reps[2:]  # (1 + buffered, n, dim), global first
    nz, no = norms[0], norms[2:]
    if mu_reference is None:
        mu = np.ones(n)
    else:
        mu = _cos_rows(reps[1], reps[2], norms[1], norms[2])

    sims = _cos_rows(z, others, nz, no)
    # snapshot sums run along contiguous (n, buffered) rows: numpy's pairwise
    # summation makes the bits depend on that layout
    s_glob, s_hist = sims[0], np.ascontiguousarray(sims[1:].T)
    pos_mask = s_hist >= mu[:, None]

    tau = temperature
    e_glob = np.exp(s_glob / tau)
    e_hist = np.exp(s_hist / tau)
    pos = e_glob + np.where(pos_mask, e_hist, 0.0).sum(axis=1)
    neg = np.where(pos_mask, 0.0, e_hist).sum(axis=1)
    l_con = np.log1p(neg / pos)
    loss = ce + contrastive_weight * float(l_con.mean())

    dpos = -neg / (pos * (pos + neg))
    dneg = 1.0 / (pos + neg)
    hist_coeff = np.where(pos_mask, dpos[:, None], dneg[:, None]) * e_hist / tau
    coeff = np.vstack([dpos * e_glob / tau, hist_coeff.T])  # (1 + buffered, n)
    # summing over the leading axis adds the terms one by one, global first
    dz = (coeff[..., None] * _dcos_rows(z, others, sims, nz, no)).sum(axis=0)
    dz *= contrastive_weight / n

    return loss, _backward_cached(
        params, inputs, pres, dlogits, dz_extra=dz, grad=buffers.grad
    )
