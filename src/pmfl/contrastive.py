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

A local step runs in a :class:`TrainBuffers`: the stack of models it
forwards, shifted in place, and a :class:`pmfl.nn.Workspace` that takes every
array the step writes, from the stacked pass through the norms, cosines and
coefficients of the contrastive term to its gradient ``dz`` and the model's.
"""
from __future__ import annotations

import logging

import numpy as np

from .data import LabeledDataset
from .nn import (
    ModelParams,
    ModelSpec,
    Workspace,
    _backward,
    _cross_entropy_head,
    cross_entropy_and_grad,
    dense,
)
from .nn import forward_representation  # noqa: F401  (perfbench/layers.py wraps it here)

log = logging.getLogger(__name__)


def _cos_rows(a, b, na=None, nb=None, out=None, mask=None) -> np.ndarray:
    """Cosine similarity along the last axis, with the conventions of the
    scalar reference in ``tests/oracles.py``: identical rows give exactly 1,
    and a zero-norm operand gives 0.

    Leading axes broadcast; ``na`` and ``nb`` are the row norms of ``a`` and
    ``b`` when the caller has them, ``out`` takes the cosines and the boolean
    ``mask`` the elementwise comparison of ``a`` and ``b``."""
    na = np.linalg.norm(a, axis=-1) if na is None else na
    nb = np.linalg.norm(b, axis=-1) if nb is None else nb
    sims = np.einsum("...j,...j->...", a, b, out=out)
    denom = na * nb
    bad = denom == 0.0
    np.copyto(denom, 1.0, where=bad)
    sims /= denom
    np.copyto(sims, 1.0, where=np.equal(a, b, out=mask).all(axis=-1))
    if bad.any():
        # dead rectifier rows are routine mid-training, so keep this quiet
        log.debug("cosine similarity with zero-norm rows, returning 0 there")
        np.copyto(sims, 0.0, where=bad)
    return sims


class LocalBuffer:
    """Sliding window of model snapshots, strictly oldest-first eviction: the
    server's past global models.

    The window is one read-only ``(len, P)`` array, :attr:`rows`, oldest
    first, whose rows are models of ``spec``.  Capacity 0 disables
    buffering (pushes are dropped).  A push builds a new array and never
    writes the old one, so a row read from the buffer keeps its values
    without a copy however the buffer moves on.
    """

    def __init__(self, capacity: int, spec: ModelSpec):
        if capacity < 0:
            raise ValueError("buffer capacity must be >= 0")
        self.capacity = int(capacity)
        self.spec = spec
        self.rows = np.empty((0, spec.num_params))

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
        kept = self.rows[max(len(self) + 1 - self.capacity, 0) :]
        self.rows = np.concatenate([kept, params.vector[None]])

    def __len__(self) -> int:
        return len(self.rows)


class TrainBuffers:
    """The model stack a participation's local steps read and the workspace
    they write, reused from one step to the next.

    :attr:`stack` holds ``capacity + 3`` models as rows: the current model,
    the threshold reference, the global model, then the window oldest first.
    A step forwards a prefix of it, so the rows are never restacked.
    :meth:`stage` fills it at the start of a participation, :meth:`push`
    moves the current model into the window in place, and SGD writes the
    current row.  :attr:`workspace` has room for the whole stack on
    ``batch_size`` rows.  One instance serves every participation of a run:
    nothing is carried from one :meth:`stage` to the next.
    """

    def __init__(self, spec: ModelSpec, capacity: int, batch_size: int):
        if capacity < 0 or batch_size < 1:
            raise ValueError("buffers need capacity >= 0 and batch_size >= 1")
        self.spec, self.capacity, self.batch_size = spec, capacity, batch_size
        self.stack = np.empty((capacity + 3, spec.num_params))
        self.length = 0  # of the window
        self.current = ModelParams(spec, self.stack[0])
        self.workspace = Workspace(spec, capacity + 3, batch_size)
        self._models: dict[int, ModelParams] = {}
        self.staged: tuple = (None, None)

    def stage(
        self,
        params: ModelParams,
        global_params: ModelParams,
        rows: np.ndarray,
        mu_reference: ModelParams | None,
    ) -> None:
        """Copy in the current model, the reference (the global model when
        there is none), the global model and the window's (len, P) ``rows``;
        :attr:`staged` keeps the global model and the reference given."""
        if len(rows) > self.capacity:
            raise ValueError(f"{len(rows)} window rows exceed the capacity {self.capacity}")
        self.staged = (global_params, mu_reference)
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


def combined_loss_and_grad(
    params: ModelParams,
    batch: LabeledDataset,
    global_params: ModelParams,
    buffer: np.ndarray,
    temperature: float,
    contrastive_weight: float,
    mu_reference: ModelParams | None = None,
    buffers: TrainBuffers | None = None,
) -> tuple[float, ModelParams]:
    """Cross-entropy plus weighted contrastive term, with its full gradient.

    ``buffer`` is the window of past models as (len, P) rows, oldest first.
    ``mu_reference`` is the model whose representation anchors the
    per-sample threshold (callers freeze the buffer head from before the
    round started); ``None`` falls back to the global model, making the
    threshold exactly 1.

    ``buffers`` must hold these arguments, staged by
    :meth:`TrainBuffers.stage` and pushed since, with ``params`` its
    current model and the very ``global_params`` and ``mu_reference``
    staged; without it they are staged into fresh buffers.  The
    gradient returned lives in the buffers' workspace, so the next call
    overwrites it.

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
    elif (params.vector is not buffers.current.vector or len(buffer) != buffers.length
          or global_params is not buffers.staged[0] or mu_reference is not buffers.staged[1]):
        raise ValueError("buffers hold other models or another window than the arguments")
    params, ws = buffers.current, buffers.workspace
    if contrastive_weight == 0.0:
        return cross_entropy_and_grad(params, batch, ws)

    # one stacked pass through the representation layers: the current model,
    # the threshold reference (a second global row when there is none), the
    # global model, snapshots oldest first
    buffered = buffers.length
    stack = buffers.models(buffered + 3 if buffered else 1)
    height = len(stack.vector)
    n_rep = params.spec().representation_layers
    pres, outs = ws.activations(n, height)
    reps = dense(stack.layers()[:n_rep], X, ws, (pres, outs), rectify_last=True)
    if not n_rep:  # the representation is the input itself
        reps = np.broadcast_to(X, (height, *X.shape))
    # only the current model goes on through the classifier, and only its
    # arrays go into the backward pass
    z = reps[0]
    logits = dense(params.classifier, z, ws, (pres[n_rep:], outs[n_rep:]))
    ce = _cross_entropy_head(logits, batch, ws)
    pres = [p[0] for p in pres[:n_rep]] + pres[n_rep:]
    outs = [h[0] for h in outs[:n_rep]] + outs[n_rep:]
    if not buffered:
        return ce, _backward(params, X, pres, outs, logits, ws)

    # np.linalg.norm's arithmetic, into the workspace: (models, n), each used
    # for mu and the cosines
    dim = reps.shape[-1]
    norms = ws.view("norms", height, n)
    np.add.reduce(np.multiply(reps, reps, out=ws.view(0, *reps.shape)), axis=-1, out=norms)
    np.sqrt(norms, out=norms)
    others = reps[2:]  # (1 + buffered, n, dim), global first
    nz, no = norms[0], norms[2:]
    if mu_reference is None:
        mu = np.ones(n)
    else:
        mu = _cos_rows(reps[1], reps[2], norms[1], norms[2], mask=ws.view("mask", n, dim))
    shape = others.shape
    spread_z = ws.spread(z, shape, 2)  # z against each of the others
    sims = ws.view("sims", *shape[:2])
    _cos_rows(spread_z, others, nz, no, out=sims, mask=ws.view("mask", *shape))
    positive = sims >= mu  # (1 + buffered, n), like every per-model array here
    positive[0] = True  # the global model is always a positive
    tau = temperature
    e = np.exp(sims / tau)
    # snapshot terms are added one row after another, oldest first, so zero
    # rows appended change no bit (a reduce would sum a one-row batch pairwise)
    pos = e[0] + np.add.accumulate(np.where(positive[1:], e[1:], 0.0))[-1]
    neg = np.add.accumulate(np.where(positive, 0.0, e))[-1]
    l_con = np.log1p(neg / pos)
    loss = ce + contrastive_weight * float(np.add.reduce(l_con) / n)  # l_con.mean()

    dpos = -neg / (pos * (pos + neg))
    dneg = 1.0 / (pos + neg)
    coeff = np.divide(np.where(positive, dpos, dneg) * e, tau, out=ws.view("coeff", *shape[:2]))

    # the gradient of each cosine in z, other / (|z| |other|) - sim z / |z|^2,
    # with every per-row factor spread to full shape first; it is zero where
    # either norm is zero, and a unit norm there keeps the arithmetic finite
    dead = norms == 0.0
    np.copyto(norms, 1.0, where=dead)
    grad = ws.view(0, *shape)
    np.divide(others, ws.spread((nz * no)[..., None], shape, 1), out=grad)
    term = ws.spread(sims[..., None], shape, 1)
    np.multiply(term, spread_z, out=term)
    np.divide(term, ws.spread((nz * nz)[:, None], shape, 2), out=term)
    np.subtract(grad, term, out=grad)
    if dead.any():
        np.copyto(grad, 0.0, where=(dead[0] | dead[2:])[..., None])
    np.multiply(ws.spread(coeff[..., None], shape, 1), grad, out=grad)
    # summing over the leading axis adds the terms one by one, global first
    dz = np.add.reduce(grad, axis=0, out=ws.view("dz", n, dim))
    dz *= contrastive_weight / n

    return loss, _backward(params, X, pres, outs, logits, ws, dz)
