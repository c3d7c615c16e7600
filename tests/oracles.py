"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way (scalar loops,
brute-force enumeration, finite differences) so it cannot share a bug with
the vectorized code under test.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from pmfl.client import _epoch_batches
from pmfl.contrastive import LocalBuffer
from pmfl.config import ExperimentConfig
from pmfl.data import LabeledDataset, _check_labels
from pmfl.nn import (
    ModelParams,
    cross_entropy_and_grad,
    flatten,
    forward_representation,
    param_delta,
    sgd_step,
    unflatten,
)
from pmfl.rng import stream
from pmfl.server import _advance, _smooth

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


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of ``labels`` under softmax(``logits``)."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    _check_labels(labels, logits.shape[-1])
    lp = log_softmax(logits)
    return float(-lp[np.arange(labels.shape[0]), labels].mean())


def scalar_forward(params: ModelParams, x) -> tuple[list[float], list[float]]:
    """(logits, representation) via pure-Python loops, no numpy linear algebra."""

    def dense(h, layer):
        w = layer.weight.tolist()
        b = layer.bias.tolist()
        return [
            sum(w[i][j] * h[j] for j in range(len(h))) + b[i] for i in range(len(w))
        ]

    h = [float(v) for v in x]
    layers = params.layers()
    n_rep = len(params.encoder) + len(params.projection)
    z = list(h)
    for i, layer in enumerate(layers):
        h = dense(h, layer)
        if i < len(layers) - 1:
            h = [v if v > 0.0 else 0.0 for v in h]
        if i == n_rep - 1:
            z = list(h)
    return h, z


def scalar_cross_entropy(logits, label: int) -> float:
    """Stable single-sample softmax cross-entropy in plain Python."""
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    return -math.log(exps[label] / sum(exps))


def fd_gradient(loss_fn, flat: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of ``loss_fn`` around ``flat``."""
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        hi = flat.copy()
        lo = flat.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (loss_fn(hi) - loss_fn(lo)) / (2.0 * step)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst per-coordinate relative error, floored so exact zeros compare
    against finite-difference noise sanely."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def interval_lengths(trace, cutoff) -> list[int]:
    """Brute-force segmentation of one 0/1 trace into weight-update intervals.

    An interval closes when the node participates or when the wait hits the
    cutoff; the length includes the closing round.
    """
    q = 0
    out = []
    for a in trace:
        q += 1
        if a == 1 or (cutoff is not None and q == cutoff):
            out.append(q)
            q = 0
    return out


def expected_weight(trace, cutoff) -> float:
    """Mean interval length; 1.0 (the initial weight) when no event closed."""
    lengths = interval_lengths(trace, cutoff)
    return sum(lengths) / len(lengths) if lengths else 1.0


def padded_aggregate(
    state,
    updates: np.ndarray,
    participants: np.ndarray,
    variant: str = "pmfl",
    mode: str = "corrected",
) -> ModelParams:
    """One aggregation round as the package computed it before rounds carried
    only the participants: every absent node gets a zero row, and the K rows
    go through the weighted sum.  Each variant's rule is spelled out here
    apart from the package's table; ``state`` advances as under the package's
    functions.
    """
    part = np.asarray(participants, dtype=np.int64)
    u = np.zeros((state.num_nodes, state.num_params))
    u[part] = updates
    base = flatten(state.global_model)
    if variant == "uniform_average":
        if part.size == 0:
            return _advance(state, base)
        weighted = np.ones(part.size) @ u[part]
        return _advance(state, base + (state.global_lr / part.size) * weighted)
    if variant == "cached_update":
        if state.cached_updates is None:
            state.cached_updates = np.zeros((state.num_nodes, state.num_params))
        state.cached_updates[part] = u[part]
        weighted = np.ones(state.num_nodes) @ state.cached_updates
        return _advance(state, base + (state.global_lr / state.num_nodes) * weighted)
    w = np.ones(state.num_nodes) if variant == "wo_awc" else state.weights
    weighted = w @ u
    if mode == "corrected":
        candidate = base + (state.global_lr / state.num_nodes) * weighted
    else:
        candidate = base - state.global_lr * weighted
    return _advance(state, _smooth(state, candidate))


def looped_update_deviation(updates) -> float:
    """``update_deviation`` as the package computed it before its cosines came
    from one row-wise pass: one :func:`cosine_similarity` per participant,
    summed in a Python loop."""
    stack = np.asarray(updates, dtype=np.float64)
    mean = stack.mean(axis=0)
    if not mean.any():
        return 0.0
    return float(sum(1.0 - cosine_similarity(u, mean) for u in stack))


def perturbed(params: ModelParams, rng: np.random.Generator, scale: float) -> ModelParams:
    """A nearby model: params plus gaussian noise of the given scale."""
    flat = flatten(params)
    return unflatten(params.spec(), flat + scale * rng.standard_normal(flat.size))


@dataclass
class ContrastiveContext:
    """Fixed contrastive points for one sample: the global representation plus
    the partitioned historical representations."""

    global_rep: np.ndarray
    positives: list[np.ndarray] = field(default_factory=list)
    negatives: list[np.ndarray] = field(default_factory=list)
    temperature: float = 0.5

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")


def partition_samples(
    current_rep: np.ndarray, candidates: Iterable[np.ndarray], mu: float
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split historical representations into (positives, negatives).

    A candidate is positive when its similarity to ``current_rep`` is at least
    ``mu``; every candidate lands in exactly one side.
    """
    positives, negatives = [], []
    for cand in candidates:
        if cosine_similarity(current_rep, cand) >= mu:
            positives.append(cand)
        else:
            negatives.append(cand)
    return positives, negatives


def contrastive_loss(current_rep: np.ndarray, ctx: ContrastiveContext) -> float:
    """-log(pos / (pos + neg)) over exponentiated, temperature-scaled sims.

    ``pos`` always includes the global term, so the ratio is well defined; an
    empty negative set gives exactly 0.
    """
    tau = ctx.temperature
    pos = np.exp(cosine_similarity(current_rep, ctx.global_rep) / tau)
    for p in ctx.positives:
        pos += np.exp(cosine_similarity(current_rep, p) / tau)
    neg = 0.0
    for n in ctx.negatives:
        neg += np.exp(cosine_similarity(current_rep, n) / tau)
    return float(np.log1p(neg / pos))


def compute_mu(window: np.ndarray, global_params: ModelParams, x: np.ndarray) -> float:
    """Per-sample partition threshold.

    Similarity between the representation of ``x`` under the newest of the
    window's (len, P) rows and the global model's; exactly 1 when the window
    is empty (the global model is then its own reference).
    """
    if len(window) == 0:
        return 1.0
    newest = ModelParams(global_params.spec(), window[-1])
    return cosine_similarity(
        forward_representation(newest, x), forward_representation(global_params, x)
    )


def cached_forward(params: ModelParams, X: np.ndarray):
    """(logits, z, layer inputs, pre-activations) of one model on a batch, as
    the package computed them before its passes wrote into a workspace:
    fresh arrays and a broadcasting bias add."""
    layers = params.layers()
    n_rep = params.spec().representation_layers
    inputs, pres = [], []
    h = z = X
    for i, (w, b) in enumerate(layers):
        inputs.append(h)
        pre = np.matmul(h, w.mT)
        pre += b[..., None, :]
        pres.append(pre)
        h = np.maximum(pre, 0.0) if i < len(layers) - 1 else pre
        if i == n_rep - 1:
            z = h
    return h, z, inputs, pres


def cached_backward(
    params: ModelParams,
    inputs: list[np.ndarray],
    pres: list[np.ndarray],
    dlogits: np.ndarray,
    dz_extra: np.ndarray | None = None,
) -> ModelParams:
    """The gradient from :func:`cached_forward`'s arrays, into fresh arrays;
    ``dz_extra`` joins where the representation leaves the projection block."""
    layers = params.layers()
    n_rep = params.spec().representation_layers
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


def _looped_cos_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    bad = denom == 0.0
    denom = np.where(bad, 1.0, denom)
    sims = np.einsum("ij,ij->i", a, b) / denom
    sims = np.where(bad, 0.0, sims)
    equal = np.all(a == b, axis=1) & ~bad
    return np.where(equal, 1.0, sims)


def _looped_dcos_rows(z: np.ndarray, other: np.ndarray, sims: np.ndarray) -> np.ndarray:
    nz = np.linalg.norm(z, axis=1)
    no = np.linalg.norm(other, axis=1)
    ok = (nz > 0.0) & (no > 0.0)
    nz_safe = np.where(ok, nz, 1.0)
    no_safe = np.where(ok, no, 1.0)
    grad = other / (nz_safe * no_safe)[:, None] - sims[:, None] * z / (nz_safe**2)[:, None]
    grad[~ok] = 0.0
    return grad


def looped_loss_and_grad(
    params: ModelParams,
    batch: LabeledDataset,
    global_params: ModelParams,
    buffer: np.ndarray,
    temperature: float,
    contrastive_weight: float,
    mu_reference: ModelParams | None = None,
) -> tuple[float, ModelParams]:
    """``combined_loss_and_grad`` with one forward pass and one gradient term
    per reference model, as the package computed it before it stacked them.
    ``buffer`` is the window's (len, P) rows."""
    if contrastive_weight == 0.0:
        return cross_entropy_and_grad(params, batch)

    X = batch.features
    n = X.shape[0]
    logits, z, inputs, pres = cached_forward(params, X)
    lp = log_softmax(logits)
    ce = float(-lp[np.arange(n), batch.labels].mean())
    dlogits = np.exp(lp)
    dlogits[np.arange(n), batch.labels] -= 1.0
    dlogits /= n

    if len(buffer) == 0:
        return ce, cached_backward(params, inputs, pres, dlogits)

    z_glob = forward_representation(global_params, X)
    hist = [forward_representation(ModelParams(params.spec(), row), X) for row in buffer]
    if mu_reference is None:
        mu = np.ones(n)
    else:
        mu = _looped_cos_rows(forward_representation(mu_reference, X), z_glob)

    s_glob = _looped_cos_rows(z, z_glob)
    s_hist = [_looped_cos_rows(z, h) for h in hist]
    pos_mask = [s >= mu for s in s_hist]

    tau = temperature
    e_glob = np.exp(s_glob / tau)
    e_hist = [np.exp(s / tau) for s in s_hist]
    # the snapshot terms are added one after another, oldest first
    pos_hist, neg = np.zeros(n), np.zeros(n)
    for positive, e in zip(pos_mask, e_hist):
        pos_hist = pos_hist + np.where(positive, e, 0.0)
        neg = neg + np.where(positive, 0.0, e)
    pos = e_glob + pos_hist
    l_con = np.log1p(neg / pos)
    loss = ce + contrastive_weight * float(l_con.mean())

    dpos = -neg / (pos * (pos + neg))
    dneg = 1.0 / (pos + neg)
    dz = (dpos * e_glob / tau)[:, None] * _looped_dcos_rows(z, z_glob, s_glob)
    for h, s, positive, e in zip(hist, s_hist, pos_mask, e_hist):
        coeff = np.where(positive, dpos, dneg) * e / tau
        dz += coeff[:, None] * _looped_dcos_rows(z, h, s)
    dz *= contrastive_weight / n

    return loss, cached_backward(params, inputs, pres, dlogits, dz_extra=dz)


def looped_local_train(
    data: LabeledDataset,
    node_id: int,
    global_params: ModelParams,
    cfg: ExperimentConfig,
    round_idx: int,
    window: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``local_train`` as the package ran it before the steps shared one set
    of buffers: :func:`looped_loss_and_grad` on a ``LocalBuffer`` that holds
    the node's window, a push after every step and a fresh model from every
    SGD step.  Returns the update and the buffer's rows."""
    batches = _epoch_batches(
        stream(cfg.seed, "train", node_id, round_idx), data.num_samples, cfg.batch_size,
        cfg.local_iterations,
    )
    buffer = LocalBuffer(cfg.local_buffer_size, global_params.spec())
    buffer.rows = window.copy()
    mu_reference = ModelParams(global_params.spec(), window[-1]) if len(window) else None
    w = global_params
    for batch_idx in batches:
        _, grad = looped_loss_and_grad(
            w, data.rows(batch_idx), global_params, buffer.rows, cfg.temperature,
            cfg.contrastive_weight, mu_reference,
        )
        buffer.push(w)
        w = sgd_step(w, grad, cfg.local_lr)
    return param_delta(w, global_params), buffer.rows


def looped_dirichlet_partition(
    labels: np.ndarray,
    num_classes: int,
    num_nodes: int,
    alpha: float,
    rng: np.random.Generator,
    max_retries: int = 10,
) -> tuple[list[np.ndarray], np.ndarray] | None:
    """``dirichlet_partition`` as a loop over nodes: per-node lists of
    slices of each class's permuted indices, then a sort per node and a
    class count per node.  Same draws, remainder rule and retries; ``None``
    where the package raises for empty nodes."""
    labels = np.asarray(labels, dtype=np.int64)
    for _ in range(max_retries):
        rows = rng.dirichlet(np.full(num_classes, alpha), size=num_nodes)
        assigned: list[list[np.ndarray]] = [[] for _ in range(num_nodes)]
        for c in range(num_classes):
            idx = rng.permutation(np.flatnonzero(labels == c))
            if idx.size == 0:
                continue
            weights = rows[:, c]
            total = weights.sum()
            props = weights / total if total > 0 else np.full(num_nodes, 1.0 / num_nodes)
            counts = np.floor(props * idx.size).astype(np.int64)
            short = int(idx.size - counts.sum())
            for j in range(short):
                counts[(c + j) % num_nodes] += 1
            cursor = 0
            for k in range(num_nodes):
                assigned[k].append(idx[cursor : cursor + counts[k]])
                cursor += counts[k]
        shards = [
            np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
            for parts in assigned
        ]
        if min(s.size for s in shards) > 0:
            dists = np.zeros((num_nodes, num_classes))
            for k, shard in enumerate(shards):
                counts_k = np.bincount(labels[shard], minlength=num_classes)
                dists[k] = counts_k / shard.size
            return shards, dists
    return None


def looped_export_trace_csv(trace, path) -> None:
    """The participation CSV written row by row through ``csv.writer``."""
    trace = np.asarray(trace)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round"] + [f"node_{k}" for k in range(trace.shape[1])])
        for t in range(trace.shape[0]):
            writer.writerow([t] + [int(v) for v in trace[t]])
