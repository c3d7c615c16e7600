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
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .nn import (
    Minibatch,
    ModelParams,
    _backward_cached,
    _forward_cached,
    cross_entropy_and_grad,
    forward_representation,
    log_softmax,
)

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


def _cos_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity with the same conventions as above."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    bad = denom == 0.0
    if bad.any():
        # dead rectifier rows are routine mid-training, so keep this quiet
        log.debug("cosine similarity with zero-norm rows, returning 0 there")
    denom = np.where(bad, 1.0, denom)
    sims = np.einsum("ij,ij->i", a, b) / denom
    sims = np.where(bad, 0.0, sims)
    equal = np.all(a == b, axis=1) & ~bad
    return np.where(equal, 1.0, sims)


class LocalBuffer:
    """Sliding window of model snapshots, strictly oldest-first eviction.

    Capacity 0 disables buffering (pushes are dropped).  A push stores a copy
    of the model's vector, so later training steps never mutate stored history.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("buffer capacity must be >= 0")
        self.capacity = int(capacity)
        self._entries: deque[ModelParams] = deque(maxlen=self.capacity)

    def push(self, params: ModelParams) -> None:
        if self.capacity > 0:
            self._entries.append(params.copy())

    def newest(self) -> ModelParams | None:
        return self._entries[-1] if self._entries else None

    def oldest(self) -> ModelParams | None:
        return self._entries[0] if self._entries else None

    def entries(self) -> list[ModelParams]:
        """Snapshots ordered oldest to newest."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ModelParams]:
        return iter(self._entries)


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


def compute_mu(buffer: LocalBuffer, global_params: ModelParams, x: np.ndarray) -> float:
    """Per-sample partition threshold.

    Similarity between the newest buffered model's representation of ``x`` and
    the global model's; exactly 1 when the buffer is empty (the global model is
    then its own reference).
    """
    newest = buffer.newest()
    if newest is None:
        return 1.0
    return cosine_similarity(
        forward_representation(newest, x), forward_representation(global_params, x)
    )


def _dcos_rows(z: np.ndarray, other: np.ndarray, sims: np.ndarray) -> np.ndarray:
    """Row-wise gradient of cos(z_i, other_i) in z_i; zero where a norm is zero."""
    nz = np.linalg.norm(z, axis=1)
    no = np.linalg.norm(other, axis=1)
    ok = (nz > 0.0) & (no > 0.0)
    nz_safe = np.where(ok, nz, 1.0)
    no_safe = np.where(ok, no, 1.0)
    grad = other / (nz_safe * no_safe)[:, None] - sims[:, None] * z / (nz_safe**2)[:, None]
    grad[~ok] = 0.0
    return grad


def combined_loss_and_grad(
    params: ModelParams,
    batch: Minibatch,
    global_params: ModelParams,
    buffer: LocalBuffer,
    temperature: float,
    contrastive_weight: float,
    mu_reference: ModelParams | None = None,
) -> tuple[float, ModelParams]:
    """Cross-entropy plus weighted contrastive term, with its full gradient.

    ``mu_reference`` is the model whose representation anchors the per-sample
    threshold (callers freeze the buffer head from before the round started);
    ``None`` falls back to the global model, making the threshold exactly 1.

    With ``contrastive_weight`` 0 this is bit-identical to plain cross-entropy
    training: the contrastive machinery is skipped outright.
    """
    if contrastive_weight < 0:
        raise ValueError("contrastive_weight must be >= 0")
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if contrastive_weight == 0.0:
        return cross_entropy_and_grad(params, batch)

    X = batch.features
    n = X.shape[0]
    logits, z, inputs, pres = _forward_cached(params, X)
    lp = log_softmax(logits)
    ce = float(-lp[np.arange(n), batch.labels].mean())
    dlogits = np.exp(lp)
    dlogits[np.arange(n), batch.labels] -= 1.0
    dlogits /= n

    if len(buffer) == 0:
        return ce, _backward_cached(params, inputs, pres, dlogits)

    z_glob = forward_representation(global_params, X)
    hist = [forward_representation(m, X) for m in buffer]
    if mu_reference is None:
        mu = np.ones(n)
    else:
        mu = _cos_rows(forward_representation(mu_reference, X), z_glob)

    s_glob = _cos_rows(z, z_glob)
    s_hist = np.stack([_cos_rows(z, h) for h in hist], axis=1)  # (n, buffered)
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
    dz = (dpos * e_glob / tau)[:, None] * _dcos_rows(z, z_glob, s_glob)
    for j, h in enumerate(hist):
        coeff = np.where(pos_mask[:, j], dpos, dneg) * e_hist[:, j] / tau
        dz += coeff[:, None] * _dcos_rows(z, h, s_hist[:, j])
    dz *= contrastive_weight / n

    return loss, _backward_cached(params, inputs, pres, dlogits, dz_extra=dz)
