"""The local training loop of one node.

A participating node starts from the broadcast global model, runs a fixed
number of one-minibatch gradient steps on the combined objective, and ships
back the flat difference between its final and initial parameters.  After every
iteration the pre-step model joins the node's window of past models, which
feeds the contrastive term this round and in later rounds the node attends.
The partition threshold reference is frozen at round start (the newest window
row from before this round), so mid-round snapshots do not move the goalposts.

A node is its index and its shard, a :class:`~pmfl.data.LabeledDataset`, and draws a
round's minibatches from the stream of (seed, node, round): no step checks their labels.

:func:`local_train` writes none of its arguments: it takes the node's window
as a read-only array and returns the window it leaves as a new one, beside
the update.  The steps run in a :class:`~pmfl.contrastive.TrainBuffers` that
the window is staged into once and copied out of once.
"""
from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .contrastive import TrainBuffers, combined_loss_and_grad
from .data import LabeledDataset
from .nn import ModelParams, param_delta, sgd_step
from .rng import stream


def _epoch_batches(rng: np.random.Generator, n: int, batch_size: int, count: int):
    """``count`` index batches, without replacement inside each shuffled epoch.

    The tail of an epoch yields a short batch; the next draw reshuffles.
    """
    order = rng.permutation(n)
    pos = 0
    for _ in range(count):
        if pos >= n:
            order = rng.permutation(n)
            pos = 0
        take = min(batch_size, n - pos)
        yield order[pos : pos + take]
        pos += take


def local_train(data: LabeledDataset, node_id: int, global_params: ModelParams,
                cfg: ExperimentConfig, round_idx: int, window: np.ndarray,
                buffers: TrainBuffers | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Train node ``node_id`` on its shard ``data`` from its ``window`` of past
    models, (len, P) rows oldest first, in ``buffers`` (fresh ones without it;
    they must fit ``cfg.local_buffer_size`` and ``cfg.batch_size``); return the
    flat update and the new window, a new read-only array."""
    if cfg.local_iterations < 0 or cfg.local_lr <= 0 or cfg.batch_size < 1:
        raise ValueError("local training needs local_iterations >= 0, local_lr > 0 "
                         "and batch_size >= 1")
    if not data.num_samples:
        raise ValueError("a node needs at least one sample")
    capacity = cfg.local_buffer_size
    if buffers is None:
        buffers = TrainBuffers(global_params.spec(), capacity, cfg.batch_size)
    elif buffers.capacity != capacity or buffers.batch_size < cfg.batch_size:
        raise ValueError(f"buffers for a window of {buffers.capacity} and {buffers.batch_size} "
                         f"rows cannot train a window of {capacity} on batches of {cfg.batch_size}")

    batches = _epoch_batches(stream(cfg.seed, "train", node_id, round_idx), data.num_samples,
                             cfg.batch_size, cfg.local_iterations)
    mu_reference = ModelParams(buffers.spec, window[-1]) if len(window) else None
    buffers.stage(global_params, global_params, window, mu_reference)
    w = buffers.current  # starts as a copy of the global model, stepped in place
    for batch_idx in batches:
        _, grad = combined_loss_and_grad(
            w, data.rows(batch_idx), global_params, buffers.window,
            temperature=cfg.temperature, contrastive_weight=cfg.contrastive_weight,
            mu_reference=mu_reference, buffers=buffers,
        )
        buffers.push()  # the window holds models older than the current one
        sgd_step(w, grad, cfg.local_lr, out=w, ws=buffers.workspace)
    new_window = buffers.window.copy()
    new_window.flags.writeable = False
    return param_delta(w, global_params), new_window


def nonparticipant_update(num_params: int) -> np.ndarray:
    """Zero update standing in for a node that sat the round out."""
    return np.zeros(num_params)
