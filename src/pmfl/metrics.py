"""Run-time measurements: update deviation, accuracy/loss, summary statistics.

The deviation metric scores how far the participants' update vectors fan out
from their mean direction; perfectly aligned updates give zero, orthogonal
ones one unit each.  It is the per-round consistency signal the contrastive
term is supposed to push down; its K_t cosines come from one row-wise pass.

Evaluation scores a model on a :class:`pmfl.data.LabeledDataset`, a split
or a shard, through :func:`pmfl.nn.dense` and the log-softmax head of the
training loss, in a :class:`pmfl.nn.Workspace`; a run keeps one sized for
its largest evaluation set.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .contrastive import _cos_rows
from .data import LabeledDataset
from .nn import ModelParams, Workspace, _nll, dense

log = logging.getLogger(__name__)


def update_deviation(updates: np.ndarray) -> float:
    """Sum over participants of (1 - cos(update, mean update)).

    ``updates`` holds the participants' update vectors as rows, (K_t, P), and
    the K_t cosines come from one row-wise pass.  A single participant gives
    exactly 0; an all-zero mean is degenerate and reported as 0 with a
    warning.
    """
    stack = np.asarray(updates, dtype=np.float64)
    if stack.ndim != 2 or len(stack) == 0:
        raise ValueError("deviation needs at least one participant update")
    mean = stack.mean(axis=0)
    if not mean.any():
        log.warning("mean update is the zero vector, deviation reported as 0")
        return 0.0
    return float(np.sum(1.0 - _cos_rows(stack, mean)))


def evaluate(
    params: ModelParams, data: LabeledDataset, workspace: Workspace | None = None
) -> tuple[float, float]:
    """(argmax accuracy, mean cross-entropy) of the model on a labelled set.

    The values are those of :func:`pmfl.nn.forward_logits`, ``argmax`` and
    the reference ``cross_entropy`` of ``tests/oracles.py``, bit for bit:
    the same operations, each written into ``workspace`` (a fresh one when
    None), whose rows must hold the whole set.  An empty set, or one with
    more classes than the model, is refused.
    """
    n = data.num_samples
    ws = Workspace(params.spec(), 1, n) if workspace is None else workspace
    if n > ws.rows:
        raise ValueError(f"evaluation workspace holds {ws.rows} rows, the set has {n}")
    logits = dense(params.layers(), data.features, ws)

    # ties break to the lowest class index
    pred = np.argmax(logits, axis=1, out=ws.view("pred", n))
    hits = int(np.count_nonzero(pred == data.labels))
    loss, _ = _nll(logits, data, ws)  # in place, once argmax has read the logits
    return hits / n, loss


def top5_mean(values) -> float:
    """Mean of the five largest values; short series use all of them."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("top5_mean needs at least one value")
    if arr.size < 5:
        log.warning("top5_mean over only %d values", arr.size)
        return float(arr.mean())
    top = np.sort(arr)[-5:]
    return float(top.mean())


def node_cdf(values) -> np.ndarray:
    """(value, cumulative fraction) rows, sorted ascending by value."""
    arr = np.sort(np.asarray(list(values), dtype=np.float64))
    if arr.size == 0:
        return np.zeros((0, 2))
    fractions = np.arange(1, arr.size + 1) / arr.size
    return np.column_stack([arr, fractions])


@dataclass
class RoundMetrics:
    """The five values one round measures; the deviation is None in a round
    without participants, the evaluation fields on rounds where the model was
    not scored.  What the config and the trace give is not kept: the round's
    index, mixing coefficient, participant count and node weights
    (:func:`pmfl.harness.node_weights` replays those)."""

    deviation: float | None
    train_accuracy: float | None
    train_loss: float | None
    test_accuracy: float | None
    test_loss: float | None
