"""Run-time measurements: update deviation, accuracy/loss, summary statistics.

The deviation metric scores how far the participants' update vectors fan out
from their mean direction; perfectly aligned updates give zero, orthogonal
ones one unit each.  It is the per-round consistency signal the contrastive
term is supposed to push down.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .contrastive import cosine_similarity
from .nn import ModelParams, ModelSpec, _check_labels

log = logging.getLogger(__name__)


def update_deviation(updates: np.ndarray) -> float:
    """Sum over participants of (1 - cos(update, mean update)).

    ``updates`` holds the participants' update vectors as rows, (K_t, P).  A
    single participant gives exactly 0; an all-zero mean is degenerate and
    reported as 0 with a warning.
    """
    stack = np.asarray(updates, dtype=np.float64)
    if stack.ndim != 2 or len(stack) == 0:
        raise ValueError("deviation needs at least one participant update")
    mean = stack.mean(axis=0)
    if not mean.any():
        log.warning("mean update is the zero vector, deviation reported as 0")
        return 0.0
    return float(sum(1.0 - cosine_similarity(u, mean) for u in stack))


class EvalBuffers:
    """Every array :func:`evaluate` writes, for sets of up to ``rows`` rows.

    A smaller set uses the leading part of each array, so one instance sized
    for the largest set serves every evaluation of a run.  Reusing the same
    memory keeps evaluation from faulting in fresh pages on every call.
    """

    def __init__(self, spec: ModelSpec, rows: int):
        self.rows = rows
        widest = max(fan_out for _, fan_out, _ in spec.layer_offsets)
        # layer outputs alternate between the first two; the third holds a
        # row vector or a column repeated to a full (n, width) operand, since
        # a broadcasting ufunc allocates numpy's 64 KiB iteration buffer
        self._flat = [np.empty(rows * widest) for _ in range(3)]
        self.row_max = np.empty((rows, 1))
        self.row_sum = np.empty((rows, 1))
        self.pred = np.empty(rows, dtype=np.intp)
        self.hits = np.empty(rows, dtype=bool)
        self.row_starts = np.arange(rows) * spec.num_classes  # in the flat logits
        self.index = np.empty(rows, dtype=np.intp)
        self.picked = np.empty(rows)

    def layer(self, i: int, n: int, width: int) -> np.ndarray:
        """Where layer ``i`` writes its (n, width) output."""
        return self._flat[i % 2][: n * width].reshape(n, width)

    def scratch(self, n: int, width: int) -> np.ndarray:
        return self._flat[2][: n * width].reshape(n, width)

    def spread(self, values: np.ndarray, n: int, width: int) -> np.ndarray:
        """``values`` broadcast to (n, width), written into the scratch array."""
        out = self.scratch(n, width)
        np.copyto(out, values)
        return out


def evaluate(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    buffers: EvalBuffers | None = None,
) -> tuple[float, float]:
    """(argmax accuracy, mean cross-entropy) of the model on a labelled set.

    The values are those of :func:`pmfl.nn.forward_logits`, ``argmax`` and
    :func:`pmfl.nn.cross_entropy`, bit for bit: the same operations, each
    written into ``buffers`` (fresh ones when None).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty set")
    b = EvalBuffers(params.spec(), n) if buffers is None else buffers
    if n > b.rows:
        raise ValueError(f"evaluation buffers hold {b.rows} rows, the set has {n}")

    layers = params.layers()
    h = features
    for i, (w, bias) in enumerate(layers):
        width = bias.shape[0]
        h = np.matmul(h, w.mT, out=b.layer(i, n, width))
        h += b.spread(bias, n, width)
        if i < len(layers) - 1:
            np.maximum(h, 0.0, out=h)
    logits = h
    classes = logits.shape[1]
    _check_labels(labels, classes)

    # ties break to the lowest class index
    hits = np.equal(np.argmax(logits, axis=1, out=b.pred[:n]), labels, out=b.hits[:n])
    acc = int(np.count_nonzero(hits)) / n

    # log_softmax, in place over the logits once argmax has read them
    row_max = np.max(logits, axis=-1, keepdims=True, out=b.row_max[:n])
    shifted = np.subtract(logits, b.spread(row_max, n, classes), out=logits)
    exp = np.exp(shifted, out=b.scratch(n, classes))
    row_sum = np.sum(exp, axis=-1, keepdims=True, out=b.row_sum[:n])
    np.log(row_sum, out=row_sum)
    log_probs = np.subtract(shifted, b.spread(row_sum, n, classes), out=shifted)
    index = np.add(b.row_starts[:n], labels, out=b.index[:n])
    # the labels were checked, and a mode other than "raise" writes ``out`` unbuffered
    picked = np.take(log_probs.reshape(-1), index, out=b.picked[:n], mode="clip")
    return acc, float(-picked.mean())


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
    """Everything recorded about one round; evaluation fields stay None on
    rounds where the model was not scored."""

    round_idx: int
    num_participants: int
    psi: float | None = None
    deviation: float | None = None
    train_accuracy: float | None = None
    train_loss: float | None = None
    test_accuracy: float | None = None
    test_loss: float | None = None
    weights: np.ndarray | None = None
