"""Server-side aggregation: interval-based weights and historical smoothing.

Every node carries a weight equal to the running mean of the gaps between its
weight-update events.  An event is a participation, or hitting the cutoff
``C`` rounds of silence; rare nodes therefore get proportionally larger
weights, which undoes the bias of uneven attendance.  The weighted update sum
moves the global model, and the result is blended with the last few global
models under a coefficient that decays linearly from 1/2 to 0 across the run.

Every variant of the comparison is one row of :data:`VARIANTS`: whether
local training keeps the contrastive term, whether the server smooths with
past globals, whether it uses the interval weights, and its update rule.
:meth:`~pmfl.config.ExperimentConfig.resolved` reads the first two columns,
:func:`aggregate` the last two.  ``weighted`` sums the participants' updates
under the node weights, ``mean`` averages them, and ``cached`` (MIFA)
averages every node's most recent update over all nodes.

The weighted rule has two modes.  ``corrected`` adds the weighted sum
scaled by 1/K, which makes the scheme reduce exactly to plain averaging when
everyone attends with weight one.  ``literal`` subtracts the raw weighted sum,
reproducing the published recursion verbatim for fidelity experiments; with
updates defined as (local - global) the subtraction walks away from the local
optima, so it is not the default.

Rounds replace the state's arrays and history and never write them, so a
round played on a shallow copy of the state leaves the original as it was.
"""
from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .contrastive import LocalBuffer
from .nn import ModelParams, flatten, unflatten

log = logging.getLogger(__name__)

AGGREGATION_MODES = ("corrected", "literal")


class Variant(NamedTuple):
    """What one variant of the comparison means: a row of :data:`VARIANTS`."""

    contrastive: bool  # local training keeps the model-contrastive term
    history: bool  # the server smooths with past global models
    adaptive_weights: bool  # interval weights; all ones otherwise
    rule: str  # "weighted", "mean" or "cached"


VARIANTS = {
    "pmfl": Variant(True, True, True, "weighted"),
    "wo_mct": Variant(False, True, True, "weighted"),
    "wo_awc": Variant(True, True, False, "weighted"),
    "wo_hgm": Variant(True, False, True, "weighted"),
    "uniform_average": Variant(False, False, False, "mean"),
    "cached_update": Variant(False, False, False, "cached"),
}


class DivergenceError(ValueError):
    """A round produced a non-finite global model or metrics ``field``."""

    def __init__(self, round_idx: int, field: str = "global model"):
        super().__init__(f"{field} became non-finite at round {round_idx}; the run diverged")
        self.round_idx = round_idx


def history_coefficient(round_idx: int, horizon: int) -> float:
    """Mixing weight of the historical term: 1/2 - t / (2 (T - 1)).

    Exactly 0.5 at the first round, exactly 0 at the last, strictly
    decreasing in between.
    """
    if horizon < 2:
        raise ValueError("history_coefficient needs a horizon of at least 2 rounds")
    if not 0 <= round_idx < horizon:
        raise ValueError(f"round_idx {round_idx} outside [0, {horizon})")
    return 0.5 - round_idx / (2.0 * (horizon - 1))


@dataclass
class AggregatorState:
    """Server state for one run; a round rebinds its fields, never writing their arrays."""

    num_nodes: int
    global_model: ModelParams
    horizon: int
    cutoff: int | None = 50  # None means no cutoff
    history_size: int = 3  # buffered global models, current one included
    global_lr: float = 1.0
    round_idx: int = 0
    rounds_waiting: np.ndarray = field(init=False)  # per node, since last event
    event_counts: np.ndarray = field(init=False)  # recorded intervals so far
    weights: np.ndarray = field(init=False)  # running mean interval length
    history: LocalBuffer = field(init=False)  # globals strictly older than current
    cached_updates: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.cutoff is not None and self.cutoff < 1:
            raise ValueError("cutoff must be >= 1 (or None for no cutoff)")
        if self.history_size < 0:
            raise ValueError("history_size must be >= 0")
        if self.history_size > 1 and self.horizon < 2:
            raise ValueError(
                "history smoothing needs horizon >= 2 (the mixing coefficient "
                "is undefined for shorter runs)"
            )
        if self.global_lr <= 0:
            raise ValueError("global_lr must be > 0")
        self.rounds_waiting = np.zeros(self.num_nodes, dtype=np.int64)
        self.event_counts = np.zeros(self.num_nodes, dtype=np.int64)
        self.weights = np.ones(self.num_nodes)
        self.history = LocalBuffer(
            max(self.history_size - 1, 0), self.global_model.spec()
        )

    @property
    def num_params(self) -> int:
        return self.global_model.num_params


def update_weights(state: AggregatorState, indicators: np.ndarray) -> None:
    """Advance every node's interval bookkeeping for the current round.

    A node's waiting counter grows each round; participation or hitting the
    cutoff closes the interval and folds its length into the node's running
    mean.  Weights of untouched nodes are left as they are.
    """
    a = np.asarray(indicators)
    if a.shape != (state.num_nodes,):
        raise ValueError(f"indicators must have shape ({state.num_nodes},)")
    event = a == 1
    if not (event | (a == 0)).all():
        raise ValueError("indicators must be 0/1")

    waiting = state.rounds_waiting + 1
    if state.cutoff is not None:
        event = event | (waiting == state.cutoff)
    closed = waiting[event].astype(np.float64)
    counts, weights = state.event_counts.copy(), state.weights.copy()
    first = counts[event] == 0
    seen = counts[event].astype(np.float64)
    weights[event] = np.where(first, closed, (seen * weights[event] + closed) / (seen + 1.0))
    counts[event] += 1
    waiting[event] = 0
    state.rounds_waiting, state.event_counts, state.weights = waiting, counts, weights


def replay_weights(state: AggregatorState, trace: np.ndarray) -> Iterator[np.ndarray]:
    """Put each row of ``trace`` through :func:`update_weights` and yield
    the new ``state.weights`` after it.  From a fresh state this gives a run's
    weights round by round, bit for bit: a resume and ``node_weights`` use it."""
    for indicators in trace:
        update_weights(state, indicators)
        yield state.weights


def _check_updates(
    state: AggregatorState, updates: np.ndarray, participants: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``updates`` as a (K_t, P) float64 array whose row i is the update of
    node ``participants[i]``, and the participants as sorted node ids."""
    part = np.asarray(participants)
    if part.ndim != 1 or (part.size and part.dtype.kind not in "iu"):
        raise ValueError("participants must be a 1-D array of node ids")
    part = part.astype(np.intp, copy=False)  # an empty list reads as float
    if part.size and (
        part[0] < 0 or part[-1] >= state.num_nodes or (np.diff(part) <= 0).any()
    ):
        raise ValueError(
            f"participants must be distinct node ids in [0, {state.num_nodes}), "
            "sorted ascending"
        )
    u = np.asarray(updates, dtype=np.float64)
    if u.shape != (part.size, state.num_params):
        raise ValueError(
            f"updates have shape {u.shape}, want ({part.size}, {state.num_params}): "
            "one row per participant"
        )
    return u, part


def _advance(state: AggregatorState, new_flat: np.ndarray) -> ModelParams:
    """Adopt the new global model, sliding the old one into the history.

    Raises :class:`DivergenceError` instead when the new model is not finite.
    """
    if not np.isfinite(new_flat).all():
        raise DivergenceError(state.round_idx)
    new_global = unflatten(state.global_model.spec(), new_flat)
    history = LocalBuffer(state.history.capacity, state.history.spec)
    history.rows = state.history.rows
    history.push(state.global_model)
    state.history, state.global_model = history, new_global
    state.round_idx += 1
    return new_global


def _smooth(state: AggregatorState, candidate: np.ndarray) -> np.ndarray:
    """Blend the candidate with the mean of the buffered older globals."""
    if len(state.history) == 0:
        return candidate
    psi = history_coefficient(state.round_idx, state.horizon)
    return (1.0 - psi) * candidate + psi * state.history.rows.mean(axis=0)


def aggregate(
    state: AggregatorState,
    updates: np.ndarray,
    participants: np.ndarray,
    variant: str = "pmfl",
    mode: str = "corrected",
) -> ModelParams:
    """One full aggregation round; returns (and installs) the next global model.

    Row i of the (K_t, P) ``updates`` is the update of node
    ``participants[i]``; the nodes that sat the round out send nothing.  The
    variant's rule and weights (see :data:`VARIANTS`) turn the rows into a
    candidate model, and ``mode`` applies to the ``weighted`` rule only.  The
    candidate is smoothed with the state's past globals; a state built from
    the resolved config of a variant without history keeps none.  A round
    without participants leaves the weighted and mean candidates at the
    current model.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {variant!r}")
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"mode must be one of {AGGREGATION_MODES}, got {mode!r}")
    row = VARIANTS[variant]
    u, part = _check_updates(state, updates, participants)
    if row.rule == "cached":
        cached = state.cached_updates
        cached = np.zeros((state.num_nodes, state.num_params)) if cached is None else cached.copy()
        cached[part] = u
        state.cached_updates = u = cached
    w = state.weights[part] if row.adaptive_weights else np.ones(len(u))
    weighted = w @ u
    base = flatten(state.global_model)
    if row.rule == "weighted" and mode == "literal":
        candidate = base - state.global_lr * weighted
    elif row.rule == "mean" and part.size == 0:
        candidate = base
    else:
        count = part.size if row.rule == "mean" else state.num_nodes
        candidate = base + (state.global_lr / count) * weighted
    return _advance(state, _smooth(state, candidate))
