"""Non-IID shard construction and class-coupled participation frequencies.

Shards come from per-node Dirichlet class distributions: each class's samples
are allocated across nodes proportionally to the nodes' Dirichlet rows, so a
small concentration gives nodes dominated by a few classes.  An attempt
records one owner node per sample; the shards are then one stable argsort of
the owners split by shard size, and the class proportions one ``bincount``
of (owner, label) pairs, so no step loops over the nodes.  Participation
frequencies are then tied to those class distributions through a second
Dirichlet draw, which makes data skew and attendance skew correlated instead
of independent.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import _check_labels

log = logging.getLogger(__name__)

FREQUENCY_FLOOR = 0.02


@dataclass
class FrequencyAssignment:
    """Per-node participation frequencies and the class-mixing vector behind them,
    both in ``partition.json``; only the tests' rank checks read ``scores``."""

    frequencies: np.ndarray  # (num_nodes,)
    mixing: np.ndarray  # (num_classes,) Dirichlet weights over classes
    scores: np.ndarray  # (num_nodes,) raw <mixing, D_k> before normalization


def dirichlet_partition(
    labels: np.ndarray,
    num_classes: int,
    num_nodes: int,
    alpha: float,
    rng: np.random.Generator,
    max_retries: int = 10,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Split sample indices into ``num_nodes`` shards with Dirichlet class skew.

    Returns (shards, dists): shards are disjoint index arrays covering every
    sample exactly once, dists the empirical per-node class proportions.  A
    draw that leaves any node empty is retried up to ``max_retries`` times,
    then raised.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-D array")
    _check_labels(labels, num_classes)
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")

    nodes = np.arange(num_nodes)
    for attempt in range(max_retries):
        rows = rng.dirichlet(np.full(num_classes, alpha), size=num_nodes)  # (K, C)
        owner = np.empty(labels.size, dtype=np.int64)  # the node each sample goes to
        for c in range(num_classes):
            idx = rng.permutation(np.flatnonzero(labels == c))
            if idx.size == 0:
                continue
            weights = rows[:, c]
            total = weights.sum()
            props = weights / total if total > 0 else np.full(num_nodes, 1.0 / num_nodes)
            counts = np.floor(props * idx.size).astype(np.int64)
            # leftover from the floor goes round-robin, rotated by class so no
            # node systematically collects remainders
            short = int(idx.size - counts.sum())
            np.add.at(counts, (c + np.arange(short)) % num_nodes, 1)
            # node k takes the next counts[k] of the permuted indices
            owner[idx] = np.repeat(nodes, counts)[: idx.size]
        sizes = np.bincount(owner, minlength=num_nodes)
        if sizes.min() > 0:
            # a stable sort keeps each node's indices ascending
            shards = np.split(np.argsort(owner, kind="stable"), np.cumsum(sizes)[:-1])
            per_class = np.bincount(
                owner * num_classes + labels, minlength=num_nodes * num_classes
            )
            dists = per_class.reshape(num_nodes, num_classes) / sizes[:, None]
            return shards, dists
        log.warning(
            "partition attempt %d left a node empty, redrawing", attempt + 1
        )
    raise ValueError(
        f"could not produce a partition without empty nodes in {max_retries} tries "
        f"(num_nodes={num_nodes}, alpha={alpha}, samples={labels.size})"
    )


def assign_frequencies(
    dists: np.ndarray,
    beta: float,
    target_mean: float,
    rng: np.random.Generator,
    mode: str = "dirichlet",
) -> FrequencyAssignment:
    """Participation frequency per node from its class distribution.

    A Dirichlet(beta) mixing vector scores each node by how much of its data
    sits in the favoured classes; scores are normalized so their mean hits
    ``target_mean`` before the floor, then floored at 0.02 and clamped to 1.
    ``mode="uniform"`` skips the coupling and gives every node ``target_mean``
    (useful for full-participation and ablation runs).
    """
    dists = np.asarray(dists, dtype=np.float64)
    if dists.ndim != 2:
        raise ValueError("dists must be (num_nodes, num_classes)")
    num_nodes, num_classes = dists.shape
    if not 0.0 < target_mean <= 1.0:
        raise ValueError("target_mean must lie in (0, 1]")

    if mode == "uniform":
        freqs = np.full(num_nodes, float(target_mean))
        freqs = np.maximum(freqs, FREQUENCY_FLOOR)
        return FrequencyAssignment(
            frequencies=freqs,
            mixing=np.full(num_classes, 1.0 / num_classes),
            scores=freqs.copy(),
        )
    if mode != "dirichlet":
        raise ValueError(f"unknown frequency mode {mode!r}")
    if beta <= 0:
        raise ValueError("beta must be > 0")

    mixing = rng.dirichlet(np.full(num_classes, beta))
    scores = dists @ mixing
    mean_score = scores.mean()
    if mean_score <= 0:
        raise ValueError("degenerate frequency scores (all zero)")
    # normalization happens before the floor, so the pre-floor mean is exact
    freqs = scores / (mean_score / target_mean)
    high = freqs > 1.0
    if high.any():
        log.warning(
            "clamping %d participation frequencies above 1 to 1", int(high.sum())
        )
        freqs = np.minimum(freqs, 1.0)
    freqs = np.maximum(freqs, FREQUENCY_FLOOR)
    return FrequencyAssignment(frequencies=freqs, mixing=mixing, scores=scores)


def partition_manifest(
    shards: list[np.ndarray],
    dists: np.ndarray,
    assignment: FrequencyAssignment,
) -> dict:
    """JSON-ready record of shard sizes, class histograms and frequencies."""
    return {
        "num_nodes": len(shards),
        "frequency_mixing": [float(v) for v in assignment.mixing],
        "nodes": [
            {
                "node": k,
                "samples": int(shards[k].size),
                "class_proportions": [float(v) for v in dists[k]],
                "frequency": float(assignment.frequencies[k]),
            }
            for k in range(len(shards))
        ],
    }
