"""Deterministic random fixtures for finite-difference gradient checks.

Central differences are a valid reference only away from the rectifier kinks,
the zero-norm representation pole and the positive/negative partition
boundary.  The sampler therefore redraws (deterministically) until the
candidate keeps a comfortable margin from all three, rather than comparing
the analytic gradient against a reference that is undefined there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pmfl.contrastive import LocalBuffer, _cos_rows
from pmfl.nn import Minibatch, ModelParams, ModelSpec, forward_representation, init_params

from oracles import cached_forward, perturbed

PREACT_MARGIN = 1e-3
ZNORM_MARGIN = 0.1
PARTITION_MARGIN = 1e-3


@dataclass
class GradCase:
    params: ModelParams
    batch: Minibatch
    global_params: ModelParams
    buffer: np.ndarray  # the window's (len, P) rows, oldest first
    mu_reference: ModelParams
    temperature: float
    contrastive_weight: float


def _margins_ok(case: GradCase, with_contrastive: bool) -> bool:
    _, z, _, pres = cached_forward(case.params, case.batch.features)
    if min(np.abs(p).min() for p in pres) < PREACT_MARGIN:
        return False
    if np.linalg.norm(z, axis=1).min() < ZNORM_MARGIN:
        return False
    if not with_contrastive:
        return True
    z_glob = forward_representation(case.global_params, case.batch.features)
    mu = _cos_rows(
        forward_representation(case.mu_reference, case.batch.features), z_glob
    )
    for row in case.buffer:
        entry = ModelParams(case.params.spec(), row)
        s = _cos_rows(z, forward_representation(entry, case.batch.features))
        if np.abs(s - mu).min() < PARTITION_MARGIN:
            return False
    return True


def gradcheck_case(case_seed: int, with_contrastive: bool) -> GradCase:
    """A small random network/batch pair safe for finite differencing."""
    for attempt in range(64):
        rng = np.random.default_rng((9157, case_seed, attempt))
        n_classes = int(rng.integers(2, 5))
        spec = ModelSpec(
            input_dim=int(rng.integers(2, 5)),
            encoder=tuple(int(v) for v in rng.integers(3, 6, size=rng.integers(1, 3))),
            projection=(int(rng.integers(3, 6)),),
            classifier=(n_classes,),
        )
        params = init_params(spec, rng)
        for layer in params.layers():
            # lively biases keep most rectifier units away from their kink
            layer.bias[:] = rng.uniform(0.05, 0.4, size=layer.bias.shape)
        batch = Minibatch(
            rng.standard_normal((3, spec.input_dim)),
            rng.integers(0, n_classes, size=3),
        )
        buffer = LocalBuffer(4, spec)
        for scale in (0.15, 0.3):
            buffer.push(perturbed(params, rng, scale))
        case = GradCase(
            params=params,
            batch=batch,
            global_params=perturbed(params, rng, 0.2),
            buffer=buffer.rows,
            mu_reference=perturbed(params, rng, 0.1),
            temperature=float(rng.uniform(0.4, 1.5)),
            contrastive_weight=float(rng.uniform(0.3, 1.2)),
        )
        if _margins_ok(case, with_contrastive):
            return case
    raise RuntimeError(f"no valid gradient fixture for seed {case_seed}")
