"""Shared test fixtures: the tiny run config and output comparisons the
run-level suites share, and deterministic random cases for finite-difference
gradient checks.

Central differences are a valid reference only away from the rectifier kinks,
the zero-norm representation pole and the positive/negative partition
boundary.  The sampler therefore redraws (deterministically) until the
candidate keeps a comfortable margin from all three, rather than comparing
the analytic gradient against a reference that is undefined there.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pmfl.config import ExperimentConfig
from pmfl.contrastive import LocalBuffer, _cos_rows
from pmfl.data import LabeledDataset
from pmfl.harness import OUTPUT_FILES
from pmfl.nn import ModelParams, ModelSpec, forward_representation, init_params

from oracles import cached_forward, perturbed


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        num_nodes=4,
        rounds=6,
        seed=1,
        local_iterations=2,
        batch_size=8,
        encoder_dims=(6,),
        projection_dims=(4,),
        classifier_hidden_dims=(),
        dataset_num_classes=3,
        dataset_input_dim=6,
        dataset_samples_per_class=30,
        dataset_test_fraction=0.2,
        dataset_noise_scale=0.8,
        mean_frequency=0.6,
        frequency_mode="uniform",
        eval_every=2,
        local_buffer_size=2,
        global_buffer_size=3,
        cutoff_interval=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_same_outputs(dir_a, dir_b, exclude=()):
    for name in OUTPUT_FILES:
        if name in exclude:
            continue
        a = (Path(dir_a) / name).read_bytes()
        b = (Path(dir_b) / name).read_bytes()
        assert a == b, f"{name} differs"


def assert_same_sweeps(dir_a, dir_b):
    """Same cells with the same outputs, manifests included, and the same
    ``sweep_summary.csv``."""
    cells = sorted(p.name for p in Path(dir_a).iterdir() if p.is_dir())
    assert cells == sorted(p.name for p in Path(dir_b).iterdir() if p.is_dir())
    for name in cells:
        assert_same_outputs(Path(dir_a) / name, Path(dir_b) / name)
    summary = "sweep_summary.csv"
    assert (Path(dir_a) / summary).read_bytes() == (Path(dir_b) / summary).read_bytes()

PREACT_MARGIN = 1e-3
ZNORM_MARGIN = 0.1
PARTITION_MARGIN = 1e-3


@dataclass
class GradCase:
    params: ModelParams
    batch: LabeledDataset
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
        batch = LabeledDataset(
            rng.standard_normal((3, spec.input_dim)),
            rng.integers(0, n_classes, size=3),
            n_classes,
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
