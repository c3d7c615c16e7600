"""Whole-system acceptance battery: one test per shipped guarantee.

The first six tests pin the numerical core against independent oracles
(central finite differences, brute-force interval segmentation, closed-form
two-state-chain statistics).  The remaining five run real desk-scale
experiments end to end and check the behavioural claims: the ablation
ordering, the update-deviation reduction, the accuracy-smoothing effect, the
reduction to plain averaging, and byte-level reproducibility.  Under
``pytest -v`` each guarantee reads as a single pass/fail line.

The experiment battery (tests 07 to 09) is deterministic: every run is
seeded, so the seed-win counts asserted here are exact reruns, not samples.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from pmfl.client import NodeState, _epoch_batches, local_train
from pmfl.config import ExperimentConfig
from pmfl.contrastive import LocalBuffer, combined_loss_and_grad
from pmfl.harness import run_experiment, run_sweep
from pmfl.nn import (
    Minibatch,
    ModelSpec,
    cross_entropy_and_grad,
    flatten,
    init_params,
    param_delta,
    sgd_step,
    unflatten,
)
from pmfl.participation import ParticipationSchedule
from pmfl.server import AggregatorState, history_coefficient, update_weights

from fixtures import assert_same_outputs, assert_same_sweeps, gradcheck_case, tiny_config
from oracles import (
    ContrastiveContext,
    contrastive_loss,
    expected_weight,
    fd_gradient,
    max_rel_err,
    perturbed,
)
from test_participation import bernoulli_sigma, markov_sigma

# Sized so the full three-variant, ten-seed battery finishes in a few
# minutes on one CPU core while the component effects stay visible: a
# mid-difficulty ten-class mixture, sparse skewed attendance, and a
# contrastive weight large enough to matter.
DESK_PROFILE = dict(
    num_nodes=30,
    rounds=400,
    data_alpha=0.1,
    participation_beta=0.05,
    mean_frequency=0.1,
    pattern="bernoulli",
    local_iterations=10,
    batch_size=32,
    local_lr=0.1,
    temperature=0.5,
    contrastive_weight=2.0,
    local_buffer_size=5,
    global_buffer_size=3,
    cutoff_interval=50,
    encoder_dims=(32, 32),
    projection_dims=(16,),
    classifier_hidden_dims=(),
    dataset_num_classes=10,
    dataset_input_dim=32,
    dataset_samples_per_class=150,
    dataset_test_fraction=0.25,
    dataset_noise_scale=1.5,
    dataset_class_separation=3.0,
    eval_every=5,
)

SEEDS = range(10)

# small throwaway model so aggregator-state tests have something to hold
TINY_SPEC = ModelSpec(input_dim=2, encoder=(2,), projection=(2,), classifier=(2,))


def drive_weights(trace: np.ndarray, cutoff) -> np.ndarray:
    """Feed a (rounds, nodes) trace through the incremental bookkeeping."""
    state = AggregatorState(
        num_nodes=trace.shape[1],
        global_model=init_params(TINY_SPEC, np.random.default_rng(0)),
        horizon=max(trace.shape[0], 2),
        cutoff=cutoff,
        history_size=0,
    )
    for row in trace:
        update_weights(state, row)
    return state.weights


def accuracy_series(run_dir) -> np.ndarray:
    with open(Path(run_dir) / "metrics.csv", newline="") as fh:
        return np.array(
            [
                float(row["test_accuracy"])
                for row in csv.DictReader(fh)
                if row["test_accuracy"]
            ]
        )


def desk_sweep(root, grid: dict, **overrides) -> list[dict]:
    """Sweep rows of a desk-profile grid, run on two worker processes."""
    cfg = ExperimentConfig(**dict(DESK_PROFILE, **overrides), workers=2)
    rows = run_sweep(cfg, grid, root)
    failed = [row for row in rows if row["status"] != "ok"]
    assert not failed, failed
    return rows


@dataclass
class AblationBattery:
    summaries: dict  # (variant, seed) -> sweep row with the run's summary stats
    elapsed_seconds: float


@pytest.fixture(scope="module")
def ablation_battery(tmp_path_factory) -> AblationBattery:
    """The full scheme and both single-component ablations on ten seeds."""
    root = tmp_path_factory.mktemp("ablations")
    t0 = time.monotonic()
    grid = {"variant": ["pmfl", "wo_awc", "wo_mct"], "seed": list(SEEDS)}
    rows = desk_sweep(root, grid)
    summaries = {(row["variant"], row["seed"]): row for row in rows}
    return AblationBattery(summaries, time.monotonic() - t0)


@pytest.fixture(scope="module")
def smoothing_jitter(tmp_path_factory) -> dict:
    """(history size, seed) -> round-to-round std of late test accuracy.

    Run length 110 with every round evaluated: the last-100 window then sits
    where the mixing coefficient is still substantial, rather than in its
    decayed-to-zero tail.
    """
    root = tmp_path_factory.mktemp("smoothing")
    grid = {"global_buffer_size": [3, 0], "seed": list(SEEDS)}
    rows = desk_sweep(root, grid, mean_frequency=0.05, rounds=110, eval_every=1)
    out = {}
    for row in rows:
        (run_dir,) = root.glob(f"cell_{row['cell']:03d}__*")
        acc = accuracy_series(run_dir)
        out[row["global_buffer_size"], row["seed"]] = float(np.std(np.diff(acc[-100:])))
    return out


def test_01_analytic_gradients_match_central_differences():
    t0 = time.monotonic()
    for case_seed, with_term in [(s, True) for s in range(60)] + [
        (200 + s, False) for s in range(60)
    ]:
        case = gradcheck_case(case_seed, with_contrastive=with_term)
        weight = case.contrastive_weight if with_term else 0.0
        assert len(case.buffer) > 0
        spec = case.params.spec()

        def loss_at(flat):
            loss, _ = combined_loss_and_grad(
                unflatten(spec, flat),
                case.batch,
                case.global_params,
                case.buffer,
                temperature=case.temperature,
                contrastive_weight=weight,
                mu_reference=case.mu_reference,
            )
            return loss

        _, grad = combined_loss_and_grad(
            case.params,
            case.batch,
            case.global_params,
            case.buffer,
            temperature=case.temperature,
            contrastive_weight=weight,
            mu_reference=case.mu_reference,
        )
        err = max_rel_err(flatten(grad), fd_gradient(loss_at, flatten(case.params)))
        assert err < 1e-4, f"seed {case_seed} (contrastive={with_term}): {err:.3e}"
    assert time.monotonic() - t0 < 60.0


def test_02_incremental_weights_match_interval_means():
    t0 = time.monotonic()
    rounds, per_cutoff = 10_000, 250
    for block, cutoff in enumerate((2, 5, 50, None)):
        rng = np.random.default_rng((4201, block))
        p = rng.random(per_cutoff)
        trace = (rng.random((rounds, per_cutoff)) < p).astype(np.int64)
        got = drive_weights(trace, cutoff)
        want = np.array(
            [expected_weight(trace[:, k].tolist(), cutoff) for k in range(per_cutoff)]
        )
        worst = float(np.abs(got - want).max())
        assert worst < 1e-9, f"cutoff {cutoff}: max abs error {worst:.3e}"
    assert time.monotonic() - t0 < 60.0


def test_03_weights_invert_participation_frequency():
    rounds, nodes = 10_000, 200
    rng = np.random.default_rng(77)
    freqs = rng.uniform(0.01, 1.0, nodes)
    trace = ParticipationSchedule("bernoulli", freqs, root_seed=3).trace_matrix(rounds)
    weights = drive_weights(trace.astype(np.int64), cutoff=None)
    checked = 0
    for k in range(nodes):
        if freqs[k] < 0.05:
            continue
        product = weights[k] * trace[:, k].mean()
        assert 0.95 <= product <= 1.05, f"node {k} (p={freqs[k]:.3f}): {product:.4f}"
        checked += 1
    assert checked >= 150  # the band has to have actually been exercised


def test_04_contrastive_loss_identities():
    # no negatives: the term vanishes identically, not approximately
    ctx = ContrastiveContext(
        global_rep=np.array([1.0, 2.0]),
        positives=[np.array([0.5, 0.5]), np.array([1.0, 0.0])],
        negatives=[],
        temperature=0.5,
    )
    assert contrastive_loss(np.array([3.0, -1.0]), ctx) == 0.0

    # weight zero: the whole local loop collapses onto plain minibatch SGD,
    # bit for bit, even with a populated snapshot buffer
    rng = np.random.default_rng(42)
    spec = ModelSpec(input_dim=5, encoder=(8,), projection=(6,), classifier=(3,))
    global_params = init_params(spec, rng)
    buffer = LocalBuffer(3, spec)
    buffer.push(perturbed(global_params, rng, 0.2))
    buffer.push(perturbed(global_params, rng, 0.1))
    node = NodeState(
        node_id=0,
        features=rng.standard_normal((40, 5)),
        labels=rng.integers(0, 3, size=40),
        root_seed=11,
    )
    cfg = ExperimentConfig(
        local_iterations=4, local_lr=0.1, batch_size=16,
        temperature=0.5, contrastive_weight=0.0, local_buffer_size=3,
    )
    update, _ = local_train(node, global_params, cfg, 7, buffer.rows)

    plain_rng = node.round_rng(7)
    w = global_params.copy()
    for batch_idx in _epoch_batches(plain_rng, node.num_samples, 16, 4):
        _, grad = cross_entropy_and_grad(
            w, Minibatch(node.features[batch_idx], node.labels[batch_idx])
        )
        w = sgd_step(w, grad, 0.1)
    np.testing.assert_array_equal(update, param_delta(w, global_params))

    # the frozen hand-computed value
    pinned = ContrastiveContext(
        global_rep=np.array([1.0, 0.0]),
        positives=[np.array([1.0, 0.0])],
        negatives=[np.array([-1.0, 0.0])],
        temperature=1.0,
    )
    loss = contrastive_loss(np.array([1.0, 0.0]), pinned)
    assert abs(loss - 0.06547649511956817) < 1e-6


def test_05_participation_trace_statistics():
    rounds = 100_000
    for p in (0.05, 0.3, 0.9):
        trace = ParticipationSchedule("bernoulli", [p], root_seed=51).node_trace(
            0, rounds
        )
        assert abs(trace.mean() - p) < 3 * bernoulli_sigma(p, rounds)

    for p, cycle, want in ((0.3, 10, 3), (0.3, 8, 3), (0.25, 20, 5)):
        sched = ParticipationSchedule(
            "cyclic", [p], root_seed=52, cycle_length=cycle
        )
        per_cycle = sched.node_trace(0, 40 * cycle).reshape(40, cycle).sum(axis=1)
        np.testing.assert_array_equal(per_cycle, want)

    for p in (0.0, 0.2, 0.6):
        trace = ParticipationSchedule("markovian", [p], root_seed=53).node_trace(
            0, rounds
        )
        stationary = 1.0 / (2.0 - p)
        assert abs(trace.mean() - stationary) < 3 * markov_sigma(p, 0.05, rounds)


def test_06_smoothing_coefficient_schedule():
    for horizon in (2, 3, 100, 10_000):
        values = [history_coefficient(t, horizon) for t in range(horizon)]
        assert values[0] == 0.5
        assert values[-1] == 0.0
        assert all(a > b for a, b in zip(values, values[1:]))


def test_07_ablations_rank_below_full_scheme(ablation_battery):
    s = ablation_battery.summaries
    full = [s["pmfl", seed]["top5_test_accuracy"] for seed in SEEDS]
    no_weighting = [s["wo_awc", seed]["top5_test_accuracy"] for seed in SEEDS]
    no_contrastive = [s["wo_mct", seed]["top5_test_accuracy"] for seed in SEEDS]

    wins = sum(a > b for a, b in zip(full, no_weighting))
    assert wins >= 8, f"beats the unweighted ablation on only {wins}/10 seeds"
    margin = float(np.mean(full) - np.mean(no_contrastive))
    assert margin > 0, f"mean top-5 accuracy margin {margin:+.4f}"
    assert ablation_battery.elapsed_seconds < 1800.0


def test_08_contrastive_term_reduces_update_deviation(ablation_battery):
    s = ablation_battery.summaries
    wins = sum(
        s["pmfl", seed]["mean_deviation_last_quarter"]
        < s["wo_mct", seed]["mean_deviation_last_quarter"]
        for seed in SEEDS
    )
    assert wins >= 8, f"lower late-run deviation on only {wins}/10 seeds"


def test_09_history_smoothing_reduces_accuracy_jitter(smoothing_jitter):
    wins = sum(smoothing_jitter[3, seed] < smoothing_jitter[0, seed] for seed in SEEDS)
    assert wins >= 8, f"smoothing lowers jitter on only {wins}/10 seeds"


def test_10_full_participation_reduces_to_plain_averaging(tmp_path):
    for history in (0, 1):
        knobs = dict(
            contrastive_weight=0.0,
            local_buffer_size=0,
            global_buffer_size=history,
            cutoff_interval=None,
            mean_frequency=1.0,
            frequency_mode="uniform",
            aggregation_mode="corrected",
        )
        run_experiment(tiny_config(variant="pmfl", **knobs), tmp_path / f"full_{history}")
        run_experiment(
            tiny_config(variant="uniform_average", **knobs), tmp_path / f"plain_{history}"
        )
        # manifests echo the configs, which differ in the variant label
        assert_same_outputs(
            tmp_path / f"full_{history}",
            tmp_path / f"plain_{history}",
            exclude=("manifest.json",),
        )


def test_11_reruns_and_worker_counts_are_byte_identical(tmp_path):
    cfg = tiny_config(pattern="markovian", rounds=8)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    assert_same_outputs(tmp_path / "a", tmp_path / "b")

    grid = {"variant": ["pmfl", "wo_awc"], "seed": [1, 2]}
    run_sweep(tiny_config(pattern="markovian", workers=2), grid, tmp_path / "w2")
    run_sweep(tiny_config(pattern="markovian", workers=1), grid, tmp_path / "w1")
    assert_same_sweeps(tmp_path / "w1", tmp_path / "w2")
