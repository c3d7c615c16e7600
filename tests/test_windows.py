"""Windows of past models as one array each: buffer rows, the stacked
reference pass of the contrastive term, and the refusal of checkpoints
written before the windows were arrays."""
from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from pmfl.cli import main
from pmfl.contrastive import LocalBuffer, combined_loss_and_grad
from pmfl.data import LabeledDataset
from pmfl.harness import CHECKPOINT_FILE
from pmfl.nn import ModelParams, ModelSpec, forward_representation, init_params

from oracles import looped_loss_and_grad, perturbed

SPEC = ModelSpec(input_dim=5, encoder=(8,), projection=(6,), classifier=(4,))
DATA = Path(__file__).resolve().parent / "data"


def _models(count: int, seed: int) -> list[ModelParams]:
    rng = np.random.default_rng(seed)
    return [init_params(SPEC, rng) for _ in range(count)]


class TestBufferRows:
    def test_rows_are_the_window_oldest_first(self):
        models = _models(5, 0)
        buf = LocalBuffer(3, SPEC)
        assert buf.rows.shape == (0, SPEC.num_params)
        for m in models:
            buf.push(m)
        np.testing.assert_array_equal(buf.rows, np.stack([m.vector for m in models[2:]]))

    def test_push_replaces_the_array_and_never_writes_it(self):
        buf = LocalBuffer(2, SPEC)
        a, b, c = _models(3, 1)
        buf.push(a)
        buf.push(b)
        before = buf.rows
        kept = before.copy()
        buf.push(c)
        assert buf.rows is not before
        np.testing.assert_array_equal(before, kept)
        assert not buf.rows.flags.writeable

    def test_a_model_read_from_the_buffer_keeps_its_values(self):
        buf = LocalBuffer(1, SPEC)
        a, b = _models(2, 2)
        buf.push(a)
        newest = ModelParams(SPEC, buf.rows[-1])
        buf.push(b)
        np.testing.assert_array_equal(newest.vector, a.vector)
        with pytest.raises(ValueError):
            newest.encoder[0].weight[:] = 0.0

    def test_rows_beyond_the_capacity_are_rejected(self):
        buf = LocalBuffer(1, SPEC)
        with pytest.raises(ValueError):
            buf.rows = np.zeros((2, SPEC.num_params))


class TestStackedForward:
    def test_each_slice_equals_its_own_model_bit_for_bit(self):
        models = _models(4, 3)
        stack = ModelParams(SPEC, np.stack([m.vector for m in models]))
        X = np.random.default_rng(4).standard_normal((7, SPEC.input_dim))
        reps = forward_representation(stack, X)
        assert reps.shape == (4, 7, SPEC.representation_dim)
        single = forward_representation(stack, X[0])
        assert single.shape == (4, SPEC.representation_dim)
        for s, m in enumerate(models):
            np.testing.assert_array_equal(reps[s], forward_representation(m, X))
            np.testing.assert_array_equal(single[s], forward_representation(m, X[0]))


def _assert_matches_the_looped_kernel(*args):
    loss, grad = combined_loss_and_grad(*args)
    want_loss, want_grad = looped_loss_and_grad(*args)
    assert loss == want_loss
    np.testing.assert_array_equal(grad.vector, want_grad.vector)


def _batch(rng, rows: int, zeroed: int = 0) -> LabeledDataset:
    """``rows`` random rows, the first ``zeroed`` of them zero, and their labels."""
    features = rng.standard_normal((rows, SPEC.input_dim))
    features[:zeroed] = 0.0  # before the set is made: its arrays are read-only
    return LabeledDataset(features, rng.integers(0, 4, size=rows), 4)


def _assert_window_matches(capacity: int, with_reference: bool, rows: int) -> None:
    """A full window of perturbed models, one evicted, against the loop."""
    rng = np.random.default_rng((capacity, with_reference))
    params = init_params(SPEC, rng)
    buf = LocalBuffer(capacity, SPEC)
    for _ in range(capacity + 2):  # fill, then evict
        buf.push(perturbed(params, rng, 0.3))
    batch = _batch(rng, rows)
    reference = perturbed(params, rng, 0.1) if with_reference else None
    _assert_matches_the_looped_kernel(
        params, batch, perturbed(params, rng, 0.2), buf.rows, 0.5, 0.7, reference
    )


class TestStackedKernel:
    @pytest.mark.parametrize("with_reference", [True, False])
    @pytest.mark.parametrize("capacity", [1, 4, 7, 8, 12])
    def test_matches_the_looped_kernel_bit_for_bit(self, capacity, with_reference):
        _assert_window_matches(capacity, with_reference, rows=32)

    @pytest.mark.parametrize("rows", [5, 1])
    def test_short_tail_batch(self, rows):
        _assert_window_matches(4, True, rows)

    def test_one_row_batches_on_a_long_window(self):
        # (snapshots, 1) columns: the terms still add one after another
        rng = np.random.default_rng(9)
        params = init_params(SPEC, rng)
        buf = LocalBuffer(12, SPEC)
        for _ in range(12):
            buf.push(perturbed(params, rng, 0.3))
        for _ in range(32):
            _assert_matches_the_looped_kernel(
                params, _batch(rng, 1), perturbed(params, rng, 0.2), buf.rows, 0.5, 0.7,
                perturbed(params, rng, 0.1),
            )

    def test_window_holding_the_global_model_and_the_reference(self):
        rng = np.random.default_rng(5)
        params = init_params(SPEC, rng)
        global_params = perturbed(params, rng, 0.2)
        reference = perturbed(params, rng, 0.1)
        buf = LocalBuffer(4, SPEC)
        for model in (reference, perturbed(params, rng, 0.3), global_params, params):
            buf.push(model)
        _assert_matches_the_looped_kernel(
            params, _batch(rng, 32), global_params, buf.rows, 0.5, 0.7, reference
        )

    @pytest.mark.parametrize("with_reference", [True, False])
    def test_representations_with_zero_norm(self, with_reference):
        rng = np.random.default_rng(6)
        params = init_params(SPEC, rng)  # zero biases: a zero row maps to z = 0
        batch = _batch(rng, 16, zeroed=3)
        dead = perturbed(params, rng, 0.3)
        dead.projection[-1].weight[:] = 0.0
        dead.projection[-1].bias[:] = -1.0  # every representation rectified away
        buf = LocalBuffer(3, SPEC)
        for model in (perturbed(params, rng, 0.3), dead, perturbed(params, rng, 0.3)):
            buf.push(model)
        reference = dead if with_reference else None
        _assert_matches_the_looped_kernel(
            params, batch, perturbed(params, rng, 0.2), buf.rows, 0.5, 0.7, reference
        )

    def test_no_representation_layers(self):
        # the representation is the input itself, the same for every model
        spec = ModelSpec(input_dim=5, encoder=(), projection=(), classifier=(4,))
        rng = np.random.default_rng(8)
        params = init_params(spec, rng)
        buf = LocalBuffer(2, spec)
        for _ in range(3):
            buf.push(perturbed(params, rng, 0.3))
        _assert_matches_the_looped_kernel(
            params, _batch(rng, 8), perturbed(params, rng, 0.2), buf.rows, 0.5, 0.7,
            perturbed(params, rng, 0.1),
        )

    def test_zero_contrastive_weight(self):
        rng = np.random.default_rng(7)
        params = init_params(SPEC, rng)
        buf = LocalBuffer(2, SPEC)
        buf.push(perturbed(params, rng, 0.3))
        _assert_matches_the_looped_kernel(
            params, _batch(rng, 32), perturbed(params, rng, 0.2), buf.rows, 0.5, 0.0,
            perturbed(params, rng, 0.1),
        )


class TestOldCheckpoints:
    # written by the code that still kept each window as a list of models:
    # tiny_config with 3 local iterations, buffers of 4 and a checkpoint every
    # 2 rounds, interrupted in round 4; pmfl 0.1.0 wrote them, as it writes
    # today's, but without the format stamp
    @pytest.mark.parametrize("variant", ["pmfl", "cached_update"])
    def test_resume_is_refused_and_writes_nothing(self, tmp_path, capsys, variant):
        run_dir = tmp_path / "stopped"
        shutil.copytree(DATA / f"checkpoint_{variant}", run_dir)
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}

        assert main(["run", "--out", str(run_dir), "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("pmfl run: error: ValueError: ")
        assert str(run_dir / CHECKPOINT_FILE) in err and "0.1.0" in err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
