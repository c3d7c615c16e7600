"""Local training loop: batching, window discipline and update vectors."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from pmfl.client import local_train, nonparticipant_update
from pmfl.config import ExperimentConfig
from pmfl.contrastive import LocalBuffer, TrainBuffers, combined_loss_and_grad
from pmfl.data import LabeledDataset
from pmfl.nn import (
    ModelParams,
    ModelSpec,
    cross_entropy_and_grad,
    flatten,
    init_params,
    param_delta,
    sgd_step,
)
from pmfl.rng import stream

from oracles import looped_local_train, perturbed

SPEC = ModelSpec(input_dim=3, encoder=(5,), projection=(4,), classifier=(3,))


def make_shard(seed, n=10):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.standard_normal((n, SPEC.input_dim)),
                          rng.integers(0, SPEC.num_classes, size=n), SPEC.num_classes)


def make_global(seed=1):
    return init_params(SPEC, np.random.default_rng(seed))


def window_of(*models, spec=SPEC):
    """The read-only window rows of ``models``, oldest first."""
    rows = np.array([m.vector for m in models]).reshape(len(models), spec.num_params)
    rows.flags.writeable = False
    return rows


EMPTY = window_of()


def epoch_batches_oracle(rng, n, batch_size, count):
    """Same contract as the client's batch walk, restated independently."""
    order = rng.permutation(n)
    pos = 0
    out = []
    for _ in range(count):
        if pos >= n:
            order = rng.permutation(n)
            pos = 0
        out.append(order[pos : pos + min(batch_size, n - pos)])
        pos += len(out[-1])
    return out


class TestConfigValidation:
    def test_rejects_bad_values(self):
        # a config that skipped validate(): local_train refuses the loop's
        # settings itself, and its kernel those of the contrastive term
        shard, window = make_shard(0), window_of(make_global(2))
        for setting in (dict(local_iterations=-1), dict(local_lr=0.0), dict(batch_size=0),
                        dict(temperature=0.0), dict(contrastive_weight=-0.5)):
            cfg = ExperimentConfig(local_buffer_size=2, **setting)
            with pytest.raises(ValueError):
                local_train(shard, 0, make_global(), cfg, 0, window)


class TestLocalTrain:
    def test_refuses_an_empty_set(self):
        # a partition never hands out an empty shard, and no round could train one
        empty = LabeledDataset(np.zeros((0, SPEC.input_dim)), np.zeros(0, dtype=int), 3)
        with pytest.raises(ValueError, match="at least one sample"):
            local_train(empty, 1, make_global(), ExperimentConfig(), 0, EMPTY)

    def test_batches_are_keyed_by_seed_node_and_round(self):
        # only (cfg.seed, node id, round) pick the batches: the same key gives
        # the same update, another seed, node or round other batches
        shard, w0 = make_shard(10, n=40), make_global(12)
        cfg = ExperimentConfig(local_iterations=3, batch_size=4, local_buffer_size=0, seed=42)

        def update(cfg=cfg, node_id=3, round_idx=7):
            return local_train(shard, node_id, w0, cfg, round_idx, EMPTY)[0]

        same = update()
        np.testing.assert_array_equal(update(), same)
        for other in (update(node_id=4), update(round_idx=8),
                      update(cfg=ExperimentConfig(local_iterations=3, batch_size=4,
                                                  local_buffer_size=0, seed=43))):
            assert np.any(other != same)

    def test_zero_iterations_returns_zero_update(self):
        shard = make_shard(1)
        delta, window = local_train(
            shard, 0, make_global(), ExperimentConfig(local_iterations=0), 0, EMPTY
        )
        np.testing.assert_array_equal(delta, 0.0)
        assert len(window) == 0

    def test_single_full_batch_step_closed_form(self):
        shard = make_shard(2, n=8)
        w0 = make_global(3)
        cfg = ExperimentConfig(
            local_iterations=1, local_lr=0.2, batch_size=64, contrastive_weight=0.7,
            local_buffer_size=0,
        )
        delta, _ = local_train(shard, 0, w0, cfg, 5, EMPTY)
        # empty capacity-0 window: the combined objective degrades to plain CE
        perm = stream(cfg.seed, "train", 0, 5).permutation(8)
        _, grad = cross_entropy_and_grad(
            w0, shard.rows(perm)
        )
        # delta is (w0 - lr g) - w0, so spell the same difference here; the
        # plain -lr*g form differs in the last bits
        np.testing.assert_array_equal(
            delta, (flatten(w0) - 0.2 * flatten(grad)) - flatten(w0)
        )
        np.testing.assert_allclose(delta, -0.2 * flatten(grad), rtol=1e-11, atol=1e-16)

    def test_buffer_holds_pre_step_models(self):
        shard = make_shard(3)
        w0 = make_global(4)
        cfg = ExperimentConfig(local_iterations=3, batch_size=4, contrastive_weight=0.0,
                               local_buffer_size=10)
        delta, rows = local_train(shard, 0, w0, cfg, 0, EMPTY)
        assert len(rows) == 3
        np.testing.assert_array_equal(rows[0], flatten(w0))
        final = flatten(w0) + delta
        assert np.any(rows[-1] != final)  # newest is pre-step, not final

    def test_buffer_growth_and_eviction_across_rounds(self):
        shard = make_shard(4)
        cfg = ExperimentConfig(local_iterations=3, batch_size=4, local_buffer_size=5)
        w = make_global(5)
        _, kept_before = local_train(shard, 0, w, cfg, 0, EMPTY)
        assert len(kept_before) == 3
        _, kept_after = local_train(shard, 0, w, cfg, 1, kept_before)
        assert len(kept_after) == 5  # min(capacity, 3 + 3)
        # the two oldest survivors are the last two snapshots of round 0
        np.testing.assert_array_equal(kept_after[0], kept_before[1])
        np.testing.assert_array_equal(kept_after[1], kept_before[2])

    def test_no_contrastive_matches_plain_sgd_loop(self):
        shard = make_shard(5, n=11)
        window = window_of(perturbed(make_global(6), np.random.default_rng(0), 0.1))
        w0 = make_global(6)
        cfg = ExperimentConfig(
            local_iterations=7, local_lr=0.05, batch_size=4, contrastive_weight=0.0,
            local_buffer_size=3,
        )
        delta, _ = local_train(shard, 0, w0, cfg, 2, window)

        rng = stream(cfg.seed, "train", 0, 2)
        w = w0.copy()
        for idx in epoch_batches_oracle(rng, 11, 4, 7):
            _, grad = cross_entropy_and_grad(w, shard.rows(idx))
            w = sgd_step(w, grad, 0.05)
        np.testing.assert_array_equal(delta, param_delta(w, w0))

    # capacity below the iteration count evicts the frozen reference mid-round
    @pytest.mark.parametrize("capacity, iterations", [(4, 4), (2, 5)])
    def test_contrastive_loop_matches_frozen_reference_oracle(self, capacity, iterations):
        shard = make_shard(6, n=9)
        prefill = perturbed(make_global(7), np.random.default_rng(1), 0.2)
        w0 = make_global(7)
        cfg = ExperimentConfig(
            local_iterations=iterations,
            local_lr=0.1,
            batch_size=4,
            contrastive_weight=0.6,
            local_buffer_size=capacity,
        )
        delta, window = local_train(shard, 0, w0, cfg, 3, window_of(prefill))

        rng = stream(cfg.seed, "train", 0, 3)
        buf = LocalBuffer(capacity, SPEC)
        buf.push(prefill)
        frozen_ref = ModelParams(SPEC, buf.rows[-1])  # pinned before any mid-round snapshots
        w = w0.copy()
        for idx in epoch_batches_oracle(rng, 9, 4, iterations):
            _, grad = combined_loss_and_grad(
                w,
                shard.rows(idx),
                w0,
                buf.rows,
                temperature=cfg.temperature,
                contrastive_weight=0.6,
                mu_reference=frozen_ref,
            )
            buf.push(w)
            w = sgd_step(w, grad, 0.1)
        np.testing.assert_array_equal(delta, param_delta(w, w0))
        # the freeze matters: the window's head moved mid-round
        assert np.any(window[-1] != flatten(prefill))

    def test_epoch_walk_covers_shard_without_replacement(self):
        shard = make_shard(7, n=10)
        cfg = ExperimentConfig(local_iterations=3, batch_size=4, contrastive_weight=0.0)
        rng = stream(cfg.seed, "train", 0, 0)
        batches = epoch_batches_oracle(rng, 10, 4, 3)
        assert [len(b) for b in batches] == [4, 4, 2]  # short tail batch
        np.testing.assert_array_equal(
            np.sort(np.concatenate(batches)), np.arange(10)
        )
        local_train(shard, 0, make_global(8), cfg, 0, EMPTY)  # and the walk actually runs

    def test_deterministic_replay(self):
        cfg = ExperimentConfig(local_iterations=5, batch_size=3)
        a, window_a = local_train(make_shard(8), 0, make_global(10), cfg, 6, EMPTY)
        b, window_b = local_train(make_shard(8), 0, make_global(10), cfg, 6, EMPTY)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(window_a, window_b)

    def test_global_params_unchanged_by_training(self):
        shard = make_shard(9)
        w0 = make_global(11)
        before = flatten(w0).copy()
        local_train(shard, 0, w0, ExperimentConfig(local_iterations=4, batch_size=4), 0, EMPTY)
        np.testing.assert_array_equal(flatten(w0), before)

    @pytest.mark.parametrize("capacity, iterations", [(4, 3), (2, 5), (0, 3), (4, 0)])
    def test_writes_no_argument_and_returns_a_new_read_only_window(self, capacity, iterations):
        shard, w0 = make_shard(9), make_global(11)
        window = window_of(*[perturbed(w0, np.random.default_rng(k), 0.1)
                             for k in range(min(capacity, 2))])
        cfg = ExperimentConfig(local_iterations=iterations, batch_size=4,
                               local_buffer_size=capacity)
        buffers = TrainBuffers(SPEC, capacity, 4)
        arguments = [shard.features, shard.labels, w0.vector, window]
        kept = [a.copy() for a in arguments]
        delta, new = local_train(shard, 0, w0, cfg, 0, window, buffers)
        for argument, before in zip(arguments, kept):
            np.testing.assert_array_equal(argument, before)
        assert cfg == ExperimentConfig(local_iterations=iterations, batch_size=4,
                                       local_buffer_size=capacity)
        assert len(new) == min(len(window) + iterations, capacity)
        assert not new.flags.writeable
        for other in (window, buffers.stack, delta):
            assert not np.shares_memory(new, other)


class TestStagedLoop:
    """``local_train`` in shared buffers against the loop that stacked,
    pushed and stepped into fresh arrays every step."""

    @pytest.mark.parametrize("contrastive_weight", [0.6, 0.0])
    @pytest.mark.parametrize("batch_size", [7, 11])
    @pytest.mark.parametrize("capacity", [0, 1, 4, 8, 12])
    def test_matches_the_looped_loop_bit_for_bit(self, capacity, batch_size, contrastive_weight):
        rng = np.random.default_rng((capacity, batch_size))
        cfg = ExperimentConfig(
            local_iterations=6, local_lr=0.1, batch_size=batch_size,
            contrastive_weight=contrastive_weight, local_buffer_size=capacity,
        )
        shards, windows = [], []
        # windows empty, partly full and full at the start; shards with short tails
        for k, (n, prefill) in enumerate([(9, 0), (13, capacity // 2), (20, capacity)]):
            shards.append(make_shard(10 + k, n=n))
            windows.append(window_of(*[perturbed(make_global(k), rng, 0.3)
                                       for _ in range(prefill)]))
        buffers = TrainBuffers(SPEC, capacity, batch_size)  # one set for every node
        for t in range(2):
            global_params = perturbed(make_global(20), rng, 0.1)
            for k, shard in enumerate(shards):
                before = windows[k]
                kept = before.copy()
                delta, window = local_train(shard, k, global_params, cfg, t, before, buffers)
                want, want_window = looped_local_train(shard, k, global_params, cfg, t, before)
                np.testing.assert_array_equal(delta, want)
                np.testing.assert_array_equal(window, want_window)
                np.testing.assert_array_equal(before, kept)
                assert not window.flags.writeable
                assert not np.shares_memory(window, buffers.stack)
                windows[k] = window

    def test_buffers_must_fit_the_window_and_the_batch(self):
        shard = make_shard(0)
        cfg = ExperimentConfig(local_iterations=2, batch_size=4, local_buffer_size=4)
        for buffers in (TrainBuffers(SPEC, 3, 4), TrainBuffers(SPEC, 4, 3)):
            with pytest.raises(ValueError):
                local_train(shard, 0, make_global(), cfg, 0, EMPTY, buffers)

    def test_kernel_refuses_buffers_staged_for_other_arguments(self):
        w, g = make_global(1), make_global(2)
        shard, window = make_shard(0), window_of(g)
        buffers = TrainBuffers(SPEC, 2, 8)
        buffers.stage(w, g, window, None)
        batch = shard.rows(slice(8))
        kwargs = dict(temperature=0.5, contrastive_weight=0.5, buffers=buffers)
        with pytest.raises(ValueError):
            combined_loss_and_grad(w, batch, g, window, **kwargs)  # not the staged row
        with pytest.raises(ValueError):
            combined_loss_and_grad(buffers.current, batch, g, np.empty((0, 1)), **kwargs)
        with pytest.raises(ValueError):  # staged without a reference
            combined_loss_and_grad(buffers.current, batch, g, buffers.window, mu_reference=g,
                                   **kwargs)
        with pytest.raises(ValueError):  # staged with another global model
            combined_loss_and_grad(buffers.current, batch, w, buffers.window, **kwargs)
        combined_loss_and_grad(buffers.current, batch, g, buffers.window, **kwargs)

    def test_a_warm_participation_allocates_little(self):
        # the desk config's shapes: a full window of 5, batches of 32, 5 steps
        spec = ModelSpec(input_dim=32, encoder=(32, 32), projection=(16,), classifier=(10,))
        rng = np.random.default_rng(3)
        global_params = init_params(spec, rng)
        shard = LabeledDataset(rng.standard_normal((100, 32)), rng.integers(0, 10, 100), 10)
        window = window_of(*[perturbed(global_params, rng, 0.1) for _ in range(5)], spec=spec)
        cfg = ExperimentConfig(local_iterations=5, batch_size=32, local_buffer_size=5)
        buffers = TrainBuffers(spec, 5, 32)
        tracemalloc.start()
        try:
            local_train(shard, 0, global_params, cfg, 0, window, buffers)  # warm-up
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            update, window = local_train(shard, 0, global_params, cfg, 1, window, buffers)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < window.nbytes + update.nbytes + 64 * 1024

    @pytest.mark.parametrize("contrastive_weight, limit", [(0.5, 16 * 1024), (0.0, 4 * 1024)])
    def test_a_warm_step_allocates_little(self, contrastive_weight, limit):
        # one step of the desk config's shapes: a full window of 5 on 32 rows;
        # the gradient, the push and the SGD step as local_train takes them
        spec = ModelSpec(input_dim=32, encoder=(32, 32), projection=(16,), classifier=(10,))
        rng = np.random.default_rng(4)
        global_params = init_params(spec, rng)
        window = LocalBuffer(5, spec)
        for _ in range(5):
            window.push(perturbed(global_params, rng, 0.1))
        reference = ModelParams(spec, window.rows[-1])
        batch = LabeledDataset(rng.standard_normal((32, 32)), rng.integers(0, 10, 32), 10)
        buffers = TrainBuffers(spec, 5, 32)
        buffers.stage(perturbed(global_params, rng, 0.05), global_params, window.rows, reference)

        def step():
            _, grad = combined_loss_and_grad(
                buffers.current, batch, global_params, buffers.window, temperature=0.5,
                contrastive_weight=contrastive_weight, mu_reference=reference, buffers=buffers,
            )
            buffers.push()
            sgd_step(buffers.current, grad, 0.1, out=buffers.current, ws=buffers.workspace)

        step()  # warm-up
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= limit


class TestNonparticipant:
    def test_zero_vector(self):
        v = nonparticipant_update(17)
        assert v.shape == (17,)
        np.testing.assert_array_equal(v, 0.0)
