"""Model plumbing: shapes, init, flat layout, forward pass and gradients."""
from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from pmfl.contrastive import TrainBuffers, combined_loss_and_grad
from pmfl.data import LabeledDataset
from pmfl.nn import (
    Layer,
    ModelSpec,
    Workspace,
    cross_entropy_and_grad,
    flatten,
    forward_logits,
    forward_representation,
    init_params,
    param_delta,
    sgd_step,
    unflatten,
)
from pmfl.rng import stream

from fixtures import gradcheck_case
from oracles import (
    cached_forward,
    cross_entropy,
    fd_gradient,
    log_softmax,
    max_rel_err,
    scalar_cross_entropy,
    scalar_forward,
)


def small_spec() -> ModelSpec:
    return ModelSpec(input_dim=2, encoder=(4,), projection=(3,), classifier=(2,))


def fixture_params():
    # canonical frozen net: weights from one stream, lively biases from another
    params = init_params(small_spec(), stream(7, "fixture"))
    brng = stream(7, "fixture-bias")
    for layer in params.layers():
        layer.bias[:] = brng.uniform(-0.3, 0.3, size=layer.bias.shape)
    return params


class TestModelSpec:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            ModelSpec(input_dim=0, encoder=(4,), projection=(3,), classifier=(2,))
        with pytest.raises(ValueError):
            ModelSpec(input_dim=2, encoder=(4, 0), projection=(3,), classifier=(2,))
        with pytest.raises(ValueError):
            ModelSpec(input_dim=2, encoder=(4,), projection=(3,), classifier=())

    def test_block_shapes_chain_fan_in(self):
        spec = ModelSpec(input_dim=5, encoder=(7, 4), projection=(3,), classifier=(6, 2))
        assert spec.block_shapes("encoder") == [(7, 5), (4, 7)]
        assert spec.block_shapes("projection") == [(3, 4)]
        assert spec.block_shapes("classifier") == [(6, 3), (2, 6)]
        assert spec.num_classes == 2
        assert spec.representation_dim == 3

    def test_empty_blocks_fall_through(self):
        spec = ModelSpec(input_dim=5, encoder=(), projection=(), classifier=(2,))
        assert spec.representation_dim == 5
        assert ModelSpec(5, (4,), (), (2,)).representation_dim == 4

    def test_num_params_counts_weights_and_biases(self):
        spec = small_spec()
        # 4*2+4 + 3*4+3 + 2*3+2 = 12+15+8
        assert spec.num_params == 35
        assert init_params(spec, np.random.default_rng(0)).num_params == 35


class TestInit:
    def test_bounds_and_zero_biases(self):
        spec = ModelSpec(input_dim=50, encoder=(40,), projection=(30,), classifier=(10,))
        params = init_params(spec, np.random.default_rng(3))
        for layer in params.layers():
            fan_out, fan_in = layer.weight.shape
            s = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(layer.weight).max() <= s
            np.testing.assert_array_equal(layer.bias, 0.0)

    def test_deterministic_per_stream(self):
        spec = small_spec()
        a = flatten(init_params(spec, stream(11, "init")))
        b = flatten(init_params(spec, stream(11, "init")))
        c = flatten(init_params(spec, stream(12, "init")))
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)


class TestFlatLayout:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            spec = ModelSpec(
                input_dim=int(rng.integers(1, 6)),
                encoder=tuple(int(v) for v in rng.integers(1, 6, size=2)),
                projection=(int(rng.integers(1, 6)),),
                classifier=(int(rng.integers(2, 6)),),
            )
            params = init_params(spec, rng)
            flat = flatten(params)
            assert flat.shape == (spec.num_params,)
            back = unflatten(spec, flat)
            for p, q in zip(params.layers(), back.layers()):
                np.testing.assert_array_equal(p.weight, q.weight)
                np.testing.assert_array_equal(p.bias, q.bias)
            v = rng.standard_normal(spec.num_params)
            np.testing.assert_array_equal(flatten(unflatten(spec, v)), v)

    def test_weight_precedes_bias_within_layer(self):
        spec = ModelSpec(input_dim=2, encoder=(), projection=(), classifier=(2,))
        params = unflatten(spec, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        np.testing.assert_array_equal(
            params.classifier[0].weight, [[1.0, 2.0], [3.0, 4.0]]
        )
        np.testing.assert_array_equal(params.classifier[0].bias, [5.0, 6.0])

    def test_blocks_follow_one_another_in_layout_order(self):
        spec = ModelSpec(input_dim=5, encoder=(7, 4), projection=(3,), classifier=(6, 2))
        params = init_params(spec, np.random.default_rng(1))
        blocks = [
            np.concatenate([np.concatenate([l.weight.ravel(), l.bias]) for l in layers])
            for layers in (params.encoder, params.projection, params.classifier)
        ]
        np.testing.assert_array_equal(flatten(params), np.concatenate(blocks))

    def test_unflatten_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            unflatten(small_spec(), np.zeros(3))

    def test_copy_is_deep(self):
        params = fixture_params()
        dup = params.copy()
        dup.encoder[0].weight[0, 0] += 1.0
        assert params.encoder[0].weight[0, 0] != dup.encoder[0].weight[0, 0]

    @pytest.mark.parametrize(
        "clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy]
    )
    def test_clones_keep_layers_on_their_own_vector(self, clone):
        params = fixture_params()  # has built its views, which a clone must not carry
        dup = clone(params)
        assert dup.spec() == params.spec()
        np.testing.assert_array_equal(dup.vector, params.vector)
        assert not np.shares_memory(dup.vector, params.vector)
        for layer in dup.layers():
            assert np.shares_memory(layer.weight, dup.vector)
            assert np.shares_memory(layer.bias, dup.vector)
        dup.classifier[0].bias[:] = 9.0
        assert np.count_nonzero(flatten(dup) == 9.0) == dup.classifier[0].bias.size


class TestForward:
    def test_frozen_fixture_values(self):
        params = fixture_params()
        x = np.array([0.8, -1.3])
        np.testing.assert_allclose(
            forward_representation(params, x),
            [0.4216959930714992, 0.0, 0.0],
            rtol=0.0,
            atol=0.0,
        )
        np.testing.assert_allclose(
            forward_logits(params, x),
            [0.08058894824066125, 0.36792431095563943],
            rtol=0.0,
            atol=0.0,
        )

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            spec = ModelSpec(
                input_dim=int(rng.integers(1, 5)),
                encoder=tuple(int(v) for v in rng.integers(1, 5, size=rng.integers(0, 3))),
                projection=tuple(int(v) for v in rng.integers(1, 5, size=rng.integers(0, 2))),
                classifier=tuple(int(v) for v in rng.integers(2, 5, size=rng.integers(1, 3))),
            )
            params = init_params(spec, rng)
            for layer in params.layers():
                layer.bias[:] = rng.standard_normal(layer.bias.shape)
            x = rng.standard_normal(spec.input_dim)
            logits, z = scalar_forward(params, x)
            np.testing.assert_allclose(forward_logits(params, x), logits, rtol=1e-12)
            np.testing.assert_allclose(
                forward_representation(params, x), z, rtol=1e-12
            )

    def test_batch_rows_equal_single_calls(self):
        params = fixture_params()
        X = np.random.default_rng(2).standard_normal((6, 2))
        batched = forward_logits(params, X)
        reps = forward_representation(params, X)
        for i in range(6):
            # BLAS may route single rows differently, so exact equality is out
            np.testing.assert_allclose(batched[i], forward_logits(params, X[i]), rtol=1e-13)
            np.testing.assert_allclose(
                reps[i], forward_representation(params, X[i]), rtol=1e-13, atol=0.0
            )

    def test_logits_equal_the_cached_pass_bit_for_bit(self):
        spec = ModelSpec(input_dim=32, encoder=(32, 32), projection=(16,), classifier=(10,))
        params = init_params(spec, np.random.default_rng(8))
        X = np.random.default_rng(9).standard_normal((3750, 32))
        logits, _, _, _ = cached_forward(params, X)
        np.testing.assert_array_equal(forward_logits(params, X), logits)

    def test_representation_is_rectified(self):
        params = fixture_params()
        X = np.random.default_rng(3).standard_normal((50, 2))
        assert forward_representation(params, X).min() >= 0.0

    def test_zero_weights_give_bias_logits(self):
        spec = small_spec()
        params = unflatten(spec, np.zeros(spec.num_params))
        np.testing.assert_array_equal(forward_logits(params, [1.0, 2.0]), [0.0, 0.0])

    def test_identity_classifier_passes_representation(self):
        spec = ModelSpec(input_dim=3, encoder=(), projection=(), classifier=(3,))
        params = unflatten(spec, np.zeros(spec.num_params))
        params.classifier[0].weight[:] = np.eye(3)
        x = np.array([0.5, -2.0, 1.5])
        np.testing.assert_array_equal(forward_logits(params, x), x)
        np.testing.assert_array_equal(forward_representation(params, x), x)


class TestSoftmaxLoss:
    def test_softmax_properties(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((8, 5))
        p = np.exp(log_softmax(logits))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)
        shifted = log_softmax(logits + 123.0)
        np.testing.assert_allclose(shifted, log_softmax(logits), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([1e8, 0.0, -1e8])
        assert np.isfinite(log_softmax(logits)).all()
        assert cross_entropy(logits, np.array([0])) == 0.0

    def test_cross_entropy_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((10, 4))
        labels = rng.integers(0, 4, size=10)
        expect = np.mean([scalar_cross_entropy(l.tolist(), int(y)) for l, y in zip(logits, labels)])
        np.testing.assert_allclose(cross_entropy(logits, labels), expect, rtol=1e-12)

    def test_uniform_logits_loss_is_log_k(self):
        assert cross_entropy(np.zeros((3, 7)), np.array([0, 3, 6])) == pytest.approx(
            np.log(7.0), rel=1e-15
        )

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


class TestCrossEntropyGradient:
    def test_loss_agrees_with_plain_forward(self):
        case = gradcheck_case(0, with_contrastive=False)
        loss, grad = cross_entropy_and_grad(case.params, case.batch)
        assert loss == pytest.approx(
            cross_entropy(forward_logits(case.params, case.batch.features), case.batch.labels),
            rel=1e-14,
        )

    @pytest.mark.parametrize("case_seed", range(6))
    def test_matches_finite_differences(self, case_seed):
        case = gradcheck_case(case_seed, with_contrastive=False)
        spec = case.params.spec()

        def loss_at(flat):
            p = unflatten(spec, flat)
            return cross_entropy(forward_logits(p, case.batch.features), case.batch.labels)

        _, grad = cross_entropy_and_grad(case.params, case.batch)
        fd = fd_gradient(loss_at, flatten(case.params))
        assert max_rel_err(flatten(grad), fd) < 1e-6

    def test_gradient_shapes_match_params(self):
        case = gradcheck_case(1, with_contrastive=False)
        _, grad = cross_entropy_and_grad(case.params, case.batch)
        for p, g in zip(case.params.layers(), grad.layers()):
            assert p.weight.shape == g.weight.shape
            assert p.bias.shape == g.bias.shape


class TestSgd:
    def test_step_is_p_minus_lr_g(self):
        case = gradcheck_case(2, with_contrastive=False)
        _, grad = cross_entropy_and_grad(case.params, case.batch)
        after = sgd_step(case.params, grad, lr=0.3)
        np.testing.assert_array_equal(
            flatten(after), flatten(case.params) - 0.3 * flatten(grad)
        )

    @pytest.mark.parametrize("into", ["fresh", "other", "params", "params_ws", "grad"])
    def test_step_into_out_is_p_minus_lr_g(self, into):
        case = gradcheck_case(2, with_contrastive=False)
        _, grad = cross_entropy_and_grad(case.params, case.batch)
        grad = grad.copy()
        want = flatten(case.params) - 0.3 * flatten(grad)
        kwargs = {
            "fresh": {},
            "other": {"out": case.params.copy()},
            "params": {"out": case.params},
            "params_ws": {"out": case.params, "ws": Workspace(case.params.spec(), 1, 1)},
            "grad": {"out": grad},
        }[into]
        after = sgd_step(case.params, grad, lr=0.3, **kwargs)
        assert after is kwargs.get("out", after)
        assert flatten(after).tobytes() == want.tobytes()

    def test_param_delta_is_flat_difference(self):
        case = gradcheck_case(3, with_contrastive=False)
        _, grad = cross_entropy_and_grad(case.params, case.batch)
        after = sgd_step(case.params, grad, lr=0.1)
        np.testing.assert_array_equal(
            param_delta(after, case.params),
            flatten(after) - flatten(case.params),
        )

    def test_step_descends_on_smooth_fixture(self):
        case = gradcheck_case(4, with_contrastive=False)
        loss, grad = cross_entropy_and_grad(case.params, case.batch)
        after = sgd_step(case.params, grad, lr=1e-3)
        assert cross_entropy(
            forward_logits(after, case.batch.features), case.batch.labels
        ) < loss


class TestMinibatch:
    """A minibatch is a LabeledDataset, which the loss kernels read."""

    @staticmethod
    def _kernels(batch):
        """Each kernel's loss call on ``batch``; the contrastive one with a
        window and with it staged, as local_train calls it."""
        case = gradcheck_case(0, with_contrastive=True)
        args = (case.params, batch, case.global_params, case.buffer, 0.5, 0.5, case.mu_reference)
        buffers = TrainBuffers(case.params.spec(), len(case.buffer), 4)
        buffers.stage(case.params, case.global_params, case.buffer, case.mu_reference)
        staged = (buffers.current, *args[1:])
        return [lambda: cross_entropy_and_grad(case.params, batch),
                lambda: combined_loss_and_grad(*args),
                lambda: combined_loss_and_grad(*staged, buffers=buffers)]

    def test_validates_shapes(self):
        # a set of no rows is made (a split may be empty); the kernels refuse
        # it, below
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros(3), np.zeros(3, dtype=int), 2)
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)

    def test_casts_dtypes(self):
        b = LabeledDataset([[1, 2]], [1], 2)
        assert b.features.dtype == np.float64
        assert b.labels.dtype == np.int64

    def test_the_kernels_refuse_an_empty_batch(self):
        case = gradcheck_case(0, with_contrastive=True)
        empty = LabeledDataset(np.zeros((0, case.params.spec().input_dim)), np.zeros(0), 2)
        plain, fresh, staged = self._kernels(empty)
        for kernel in (plain, staged):
            with pytest.raises(ValueError, match="empty set"):
                kernel()
        with pytest.raises(ValueError, match="batch_size >= 1"):  # buffers for no rows
            fresh()

    def test_the_kernels_refuse_more_classes_than_the_model(self):
        case = gradcheck_case(0, with_contrastive=True)
        classes = case.params.spec().num_classes
        batch = case.batch
        # the labels fit the model; the class count is what bounds them
        too_many = LabeledDataset(batch.features, batch.labels, classes + 1)
        for kernel in self._kernels(too_many):
            with pytest.raises(ValueError, match=f"{classes + 1} classes, the model {classes}"):
                kernel()
        for kernel in self._kernels(LabeledDataset(batch.features, batch.labels, classes)):
            kernel()


class TestLayerHelpers:
    def test_spec_round_trip(self):
        params = fixture_params()
        assert params.spec() == small_spec()

    def test_layer_is_named_tuple(self):
        layer = Layer(np.zeros((2, 3)), np.zeros(2))
        w, b = layer
        assert w.shape == (2, 3) and b.shape == (2,)
