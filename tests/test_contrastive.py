"""Contrastive term: buffers, partitioning, loss values and gradients."""
from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from pmfl.contrastive import LocalBuffer, _cos_rows, combined_loss_and_grad
from pmfl.nn import (
    ModelParams,
    ModelSpec,
    cross_entropy_and_grad,
    flatten,
    forward_representation,
    init_params,
    unflatten,
)
from pmfl.rng import stream

from fixtures import gradcheck_case
from oracles import (
    ContrastiveContext,
    compute_mu,
    contrastive_loss,
    cosine_similarity,
    fd_gradient,
    max_rel_err,
    partition_samples,
    perturbed,
)


class TestCosineSimilarity:
    def test_identical_vectors_give_exactly_one(self):
        v = np.array([0.3, -0.7, 2.0])
        assert cosine_similarity(v, v.copy()) == 1.0

    def test_axis_cases(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
        assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0)
        assert cosine_similarity([1.0, 1.0], [2.0, 2.0]) == pytest.approx(1.0)

    def test_zero_norm_returns_zero_and_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="oracles"):
            assert cosine_similarity([0.0, 0.0], [1.0, 0.0]) == 0.0
            assert cosine_similarity([0.0, 0.0], [0.0, 0.0]) == 0.0
        assert len(caplog.records) == 2

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_row_wise_matches_scalar(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((12, 4))
        b = rng.standard_normal((12, 4))
        a[3] = b[3]  # equal rows must hit the exact-1.0 path
        a[5] = 0.0
        rows = _cos_rows(a, b)
        for i in range(12):
            assert rows[i] == pytest.approx(cosine_similarity(a[i], b[i]), abs=1e-15)
        assert rows[3] == 1.0
        assert rows[5] == 0.0


class TestLocalBuffer:
    SPEC = ModelSpec(input_dim=2, encoder=(3,), projection=(2,), classifier=(2,))

    def _model(self, seed):
        return init_params(self.SPEC, np.random.default_rng(seed))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LocalBuffer(-1, self.SPEC)

    def test_capacity_zero_drops_pushes(self):
        buf = LocalBuffer(0, self.SPEC)
        buf.push(self._model(0))
        assert len(buf) == 0
        assert buf.rows.shape == (0, self.SPEC.num_params)

    def test_evicts_oldest_first(self):
        buf = LocalBuffer(3, self.SPEC)
        models = [self._model(i) for i in range(5)]
        for m in models:
            buf.push(m)
        assert len(buf) == 3
        for got, want in zip(buf.rows, models[2:]):
            np.testing.assert_array_equal(got, flatten(want))
        np.testing.assert_array_equal(buf.rows[-1], flatten(models[4]))

    def test_push_stores_a_deep_copy(self):
        buf = LocalBuffer(2, self.SPEC)
        m = self._model(7)
        before = flatten(m).copy()
        buf.push(m)
        m.encoder[0].weight[:] += 100.0
        np.testing.assert_array_equal(buf.rows[-1], before)


class TestPartition:
    def test_threshold_is_inclusive(self):
        current = np.array([1.0, 0.0])
        same = np.array([2.0, 0.0])  # sim 1.0
        ortho = np.array([0.0, 1.0])  # sim 0.0
        pos, neg = partition_samples(current, [same, ortho], mu=1.0)
        assert pos == [same] and neg == [ortho]
        pos, neg = partition_samples(current, [same, ortho], mu=0.0)
        assert len(pos) == 2 and neg == []

    def test_every_candidate_lands_once(self):
        rng = np.random.default_rng(9)
        current = rng.standard_normal(4)
        cands = [rng.standard_normal(4) for _ in range(10)]
        pos, neg = partition_samples(current, cands, mu=0.2)
        assert len(pos) + len(neg) == 10
        for c in pos:
            assert cosine_similarity(current, c) >= 0.2
        for c in neg:
            assert cosine_similarity(current, c) < 0.2


class TestContrastiveLoss:
    def test_hand_computed_fixture(self):
        # pos = e^1 (global) + e^1 (one aligned positive); neg = e^-1
        ctx = ContrastiveContext(
            global_rep=np.array([1.0, 0.0]),
            positives=[np.array([1.0, 0.0])],
            negatives=[np.array([-1.0, 0.0])],
            temperature=1.0,
        )
        loss = contrastive_loss(np.array([1.0, 0.0]), ctx)
        expected = -math.log(2 * math.e / (2 * math.e + math.exp(-1.0)))
        assert abs(loss - expected) < 1e-6
        assert loss == pytest.approx(0.0655, abs=5e-5)
        assert loss == 0.06547649511956817  # frozen: log1p form of the same ratio

    def test_empty_negatives_is_exactly_zero(self):
        ctx = ContrastiveContext(
            global_rep=np.array([1.0, 2.0]),
            positives=[np.array([0.5, 0.5]), np.array([1.0, 0.0])],
            negatives=[],
            temperature=0.5,
        )
        assert contrastive_loss(np.array([3.0, -1.0]), ctx) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal(5)
        ctx = ContrastiveContext(
            global_rep=rng.standard_normal(5),
            positives=[rng.standard_normal(5)],
            negatives=[rng.standard_normal(5), rng.standard_normal(5)],
            temperature=0.7,
        )
        base = contrastive_loss(z, ctx)
        for c in (0.01, 3.0, 250.0):
            scaled = ContrastiveContext(
                global_rep=c * ctx.global_rep,
                positives=[c * p for p in ctx.positives],
                negatives=[c * n for n in ctx.negatives],
                temperature=0.7,
            )
            assert abs(contrastive_loss(c * z, scaled) - base) < 1e-10

    def test_extra_negative_raises_loss(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal(4)
        ctx = ContrastiveContext(
            global_rep=rng.standard_normal(4),
            negatives=[rng.standard_normal(4)],
            temperature=1.0,
        )
        more = ContrastiveContext(
            global_rep=ctx.global_rep,
            negatives=ctx.negatives + [rng.standard_normal(4)],
            temperature=1.0,
        )
        assert contrastive_loss(z, more) > contrastive_loss(z, ctx)

    def test_high_temperature_limit(self):
        # sims become irrelevant as tau grows: loss -> log(1 + n_neg / (1 + n_pos))
        z = np.array([1.0, 0.0])
        ctx = lambda tau: ContrastiveContext(
            global_rep=np.array([1.0, 0.0]),
            negatives=[np.array([-1.0, 0.0]), np.array([0.0, 1.0])],
            temperature=tau,
        )
        losses = [contrastive_loss(z, ctx(tau)) for tau in (0.25, 1.0, 4.0, 16.0, 64.0)]
        assert all(a < b for a, b in zip(losses, losses[1:]))
        assert contrastive_loss(z, ctx(1e6)) == pytest.approx(
            math.log(3.0), abs=1e-5
        )
        assert math.log(3.0) == pytest.approx(1.0986122886681098, abs=0.0)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            ContrastiveContext(global_rep=np.array([1.0, 0.0]), temperature=0.0)


class TestComputeMu:
    def test_empty_buffer_gives_exactly_one(self):
        case = gradcheck_case(0, with_contrastive=False)
        empty = np.empty((0, case.params.num_params))
        assert compute_mu(empty, case.global_params, case.batch.features[0]) == 1.0

    def test_uses_newest_entry_against_global(self):
        case = gradcheck_case(1, with_contrastive=True)
        x = case.batch.features[0]
        mu = compute_mu(case.buffer, case.global_params, x)
        want = cosine_similarity(
            forward_representation(ModelParams(case.params.spec(), case.buffer[-1]), x),
            forward_representation(case.global_params, x),
        )
        assert mu == want


class TestCombinedLoss:
    def test_zero_weight_is_bit_identical_to_plain(self):
        case = gradcheck_case(2, with_contrastive=True)
        loss_a, grad_a = combined_loss_and_grad(
            case.params,
            case.batch,
            case.global_params,
            case.buffer,
            temperature=case.temperature,
            contrastive_weight=0.0,
            mu_reference=case.mu_reference,
        )
        loss_b, grad_b = cross_entropy_and_grad(case.params, case.batch)
        assert loss_a == loss_b
        np.testing.assert_array_equal(flatten(grad_a), flatten(grad_b))

    def test_empty_buffer_reduces_to_plain(self):
        case = gradcheck_case(3, with_contrastive=False)
        loss_a, grad_a = combined_loss_and_grad(
            case.params,
            case.batch,
            case.global_params,
            np.empty((0, case.params.num_params)),
            temperature=0.5,
            contrastive_weight=0.8,
            mu_reference=None,
        )
        loss_b, grad_b = cross_entropy_and_grad(case.params, case.batch)
        assert loss_a == loss_b
        np.testing.assert_array_equal(flatten(grad_a), flatten(grad_b))

    def test_loss_matches_per_sample_scalar_path(self):
        case = gradcheck_case(4, with_contrastive=True)
        loss, _ = combined_loss_and_grad(
            case.params,
            case.batch,
            case.global_params,
            case.buffer,
            temperature=case.temperature,
            contrastive_weight=case.contrastive_weight,
            mu_reference=case.mu_reference,
        )
        ce, _ = cross_entropy_and_grad(case.params, case.batch)
        terms = []
        for i, x in enumerate(case.batch.features):
            z = forward_representation(case.params, x)
            mu = cosine_similarity(
                forward_representation(case.mu_reference, x),
                forward_representation(case.global_params, x),
            )
            hist = [forward_representation(ModelParams(case.params.spec(), row), x)
                    for row in case.buffer]
            pos, neg = partition_samples(z, hist, mu)
            ctx = ContrastiveContext(
                global_rep=forward_representation(case.global_params, x),
                positives=pos,
                negatives=neg,
                temperature=case.temperature,
            )
            terms.append(contrastive_loss(z, ctx))
        want = ce + case.contrastive_weight * np.mean(terms)
        assert loss == pytest.approx(want, rel=1e-12)

    def test_default_reference_means_threshold_one(self):
        case = gradcheck_case(5, with_contrastive=True)
        loss_none, grad_none = combined_loss_and_grad(
            case.params,
            case.batch,
            case.global_params,
            case.buffer,
            temperature=case.temperature,
            contrastive_weight=case.contrastive_weight,
            mu_reference=None,
        )
        loss_glob, grad_glob = combined_loss_and_grad(
            case.params,
            case.batch,
            case.global_params,
            case.buffer,
            temperature=case.temperature,
            contrastive_weight=case.contrastive_weight,
            mu_reference=case.global_params,
        )
        assert loss_none == pytest.approx(loss_glob, rel=1e-13)
        np.testing.assert_allclose(flatten(grad_none), flatten(grad_glob), rtol=1e-10)

    @pytest.mark.parametrize("case_seed", range(6))
    def test_gradient_matches_finite_differences(self, case_seed):
        case = gradcheck_case(case_seed, with_contrastive=True)
        spec = case.params.spec()

        def loss_at(flat):
            loss, _ = combined_loss_and_grad(
                unflatten(spec, flat),
                case.batch,
                case.global_params,
                case.buffer,
                temperature=case.temperature,
                contrastive_weight=case.contrastive_weight,
                mu_reference=case.mu_reference,
            )
            return loss

        _, grad = combined_loss_and_grad(
            case.params,
            case.batch,
            case.global_params,
            case.buffer,
            temperature=case.temperature,
            contrastive_weight=case.contrastive_weight,
            mu_reference=case.mu_reference,
        )
        fd = fd_gradient(loss_at, flatten(case.params))
        assert max_rel_err(flatten(grad), fd) < 1e-6

    def test_validation(self):
        case = gradcheck_case(0, with_contrastive=False)
        with pytest.raises(ValueError):
            combined_loss_and_grad(
                case.params, case.batch, case.global_params, case.buffer, 0.5, -0.1
            )
        with pytest.raises(ValueError):
            combined_loss_and_grad(
                case.params, case.batch, case.global_params, case.buffer, 0.0, 0.5
            )

    def test_stop_gradient_on_history(self):
        # moving a buffered model changes the loss but must not change which
        # parameters carry gradient: grads always live in the current model
        case = gradcheck_case(1, with_contrastive=True)
        rng = np.random.default_rng(123)
        spec = case.params.spec()
        buf2 = np.stack([perturbed(ModelParams(spec, row), rng, 0.05).vector
                         for row in case.buffer])
        loss_a, _ = combined_loss_and_grad(
            case.params, case.batch, case.global_params, case.buffer,
            case.temperature, case.contrastive_weight, case.mu_reference,
        )
        loss_b, _ = combined_loss_and_grad(
            case.params, case.batch, case.global_params, buf2,
            case.temperature, case.contrastive_weight, case.mu_reference,
        )
        assert loss_a != loss_b
