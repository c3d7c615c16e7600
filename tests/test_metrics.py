"""Deviation, evaluation and reporting helpers."""
from __future__ import annotations

import logging
import tracemalloc

import numpy as np
import pytest

from pmfl import ExperimentConfig
from pmfl.data import LabeledDataset
from pmfl.harness import build_environment
from pmfl import metrics
from pmfl.metrics import evaluate, node_cdf, top5_mean, update_deviation
from pmfl.nn import ModelSpec, Workspace, forward_logits, init_params, unflatten
from pmfl.rng import stream

from oracles import cross_entropy, looped_update_deviation


class TestUpdateDeviation:
    def test_single_participant_is_exactly_zero(self):
        assert update_deviation([np.array([0.3, -0.7, 2.0])]) == 0.0

    def test_identical_updates_are_exactly_zero(self):
        u = np.array([1.0, 2.0, 3.0])
        assert update_deviation([u, u.copy(), u.copy()]) == 0.0

    def test_orthogonal_pair_fixture(self):
        # mean of e1, e2 sits at 45 degrees: 2 * (1 - cos 45) = 2 - sqrt(2)
        got = update_deviation([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert got == 0.5857864376269051  # frozen: 2 - sqrt(2), both terms equal
        assert got == pytest.approx(2.0 - np.sqrt(2.0), rel=1e-15)

    def test_opposite_updates_warn_zero_mean(self, caplog):
        u = np.array([1.0, -2.0])
        with caplog.at_level(logging.WARNING, logger="pmfl.metrics"):
            assert update_deviation([u, -u]) == 0.0
        assert any("zero vector" in r.message for r in caplog.records)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            update_deviation([])

    def test_scale_invariance_per_vector_direction(self):
        rng = np.random.default_rng(40)
        base = [rng.standard_normal(6) for _ in range(4)]
        d1 = update_deviation(base)
        # scaling every update by the same positive factor keeps the geometry
        d2 = update_deviation([3.0 * u for u in base])
        assert d2 == pytest.approx(d1, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            ups = [rng.standard_normal(5) for _ in range(6)]
            d = update_deviation(ups)
            assert 0.0 <= d <= 2.0 * len(ups)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(42)
        ups = [rng.standard_normal(8) for _ in range(5)]
        mean = np.mean(ups, axis=0)
        want = sum(
            1.0 - np.dot(u, mean) / (np.linalg.norm(u) * np.linalg.norm(mean))
            for u in ups
        )
        assert update_deviation(ups) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 8, 19])
    def test_matches_the_looped_reference(self, k):
        # rows of the desk model's width; from 8 rows on the sums go pairwise
        rng = np.random.default_rng((46, k))
        common = rng.standard_normal(2810)
        rows = common + rng.uniform(0.2, 3.0, (k, 1)) * rng.standard_normal((k, 2810))
        want = looped_update_deviation(rows)
        assert update_deviation(rows) == pytest.approx(want, rel=1e-12)

    def test_zero_mean_matches_the_looped_reference_and_warns(self, caplog):
        rng = np.random.default_rng(47)
        u, v = rng.standard_normal((2, 2810))
        rows = np.stack([u, -u, v, -v])
        assert not rows.mean(axis=0).any()
        with caplog.at_level(logging.WARNING, logger="pmfl.metrics"):
            assert update_deviation(rows) == looped_update_deviation(rows) == 0.0
        assert any("zero vector" in r.message for r in caplog.records)

    def test_takes_the_participants_array_as_is(self):
        rng = np.random.default_rng(45)
        rows = rng.standard_normal((7, 30))
        assert update_deviation(rows) == update_deviation(list(rows))
        with pytest.raises(ValueError):
            update_deviation(np.zeros((0, 30)))
        with pytest.raises(ValueError):
            update_deviation(np.zeros(30))


@pytest.fixture(scope="module")
def desk_env():
    """The default config's data, shards and model spec."""
    return build_environment(ExperimentConfig().resolved())


class TestEvaluateBuffers:
    """One workspace serves every evaluation of a run and leaves the results
    bit for bit as the allocating arithmetic gives them."""

    def _sets(self, env):
        train, test = env.train, env.test
        sets = [train, *[env.nodes[k] for k in (3, 0, 17)], test]
        # mixed order, each set several times
        return [sets[i] for i in (0, 1, 4, 0, 2, 4, 3, 0, 1, 4, 2)]

    def test_matches_forward_logits_and_cross_entropy_bit_for_bit(self, desk_env):
        env = desk_env
        buffers = Workspace(env.spec, 1, max(env.train.num_samples, env.test.num_samples))
        for call, data in enumerate(self._sets(env)):
            params = init_params(env.spec, stream(70, "model", call % 3))
            logits, y = forward_logits(params, data.features), data.labels
            want = (float((np.argmax(logits, axis=1) == y).mean()), cross_entropy(logits, y))
            got = evaluate(params, data, buffers)
            assert got == want, f"call {call} on {len(y)} rows"
            assert [type(v) for v in got] == [float, float]
            assert evaluate(params, data) == want  # with a workspace of its own

    def test_a_set_larger_than_the_buffers_is_refused(self, desk_env):
        env = desk_env
        params = init_params(env.spec, stream(71, "model"))
        buffers = Workspace(env.spec, 1, env.test.num_samples)
        with pytest.raises(ValueError):
            evaluate(params, env.train, buffers)

    def test_a_warm_train_set_evaluation_allocates_almost_nothing(self, desk_env):
        env = desk_env
        buffers = Workspace(env.spec, 1, env.train.num_samples)
        evaluate(init_params(env.spec, stream(72, "model", 0)), env.train, buffers)

        def peak_bytes(**kw):
            # a fresh model, as every round brings one
            params = init_params(env.spec, stream(72, "model", 1))
            tracemalloc.start()
            try:
                evaluate(params, env.train, **kw)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # numpy reports its data buffers to tracemalloc, so the fresh arrays show
        assert peak_bytes() > 1 << 20
        assert peak_bytes(workspace=buffers) < 64 * 1024


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


class TestEvaluationHead:
    """``evaluate``'s head against ``argmax`` and the reference
    ``cross_entropy``, bit for bit, NaN included: the model's logits are
    handed in for the forward pass, so rows with ties, infinities and NaN
    reach the head as written."""

    @staticmethod
    def _assert_matches(logits, labels, monkeypatch):
        n, classes = logits.shape
        spec = ModelSpec(input_dim=1, encoder=(), projection=(), classifier=(classes,))
        params = unflatten(spec, np.zeros(spec.num_params))
        monkeypatch.setattr(metrics, "dense", lambda layers, features, ws: logits.copy())
        with np.errstate(all="ignore"):
            want = (float((np.argmax(logits, axis=1) == labels).mean()),
                    cross_entropy(logits, labels))
            got = evaluate(params, LabeledDataset(np.zeros((n, 1)), labels, classes))
        assert got[0] == want[0]
        assert _bits(got[1]) == _bits(want[1]), (got, want)

    @staticmethod
    def _logits(classes, seed, n=300):
        rng = np.random.default_rng((74, classes, seed))
        return rng.standard_normal((n, classes)) * 4.0, rng.integers(0, classes, n), rng

    @pytest.mark.parametrize("classes", [2, 10, 23])
    def test_unique_maxima(self, classes, monkeypatch):
        logits, labels, _ = self._logits(classes, 0)
        # half of the rows predict their label, so both hits and misses count
        labels[::2] = np.argmax(logits[::2], axis=1)
        self._assert_matches(logits, labels, monkeypatch)

    @pytest.mark.parametrize("classes", [2, 10, 23])
    def test_tied_maxima_break_to_the_lowest_index(self, classes, monkeypatch):
        logits, labels, rng = self._logits(classes, 1)
        top = np.argmax(logits, axis=1)
        tied = rng.permutation(len(logits))[:40]
        for i in tied:
            other = (top[i] + 1 + rng.integers(classes - 1)) % classes
            logits[i, other] = logits[i, top[i]]
            labels[i] = max(top[i], other) if i % 2 else min(top[i], other)
        logits[tied[:5]] = 0.0  # a whole row of one value
        logits[tied[5], :2] = (0.0, -0.0)  # equal, though their bits differ
        logits[tied[5], 2:] = -1.0
        self._assert_matches(logits, labels, monkeypatch)

    @pytest.mark.parametrize("classes", [2, 10, 23])
    def test_infinities(self, classes, monkeypatch):
        for seed, values in enumerate([(np.inf,), (-np.inf,), (np.inf, -np.inf)], start=2):
            logits, labels, rng = self._logits(classes, seed)
            rows = rng.permutation(len(logits))[:30]
            cols = rng.integers(0, classes, 30)
            logits[rows, cols] = rng.choice(values, 30)
            logits[rows[0]] = -np.inf  # every class ruled out
            labels[rows[:10]] = cols[:10]
            self._assert_matches(logits, labels, monkeypatch)

    @pytest.mark.parametrize("classes", [2, 10, 23])
    def test_nan_logits(self, classes, monkeypatch):
        # NaNs of either sign and with a payload, one or several in a row
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                         0xFFF800000000ABCD], dtype=np.uint64).view(np.float64)
        logits, labels, rng = self._logits(classes, 5)
        rows = rng.permutation(len(logits))[:60]
        logits[rows, rng.integers(0, classes, 60)] = rng.choice(nans, 60)
        logits[rows[0]] = rng.choice(nans, classes)
        self._assert_matches(logits, labels, monkeypatch)

    def test_a_nan_row_beside_a_tie(self, monkeypatch):
        # argmax reads the NaN row's prediction as its first NaN and the tied
        # row's as the lower index
        logits = np.array([[np.nan, 0.0], [1.0, 1.0], [0.0, 2.0]])
        self._assert_matches(logits, np.array([0, 0, 1]), monkeypatch)

    def test_every_desk_shard(self, desk_env):
        env = desk_env
        params = init_params(env.spec, stream(73, "model"))
        for k, shard in enumerate(env.nodes):
            logits, y = forward_logits(params, shard.features), shard.labels
            want = (float((np.argmax(logits, axis=1) == y).mean()), cross_entropy(logits, y))
            got = evaluate(params, shard, env.eval_workspace)
            assert [_bits(v) for v in got] == [_bits(v) for v in want], f"node {k}"


class TestEvaluate:
    def _params(self):
        # identity classifier on 3 features: logits are the features
        spec = ModelSpec(input_dim=3, encoder=(), projection=(), classifier=(3,))
        params = unflatten(spec, np.zeros(spec.num_params))
        params.classifier[0].weight[:] = np.eye(3)
        return params

    def test_accuracy_counts_argmax_hits(self):
        params = self._params()
        X = np.array([
            [3.0, 0.0, 0.0],   # pred 0
            [0.0, 2.0, 0.0],   # pred 1
            [0.0, 0.0, 1.0],   # pred 2
            [5.0, 0.0, 0.0],   # pred 0
        ])
        y = np.array([0, 1, 2, 1])
        acc, loss = evaluate(params, LabeledDataset(X, y, 3))
        assert acc == 0.75
        assert loss > 0.0

    def test_ties_break_to_lowest_class(self):
        params = self._params()
        acc, _ = evaluate(params, LabeledDataset(np.zeros((1, 3)), np.array([0]), 3))
        assert acc == 1.0
        acc, _ = evaluate(params, LabeledDataset(np.zeros((1, 3)), np.array([2]), 3))
        assert acc == 0.0

    def test_loss_matches_cross_entropy_oracle(self):
        from oracles import scalar_cross_entropy

        params = self._params()
        rng = np.random.default_rng(43)
        X = rng.standard_normal((12, 3))
        y = rng.integers(0, 3, size=12)
        _, loss = evaluate(params, LabeledDataset(X, y, 3))
        want = np.mean([scalar_cross_entropy(x.tolist(), int(c)) for x, c in zip(X, y)])
        assert loss == pytest.approx(want, rel=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty set"):
            evaluate(self._params(), LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 3))

    def test_a_set_with_more_classes_than_the_model_is_refused(self):
        # its labels all fit the model's three logits, but nothing past the
        # class count bounds them once the set is made
        data = LabeledDataset(np.zeros((2, 3)), np.array([0, 2]), 4)
        with pytest.raises(ValueError, match="4 classes, the model 3"):
            evaluate(self._params(), data)
        evaluate(self._params(), LabeledDataset(data.features, data.labels, 3))  # as many


class TestTop5Mean:
    def test_takes_five_largest(self):
        assert top5_mean([9, 1, 7, 3, 8, 10, 6]) == pytest.approx((6 + 7 + 8 + 9 + 10) / 5)

    def test_short_series_uses_all_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="pmfl.metrics"):
            assert top5_mean([2.0, 4.0]) == 3.0
        assert any("only 2 values" in r.message for r in caplog.records)

    def test_exactly_five(self):
        assert top5_mean([1.0, 2.0, 3.0, 4.0, 5.0]) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top5_mean([])


class TestNodeCdf:
    def test_sorted_with_uniform_steps(self):
        out = node_cdf([0.3, 0.1, 0.2, 0.4])
        np.testing.assert_allclose(out[:, 0], [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(out[:, 1], [0.25, 0.5, 0.75, 1.0])

    def test_duplicates_keep_their_steps(self):
        out = node_cdf([1.0, 1.0, 2.0])
        np.testing.assert_allclose(out[:, 0], [1.0, 1.0, 2.0])
        np.testing.assert_allclose(out[:, 1], [1 / 3, 2 / 3, 1.0])

    def test_empty_input(self):
        assert node_cdf([]).shape == (0, 2)

    def test_last_fraction_is_one(self):
        out = node_cdf(np.random.default_rng(44).random(17))
        assert out[-1, 1] == 1.0
