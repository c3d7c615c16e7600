"""Shard construction and class-coupled participation frequencies."""
from __future__ import annotations

import logging

import numpy as np
import pytest

from pmfl.data import LabeledDataset
from pmfl.heterogeneity import (
    FREQUENCY_FLOOR,
    assign_frequencies,
    dirichlet_partition,
    partition_manifest,
)
from pmfl.rng import stream

from oracles import looped_dirichlet_partition


def balanced_labels(num_classes: int, per_class: int) -> np.ndarray:
    return np.repeat(np.arange(num_classes), per_class)


class TestDirichletPartition:
    def test_shards_are_disjoint_and_cover_everything(self):
        labels = balanced_labels(10, 100)
        shards, dists = dirichlet_partition(labels, 10, 8, alpha=0.5, rng=stream(1, "p"))
        joined = np.concatenate(shards)
        assert joined.size == labels.size
        np.testing.assert_array_equal(np.sort(joined), np.arange(labels.size))
        assert all(np.all(np.diff(s) > 0) for s in shards)  # sorted, unique

    def test_empirical_distributions_match_shards(self):
        labels = balanced_labels(4, 50)
        shards, dists = dirichlet_partition(labels, 4, 5, alpha=0.3, rng=stream(2, "p"))
        for k, shard in enumerate(shards):
            counts = np.bincount(labels[shard], minlength=4)
            np.testing.assert_allclose(dists[k], counts / shard.size, rtol=0, atol=0)
            assert dists[k].sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_node_gets_all_samples(self):
        labels = balanced_labels(3, 7)
        shards, dists = dirichlet_partition(labels, 3, 1, alpha=1.0, rng=stream(3, "p"))
        np.testing.assert_array_equal(shards[0], np.arange(labels.size))
        np.testing.assert_allclose(dists[0], np.full(3, 1 / 3), atol=1e-12)

    def test_deterministic_for_equal_streams(self):
        labels = balanced_labels(6, 40)
        a, _ = dirichlet_partition(labels, 6, 5, alpha=0.2, rng=stream(4, "p"))
        b, _ = dirichlet_partition(labels, 6, 5, alpha=0.2, rng=stream(4, "p"))
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s, t)

    def test_low_alpha_concentrates_classes(self):
        labels = balanced_labels(10, 200)
        _, sharp = dirichlet_partition(labels, 10, 10, alpha=0.05, rng=stream(5, "p"))
        _, flat = dirichlet_partition(labels, 10, 10, alpha=100.0, rng=stream(5, "q"))
        # top class share per node: near 1 when concentrated, near 0.1 when flat
        assert sharp.max(axis=1).mean() > 0.6
        assert flat.max(axis=1).mean() < 0.2

    def test_retry_then_error_when_nodes_stay_empty(self, caplog):
        # 2 samples over 8 nodes cannot fill every node
        labels = np.array([0, 1])
        with caplog.at_level(logging.WARNING, logger="pmfl.heterogeneity"):
            with pytest.raises(ValueError, match="empty nodes"):
                dirichlet_partition(labels, 2, 8, alpha=0.5, rng=stream(6, "p"),
                                    max_retries=4)
        assert sum("redrawing" in r.message for r in caplog.records) == 4

    def test_input_validation(self):
        labels = balanced_labels(3, 5)
        with pytest.raises(ValueError):
            dirichlet_partition(np.zeros(0, dtype=int), 3, 2, 0.5, stream(0, "p"))
        with pytest.raises(ValueError):
            dirichlet_partition(labels, 2, 2, 0.5, stream(0, "p"))  # label 2 present
        with pytest.raises(ValueError):
            dirichlet_partition(labels, 3, 0, 0.5, stream(0, "p"))
        with pytest.raises(ValueError):
            dirichlet_partition(labels, 3, 2, 0.0, stream(0, "p"))

    def test_allocation_tracks_dirichlet_rows(self):
        # with many samples the realized shard sizes follow the drawn rows
        labels = balanced_labels(2, 5000)
        rng = stream(7, "p")
        shards, _ = dirichlet_partition(labels, 2, 3, alpha=1.0, rng=rng)
        replay = stream(7, "p")
        rows = replay.dirichlet(np.full(2, 1.0), size=3)
        for c in range(2):
            props = rows[:, c] / rows[:, c].sum()
            sizes = np.array(
                [np.sum(labels[s] == c) for s in shards], dtype=np.float64
            )
            np.testing.assert_allclose(sizes / 5000.0, props, atol=1e-3)


def assert_same_partition(got, want):
    shards, dists = got
    want_shards, want_dists = want
    assert len(shards) == len(want_shards)
    for shard, want_shard in zip(shards, want_shards):
        assert shard.dtype == want_shard.dtype
        np.testing.assert_array_equal(shard, want_shard)
    assert dists.tobytes() == want_dists.tobytes()


class TestMatchesTheLoopedPartition:
    """The owner-per-sample partition against the loop over nodes it replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 5.0])
    @pytest.mark.parametrize("num_nodes", [1, 7, 30, 250])
    def test_shards_and_dists_bit_for_bit(self, seed, alpha, num_nodes):
        # unequal classes, one of them absent
        rng = np.random.default_rng(seed)
        labels = rng.choice([0, 2, 3, 4, 5], size=3000, p=[0.4, 0.3, 0.15, 0.1, 0.05])
        got_rng, want_rng = stream(seed, "p"), stream(seed, "p")
        want = looped_dirichlet_partition(labels, 6, num_nodes, alpha, want_rng, max_retries=20)
        if want is None:  # every draw left a node empty
            with pytest.raises(ValueError, match="empty nodes"):
                dirichlet_partition(labels, 6, num_nodes, alpha, got_rng, max_retries=20)
        else:
            assert_same_partition(
                dirichlet_partition(labels, 6, num_nodes, alpha, got_rng, max_retries=20), want
            )
        # the same draws were taken
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_redrawn_partitions_match(self, caplog):
        # 14 samples over 6 nodes: some draws leave a node empty and are redrawn
        labels = np.array([0, 1, 2] * 4 + [2, 2])
        with caplog.at_level(logging.WARNING, logger="pmfl.heterogeneity"):
            for seed in range(20):
                want = looped_dirichlet_partition(labels, 3, 6, 0.5, stream(seed, "p"))
                got = dirichlet_partition(labels, 3, 6, 0.5, stream(seed, "p"))
                assert_same_partition(got, want)
        assert any("redrawing" in r.message for r in caplog.records)

    def test_both_give_up_on_the_same_draws(self):
        labels = np.array([0, 1])
        assert looped_dirichlet_partition(labels, 2, 8, 0.5, stream(6, "p"), 4) is None
        with pytest.raises(ValueError, match="empty nodes"):
            dirichlet_partition(labels, 2, 8, 0.5, stream(6, "p"), max_retries=4)


class TestAssignFrequencies:
    def _dists(self, seed, nodes=20, classes=10):
        labels = balanced_labels(classes, 100)
        _, dists = dirichlet_partition(labels, classes, nodes, 0.3, stream(seed, "p"))
        return dists

    def test_pre_floor_mean_is_exact(self):
        dists = self._dists(1)
        a = assign_frequencies(dists, beta=0.1, target_mean=0.3, rng=stream(1, "f"))
        scores = dists @ a.mixing
        pre = scores / (scores.mean() / 0.3)
        assert pre.mean() == pytest.approx(0.3, rel=1e-12)
        np.testing.assert_array_equal(
            a.frequencies, np.maximum(np.minimum(pre, 1.0), FREQUENCY_FLOOR)
        )
        # floor only ever raises the realized mean
        assert a.frequencies.mean() >= 0.3 - 1e-12

    def test_floor_and_range(self):
        dists = self._dists(2)
        a = assign_frequencies(dists, beta=0.05, target_mean=0.05, rng=stream(2, "f"))
        assert a.frequencies.min() >= FREQUENCY_FLOOR
        assert a.frequencies.max() <= 1.0

    def test_clamps_above_one_with_warning(self, caplog):
        dists = np.array([[1.0, 0.0]] + [[0.0, 1.0]] * 9)
        mixing_heavy = stream(3, "f")
        with caplog.at_level(logging.WARNING, logger="pmfl.heterogeneity"):
            a = assign_frequencies(dists, beta=0.05, target_mean=0.9, rng=mixing_heavy)
        assert a.frequencies.max() <= 1.0
        assert any("clamping" in r.message for r in caplog.records)

    def test_scores_are_mixing_weighted_class_mass(self):
        dists = self._dists(4)
        a = assign_frequencies(dists, beta=0.2, target_mean=0.1, rng=stream(4, "f"))
        assert a.mixing.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rank_order_follows_scores(self):
        dists = self._dists(5)
        a = assign_frequencies(dists, beta=0.1, target_mean=0.1, rng=stream(5, "f"))
        unfloored = ~np.isclose(a.frequencies, FREQUENCY_FLOOR)
        order_scores = np.argsort((dists @ a.mixing)[unfloored])
        order_freqs = np.argsort(a.frequencies[unfloored])
        np.testing.assert_array_equal(order_scores, order_freqs)

    def test_uniform_mode_ignores_distributions(self):
        dists = self._dists(6)
        a = assign_frequencies(dists, beta=0.1, target_mean=0.4, rng=stream(6, "f"),
                               mode="uniform")
        np.testing.assert_array_equal(a.frequencies, np.full(len(dists), 0.4))

    def test_validation(self):
        dists = self._dists(7)
        with pytest.raises(ValueError):
            assign_frequencies(dists, beta=0.0, target_mean=0.1, rng=stream(7, "f"))
        with pytest.raises(ValueError):
            assign_frequencies(dists, beta=0.1, target_mean=0.0, rng=stream(7, "f"))
        with pytest.raises(ValueError):
            assign_frequencies(dists, beta=0.1, target_mean=1.5, rng=stream(7, "f"))
        with pytest.raises(ValueError):
            assign_frequencies(dists, beta=0.1, target_mean=0.1, rng=stream(7, "f"),
                               mode="nope")

    def test_deterministic(self):
        dists = self._dists(8)
        a = assign_frequencies(dists, 0.1, 0.1, stream(8, "f"))
        b = assign_frequencies(dists, 0.1, 0.1, stream(8, "f"))
        np.testing.assert_array_equal(a.frequencies, b.frequencies)


class TestManifest:
    def test_manifest_is_json_ready(self):
        import json

        labels = balanced_labels(3, 30)
        shards, dists = dirichlet_partition(labels, 3, 4, 0.5, stream(9, "p"))
        a = assign_frequencies(dists, 0.1, 0.2, stream(9, "f"))
        full = LabeledDataset(np.zeros((labels.size, 1)), labels, 3)
        doc = partition_manifest([full.rows(shard) for shard in shards], dists, a)
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["num_nodes"] == 4
        assert len(back["nodes"]) == 4
        assert [n["samples"] for n in back["nodes"]] == [shard.size for shard in shards]
        assert sum(n["samples"] for n in back["nodes"]) == labels.size
        for n in back["nodes"]:
            assert n["frequency"] >= FREQUENCY_FLOOR
