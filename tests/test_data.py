"""Synthetic data generation and CSV round trips."""
from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from pmfl import data
from pmfl.client import local_train
from pmfl.config import ExperimentConfig, dataset_spec_for
from pmfl.data import (
    DatasetSpec,
    LabeledDataset,
    export_csv,
    ingest_csv,
    load_dataset,
    synth_dataset,
)
from pmfl.harness import build_environment, run_experiment
from pmfl.metrics import evaluate
from pmfl.nn import ModelSpec, init_params, unflatten
from pmfl.rng import stream

from fixtures import tiny_config


class TestDatasetSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(num_classes=1)
        with pytest.raises(ValueError):
            DatasetSpec(input_dim=0)
        with pytest.raises(ValueError):
            DatasetSpec(samples_per_class=0)
        with pytest.raises(ValueError):
            DatasetSpec(test_fraction=1.0)
        with pytest.raises(ValueError):
            DatasetSpec(noise_scale=-0.1)

    @pytest.mark.parametrize("name", ["test_fraction", "noise_scale", "class_separation"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_floats_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DatasetSpec(**{name: value})

    def test_dim_must_fit_classes(self):
        with pytest.raises(ValueError, match="input_dim"):
            synth_dataset(DatasetSpec(num_classes=10, input_dim=4))


class TestSynthDataset:
    def _spec(self, **kw):
        base = dict(num_classes=4, input_dim=6, samples_per_class=40,
                    test_fraction=0.25, seed=3)
        base.update(kw)
        return DatasetSpec(**base)

    def test_exact_split_counts_per_class(self):
        train, test = synth_dataset(self._spec())
        assert train.num_samples == 4 * 30
        assert test.num_samples == 4 * 10
        for c in range(4):
            assert (train.labels == c).sum() == 30
            assert (test.labels == c).sum() == 10

    def test_deterministic_per_seed(self):
        a_train, a_test = synth_dataset(self._spec())
        b_train, b_test = synth_dataset(self._spec())
        c_train, _ = synth_dataset(self._spec(seed=4))
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.features, b_test.features)
        assert np.any(a_train.features != c_train.features)

    def test_class_means_sit_on_scaled_axes(self):
        train, _ = synth_dataset(self._spec(samples_per_class=4000, class_separation=5.0))
        for c in range(4):
            mean = train.features[train.labels == c].mean(axis=0)
            want = np.zeros(6)
            want[c] = 5.0
            np.testing.assert_allclose(mean, want, atol=0.1)

    def test_zero_noise_is_exactly_separable(self):
        spec = self._spec(noise_scale=0.0, class_separation=2.0)
        train, test = synth_dataset(spec)
        # class c collapses onto 2 e_c, so reading features as logits is perfect
        model_spec = ModelSpec(input_dim=6, encoder=(), projection=(), classifier=(6,))
        params = unflatten(model_spec, np.zeros(model_spec.num_params))
        params.classifier[0].weight[:] = np.eye(6)
        acc_train, _ = evaluate(params, train)
        acc_test, _ = evaluate(params, test)
        assert acc_train == 1.0
        assert acc_test == 1.0

    def test_zero_test_fraction(self):
        train, test = synth_dataset(self._spec(test_fraction=0.0))
        assert train.num_samples == 160
        assert test.num_samples == 0

    def test_standardize_uses_train_statistics(self):
        spec = self._spec(standardize=True, samples_per_class=200)
        train, test = synth_dataset(spec)
        np.testing.assert_allclose(train.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train.features.std(axis=0), 1.0, atol=1e-12)
        # test stats only approach 0/1: they were scaled with the train moments
        assert np.abs(test.features.mean(axis=0)).max() < 0.3
        raw_train, raw_test = synth_dataset(self._spec(samples_per_class=200))
        mean = raw_train.features.mean(axis=0)
        std = raw_train.features.std(axis=0)
        np.testing.assert_allclose(
            test.features, (raw_test.features - mean) / std, rtol=1e-12
        )


class TestCsv:
    def test_export_ingest_round_trip_is_exact(self, tmp_path):
        train, _ = synth_dataset(DatasetSpec(num_classes=3, input_dim=4,
                                             samples_per_class=20, seed=9))
        path = tmp_path / "train.csv"
        export_csv(train, path)
        back = ingest_csv(path)
        np.testing.assert_array_equal(back.features, train.features)
        np.testing.assert_array_equal(back.labels, train.labels)
        assert back.num_classes == 3

    def test_num_classes_inferred_from_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,5\n")
        assert ingest_csv(path).num_classes == 6

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2.*bad feature"):
            ingest_csv(path)
        path.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2.*expected 2 features"):
            ingest_csv(path)
        path.write_text("1.0,2.0,0\n1.0,2.0,1.5\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2.*not integral"):
            ingest_csv(path)
        path.write_text("1.0,2.0,banana\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1.*bad label"):
            ingest_csv(path)
        path.write_text("1.0,2.0,0\n3.0,4.0,1e300\n")  # integral, but no int64 holds it
        with pytest.raises(ValueError, match=r"bad\.csv:2.*'1e300' must be >= 0 and < 2\*\*63"):
            ingest_csv(path)
        for spelling in ("nan", "inf", "-Infinity"):
            path.write_text(f"1.0,2.0,0\n1.0,{spelling},1\n")
            with pytest.raises(ValueError, match=r"bad\.csv:2.*bad feature value \(not finite"):
                ingest_csv(path)

    def test_rejects_empty_and_negative_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            ingest_csv(path)
        path.write_text("1.0,2.0,0\n1.0,2.0,-1\n")
        with pytest.raises(ValueError, match=r"d\.csv:2: label '-1' must be >= 0"):
            ingest_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n\n3.0,4.0,1\n")
        assert ingest_csv(path).num_samples == 2


class TestLoadDataset:
    def test_synthetic_route(self):
        spec = DatasetSpec(num_classes=3, input_dim=4, samples_per_class=8, seed=1)
        a = load_dataset(spec)
        b = synth_dataset(spec)
        np.testing.assert_array_equal(a[0].features, b[0].features)

    def test_a_default_run_trains_on_the_default_synth_data(self):
        # what ``pmfl run`` loads without flags is what ``pmfl synth-data`` writes
        ran = load_dataset(dataset_spec_for(ExperimentConfig()))
        written = synth_dataset(DatasetSpec())
        for a, b in zip(ran, written, strict=True):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert a.num_classes == b.num_classes

    def test_csv_route_splits_deterministically(self, tmp_path):
        full, _ = synth_dataset(DatasetSpec(num_classes=3, input_dim=4,
                                            samples_per_class=40,
                                            test_fraction=0.0, seed=2))
        path = tmp_path / "full.csv"
        export_csv(full, path)
        spec = DatasetSpec(source=str(path), num_classes=3, input_dim=4,
                           test_fraction=0.25, seed=5)
        train_a, test_a = load_dataset(spec)
        train_b, test_b = load_dataset(spec)
        np.testing.assert_array_equal(train_a.features, train_b.features)
        np.testing.assert_array_equal(test_a.features, test_b.features)
        assert test_a.num_samples == round(0.25 * full.num_samples)
        assert train_a.num_samples + test_a.num_samples == full.num_samples
        # the split is a partition of the original rows
        joined = np.concatenate([train_a.features, test_a.features])
        assert {tuple(r) for r in joined} == {tuple(r) for r in full.features}

    def test_csv_route_standardizes_with_the_train_split_alone(self, tmp_path):
        # the rows are split first, so the test rows lend the moments nothing
        full, _ = synth_dataset(DatasetSpec(num_classes=4, input_dim=5, samples_per_class=100,
                                            test_fraction=0.0, seed=3))
        path = tmp_path / "full.csv"
        export_csv(full, path)
        spec = DatasetSpec(source=str(path), num_classes=4, input_dim=5,
                           test_fraction=0.5, seed=5)
        raw_train, raw_test = load_dataset(spec)
        train, test = load_dataset(dataclasses.replace(spec, standardize=True))
        np.testing.assert_allclose(train.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train.features.std(axis=0), 1.0, atol=1e-12)
        mean, std = raw_train.features.mean(axis=0), raw_train.features.std(axis=0)
        np.testing.assert_array_equal(test.features, (raw_test.features - mean) / std)
        np.testing.assert_array_equal(train.labels, raw_train.labels)
        np.testing.assert_array_equal(test.labels, raw_test.labels)


class TestLabeledDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros(3), np.zeros(3, dtype=int), 2)
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), np.zeros(4, dtype=int), 2)
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)

    def test_properties(self):
        d = LabeledDataset(np.zeros((5, 3)), np.zeros(5, dtype=int), 2)
        assert d.num_samples == 5
        assert d.input_dim == 3

    def test_is_read_only_and_frozen(self):
        d = LabeledDataset(np.zeros((4, 2)), np.array([0, 1, 1, 0]), 2)
        for subset in (d, d.rows(np.array([2, 0]))):
            with pytest.raises(ValueError):
                subset.features[0, 0] = 1.0
            with pytest.raises(ValueError):
                subset.labels[0] = 1
            for name in ("features", "labels", "num_classes"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(subset, name, getattr(subset, name))

    def test_owns_its_arrays(self):
        # a later write to the caller's arrays cannot reach the checked labels
        features, labels = np.zeros((3, 2)), np.array([0, 1, 0])
        d = LabeledDataset(features, labels, 2)
        features[0, 0], labels[0] = 7.0, 5
        np.testing.assert_array_equal(d.features, 0.0)
        np.testing.assert_array_equal(d.labels, [0, 1, 0])

    @pytest.mark.parametrize("index", [np.array([4, 0, 2, 2]), np.array([], dtype=np.intp),
                                       slice(1, 4), np.arange(5) % 2 == 0],
                             ids=["indices", "none", "slice", "mask"])
    def test_rows_equal_fancy_indexing(self, index):
        rng = np.random.default_rng(5)
        d = LabeledDataset(rng.standard_normal((5, 3)), rng.integers(0, 3, 5), 4)
        subset = d.rows(index)
        np.testing.assert_array_equal(subset.features, d.features[index])
        np.testing.assert_array_equal(subset.labels, d.labels[index])
        assert subset.features.dtype == np.float64 and subset.labels.dtype == np.int64
        assert subset.num_classes == 4


@pytest.fixture
def label_checks(monkeypatch):
    """The sizes of the label sets checked, under every name a pmfl module
    binds the check to."""
    sizes = []
    real = data._check_labels

    def counted(labels, num_classes):
        sizes.append(len(labels))
        return real(labels, num_classes)

    for name, module in list(sys.modules.items()):
        if name.startswith("pmfl") and getattr(module, "_check_labels", None) is real:
            monkeypatch.setattr(module, "_check_labels", counted)
    return sizes


class TestLabelsAreCheckedOnce:
    """A set is checked when it is made from outside data; its shards,
    batches and evaluations are not checked again."""

    def test_local_train_and_evaluate_check_no_labels(self, label_checks):
        cfg = tiny_config(local_iterations=5).resolved()
        env = build_environment(cfg)
        params = init_params(env.spec, stream(3, "model"))
        label_checks.clear()
        _, window = local_train(env.nodes[0], params, cfg, 0, np.empty((0, env.spec.num_params)))
        local_train(env.nodes[1], params, cfg, 1, window)
        for labelled in (env.train, env.test, *(n.data for n in env.nodes)):
            evaluate(params, labelled, env.eval_workspace)
        assert label_checks == []

    def test_a_desk_run_checks_the_train_and_test_labels_and_the_partition_once(
        self, tmp_path, label_checks
    ):
        run_experiment(ExperimentConfig(), tmp_path)
        checked = list(label_checks)
        train, test = synth_dataset(DatasetSpec())
        assert checked == [train.num_samples, test.num_samples, train.num_samples]
