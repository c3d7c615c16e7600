"""Datasets: a synthetic Gaussian-mixture generator and CSV ingest/export.

The synthetic set places one Gaussian per class with its mean on a scaled
coordinate simplex (class c sits at separation * e_c), fixed isotropic noise,
and exactly equal per-class counts, so desk-scale runs are reproducible and
their difficulty is a single knob.  CSV rows are ``feature..., label``.
"""
from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .nn import _check_labels, labeled_pair
from .rng import stream


@dataclass
class LabeledDataset:
    features: np.ndarray  # (n, input_dim) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        self.features, self.labels = labeled_pair(self.features, self.labels)
        _check_labels(self.labels, self.num_classes)

    @property
    def num_samples(self) -> int:
        return int(self.labels.shape[0])

    @property
    def input_dim(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class DatasetSpec:
    """Deterministic recipe for a train/test pair."""

    source: str = "synthetic"  # "synthetic" or a CSV path
    num_classes: int = 10
    input_dim: int = 32
    samples_per_class: int = 500
    test_fraction: float = 0.25
    noise_scale: float = 1.0
    class_separation: float = 3.0
    seed: int = 0
    standardize: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # NaN passes every range check below, and JSON cannot hold either
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in [0, 1)")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")


def synth_dataset(spec: DatasetSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Generate the (train, test) pair described by ``spec``.

    Counts are exact: every class contributes the same number of rows to each
    split.  Zero noise collapses each class onto its mean, which makes the
    task exactly separable.
    """
    if spec.source != "synthetic":
        raise ValueError("synth_dataset needs a synthetic spec")
    if spec.input_dim < spec.num_classes:
        raise ValueError(
            "synthetic means live on the coordinate simplex: input_dim must be "
            f">= num_classes ({spec.input_dim} < {spec.num_classes})"
        )
    rng = stream(spec.seed, "synth")
    n_test = int(round(spec.test_fraction * spec.samples_per_class))
    n_train = spec.samples_per_class - n_test
    if n_train < 1:
        raise ValueError("test_fraction leaves no training rows per class")

    train_x, train_y, test_x, test_y = [], [], [], []
    for c in range(spec.num_classes):
        mean = np.zeros(spec.input_dim)
        mean[c] = spec.class_separation
        rows = mean + spec.noise_scale * rng.standard_normal(
            (spec.samples_per_class, spec.input_dim)
        )
        order = rng.permutation(spec.samples_per_class)
        test_x.append(rows[order[:n_test]])
        train_x.append(rows[order[n_test:]])
        test_y.append(np.full(n_test, c, dtype=np.int64))
        train_y.append(np.full(n_train, c, dtype=np.int64))

    train = LabeledDataset(
        np.concatenate(train_x), np.concatenate(train_y), spec.num_classes
    )
    test = LabeledDataset(
        np.concatenate(test_x) if n_test else np.zeros((0, spec.input_dim)),
        np.concatenate(test_y) if n_test else np.zeros(0, dtype=np.int64),
        spec.num_classes,
    )
    return _standardized(train, test) if spec.standardize else (train, test)


def _standardized(train: LabeledDataset, test: LabeledDataset):
    """(train, test), each feature shifted and scaled by the train split's
    mean and standard deviation; a constant feature is only shifted."""
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return tuple(LabeledDataset((d.features - mean) / std, d.labels, d.num_classes)
                 for d in (train, test))


def ingest_csv(path) -> LabeledDataset:
    """Read ``feature..., label`` rows; malformed input fails with its line number."""
    features, labels = [], []
    dim = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{lineno}: need at least one feature and a label")
            if dim is None:
                dim = len(row) - 1
            elif len(row) - 1 != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} features, found {len(row) - 1}"
                )
            try:
                feat = [float(v) for v in row[:-1]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad feature value ({exc})") from None
            if not all(map(math.isfinite, feat)):
                raise ValueError(f"{path}:{lineno}: bad feature value (not finite)")
            try:
                raw_label = float(row[-1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad label {row[-1]!r}") from None
            if not raw_label.is_integer():
                raise ValueError(f"{path}:{lineno}: label {row[-1]!r} is not integral")
            features.append(feat)
            labels.append(int(raw_label))
    if not features:
        raise ValueError(f"{path}: no data rows")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.min() < 0:
        raise ValueError(f"{path}: labels must be >= 0")
    return LabeledDataset(x, y, int(y.max()) + 1)


def export_csv(dataset: LabeledDataset, path) -> None:
    """Write ``feature..., label`` rows with full float precision."""
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_dataset(spec: DatasetSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Resolve a spec to (train, test): synthetic generation or CSV + split."""
    if spec.source == "synthetic":
        return synth_dataset(spec)
    full = ingest_csv(spec.source)
    rng = stream(spec.seed, "csv-split")
    order = rng.permutation(full.num_samples)
    n_test = int(round(spec.test_fraction * full.num_samples))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if train_idx.size == 0:
        raise ValueError("test_fraction leaves no training rows")
    train = LabeledDataset(
        full.features[train_idx], full.labels[train_idx], full.num_classes
    )
    test = LabeledDataset(
        full.features[test_idx], full.labels[test_idx], full.num_classes
    )
    return _standardized(train, test) if spec.standardize else (train, test)
