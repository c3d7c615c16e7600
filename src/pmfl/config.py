"""Flat experiment configuration with strict validation.

Configs load from a single-level JSON object whose keys match the dataclass
fields one to one; unknown keys are errors, not warnings.  Every raw value,
from JSON, a command-line flag or a ``--vary`` token, goes through
:func:`parse_value`, which reads it by the kind of its field's annotation.
Hyperparameter defaults are the reference settings (learning rates,
temperature, buffer sizes, cutoff, concentrations, mean frequency); the
population/duration defaults are desk scale so a default run finishes in
seconds.  The ``full_scale()`` profile swaps in the reference population
(250 nodes, 10000 rounds).
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .atomic import write_json
from .data import DatasetSpec
from .participation import PATTERNS
from .server import AGGREGATION_MODES, VARIANTS

FREQUENCY_MODES = ("dirichlet", "uniform")


@dataclass
class ExperimentConfig:
    # federation
    num_nodes: int = 30
    rounds: int = 400
    variant: str = "pmfl"
    aggregation_mode: str = "corrected"
    seed: int = 0
    # local training
    local_iterations: int = 5
    local_lr: float = 0.1
    batch_size: int = 32
    temperature: float = 0.5
    contrastive_weight: float = 0.5
    local_buffer_size: int = 5
    # server
    global_lr: float = 1.0
    global_buffer_size: int = 3
    cutoff_interval: int | None = 50  # None disables the cutoff
    # heterogeneity
    data_alpha: float = 0.1
    participation_beta: float = 0.1
    mean_frequency: float = 0.1
    frequency_mode: str = "dirichlet"
    # participation
    pattern: str = "bernoulli"
    markov_p01: float = 0.05
    cycle_length: int = 100
    # model (classifier output width comes from the dataset's class count)
    encoder_dims: tuple[int, ...] = (32, 32)
    projection_dims: tuple[int, ...] = (16,)
    classifier_hidden_dims: tuple[int, ...] = ()
    # dataset
    dataset_source: str = DatasetSpec.source
    dataset_num_classes: int = DatasetSpec.num_classes
    dataset_input_dim: int = DatasetSpec.input_dim
    dataset_samples_per_class: int = DatasetSpec.samples_per_class
    dataset_test_fraction: float = DatasetSpec.test_fraction
    dataset_noise_scale: float = DatasetSpec.noise_scale
    dataset_class_separation: float = DatasetSpec.class_separation
    dataset_seed: int = DatasetSpec.seed
    dataset_standardize: bool = DatasetSpec.standardize
    # harness
    eval_every: int = 10
    checkpoint_every: int = 0  # 0: only on failure
    workers: int = 1  # process pool size for run_sweep cells

    @classmethod
    def full_scale(cls, **overrides) -> "ExperimentConfig":
        """Reference-scale profile: 250 nodes, 10000 rounds."""
        base = dict(num_nodes=250, rounds=10000)
        base.update(overrides)
        return cls(**base)

    def validate(self) -> None:
        # the range checks below need the right types
        problems = [f"{f.name}: must be {_KINDS[f.type][0]}, got {getattr(self, f.name)!r}"
                    for f in dataclasses.fields(self) if not _is_setting(f, getattr(self, f.name))]
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))

        def check(ok: bool, name: str, why: str):
            if not ok:
                problems.append(f"{name}: {why}")

        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # NaN passes every range check below, and JSON cannot hold either
            check(
                not isinstance(value, float) or math.isfinite(value), f.name, "must be finite"
            )
            if f.type == _WIDTHS:
                check(all(d >= 1 for d in value), f.name, "widths must be positive integers")
        check(self.num_nodes >= 1, "num_nodes", "must be >= 1")
        check(self.rounds >= 0, "rounds", "must be >= 0")
        check(self.variant in VARIANTS, "variant", f"must be one of {tuple(VARIANTS)}")
        check(
            self.aggregation_mode in AGGREGATION_MODES,
            "aggregation_mode",
            f"must be one of {AGGREGATION_MODES}",
        )
        check(self.local_iterations >= 0, "local_iterations", "must be >= 0")
        check(self.local_lr > 0, "local_lr", "must be > 0")
        check(self.batch_size >= 1, "batch_size", "must be >= 1")
        check(self.temperature > 0, "temperature", "must be > 0")
        check(self.contrastive_weight >= 0, "contrastive_weight", "must be >= 0")
        check(self.local_buffer_size >= 0, "local_buffer_size", "must be >= 0")
        check(self.global_lr > 0, "global_lr", "must be > 0")
        check(self.global_buffer_size >= 0, "global_buffer_size", "must be >= 0")
        smooths = self.variant in VARIANTS and VARIANTS[self.variant].history
        check(
            not (smooths and self.global_buffer_size > 1 and self.rounds < 2),
            "global_buffer_size",
            "history smoothing needs rounds >= 2",
        )
        check(
            self.cutoff_interval is None or self.cutoff_interval >= 1,
            "cutoff_interval",
            "must be >= 1 or null",
        )
        check(self.data_alpha > 0, "data_alpha", "must be > 0")
        check(self.participation_beta > 0, "participation_beta", "must be > 0")
        check(0 < self.mean_frequency <= 1, "mean_frequency", "must lie in (0, 1]")
        check(
            self.frequency_mode in FREQUENCY_MODES,
            "frequency_mode",
            f"must be one of {FREQUENCY_MODES}",
        )
        check(self.pattern in PATTERNS, "pattern", f"must be one of {PATTERNS}")
        check(0 < self.markov_p01 <= 1, "markov_p01", "must lie in (0, 1]")
        check(self.cycle_length >= 1, "cycle_length", "must be >= 1")
        try:
            dataset_spec_for(self)
        except ValueError as exc:  # "<name> <why>" of the spec's field <name>
            name, why = str(exc).split(" ", 1)
            # a non-finite value is already reported above
            check(f"dataset_{name}: {why}" in problems, f"dataset_{name}", why)
        check(self.eval_every >= 1, "eval_every", "must be >= 1")
        check(self.checkpoint_every >= 0, "checkpoint_every", "must be >= 0")
        check(self.workers >= 1, "workers", "must be >= 1")
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))

    def resolved(self) -> "ExperimentConfig":
        """Effective config after the variant's forced settings.

        A variant without the contrastive term or without history smoothing
        (see :data:`pmfl.server.VARIANTS`) forces the corresponding knobs
        off, so that one variant label always means one behaviour.
        """
        out = dataclasses.replace(self)
        row = VARIANTS[self.variant]
        if not row.contrastive:
            out.contrastive_weight = 0.0
            out.local_buffer_size = 0
        if not row.history:
            out.global_buffer_size = 0
        return out

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        if not isinstance(values, dict):
            raise ValueError(f"a config must be a JSON object, not {type(values).__name__}")
        cfg = cls(**parse_fields(cls, values))
        cfg.validate()
        return cfg


def dataset_spec_for(cfg: ExperimentConfig) -> DatasetSpec:
    # each ``dataset_<name>`` config field is the spec's field ``<name>``
    return DatasetSpec(**{
        f.name: getattr(cfg, "dataset_" + f.name) for f in dataclasses.fields(DatasetSpec)
    })


def parse_fields(cls, values: dict) -> dict:
    """Parse raw values keyed by field name into settings of dataclass ``cls``."""
    known = {f.name: f for f in dataclasses.fields(cls)}
    parsed = {}
    for key, value in values.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        parsed[key] = parse_value(known[key], value)
    return parsed


def parse_value(f: dataclasses.Field, raw):
    """Turn a raw value into field ``f``'s setting, by the kind of its annotation.

    A string reads the same from any source; a value of the field's own type
    is kept as given; anything else is a ``ValueError`` naming the field."""
    what, parse = _KINDS[f.type]
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{f.name}: must be {what}, got {raw!r}") from None


def _is_setting(f: dataclasses.Field, value) -> bool:
    """Whether ``value`` is already a setting of ``f``: one the parser keeps as it is.

    Comparing reprs refuses a string where a number belongs, ``3.0`` for an
    int and a list for a width tuple, all of which the parser would convert.
    """
    try:
        return repr(parse_value(f, value)) == repr(value)
    except ValueError:
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_int(raw) -> int:
    if isinstance(raw, str):
        return int(raw)
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if _is_int(raw):
        return raw
    raise ValueError


def _parse_float(raw):
    if isinstance(raw, str):
        return float(raw)
    if _is_int(raw) or isinstance(raw, float):
        return raw  # a JSON int stays an int, so a manifest keeps its bytes
    raise ValueError


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(raw) -> bool:
    if isinstance(raw, str) and raw.lower() in _BOOLS:
        return _BOOLS[raw.lower()]
    if isinstance(raw, bool):
        return raw
    raise ValueError


def _parse_str(raw) -> str:
    if isinstance(raw, str):
        return raw
    raise ValueError


def _parse_widths(raw) -> tuple[int, ...]:
    if isinstance(raw, str) and raw.lstrip().startswith("["):
        raw = json.loads(raw)  # the list a JSON config holds
    elif isinstance(raw, str):
        raw = [v for v in raw.split(",") if v.strip()]
    if isinstance(raw, (list, tuple)):
        return tuple(_parse_int(v) for v in raw)
    raise ValueError


def _parse_cutoff(raw) -> int | None:
    if raw is None or raw == math.inf or str(raw).lower() in ("inf", "none", "null"):
        return None
    return _parse_int(raw)


_WIDTHS = "tuple[int, ...]"
# field annotation -> (what a value must be, parser of a raw value)
_KINDS = {
    "bool": ("true/false, or a string true/false/yes/no/1/0", _parse_bool),
    "int": ("an integer", _parse_int),
    "float": ("a number", _parse_float),
    "str": ("a string", _parse_str),
    _WIDTHS: ("integer widths, as a list, '[W1,W2,...]' or 'W1,W2,...'", _parse_widths),
    "int | None": ("an integer, 'inf' or null", _parse_cutoff),
}


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a flat JSON config file and apply explicit overrides on top."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    if overrides:
        raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def save_config(cfg: ExperimentConfig, path) -> None:
    write_json(path, cfg.to_dict())
