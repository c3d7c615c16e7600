"""Config loading, validation, coercion and variant resolution."""
from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from pmfl.cli import main
from pmfl.config import ExperimentConfig, load_config, save_config
from pmfl.harness import run_experiment
from pmfl.rng import derive_seed, stream
from pmfl.server import VARIANTS

README = Path(__file__).resolve().parents[1] / "README.md"


class TestDefaults:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_full_scale_profile(self):
        cfg = ExperimentConfig.full_scale()
        assert cfg.num_nodes == 250
        assert cfg.rounds == 10000
        cfg.validate()
        small = ExperimentConfig.full_scale(num_nodes=12)
        assert small.num_nodes == 12 and small.rounds == 10000

    def test_reference_hyperparameters(self):
        cfg = ExperimentConfig()
        assert cfg.local_iterations == 5
        assert cfg.local_lr == 0.1
        assert cfg.temperature == 0.5
        assert cfg.contrastive_weight == 0.5
        assert cfg.local_buffer_size == 5
        assert cfg.global_buffer_size == 3
        assert cfg.cutoff_interval == 50
        assert cfg.mean_frequency == 0.1


class TestValidation:
    def test_collects_all_problems_with_field_names(self):
        cfg = ExperimentConfig(num_nodes=0, local_lr=-1.0, pattern="sometimes")
        with pytest.raises(ValueError) as err:
            cfg.validate()
        msg = str(err.value)
        for name in ("num_nodes", "local_lr", "pattern"):
            assert name in msg

    def test_smoothing_needs_two_rounds(self):
        with pytest.raises(ValueError, match="global_buffer_size"):
            ExperimentConfig(rounds=1, global_buffer_size=3).validate()
        ExperimentConfig(rounds=1, global_buffer_size=0).validate()
        ExperimentConfig(rounds=1, global_buffer_size=1).validate()

    @pytest.mark.parametrize("variant", ["wo_hgm", "uniform_average", "cached_update"])
    def test_a_variant_without_smoothing_runs_one_round(self, tmp_path, variant):
        # it never smooths, so its history setting needs no second round
        cfg = ExperimentConfig(variant=variant, rounds=1, global_buffer_size=3, num_nodes=4)
        cfg.validate()
        assert run_experiment(cfg, tmp_path).rounds_completed == 1
        # a one-round run has no mixing coefficient
        assert (tmp_path / "weights.csv").read_text().splitlines()[1].startswith("0,,")

    def test_cutoff_none_is_valid(self):
        ExperimentConfig(cutoff_interval=None).validate()
        with pytest.raises(ValueError, match="cutoff_interval"):
            ExperimentConfig(cutoff_interval=0).validate()

    @pytest.mark.parametrize("field,value", [
        ("rounds", -1),
        ("variant", "fedavg"),
        ("aggregation_mode", "subtractive"),
        ("batch_size", 0),
        ("temperature", 0.0),
        ("contrastive_weight", -0.1),
        ("mean_frequency", 0.0),
        ("mean_frequency", 1.2),
        ("frequency_mode", "zipf"),
        ("markov_p01", 0.0),
        ("cycle_length", 0),
        ("encoder_dims", (4, 0)),
        ("dataset_num_classes", 1),
        ("dataset_test_fraction", 1.0),
        ("eval_every", 0),
        ("workers", 0),
        ("local_iterations", -1),
        ("local_lr", 0.0),
    ])
    def test_field_rejections(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value}).validate()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_every_float_field_must_be_finite(self, value):
        floats = [f.name for f in dataclasses.fields(ExperimentConfig)
                  if isinstance(f.default, float)]
        assert "dataset_class_separation" in floats
        for name in floats:
            with pytest.raises(ValueError, match=f"{name}: must be finite"):
                ExperimentConfig(**{name: value}).validate()

    def test_infinite_class_separation_writes_nothing(self, tmp_path):
        # it used to pass validation and fail writing manifest.json
        with pytest.raises(ValueError, match="dataset_class_separation"):
            run_experiment(ExperimentConfig(dataset_class_separation=math.inf), tmp_path / "r")
        assert not (tmp_path / "r").exists()


class TestResolution:
    def test_pmfl_keeps_everything(self):
        cfg = ExperimentConfig(variant="pmfl").resolved()
        assert cfg.contrastive_weight == 0.5
        assert cfg.local_buffer_size == 5
        assert cfg.global_buffer_size == 3

    def test_wo_mct_strips_contrastive(self):
        cfg = ExperimentConfig(variant="wo_mct").resolved()
        assert cfg.contrastive_weight == 0.0
        assert cfg.local_buffer_size == 0
        assert cfg.global_buffer_size == 3

    def test_wo_hgm_strips_smoothing(self):
        cfg = ExperimentConfig(variant="wo_hgm").resolved()
        assert cfg.global_buffer_size == 0
        assert cfg.contrastive_weight == 0.5

    def test_wo_awc_resolves_untouched(self):
        # reweighting is bypassed at aggregation time, not via config knobs
        cfg = ExperimentConfig(variant="wo_awc").resolved()
        assert cfg.contrastive_weight == 0.5
        assert cfg.global_buffer_size == 3

    @pytest.mark.parametrize("variant", ["uniform_average", "cached_update"])
    def test_plain_baselines_strip_both(self, variant):
        cfg = ExperimentConfig(variant=variant).resolved()
        assert cfg.contrastive_weight == 0.0
        assert cfg.local_buffer_size == 0
        assert cfg.global_buffer_size == 0

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_resolved_forces_exactly_the_table_row(self, variant):
        row = VARIANTS[variant]
        want = {}
        if not row.contrastive:
            want.update(contrastive_weight=0.0, local_buffer_size=0)
        if not row.history:
            want.update(global_buffer_size=0)
        cfg = ExperimentConfig(variant=variant)
        given, resolved = cfg.to_dict(), cfg.resolved().to_dict()
        assert {k: v for k, v in resolved.items() if v != given[k]} == want

    def test_readme_lists_the_table_row_for_row(self):
        section = README.read_text().split("\n## Variants\n")[1].split("\n## ")[0]
        rows = {
            cells[0].strip("`"): tuple(cells[1:5])
            for line in section.splitlines()
            if line.startswith("| `")
            for cells in [[c.strip() for c in line.strip("|").split("|")]]
        }
        yes = {True: "yes", False: "no"}
        assert rows == {
            name: (yes[row.contrastive], yes[row.history], yes[row.adaptive_weights],
                   f"`{row.rule}`")
            for name, row in VARIANTS.items()
        }

    def test_resolved_returns_a_copy(self):
        cfg = ExperimentConfig(variant="wo_mct")
        cfg.resolved()
        assert cfg.contrastive_weight == 0.5


class TestSerialization:
    def test_dict_round_trip(self):
        cfg = ExperimentConfig(num_nodes=7, encoder_dims=(8, 4), cutoff_interval=None)
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_dict({"num_nodez": 5})

    def test_dims_accept_comma_strings(self):
        cfg = ExperimentConfig.from_dict({"encoder_dims": "16, 8", "projection_dims": ""})
        assert cfg.encoder_dims == (16, 8)
        assert cfg.projection_dims == ()
        with pytest.raises(ValueError, match="encoder_dims"):
            ExperimentConfig.from_dict({"encoder_dims": "16,eight"})

    @pytest.mark.parametrize("raw", ["inf", "none", "null", None, float("inf")])
    def test_cutoff_spellings_for_no_cutoff(self, raw):
        assert ExperimentConfig.from_dict({"cutoff_interval": raw}).cutoff_interval is None

    def test_cutoff_numeric_coercion(self):
        assert ExperimentConfig.from_dict({"cutoff_interval": "25"}).cutoff_interval == 25
        assert ExperimentConfig.from_dict({"cutoff_interval": 25.0}).cutoff_interval == 25
        for refused in (25.5, -math.inf):
            with pytest.raises(ValueError, match="cutoff_interval"):
                ExperimentConfig.from_dict({"cutoff_interval": refused})

    def test_file_round_trip_with_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(ExperimentConfig(num_nodes=9, rounds=50), path)
        cfg = load_config(path, overrides={"rounds": 75})
        assert cfg.num_nodes == 9
        assert cfg.rounds == 75
        with open(path) as fh:
            raw = json.load(fh)
        assert raw["num_nodes"] == 9
        assert isinstance(raw["encoder_dims"], list)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="JSON object"):
            load_config(path)


# JSON values of another kind than their field's: at the parent commit each
# crashed with a traceback, ran, or read as something else
REFUSED_JSON = [
    ("rounds", True),  # read as 1
    ("variant", ["pmfl"]),  # TypeError: unhashable type
    ("eval_every", 2.5),  # evaluated only after rounds 5 and 10
    ("seed", 1.5),  # ran
    ("encoder_dims", [32.5]),  # became width 32
    ("dataset_source", 0),  # read file descriptor 0
]
# ... and these read as their spelling does in a flag or a --vary token
READ_AS_SPELLED = [
    ("rounds", 3.0, 3),  # a numpy TypeError traceback
    ("local_lr", "0.1", 0.1),  # a TypeError traceback out of validate
    ("dataset_standardize", "no", False),  # turned standardisation on
]


class TestValueKinds:
    @pytest.mark.parametrize("field, raw", REFUSED_JSON)
    def test_wrong_kind_in_json_is_a_clean_error_that_writes_nothing(
        self, tmp_path, capsys, field, raw
    ):
        with pytest.raises(ValueError, match=f"^{field}: must be "):
            ExperimentConfig.from_dict({field: raw})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: raw}))
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", str(path), "--out", str(tmp_path / "r")])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        lines = [line for line in stderr.splitlines() if "error" in line]
        assert len(lines) == 1 and lines[0].startswith(f"pmfl run: error: {field}: must be ")
        assert "Traceback" not in stderr
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("field, raw, value", READ_AS_SPELLED)
    def test_a_json_value_reads_as_its_spelling(self, field, raw, value):
        got = getattr(ExperimentConfig.from_dict({field: raw}), field)
        assert type(got) is type(value) and got == value

    @pytest.mark.parametrize("field, raw", REFUSED_JSON + [r[:2] for r in READ_AS_SPELLED])
    def test_validate_refuses_a_wrong_kind_from_python(self, field, raw):
        with pytest.raises(ValueError, match=f"invalid config: {field}: must be "):
            ExperimentConfig(**{field: raw}).validate()

    def test_int_refuses_fractions_and_bools_and_keeps_json_ints_in_floats(self):
        assert ExperimentConfig.from_dict({"rounds": "7"}).rounds == 7
        for raw in (7.5, False, "7.0", "seven", math.inf, None):
            with pytest.raises(ValueError, match="rounds: must be an integer"):
                ExperimentConfig.from_dict({"rounds": raw})
        cfg = ExperimentConfig.from_dict({"global_lr": 1})
        assert type(cfg.global_lr) is int
        assert json.loads(json.dumps(cfg.to_dict()))["global_lr"] == 1

    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("YES", True), ("1", True), (True, True),
        ("false", False), ("no", False), ("0", False), (False, False),
    ])
    def test_bool_spellings(self, raw, value):
        assert ExperimentConfig.from_dict({"dataset_standardize": raw}).dataset_standardize is value

    @pytest.mark.parametrize("raw", ["maybe", 1, 0, None])
    def test_bool_refuses_other_values(self, raw):
        with pytest.raises(ValueError, match="dataset_standardize: must be true/false"):
            ExperimentConfig.from_dict({"dataset_standardize": raw})


class TestRngStreams:
    def test_derive_seed_is_stable_and_key_sensitive(self):
        a = derive_seed(1, "partition")
        assert a == derive_seed(1, "partition")
        assert a != derive_seed(2, "partition")
        assert a != derive_seed(1, "frequencies")
        assert derive_seed(1, "train", 0, 1) != derive_seed(1, "train", 1, 0)

    def test_stream_reproduces_sequences(self):
        import numpy as np

        x = stream(5, "train", 3, 7).random(6)
        y = stream(5, "train", 3, 7).random(6)
        np.testing.assert_array_equal(x, y)
