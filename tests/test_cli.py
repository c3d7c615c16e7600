"""Command-line interface: argument handling and end-to-end smoke runs."""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import pmfl
import pmfl.harness as harness
from pmfl.atomic import write_json
from pmfl.cli import main
from pmfl.config import save_config
from pmfl.data import DatasetSpec, export_csv, synth_dataset
from pmfl.harness import CHECKPOINT_FILE, CHECKPOINT_ROWS_FILE, run_experiment

from fixtures import assert_same_outputs, tiny_config

TINY_FLAGS = [
    "--num-nodes", "4",
    "--rounds", "6",
    "--seed", "1",
    "--local-iterations", "2",
    "--batch-size", "8",
    "--encoder-dims", "6",
    "--projection-dims", "4",
    "--classifier-hidden-dims", "",
    "--dataset-num-classes", "3",
    "--dataset-input-dim", "6",
    "--dataset-samples-per-class", "30",
    "--dataset-test-fraction", "0.2",
    "--dataset-noise-scale", "0.8",
    "--mean-frequency", "0.6",
    "--frequency-mode", "uniform",
    "--eval-every", "2",
    "--local-buffer-size", "2",
    "--global-buffer-size", "3",
    "--cutoff-interval", "4",
]


def _npz_damage(edit):
    """A damage that rewrites a checkpoint's arrays after ``edit`` changes them."""

    def damage(path):
        arrays = dict(np.load(path))
        edit(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    return staticmethod(damage)


def _cut_a_window_row(arrays):
    arrays["buffers"] = arrays["buffers"][:-1]


def _format_1(arrays):
    # format 1 saved each window's length besides the windows
    arrays.update(format=np.asarray(1), buffer_lengths=np.zeros(4, dtype=np.int64))


class TestRunCommand:
    def test_run_without_a_test_set_finishes_with_null_test_fields(self, tmp_path, capsys):
        rc = main(["run", "--out", str(tmp_path)] + TINY_FLAGS
                  + ["--dataset-test-fraction", "0"])
        assert rc == 0
        assert "final_test_accuracy: None" in capsys.readouterr().out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["final_test_accuracy"] is None
        assert summary["top5_test_accuracy"] is None
        assert summary["top5_train_accuracy"] is not None
        assert not (tmp_path / CHECKPOINT_FILE).exists()

    def test_flags_reproduce_a_direct_run(self, tmp_path, capsys):
        rc = main(["run", "--out", str(tmp_path / "cli")] + TINY_FLAGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "run complete: 6 rounds" in out
        assert "final_test_accuracy" in out
        run_experiment(tiny_config(), tmp_path / "direct")
        assert_same_outputs(tmp_path / "cli", tmp_path / "direct")

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(tiny_config(rounds=3), path)
        rc = main(["run", "--config", str(path), "--rounds", "2",
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["requested_config"]["rounds"] == 2
        assert manifest["requested_config"]["num_nodes"] == 4  # from the file

    def test_cutoff_inf_spelling(self, tmp_path):
        rc = main(["run", "--out", str(tmp_path / "r"), "--cutoff-interval", "inf"]
                  + TINY_FLAGS[:-2])
        assert rc == 0
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["resolved_config"]["cutoff_interval"] is None

    def test_non_finite_float_is_a_clean_error_that_writes_nothing(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--out", str(tmp_path / "r"), "--dataset-class-separation", "inf"])
        assert err.value.code == 2
        assert "dataset_class_separation: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_invalid_config_is_a_clean_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--out", str(tmp_path / "r"), "--num-nodes", "0"])
        assert err.value.code == 2
        assert "num_nodes" in capsys.readouterr().err

    def test_diverged_run_is_a_clean_error(self, tmp_path):
        # a real process, so that a traceback printed by any handler shows up
        src = str(Path(pmfl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = str(tmp_path / "r")
        # the default config diverges at round 1 with this step size, and a
        # resume replays that round from the failure checkpoint
        for args in (["--rounds", "60", "--local-lr", "50"], ["--resume"]):
            proc = subprocess.run(
                [sys.executable, "-m", "pmfl.cli", "run", "--out", out, *args],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 1
            assert "pmfl run: error: DivergenceError" in proc.stderr
            assert "round 1" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert "RuntimeWarning" not in proc.stderr

    def test_a_non_finite_row_is_one_divergence_error_line(self, tmp_path):
        src = str(Path(pmfl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = str(tmp_path / "r")
        # round 18's losses are NaN while its global model is still finite; the
        # resume starts from the failure checkpoint of round 18
        for args in (["--num-nodes", "8", "--rounds", "40", "--local-lr", "0.1",
                      "--aggregation-mode", "literal", "--eval-every", "1",
                      "--dataset-samples-per-class", "40", "--encoder-dims", "16",
                      "--projection-dims", "8", "--checkpoint-every", "5"], ["--resume"]):
            proc = subprocess.run(
                [sys.executable, "-m", "pmfl.cli", "run", "--out", out, *args],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 1
            assert [line for line in proc.stderr.splitlines() if "error" in line] == [
                "pmfl run: error: DivergenceError: train_loss became non-finite at "
                "round 18; the run diverged"]
            assert "Traceback" not in proc.stderr

    def _csv_run(self, tmp_path, num_classes):
        data = tmp_path / "data"
        main(["synth-data", "--out", str(data), "--num-classes", str(num_classes),
              "--input-dim", "6", "--samples-per-class", "30"])
        # TINY_FLAGS configure 3 classes
        flags = TINY_FLAGS + ["--dataset-source", str(data / "train.csv")]
        return main(["run", "--out", str(tmp_path / "r")] + flags)

    def test_csv_with_more_classes_than_configured_is_a_clean_error(
        self, tmp_path, capsys
    ):
        capsys.readouterr()
        assert self._csv_run(tmp_path, 4) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("pmfl run: error: ValueError: ")
        assert not (tmp_path / "r" / CHECKPOINT_FILE).exists()

    def test_csv_with_fewer_classes_than_configured_runs(self, tmp_path):
        assert self._csv_run(tmp_path, 2) == 0

    def test_resume_rejects_other_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--out", str(tmp_path), "--resume", "--rounds", "5"])

    def test_resume_needs_a_manifest(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--out", str(tmp_path), "--resume"])

    def test_resume_of_a_finished_run_is_a_clean_error(self, tmp_path, capsys):
        run_experiment(tiny_config(), tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["run", "--out", str(tmp_path), "--resume"])
        assert err.value.code == 2
        assert "no checkpoint" in capsys.readouterr().err

    def test_resume_of_a_checkpoint_pair_that_disagrees_is_a_clean_error(
        self, tmp_path, monkeypatch, capsys
    ):
        # the run stops after a checkpoint's npz is replaced and before its
        # JSON is, at every checkpoint after the first
        real = harness.atomic_open
        written = []

        @contextmanager
        def opened(path, *args, **kwargs):
            with real(path, *args, **kwargs) as fh:
                yield fh
                if Path(path).name == CHECKPOINT_ROWS_FILE:
                    written.append(path)
                    if len(written) > 1:
                        raise KeyboardInterrupt

        monkeypatch.setattr(harness, "atomic_open", opened)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(tiny_config(checkpoint_every=2), tmp_path)
        monkeypatch.undo()
        capsys.readouterr()

        assert main(["run", "--out", str(tmp_path), "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("pmfl run: error: ValueError: ")
        assert CHECKPOINT_FILE in err and CHECKPOINT_ROWS_FILE in err


    @staticmethod
    def _truncate(path):
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

    # the tiny run has 85 parameters, 4 nodes and a history of 2 models, and
    # stops in round 4 with 2 models in its history
    _drop_global_model = _npz_damage(lambda a: a.pop("global_flat"))
    _short_global_model = _npz_damage(lambda a: a.update(global_flat=a["global_flat"][:-1]))
    _narrow_history = _npz_damage(lambda a: a.update(history=a["history"][:, :5]))
    _history_row_cut_out = _npz_damage(lambda a: a.update(history=a["history"][1:]))
    _window_row_cut_out = _npz_damage(_cut_a_window_row)
    _next_round_past_the_run = _npz_damage(lambda a: a.update(next_round=np.asarray(7)))
    # checkpoints written before the weights were replayed saved them; the
    # format defines no such array, whatever it holds
    _weights_for_two_nodes = _npz_damage(lambda a: a.update(weights=np.ones(2)))
    _weights_unlike_the_replay = _npz_damage(lambda a: a.update(weights=np.zeros(4)))
    _format_missing = _npz_damage(lambda a: a.pop("format"))
    _format_changed = _npz_damage(lambda a: a.update(format=a["format"] + 1))
    _format_1_checkpoint = _npz_damage(_format_1)
    # the trace gives the windows' lengths; format 2 defines no array of them
    _lengths_for_two_nodes = _npz_damage(
        lambda a: a.update(buffer_lengths=np.zeros(2, dtype=np.int64)))
    # right shapes, but not the dtypes the writer saves
    _buffers_as_float32 = _npz_damage(lambda a: a.update(buffers=a["buffers"].astype(np.float32)))
    _history_as_float32 = _npz_damage(lambda a: a.update(history=a["history"].astype(np.float32)))
    _global_model_as_int64 = _npz_damage(
        lambda a: a.update(global_flat=a["global_flat"].astype(np.int64)))
    _next_round_as_float = _npz_damage(lambda a: a.update(next_round=np.asarray(4.0)))

    @pytest.mark.parametrize("damage, name", [
        ("_truncate", CHECKPOINT_FILE),
        ("_drop_global_model", CHECKPOINT_FILE),
        ("_short_global_model", CHECKPOINT_FILE),
        ("_narrow_history", CHECKPOINT_FILE),
        ("_history_row_cut_out", CHECKPOINT_FILE),
        ("_window_row_cut_out", CHECKPOINT_FILE),
        ("_next_round_past_the_run", CHECKPOINT_FILE),
        ("_weights_for_two_nodes", CHECKPOINT_FILE),
        ("_weights_unlike_the_replay", CHECKPOINT_FILE),
        ("_lengths_for_two_nodes", CHECKPOINT_FILE),
        ("_format_missing", CHECKPOINT_FILE),
        ("_format_changed", CHECKPOINT_FILE),
        ("_format_1_checkpoint", CHECKPOINT_FILE),
        ("_buffers_as_float32", CHECKPOINT_FILE),
        ("_history_as_float32", CHECKPOINT_FILE),
        ("_global_model_as_int64", CHECKPOINT_FILE),
        ("_next_round_as_float", CHECKPOINT_FILE),
        ("_truncate", CHECKPOINT_ROWS_FILE),
    ])
    def test_resume_of_a_damaged_checkpoint_is_a_clean_error(
        self, tmp_path, monkeypatch, capsys, damage, name
    ):
        real = harness.update_weights

        def update_weights(state, indicators):
            if state.round_idx == 4:
                raise KeyboardInterrupt
            return real(state, indicators)

        monkeypatch.setattr(harness, "update_weights", update_weights)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(tiny_config(checkpoint_every=2), tmp_path)
        monkeypatch.undo()
        getattr(self, damage)(tmp_path / name)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()

        assert main(["run", "--out", str(tmp_path), "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("pmfl run: error: ValueError: ")
        assert str(tmp_path / name) in err
        if damage.startswith("_format"):  # refused by the stamp, before any array is read
            assert f"is not of checkpoint format {harness.CHECKPOINT_FORMAT}" in err
        # the damaged checkpoint stays as it was, and nothing else is written
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("damage", ["_truncate", "_drop_requested_config"])
    def test_resume_with_a_damaged_manifest_is_a_clean_error(
        self, tmp_path, monkeypatch, capsys, damage
    ):
        real = harness.update_weights

        def update_weights(state, indicators):
            if state.round_idx == 4:
                raise KeyboardInterrupt
            return real(state, indicators)

        monkeypatch.setattr(harness, "update_weights", update_weights)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(tiny_config(checkpoint_every=2), tmp_path)
        monkeypatch.undo()
        getattr(self, damage)(tmp_path / "manifest.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()

        assert main(["run", "--out", str(tmp_path), "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("pmfl run: error: ValueError: ")
        assert str(tmp_path / "manifest.json") in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @staticmethod
    def _drop_requested_config(path):
        manifest = json.loads(path.read_text())
        del manifest["requested_config"]
        path.write_text(json.dumps(manifest))


class TestSweepCommand:
    def test_vary_over_seeds(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path), "--vary", "seed=1,2"]
                  + TINY_FLAGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweep complete: 2 cells, 0 failed" in out
        assert (tmp_path / "sweep_summary.csv").exists()
        assert (tmp_path / "cell_000__seed=1").is_dir()
        assert (tmp_path / "cell_001__seed=2").is_dir()

    def test_vary_over_width_lists(self, tmp_path, capsys):
        # a comma inside brackets belongs to one width list
        rc = main(["sweep", "--out", str(tmp_path), "--vary", "encoder_dims=[16,8],[32]"]
                  + TINY_FLAGS)
        assert rc == 0
        assert "sweep complete: 2 cells, 0 failed" in capsys.readouterr().out
        widths = [json.loads((cell / "manifest.json").read_text())["resolved_config"]
                  ["encoder_dims"] for cell in sorted(tmp_path.glob("cell_*"))]
        assert widths == [[16, 8], [32]]

    def test_cells_without_a_test_set_finish(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path), "--vary", "seed=1,2"]
                  + TINY_FLAGS + ["--dataset-test-fraction", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweep complete: 2 cells, 0 failed" in out
        assert out.count("top5_test=n/a") == 2

    def test_failed_cell_flips_exit_code(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path),
                   "--vary", "variant=pmfl,bogus"] + TINY_FLAGS)
        assert rc == 1
        assert "ERROR" in capsys.readouterr().out

    def test_vary_parse_errors(self, tmp_path):
        for vary in ("seed", "not_a_field=1", "seed=", "seed=x"):
            with pytest.raises(SystemExit):
                main(["sweep", "--out", str(tmp_path), "--vary", vary])
        with pytest.raises(SystemExit):
            main(["sweep", "--out", str(tmp_path)])  # no --vary at all

    @pytest.mark.parametrize("field", ["validate", "to_dict", "resolved", "full_scale"])
    def test_vary_of_a_config_attribute_that_is_no_field(self, tmp_path, capsys, field):
        # these passed a hasattr check, then every cell failed on an
        # unexpected keyword argument
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--out", str(tmp_path / "s"), "--vary", f"{field}=1,2"])
        assert err.value.code == 2
        assert f"unknown config field {field!r}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_repeated_vary_key_is_an_error(self, tmp_path, capsys):
        # the second used to replace the first
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--out", str(tmp_path / "s"),
                  "--vary", "seed=1", "--vary", "seed=2"] + TINY_FLAGS)
        assert err.value.code == 2
        assert "--vary seed: given more than once" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestOneParser:
    # field -> (spelling, setting as the manifest records it); commas outside
    # brackets separate --vary values, so the "8,4" spelling rides on a flag
    SPELLINGS = {
        "dataset_standardize": ("no", False),
        "rounds": ("5", 5),
        "local_lr": ("0.05", 0.05),
        "encoder_dims": ("16", [16]),
        "classifier_hidden_dims": ("[5,3]", [5, 3]),
        "cutoff_interval": ("inf", None),
    }

    def test_a_spelling_reads_the_same_in_json_a_flag_and_vary(self, tmp_path):
        base = tmp_path / "base.json"
        save_config(tiny_config(dataset_standardize=True), base)
        spelled = tmp_path / "spelled.json"
        spelled.write_text(json.dumps({
            **json.loads(base.read_text()),
            **{k: spelling for k, (spelling, _) in self.SPELLINGS.items()},
            "projection_dims": "8,4",
        }))
        flags = ["--no-dataset-standardize", "--projection-dims", "8,4"] + [
            arg for k, (spelling, _) in self.SPELLINGS.items() if k != "dataset_standardize"
            for arg in ("--" + k.replace("_", "-"), spelling)
        ]
        vary = [arg for k, (spelling, _) in self.SPELLINGS.items()
                for arg in ("--vary", f"{k}={spelling}")]
        assert main(["run", "--config", str(spelled), "--out", str(tmp_path / "json")]) == 0
        assert main(["run", "--config", str(base), "--out", str(tmp_path / "flag")]
                    + flags) == 0
        assert main(["sweep", "--config", str(base), "--out", str(tmp_path / "vary"),
                     "--projection-dims", "8,4"] + vary) == 0

        cell, = (tmp_path / "vary").glob("cell_000__*")
        configs = [json.loads((d / "manifest.json").read_text())["requested_config"]
                   for d in (tmp_path / "json", tmp_path / "flag", cell)]
        assert configs[0] == configs[1] == configs[2]
        for k, (_, value) in self.SPELLINGS.items():
            assert configs[0][k] == value and type(configs[0][k]) is type(value)
        assert configs[0]["projection_dims"] == [8, 4]


class TestSynthDataCommand:
    EVERY_FLAG = ["--num-classes", "3", "--input-dim", "4", "--samples-per-class", "10",
                  "--test-fraction", "0.2", "--noise-scale", "0.5",
                  "--class-separation", "2.5", "--seed", "7", "--standardize"]

    @pytest.mark.parametrize("flags, spec", [
        ([], DatasetSpec()),
        (EVERY_FLAG, DatasetSpec(num_classes=3, input_dim=4, samples_per_class=10,
                                 test_fraction=0.2, noise_scale=0.5, class_separation=2.5,
                                 seed=7, standardize=True)),
    ])
    def test_files_match_the_library_for_the_same_spec(self, tmp_path, flags, spec):
        assert main(["synth-data", "--out", str(tmp_path / "cli")] + flags) == 0
        ref = tmp_path / "ref"
        ref.mkdir()
        train, test = synth_dataset(spec)
        export_csv(train, ref / "train.csv")
        export_csv(test, ref / "test.csv")
        write_json(ref / "dataset_meta.json", dataclasses.asdict(spec))
        for name in ("train.csv", "test.csv", "dataset_meta.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (ref / name).read_bytes(), name

    def test_writes_csv_pair_and_meta(self, tmp_path, capsys):
        rc = main(["synth-data", "--out", str(tmp_path), "--num-classes", "3",
                   "--input-dim", "4", "--samples-per-class", "10",
                   "--test-fraction", "0.2", "--seed", "7"])
        assert rc == 0
        assert "wrote 24 train rows and 6 test rows" in capsys.readouterr().out
        meta = json.loads((tmp_path / "dataset_meta.json").read_text())
        assert meta["num_classes"] == 3 and meta["seed"] == 7
        train = np.loadtxt(tmp_path / "train.csv", delimiter=",")
        assert train.shape == (24, 5)

    def test_zero_test_fraction_skips_test_csv(self, tmp_path):
        main(["synth-data", "--out", str(tmp_path), "--num-classes", "2",
              "--input-dim", "2", "--samples-per-class", "5",
              "--test-fraction", "0"])
        assert (tmp_path / "train.csv").exists()
        assert not (tmp_path / "test.csv").exists()

    @pytest.mark.parametrize("flag", ["--noise-scale", "--class-separation"])
    def test_non_finite_float_is_a_clean_error_that_writes_nothing(self, tmp_path, capsys, flag):
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as err:
            main(["synth-data", "--out", str(out), "--num-classes", "2",
                  "--input-dim", "2", "--samples-per-class", "5", flag, "nan"])
        assert err.value.code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_dims_are_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["synth-data", "--out", str(tmp_path), "--num-classes", "10",
                  "--input-dim", "4"])


class TestInspectCommand:
    def test_text_report(self, tmp_path, capsys):
        run_experiment(tiny_config(), tmp_path)
        rc = main(["inspect", "--run", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "variant       : pmfl" in out
        assert "4 nodes, 6 rounds" in out
        assert "final_test_accuracy" in out

    def test_json_report(self, tmp_path, capsys):
        run_experiment(tiny_config(), tmp_path)
        rc = main(["inspect", "--run", str(tmp_path), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["package"] == "pmfl"
        assert "final_test_accuracy" in doc["summary"]

    def test_missing_run_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["inspect", "--run", str(tmp_path / "nope")])

    @pytest.mark.parametrize("name, damage, report", [
        ("manifest.json", "truncate", "text"),
        ("manifest.json", "truncate", "json"),
        ("summary.json", "truncate", "text"),
        ("manifest.json", "drop_resolved_config", "text"),
    ])
    def test_damaged_run_dir_is_a_clean_error(self, tmp_path, capsys, name, damage, report):
        run_experiment(tiny_config(), tmp_path)
        path = tmp_path / name
        if damage == "truncate":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        else:
            manifest = json.loads(path.read_text())
            del manifest["resolved_config"]
            path.write_text(json.dumps(manifest))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()

        assert main(["inspect", "--run", str(tmp_path)]
                    + (["--json"] if report == "json" else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("pmfl inspect: error: ")
        assert str(path) in captured.err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestParser:
    def test_out_is_required(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_defaults_shown_in_help(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--help"])
        assert err.value.code == 0
        assert "default 50" in capsys.readouterr().out  # cutoff default surfaces

    @pytest.mark.parametrize("argv, message", [
        (["run", "--seed", "1.5"], "pmfl run: error: seed: must be an integer"),
        (["run", "--num-nodes", "0"], "pmfl run: error: "),
        (["sweep", "--vary", "seed=x"], "pmfl sweep: error: --vary: seed: "),
        (["sweep", "--vary", "seed"], "pmfl sweep: error: --vary needs key=v1,v2,..."),
        (["sweep", "--rounds", "2.5", "--vary", "seed=1"], "pmfl sweep: error: rounds: "),
        (["synth-data", "--num-classes", "10", "--input-dim", "4"],
         "pmfl synth-data: error: "),
        (["sweep", "--vary", "workers=1,2"],
         "pmfl sweep: error: --vary: workers is the sweep's pool size"),
    ])
    def test_a_refused_value_is_one_error_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(argv[:1] + ["--out", str(out)] + argv[1:])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.count("\n") == 1 and stderr.startswith(message)
        assert not out.exists()

    def test_a_syntax_error_keeps_the_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--out", "x", "--seed"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: pmfl run")
        assert stderr.rstrip("\n").endswith("error: argument --seed: expected one argument")
