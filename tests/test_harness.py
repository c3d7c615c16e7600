"""End-to-end runs: artifacts, determinism, checkpointing and sweeps."""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pmfl
import pmfl.harness as harness
import pmfl.server as server
from pmfl.atomic import atomic_open
from pmfl.cli import main as cli_main
from pmfl.config import ExperimentConfig, save_config
from pmfl.data import export_csv
from pmfl.harness import (
    CHECKPOINT_FILE,
    CHECKPOINT_ROWS_FILE,
    OUTPUT_FILES,
    build_environment,
    model_spec_for,
    node_weights,
    resume_run,
    run_experiment,
    run_sweep,
)
from pmfl.metrics import RoundMetrics
from pmfl.nn import flatten, init_params, unflatten
from pmfl.participation import export_trace_csv
from pmfl.rng import stream
from pmfl.server import DivergenceError

from fixtures import assert_same_outputs, assert_same_sweeps, tiny_config
from oracles import expected_weight


def _refuse(constant: str):
    """A ``parse_constant`` for ``json.loads`` that holds a file to strict JSON."""
    raise ValueError(f"{constant} is not strict JSON")


# what a checkpoint's npz holds for a run without cached updates
SAVED_ARRAYS = ("format", "next_round", "global_flat", "history", "buffers")
# what each row of checkpoint_rows.json holds: the values a round measures
ROW_FIELDS = ["deviation", "test_accuracy", "test_loss", "train_accuracy", "train_loss"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# sha256 of weights.csv as it was written with a column per node weight, for
# tiny_config(checkpoint_every=2) of each variant
NODE_COLUMN_WEIGHTS_CSV = {
    "pmfl": "19b5f174e8acde81d8561f2688c5744944381bc527271e2d42b57e48b9613344",
    "wo_mct": "bb8ff2cbc44e608a6de239fdb17668abcb2608654b3a18a18fd90eac3adb09c0",
    "wo_awc": "5b54b32752028f7b7baf79574e69054bbe19c222b8ae4845d851283bda699478",
    "wo_hgm": "14d092c0a2d73c528bcdd15f6943f6e2544ce74320bbced0e2ba8de671d8f348",
    "uniform_average": "978f93908a570bd81c536855ff72caeb9b97d44279b3f1c4c0ef28407bcc764a",
    "cached_update": "8b6ec38abb489ab61d8c9471d36dd157613ea3133ade70f5500d8f8002328c47",
}


def _drop_last_round(data: bytes) -> bytes:
    return data[: data.rindex(b"\r\n", 0, -2) + 2]


def _drop_last_node(data: bytes) -> bytes:
    return b"".join(line[: line.rindex(b",")] + b"\r\n" for line in data.split(b"\r\n")[:-1])


def _drop_requested_config(data: bytes) -> bytes:
    doc = json.loads(data)
    del doc["requested_config"]
    return json.dumps(doc).encode()


class TestNodeWeights:
    @pytest.mark.parametrize("variant", sorted(NODE_COLUMN_WEIGHTS_CSV))
    def test_rebuild_the_weights_csv_with_a_column_per_node(self, tmp_path, variant):
        run_experiment(tiny_config(checkpoint_every=2, variant=variant), tmp_path)
        weights = node_weights(tmp_path)
        header, *lines = (tmp_path / "weights.csv").read_bytes().decode().split("\r\n")[:-1]
        rebuilt = [header + "".join(f",weight_{k}" for k in range(weights.shape[1]))] + [
            line + "".join("," + repr(w) for w in row.tolist())
            for line, row in zip(lines, weights, strict=True)
        ]
        text = "".join(line + "\r\n" for line in rebuilt)
        assert hashlib.sha256(text.encode()).hexdigest() == NODE_COLUMN_WEIGHTS_CSV[variant]

    def test_a_run_without_rounds_has_no_weights(self, tmp_path):
        run_experiment(tiny_config(rounds=0, global_buffer_size=1), tmp_path)
        weights = node_weights(tmp_path)
        assert weights.shape == (0, 4) and weights.dtype == np.float64

    @pytest.mark.parametrize("name, damage", [
        ("participation.csv", lambda data: data[: len(data) // 2]),
        ("participation.csv", _drop_last_round),
        ("participation.csv", _drop_last_node),
        ("manifest.json", lambda data: data[: len(data) // 2]),
        ("manifest.json", _drop_requested_config),
    ], ids=["trace_cut", "trace_round_dropped", "trace_node_dropped", "manifest_cut",
            "manifest_without_config"])
    def test_refuses_a_damaged_run(self, tmp_path, name, damage):
        run_experiment(tiny_config(), tmp_path)
        path = tmp_path / name
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match="is damaged") as exc:
            node_weights(tmp_path)
        assert str(path) in str(exc.value)


class TestEnvironment:
    def test_is_a_pure_function_of_the_config(self):
        cfg = tiny_config().resolved()
        a = build_environment(cfg)
        b = build_environment(cfg)
        np.testing.assert_array_equal(a.trace, b.trace)
        np.testing.assert_array_equal(
            a.assignment.frequencies, b.assignment.frequencies
        )
        for sa, sb in zip(a.shards, b.shards):
            np.testing.assert_array_equal(sa, sb)
        np.testing.assert_array_equal(a.train.features, b.train.features)

    def test_everything_has_the_configured_shape(self):
        cfg = tiny_config().resolved()
        env = build_environment(cfg)
        assert env.trace.shape == (6, 4)
        assert len(env.nodes) == 4
        assert sum(n.num_samples for n in env.nodes) == env.train.num_samples
        assert env.spec == model_spec_for(cfg)
        assert env.spec.num_classes == 3


class TestRunArtifacts:
    def test_writes_every_artifact_and_no_checkpoint(self, tmp_path):
        result = run_experiment(tiny_config(), tmp_path)
        for name in OUTPUT_FILES:
            assert (tmp_path / name).exists(), name
        assert not (tmp_path / CHECKPOINT_FILE).exists()
        assert not (tmp_path / CHECKPOINT_ROWS_FILE).exists()
        assert result.rounds_completed == 6
        assert result.summary["final_test_accuracy"] is not None

    def test_manifest_records_both_configs(self, tmp_path):
        cfg = tiny_config(variant="wo_mct")
        run_experiment(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["package"] == "pmfl"
        assert manifest["requested_config"]["contrastive_weight"] == 0.5
        assert manifest["resolved_config"]["contrastive_weight"] == 0.0
        assert manifest["outputs"] == list(OUTPUT_FILES)

    def test_metrics_rows_follow_eval_schedule(self, tmp_path):
        run_experiment(tiny_config(rounds=7, eval_every=3), tmp_path)
        rows = read_csv(tmp_path / "metrics.csv")
        assert rows[0][0] == "round"
        assert [r[0] for r in rows[1:]] == ["2", "5", "6"]  # final round always

    def test_weights_csv_has_one_row_per_round(self, tmp_path):
        run_experiment(tiny_config(), tmp_path)
        rows = read_csv(tmp_path / "weights.csv")
        assert rows[0] == ["round", "psi", "participants", "deviation"]
        assert len(rows) == 1 + 6
        assert [r[0] for r in rows[1:]] == [str(t) for t in range(6)]
        env = build_environment(tiny_config().resolved())
        assert [int(r[2]) for r in rows[1:]] == env.trace.sum(axis=1).tolist()

    def test_weight_columns_match_interval_oracle(self, tmp_path):
        cfg = tiny_config(rounds=30, mean_frequency=0.3, cutoff_interval=5)
        run_experiment(cfg, tmp_path)
        trace_rows = read_csv(tmp_path / "participation.csv")[1:]
        trace = np.array([[int(v) for v in r[1:]] for r in trace_rows])
        weights = node_weights(tmp_path)
        assert weights.shape == (30, cfg.num_nodes) and weights.dtype == np.float64
        for t, row in enumerate(weights):
            for k in range(cfg.num_nodes):
                want = expected_weight(trace[: t + 1, k], 5)
                assert row[k] == pytest.approx(want, rel=1e-12), (t, k)

    def test_psi_column_tracks_schedule(self, tmp_path):
        run_experiment(tiny_config(rounds=5), tmp_path)
        rows = read_csv(tmp_path / "weights.csv")[1:]
        psis = [float(r[1]) for r in rows]
        assert psis[0] == 0.5
        assert psis[-1] == 0.0
        assert all(a > b for a, b in zip(psis, psis[1:]))

    def test_model_bin_round_trips(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, tmp_path)
        meta = json.loads((tmp_path / "model_meta.json").read_text())
        flat = np.frombuffer((tmp_path / "model.bin").read_bytes(), dtype="<f8")
        assert flat.size == meta["count"]
        spec = model_spec_for(cfg.resolved())
        assert meta["input_dim"] == spec.input_dim
        assert tuple(meta["encoder_dims"]) == spec.encoder
        unflatten(spec, flat)  # shape-compatible by construction

    def test_partition_json_matches_dataset(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, tmp_path)
        doc = json.loads((tmp_path / "partition.json").read_text())
        env = build_environment(cfg.resolved())
        assert doc["num_nodes"] == 4
        assert sum(n["samples"] for n in doc["nodes"]) == env.train.num_samples

    def test_summary_contents(self, tmp_path):
        result = run_experiment(tiny_config(), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == result.summary
        assert summary["rounds_completed"] == 6
        assert summary["evaluated_round_count"] == 3  # t = 1, 3, 5
        assert 0.0 <= summary["final_test_accuracy"] <= 1.0
        assert summary["realized_mean_frequency"] == pytest.approx(0.6, abs=0.35)
        assert "num_nodes" not in summary  # results only, config lives in the manifest

    def test_cdf_csv_is_sorted_per_metric(self, tmp_path):
        run_experiment(tiny_config(), tmp_path)
        rows = read_csv(tmp_path / "cdf.csv")[1:]
        for metric in ("node_accuracy", "node_loss"):
            vals = [float(r[1]) for r in rows if r[0] == metric]
            assert vals == sorted(vals)
            fracs = [float(r[2]) for r in rows if r[0] == metric]
            assert fracs[-1] == 1.0

    def test_zero_rounds_run(self, tmp_path):
        cfg = tiny_config(rounds=0, global_buffer_size=0)
        result = run_experiment(cfg, tmp_path)
        assert result.rounds_completed == 0
        assert read_csv(tmp_path / "metrics.csv") == [
            ["round", "psi", "participants", "deviation", "train_accuracy",
             "train_loss", "test_accuracy", "test_loss"]
        ]
        flat = np.frombuffer((tmp_path / "model.bin").read_bytes(), dtype="<f8")
        spec = model_spec_for(cfg.resolved())
        want = flatten(init_params(spec, stream(cfg.seed, "init")))
        np.testing.assert_array_equal(flat, want)  # untouched initial model


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tiny_config(pattern="markovian")
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        grid = {"seed": [1, 2, 3]}  # more cells than workers
        run_sweep(tiny_config(workers=1), grid, tmp_path / "a")
        run_sweep(tiny_config(workers=2), grid, tmp_path / "b")
        assert_same_sweeps(tmp_path / "a", tmp_path / "b")

    def test_wo_mct_is_pmfl_with_contrastive_knobs_off(self, tmp_path):
        run_experiment(tiny_config(variant="wo_mct"), tmp_path / "a")
        run_experiment(
            tiny_config(variant="pmfl", contrastive_weight=0.0, local_buffer_size=0),
            tmp_path / "b",
        )
        assert_same_outputs(tmp_path / "a", tmp_path / "b", exclude=("manifest.json",))

    def test_full_attendance_reduces_to_uniform_average(self, tmp_path):
        knobs = dict(
            contrastive_weight=0.0,
            local_buffer_size=0,
            global_buffer_size=0,
            cutoff_interval=None,
            mean_frequency=1.0,
            frequency_mode="uniform",
        )
        run_experiment(tiny_config(variant="pmfl", **knobs), tmp_path / "a")
        run_experiment(tiny_config(variant="uniform_average", **knobs), tmp_path / "b")
        assert_same_outputs(tmp_path / "a", tmp_path / "b", exclude=("manifest.json",))

    def test_variants_actually_differ(self, tmp_path):
        run_experiment(tiny_config(variant="pmfl"), tmp_path / "a")
        run_experiment(tiny_config(variant="wo_mct"), tmp_path / "b")
        a = (tmp_path / "a" / "model.bin").read_bytes()
        b = (tmp_path / "b" / "model.bin").read_bytes()
        assert a != b


class TestCheckpointing:
    def _interrupt_at(self, monkeypatch, round_idx):
        real = harness.update_weights
        calls = {"n": 0}

        def wrapper(state, indicators):
            if calls["n"] == round_idx:
                raise RuntimeError("injected failure")
            calls["n"] += 1
            return real(state, indicators)

        monkeypatch.setattr(harness, "update_weights", wrapper)

    def test_resume_after_interruption_matches_uninterrupted(self, tmp_path, monkeypatch):
        cfg = tiny_config(checkpoint_every=2)
        self._interrupt_at(monkeypatch, 4)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "b" / CHECKPOINT_FILE).exists()
        monkeypatch.undo()

        result = resume_run(tmp_path / "b")
        assert result.rounds_completed == 6
        assert not (tmp_path / "b" / CHECKPOINT_FILE).exists()

        run_experiment(tiny_config(), tmp_path / "a")
        assert_same_outputs(tmp_path / "a", tmp_path / "b", exclude=("manifest.json",))

    def test_failure_without_periodic_checkpoint_writes_snapshot(self, tmp_path, monkeypatch):
        self._interrupt_at(monkeypatch, 2)
        with pytest.raises(RuntimeError):
            run_experiment(tiny_config(), tmp_path)
        assert (tmp_path / CHECKPOINT_FILE).exists()
        assert (tmp_path / CHECKPOINT_ROWS_FILE).exists()
        rows = json.loads((tmp_path / CHECKPOINT_ROWS_FILE).read_text())["rows"]
        assert len(rows) == 2  # rounds 0 and 1 completed

    def test_crash_checkpoint_is_the_last_completed_round(self, tmp_path, monkeypatch):
        cfg = tiny_config(checkpoint_every=2)
        self._interrupt_at(monkeypatch, 3)
        with pytest.raises(RuntimeError):
            run_experiment(cfg, tmp_path)
        data = np.load(tmp_path / CHECKPOINT_FILE)
        # newer than the periodic checkpoint of round 2, older than the crash
        assert int(data["next_round"]) == 3
        rows = json.loads((tmp_path / CHECKPOINT_ROWS_FILE).read_text())["rows"]
        assert len(rows) == 3

    def _fail_in_local_train(self, monkeypatch, round_idx, participant, exc):
        real = harness.local_train
        seen = []

        def wrapper(node, global_params, cfg, t, *args):
            if t == round_idx:
                seen.append(node.node_id)
                if len(seen) == participant:
                    raise exc
            return real(node, global_params, cfg, t, *args)

        monkeypatch.setattr(harness, "local_train", wrapper)

    def _resume_matches_uninterrupted(self, tmp_path, monkeypatch, cfg):
        monkeypatch.undo()
        resume_run(tmp_path / "b")
        run_experiment(cfg, tmp_path / "a")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    def test_crash_inside_local_training_resumes_to_the_same_bytes(
        self, tmp_path, monkeypatch
    ):
        # the second participant of round 3 fails after the first one has
        # trained and pushed snapshots into its buffer
        cfg = tiny_config(local_iterations=3, local_buffer_size=4)
        self._fail_in_local_train(monkeypatch, 3, 2, RuntimeError("injected failure"))
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg, tmp_path / "b")
        assert int(np.load(tmp_path / "b" / CHECKPOINT_FILE)["next_round"]) == 3
        self._resume_matches_uninterrupted(tmp_path, monkeypatch, cfg)

    def test_crash_in_evaluation_after_aggregation_resumes_to_the_same_bytes(
        self, tmp_path, monkeypatch
    ):
        cfg = tiny_config(local_iterations=3, local_buffer_size=4)
        real = harness.evaluate
        calls = {"n": 0}

        def wrapper(*args):
            calls["n"] += 1
            if calls["n"] == 3:  # train split of round 3, the second evaluated one
                raise RuntimeError("injected failure")
            return real(*args)

        monkeypatch.setattr(harness, "evaluate", wrapper)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg, tmp_path / "b")
        assert int(np.load(tmp_path / "b" / CHECKPOINT_FILE)["next_round"]) == 3
        self._resume_matches_uninterrupted(tmp_path, monkeypatch, cfg)

    def test_keyboard_interrupt_leaves_a_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_config(local_iterations=3, local_buffer_size=4)
        self._fail_in_local_train(monkeypatch, 2, 1, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg, tmp_path / "b")
        assert int(np.load(tmp_path / "b" / CHECKPOINT_FILE)["next_round"]) == 2
        self._resume_matches_uninterrupted(tmp_path, monkeypatch, cfg)

    def test_sigterm_leaves_a_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_config(local_iterations=3, local_buffer_size=4)
        real = harness.local_train

        def wrapper(node, global_params, cfg, t, *args):
            if t == 3:
                os.kill(os.getpid(), signal.SIGTERM)
            return real(node, global_params, cfg, t, *args)

        monkeypatch.setattr(harness, "local_train", wrapper)
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(SystemExit) as exc:
            run_experiment(cfg, tmp_path / "b")
        assert exc.value.code == 128 + signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) == before
        assert int(np.load(tmp_path / "b" / CHECKPOINT_FILE)["next_round"]) == 3
        self._resume_matches_uninterrupted(tmp_path, monkeypatch, cfg)

    @pytest.mark.parametrize(
        "writer, exc",
        [
            ("_write_metrics_csv", RuntimeError("injected failure")),
            ("_write_weights_csv", RuntimeError("injected failure")),
            ("_write_cdf_csv", KeyboardInterrupt()),
            ("_write_model", OSError("disk full")),
        ],
    )
    def test_failed_end_of_run_write_leaves_the_last_round(
        self, tmp_path, monkeypatch, writer, exc
    ):
        # no periodic checkpoint, so the failure has to leave one
        cfg = tiny_config()

        def fail(*args):
            raise exc

        monkeypatch.setattr(harness, writer, fail)
        with pytest.raises(type(exc)):
            run_experiment(cfg, tmp_path / "b")
        data = np.load(tmp_path / "b" / CHECKPOINT_FILE)
        assert int(data["next_round"]) == cfg.rounds
        rows = json.loads((tmp_path / "b" / CHECKPOINT_ROWS_FILE).read_text())["rows"]
        assert len(rows) == cfg.rounds
        self._resume_matches_uninterrupted(tmp_path, monkeypatch, cfg)

    def test_windows_are_one_array_in_the_npz(self, tmp_path, monkeypatch):
        cfg = tiny_config(local_iterations=3, local_buffer_size=4)
        self._fail_in_local_train(monkeypatch, 3, 1, RuntimeError("injected failure"))
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg, tmp_path / "b")
        data = np.load(tmp_path / "b" / CHECKPOINT_FILE)
        assert sorted(data.files) == sorted(SAVED_ARRAYS)
        # every node's window after round 2, in node order, with no lengths saved
        monkeypatch.undo()
        run = harness.Run(cfg, tmp_path / "stepped")
        _step(run, 3)
        assert 0 < len(data["buffers"]) <= 4 * cfg.num_nodes
        np.testing.assert_array_equal(data["buffers"], np.concatenate(run.windows))
        self._resume_matches_uninterrupted(tmp_path, monkeypatch, cfg)

        # the cached rule's last updates are saved too
        self._interrupt_at(monkeypatch, 4)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(tiny_config(variant="cached_update"), tmp_path / "c")
        data = np.load(tmp_path / "c" / CHECKPOINT_FILE)
        assert sorted(data.files) == sorted([*SAVED_ARRAYS, "cached_updates"])

    def test_periodic_checkpoint_saves_no_weights(self, tmp_path, monkeypatch):
        for variant in ("pmfl", "cached_update"):
            self._assert_checkpoints_hold_the_format(tmp_path / variant, monkeypatch, variant)

    def _assert_checkpoints_hold_the_format(self, tmp_path, monkeypatch, variant):
        cfg = tiny_config(checkpoint_every=2, variant=variant)
        real = harness._save_checkpoint
        kept = []

        def wrapper(out_dir, arrays, rows):
            real(out_dir, arrays, rows)
            next_round = int(arrays["next_round"])
            snapshot = tmp_path / f"checkpoint_{next_round}"
            snapshot.mkdir(parents=True)
            for name in (CHECKPOINT_FILE, CHECKPOINT_ROWS_FILE):
                shutil.copy(out_dir / name, snapshot / name)
            kept.append((next_round, snapshot))

        monkeypatch.setattr(harness, "_save_checkpoint", wrapper)
        run_experiment(cfg, tmp_path / "run")
        # and the failure checkpoint of a run stopped before its first round
        _stopped_run(cfg, tmp_path / "stopped", 0)
        monkeypatch.undo()

        assert [next_round for next_round, _ in kept] == [2, 4, 0]
        for next_round, snapshot in kept:
            text = (snapshot / CHECKPOINT_ROWS_FILE).read_text()
            rows = json.loads(text, parse_constant=_refuse)["rows"]
            # one compact line with sorted keys, the form json's C encoder writes
            assert text == json.dumps({"rows": rows}, sort_keys=True) + "\n"
            if rows:
                assert rows[-1]["train_loss"] is not None and rows[0]["train_loss"] is None
            # one row per round, of the five measured values alone
            assert len(rows) == next_round
            assert all(sorted(r) == ROW_FIELDS for r in rows)
            # exactly the format's arrays and its stamp; the cached rule keeps
            # its updates from its first round on
            with np.load(snapshot / CHECKPOINT_FILE) as data:
                cached = ["cached_updates"] if variant == "cached_update" and next_round else []
                assert sorted(data.files) == sorted([*SAVED_ARRAYS, *cached])
                assert data["format"].shape == () and data["format"] == harness.CHECKPOINT_FORMAT
            # the resume replays the weights of the rounds before it
            shutil.copy(tmp_path / "run" / "manifest.json", snapshot)
            resume_run(snapshot)
            assert_same_outputs(tmp_path / "run", snapshot)

    def test_update_weights_runs_once_per_played_round(self, tmp_path, monkeypatch):
        # the benchmark and the kill-anywhere test count the harness's calls;
        # the replays call server.update_weights under its own name
        cfg = tiny_config(checkpoint_every=2)
        self._interrupt_at(monkeypatch, 4)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg, tmp_path / "b")
        monkeypatch.undo()

        def calls_during(run):
            calls = {harness: 0, server: 0}
            for module in calls:
                def wrapper(state, indicators, _module=module, _real=module.update_weights):
                    calls[_module] += 1
                    return _real(state, indicators)
                monkeypatch.setattr(module, "update_weights", wrapper)
            run()
            monkeypatch.undo()
            return calls[harness], calls[server]

        # a run replays nothing
        assert calls_during(lambda: run_experiment(cfg, tmp_path / "a")) == (6, 0)
        # a resume from round 4 replays the 4 rounds before it
        assert calls_during(lambda: resume_run(tmp_path / "b")) == (6 - 4, 4)
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    # the rows of a tiny run stopped in round 4, edited
    ROW_EDITS = {
        "drop_json_row": lambda rows: rows.pop(),
        "string_loss": lambda rows: rows[1].update(train_loss="0.3"),
        # rows hold no psi: the trace gives it
        "string_psi": lambda rows: rows[2].update(psi="0.3"),
        "missing_key": lambda rows: (rows[1].pop("deviation"), rows[1].pop("train_loss")),
    }

    @pytest.mark.parametrize("edit", list(ROW_EDITS))
    def test_checkpoint_pair_that_disagrees_is_refused(
        self, tmp_path, monkeypatch, edit
    ):
        cfg = tiny_config(checkpoint_every=2)
        self._interrupt_at(monkeypatch, 4)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg, tmp_path)
        monkeypatch.undo()
        path = tmp_path / CHECKPOINT_ROWS_FILE
        doc = json.loads(path.read_text())
        self.ROW_EDITS[edit](doc["rows"])
        path.write_text(json.dumps(doc))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        with pytest.raises(ValueError, match="is damaged") as exc:
            resume_run(tmp_path)
        assert str(path) in str(exc.value)
        # a row without exactly RoundMetrics' fields is refused before it meets the npz
        assert {"missing_key": "missing 2 required positional arguments",
                "string_psi": "unexpected keyword argument 'psi'"}.get(
                    edit, CHECKPOINT_FILE) in str(exc.value)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_checkpoint_with_a_last_participation_array_is_refused(
        self, tmp_path, monkeypatch
    ):
        # checkpoints used to carry each node's last attended round; the
        # format defines no such array
        cfg = tiny_config(checkpoint_every=2)
        self._interrupt_at(monkeypatch, 4)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg, tmp_path / "b")
        monkeypatch.undo()
        path = tmp_path / "b" / CHECKPOINT_FILE
        arrays = dict(np.load(path))
        arrays["last_participation"] = np.full(cfg.num_nodes, -1, dtype=np.int64)
        np.savez(path, **arrays)
        kept = {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}

        with pytest.raises(ValueError, match="last_participation"):
            resume_run(tmp_path / "b")
        assert {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()} == kept

    def test_resume_without_checkpoint_fails(self, tmp_path):
        run_experiment(tiny_config(), tmp_path)
        with pytest.raises(FileNotFoundError):
            resume_run(tmp_path)

    def test_periodic_checkpoints_are_cleaned_up_on_success(self, tmp_path):
        run_experiment(tiny_config(checkpoint_every=2), tmp_path)
        assert not (tmp_path / CHECKPOINT_FILE).exists()
        assert not (tmp_path / CHECKPOINT_ROWS_FILE).exists()
        # and no temporary file of any write is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(OUTPUT_FILES)


def _step(run, count):
    """Play the next ``count`` rounds of a :class:`harness.Run` as
    ``run_experiment`` does."""
    for _ in range(count):
        trained = [harness.local_train(*job) for job in run.jobs()]
        run.finish_round(np.array([u for u, _ in trained]), [w for _, w in trained])


def _state_bits(state) -> dict:
    """The bytes of every array of a run's server state, and its round."""
    arrays = {"rounds_waiting": state.rounds_waiting, "event_counts": state.event_counts,
              "weights": state.weights, "cached_updates": state.cached_updates,
              "history": state.history.rows, "global_model": state.global_model.vector}
    return {"round_idx": state.round_idx,
            **{name: None if a is None else a.tobytes() for name, a in arrays.items()}}


def _stopped_run(cfg, out_dir, rounds):
    """A run of ``cfg`` stopped with its failure checkpoint after ``rounds``."""
    run = harness.Run(cfg, out_dir)
    _step(run, rounds)
    run.fail()


class TestRun:
    """Runs stepped from outside ``run_experiment``, and the failures of their
    opening."""

    def test_interleaved_runs_write_their_solo_bytes(self, tmp_path):
        # one round of each in turn, in one process; any state kept outside a
        # Run would carry over from one config into the other
        cfgs = {
            "a": tiny_config(checkpoint_every=2),
            "b": tiny_config(variant="cached_update", seed=3, local_buffer_size=3, rounds=5),
        }
        runs = {name: harness.Run(cfg, tmp_path / name) for name, cfg in cfgs.items()}
        while not all(run.done for run in runs.values()):
            for run in runs.values():
                if not run.done:
                    _step(run, 1)
        for name, run in runs.items():
            assert run.close().rounds_completed == cfgs[name].rounds
            run_experiment(cfgs[name], tmp_path / f"solo_{name}")
            assert_same_outputs(tmp_path / f"solo_{name}", tmp_path / name)
            assert sorted(p.name for p in (tmp_path / name).iterdir()) == sorted(OUTPUT_FILES)

    def test_close_before_the_last_round_is_refused_and_writes_nothing(self, tmp_path):
        cfg = tiny_config()
        run = harness.Run(cfg, tmp_path / "b")
        _step(run, 2)
        with pytest.raises(ValueError, match="played 2 of 6 rounds"):
            run.close()
        written = {p.name for p in (tmp_path / "b").iterdir()}
        assert not {"metrics.csv", "weights.csv", "summary.json"} & written
        _step(run, cfg.rounds - 2)
        run.close()
        run_experiment(cfg, tmp_path / "a")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    def test_jobs_after_the_last_round_are_refused_and_change_nothing(self, tmp_path):
        cfg = tiny_config()
        run = harness.Run(cfg, tmp_path / "b")
        _step(run, cfg.rounds)
        assert run.done
        with pytest.raises(ValueError, match="played all 6 rounds"):
            run.jobs()
        assert run.done and len(run.rows) == cfg.rounds
        run.close()
        run_experiment(cfg, tmp_path / "a")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    def test_a_round_whose_jobs_run_again_ends_with_the_solo_bytes(self, tmp_path):
        # a caller interrupted after one of round 2's jobs asks for them again
        cfg = tiny_config(num_nodes=6, rounds=8)
        run = harness.Run(cfg, tmp_path / "b")
        _step(run, 2)
        jobs = run.jobs()
        assert len(jobs) == 2
        harness.local_train(*jobs[0])
        _step(run, cfg.rounds - 2)
        run.close()
        run_experiment(cfg, tmp_path / "a")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    def test_a_failed_round_changes_no_window_and_no_state(self, tmp_path, monkeypatch):
        cfg = tiny_config(local_iterations=3, local_buffer_size=4)
        run = harness.Run(cfg, tmp_path / "b")
        _step(run, 3)
        windows, state, bits = run.windows, run.state, _state_bits(run.state)
        kept = [w.copy() for w in windows]
        real_job, real_round = harness.local_train, harness._play_round
        count = len(run.jobs())
        assert count >= 2

        def fail(*args):
            raise RuntimeError("injected failure")

        for failing in range(count):  # each job in turn, the others run
            jobs = iter(range(count))
            monkeypatch.setattr(harness, "local_train", lambda *args: (
                fail if next(jobs) == failing else real_job)(*args))
            with pytest.raises(RuntimeError, match="injected"):
                _step(run, 1)
        monkeypatch.undo()
        # the server half that fails after it has run through
        monkeypatch.setattr(harness, "_play_round", lambda *args: fail(real_round(*args)))
        with pytest.raises(RuntimeError, match="injected"):
            _step(run, 1)
        monkeypatch.undo()
        assert run.windows is windows and run.state is state
        assert _state_bits(state) == bits
        for window, before in zip(windows, kept):
            np.testing.assert_array_equal(window, before)
        run.fail()
        resume_run(tmp_path / "b")
        run_experiment(cfg, tmp_path / "a")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    @pytest.mark.parametrize("variant", ["pmfl", "cached_update"])
    def test_a_round_that_fails_after_aggregation_leaves_the_run_as_it_was(
            self, tmp_path, monkeypatch, variant):
        # evaluation raises after the weight update and the aggregation have
        # played round 3 on the run's copy of its state
        cfg = tiny_config(local_iterations=3, local_buffer_size=4, variant=variant)
        run = harness.Run(cfg, tmp_path / "b")
        _step(run, 3)
        state, bits = run.state, _state_bits(run.state)

        def fail(*args):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(harness, "evaluate", fail)
        with pytest.raises(RuntimeError, match="injected"):
            _step(run, 1)
        monkeypatch.undo()
        assert run.state is state and state.round_idx == 3 and len(run.rows) == 3
        assert _state_bits(state) == bits and not run.done
        run.fail()
        assert int(np.load(tmp_path / "b" / CHECKPOINT_FILE)["next_round"]) == 3
        shutil.copytree(tmp_path / "b", tmp_path / "c")
        _step(run, cfg.rounds - 3)  # stepping on, and a resume, end with the solo bytes
        run.close()
        resume_run(tmp_path / "c")
        run_experiment(cfg, tmp_path / "a")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")
        assert_same_outputs(tmp_path / "a", tmp_path / "c")

    def test_finish_round_refuses_results_that_do_not_fit_the_round(self, tmp_path):
        run = harness.Run(tiny_config(), tmp_path / "b")
        trained = [harness.local_train(*job) for job in run.jobs()]
        updates, windows = np.array([u for u, _ in trained]), [w for _, w in trained]
        assert updates.shape[0] == 2 and len(windows[0])
        narrow = windows[0].astype(np.float32)
        narrow.flags.writeable = False
        for bad in [(updates[1:], windows), (updates, windows[1:]),
                    (updates.T.copy(), windows), (updates.ravel(), windows),  # rows scrambled
                    (updates.astype(np.float32), windows), (updates.tolist(), windows),
                    (updates, [windows[0].copy(), *windows[1:]]),  # writable
                    (updates, [windows[0][1:], *windows[1:]]),
                    (updates, [narrow, *windows[1:]])]:
            with pytest.raises(ValueError):
                run.finish_round(*bad)
        assert run.state.round_idx == 0 and not run.rows
        run.finish_round(updates, windows)
        _step(run, 5)
        run.close()
        run_experiment(tiny_config(), tmp_path / "a")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    def test_a_resume_takes_no_config_but_its_manifest(self, tmp_path):
        cfg = tiny_config(checkpoint_every=2)
        _stopped_run(cfg, tmp_path / "b", 3)
        kept = {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
        with pytest.raises(TypeError):
            run_experiment(tiny_config(checkpoint_every=2, local_lr=0.5), tmp_path / "b",
                           resume=True)
        assert {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()} == kept
        resume_run(tmp_path / "b")
        run_experiment(cfg, tmp_path / "a")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    @pytest.mark.parametrize("earlier", ["finished", "stopped"])
    def test_a_fresh_run_clears_the_earlier_run_in_its_directory(self, tmp_path, earlier):
        if earlier == "finished":
            run_experiment(tiny_config(checkpoint_every=2), tmp_path)
        else:
            _stopped_run(tiny_config(checkpoint_every=2), tmp_path, 3)
        run = harness.Run(tiny_config(checkpoint_every=2, local_lr=0.5), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "participation.csv", "partition.json"]
        # killed before its first checkpoint: nothing of the earlier run resumes
        _step(run, 1)
        with pytest.raises(FileNotFoundError, match="no checkpoint"):
            resume_run(tmp_path)

    def test_failed_set_up_of_a_resume_keeps_the_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_config(checkpoint_every=2)
        _stopped_run(cfg, tmp_path / "b", 3)
        pair = {name: (tmp_path / "b" / name).read_bytes()
                for name in (CHECKPOINT_FILE, CHECKPOINT_ROWS_FILE)}

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(harness, "export_trace_csv", fail)
        with pytest.raises(OSError, match="disk full"):
            resume_run(tmp_path / "b")
        monkeypatch.undo()
        for name, content in pair.items():
            assert (tmp_path / "b" / name).read_bytes() == content, name
        resume_run(tmp_path / "b")
        run_experiment(cfg, tmp_path / "a")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    @pytest.mark.parametrize("writer", ["_write_json", "export_trace_csv"])
    def test_failed_set_up_write_of_a_fresh_run_leaves_no_checkpoint(
        self, tmp_path, monkeypatch, writer
    ):
        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(harness, writer, fail)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(tiny_config(checkpoint_every=2), tmp_path)
        assert not {CHECKPOINT_FILE, CHECKPOINT_ROWS_FILE} & {p.name for p in tmp_path.iterdir()}


# each writes part of its output, then meets a value it cannot format
_BAD_ROWS = [
    RoundMetrics(0.5, 1.0, 0.1, None, None),
    RoundMetrics("not a number", 1.0, 0.1, None, None),
]
_TRACE = np.array([[1, 0], [1, 1]])
FAILING_WRITES = {
    "summary.json": lambda p: harness._write_json(p, {"a": 1.0, "b": float("nan")}),
    "metrics.csv": lambda p: harness._write_metrics_csv(p, _TRACE, _BAD_ROWS),
    "weights.csv": lambda p: harness._write_weights_csv(p, _TRACE, _BAD_ROWS),
    "cdf.csv": lambda p: harness._write_cdf_csv(p, np.array([[0.5, 1.0]]), [("x", 1.0)]),
    "participation.csv": lambda p: export_trace_csv(np.array([[0, 1], [1, np.nan]]), p),
}


class TestAtomicWrites:
    """A write that fails part way leaves the previous file as it was and no
    partial file beside it."""

    @pytest.mark.parametrize("name", sorted(FAILING_WRITES))
    def test_failed_artifact_write_keeps_the_previous_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("previous\n")
        with pytest.raises(ValueError):
            FAILING_WRITES[name](path)
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_interrupted_binary_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"previous")
        with pytest.raises(KeyboardInterrupt):
            with atomic_open(path, "wb") as fh:
                fh.write(b"partial")
                raise KeyboardInterrupt
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    def test_a_row_that_cannot_be_encoded_keeps_the_previous_pair(self, tmp_path, monkeypatch):
        # neither the periodic checkpoint of round 4 nor the failure checkpoint
        # after it replaces the pair of round 2
        real = harness._play_round

        def play(env, state, updates):
            t = state.round_idx
            row = real(env, state, updates)
            if t == 2:
                row.deviation = float("nan")
            return row

        monkeypatch.setattr(harness, "_play_round", play)
        with pytest.raises(ValueError, match="JSON compliant"):
            run_experiment(tiny_config(checkpoint_every=2), tmp_path / "b")
        monkeypatch.undo()
        assert int(np.load(tmp_path / "b" / CHECKPOINT_FILE)["next_round"]) == 2
        resume_run(tmp_path / "b")
        run_experiment(tiny_config(checkpoint_every=2), tmp_path / "a")
        assert_same_outputs(tmp_path / "a", tmp_path / "b")

    def test_a_failed_failure_checkpoint_keeps_the_error_and_the_previous_pair(
        self, tmp_path, monkeypatch, caplog
    ):
        cfg, run_dir = tiny_config(checkpoint_every=2), tmp_path / "b"
        real = harness.update_weights
        pair = {}

        def fail_write(path, rows):
            raise OSError("disk full")

        def update_weights(state, indicators):
            if state.round_idx == 3:  # the pair of round 2 is written
                for name in (CHECKPOINT_FILE, CHECKPOINT_ROWS_FILE):
                    pair[name] = (run_dir / name).read_bytes()
                monkeypatch.setattr(harness, "_write_checkpoint_rows", fail_write)
                raise RuntimeError("injected failure")
            return real(state, indicators)

        monkeypatch.setattr(harness, "update_weights", update_weights)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg, run_dir)
        assert "disk full" in caplog.text
        # with no exception in flight, the failed write is the error
        run = harness.Run(cfg, tmp_path / "c")
        with pytest.raises(OSError, match="disk full"):
            run.fail()
        monkeypatch.undo()
        for name, content in pair.items():
            assert (run_dir / name).read_bytes() == content, name
        resume_run(run_dir)
        run_experiment(cfg, tmp_path / "a")
        assert_same_outputs(tmp_path / "a", run_dir)

    def test_failed_checkpoint_keeps_the_previous_pair(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "b"
        real = np.savez
        pair = {}

        def savez(fh, **arrays):
            if int(arrays["next_round"]) == 2:
                return real(fh, **arrays)
            # every later checkpoint, the failure checkpoint too, fails part way
            for name in (CHECKPOINT_FILE, CHECKPOINT_ROWS_FILE):
                pair.setdefault(name, (run_dir / name).read_bytes())
            fh.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(tiny_config(checkpoint_every=2), run_dir)
        monkeypatch.undo()
        for name, content in pair.items():
            assert (run_dir / name).read_bytes() == content, name
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(
            [CHECKPOINT_FILE, CHECKPOINT_ROWS_FILE, "manifest.json",
             "partition.json", "participation.csv"]
        )
        assert int(np.load(run_dir / CHECKPOINT_FILE)["next_round"]) == 2

        resume_run(run_dir)
        run_experiment(tiny_config(), tmp_path / "a")
        assert_same_outputs(tmp_path / "a", run_dir, exclude=("manifest.json",))


class TestAtomicWritesOutsideRuns:
    """Config files and datasets are written whole or not at all, too."""

    def _keeps_previous(self, path, write, exc=ValueError):
        path.write_text("previous\n")
        before = sorted(p.name for p in path.parent.iterdir())
        with pytest.raises(exc):
            write()
        assert path.read_text() == "previous\n"
        assert sorted(p.name for p in path.parent.iterdir()) == before

    def test_failed_config_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "config.json"
        # local_lr sorts after other keys, so part of the file is out first
        cfg = tiny_config(local_lr=float("nan"))
        self._keeps_previous(path, lambda: save_config(cfg, path))

    def test_failed_csv_export_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "train.csv"
        rows = SimpleNamespace(features=[[1.0, 2.0], [3.0, "x"]], labels=[0, 1])
        self._keeps_previous(path, lambda: export_csv(rows, path))

    def test_failed_dataset_meta_write_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        def dump(payload, fh, **kwargs):
            fh.write('{"partial": ')
            raise OSError("disk full")

        args = ["synth-data", "--out", str(tmp_path), "--num-classes", "2",
                "--input-dim", "2", "--samples-per-class", "5"]
        cli_main(args)  # the CSVs are there before and after the failed write
        monkeypatch.setattr(json, "dump", dump)
        self._keeps_previous(tmp_path / "dataset_meta.json", lambda: cli_main(args), OSError)


class TestDivergence:
    # default config: tiny_config stays finite for its few rounds
    @pytest.mark.parametrize(
        "overrides, round_idx",
        [({"aggregation_mode": "literal"}, 6), ({"local_lr": 50.0}, 1)],
    )
    def test_non_finite_global_model_stops_the_run(self, tmp_path, overrides, round_idx):
        cfg = ExperimentConfig(rounds=60, **overrides)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            run_experiment(cfg, tmp_path)
        assert exc.value.round_idx == round_idx
        assert f"round {round_idx}" in str(exc.value)
        assert not (tmp_path / "summary.json").exists()
        # the failure checkpoint is the last finite round, not the diverged one
        data = np.load(tmp_path / CHECKPOINT_FILE)
        assert int(data["next_round"]) == round_idx
        for name in data.files:
            assert np.isfinite(data[name]).all(), name

    def test_a_non_finite_row_stops_the_run_with_a_checkpoint_that_resumes(self, tmp_path):
        # round 18's losses are NaN while its global model is still finite
        cfg = ExperimentConfig(
            num_nodes=8, rounds=40, local_lr=0.1, aggregation_mode="literal", eval_every=1,
            dataset_samples_per_class=40, encoder_dims=(16,), projection_dims=(8,),
            checkpoint_every=5,
        )
        for play in (run_experiment, lambda cfg, out_dir: resume_run(out_dir)):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
                play(cfg, tmp_path)
            assert exc.value.round_idx == 18
            assert str(exc.value).startswith("train_loss became non-finite at round 18")
            assert int(np.load(tmp_path / CHECKPOINT_FILE)["next_round"]) == 18
            rows = json.loads((tmp_path / CHECKPOINT_ROWS_FILE).read_text(),
                              parse_constant=_refuse)["rows"]
            assert len(rows) == 18


def _fresh_blas_env(script: str, preset: dict) -> dict:
    """Run ``script`` in a fresh interpreter whose environment sets only the
    BLAS counts in ``preset``; the script prints them as a JSON object."""
    env = {k: v for k, v in os.environ.items() if k not in pmfl.BLAS_THREAD_VARS}
    src = str(Path(pmfl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env={**env, **preset},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return json.loads(out)


class TestBlasPin:
    @pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
    def test_importing_pmfl_pins_one_blas_thread_unless_set(self, preset):
        script = (
            "import json, os, pmfl; "
            "print(json.dumps({n: os.environ.get(n) for n in pmfl.BLAS_THREAD_VARS}))"
        )
        want = dict.fromkeys(pmfl.BLAS_THREAD_VARS, "1") | preset
        assert _fresh_blas_env(script, preset) == want


class TestSweep:
    def test_importing_pmfl_loads_no_process_pool(self):
        # run_sweep imports them when it starts its pool
        script = (
            "import json, sys, pmfl, pmfl.cli\n"
            "pool = ('multiprocessing', 'concurrent.futures.process')\n"
            "print(json.dumps({name: name in sys.modules for name in pool}))\n"
        )
        assert _fresh_blas_env(script, {}) == {
            "multiprocessing": False,
            "concurrent.futures.process": False,
        }

    def test_cells_start_with_one_blas_thread_unless_set(self):
        # run_sweep's spawn pool starts after ``import pmfl`` set the pin,
        # so every cell inherits it; a count set beforehand wins
        script = (
            "import json, multiprocessing, os, pmfl\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "spawn = multiprocessing.get_context('spawn')\n"
            "with ProcessPoolExecutor(1, mp_context=spawn) as pool:\n"
            "    seen = list(pool.map(os.getenv, pmfl.BLAS_THREAD_VARS))\n"
            "print(json.dumps(dict(zip(pmfl.BLAS_THREAD_VARS, seen))))\n"
        )
        assert _fresh_blas_env(script, {"OMP_NUM_THREADS": "3"}) == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "3",
            "MKL_NUM_THREADS": "1",
        }

    def test_single_cell_matches_direct_run(self, tmp_path):
        base = tiny_config()
        rows = run_sweep(base, {"seed": [5]}, tmp_path / "sweep")
        assert len(rows) == 1 and rows[0]["status"] == "ok"
        cell_dir = tmp_path / "sweep" / "cell_000__seed=5"
        assert cell_dir.is_dir()
        run_experiment(dataclasses.replace(base, seed=5), tmp_path / "direct")
        assert_same_outputs(cell_dir, tmp_path / "direct")

    def test_stale_summary_temporaries_are_removed(self, tmp_path):
        # a sweep killed while writing its summary leaves its temporary file
        stale = tmp_path / ".sweep_summary.csv.123.deadbeef.tmp"
        other = tmp_path / ".notes.txt.123.deadbeef.tmp"
        for path in (stale, other):
            path.write_text("partial")
        run_sweep(tiny_config(rounds=2), {"seed": [1]}, tmp_path)
        assert not stale.exists()
        assert other.exists()  # not a sweep output: left alone
        assert (tmp_path / "sweep_summary.csv").exists()

    def test_cells_fail_independently(self, tmp_path):
        rows = run_sweep(
            tiny_config(), {"variant": ["pmfl", "not_a_variant"]}, tmp_path
        )
        by_variant = {r["variant"]: r for r in rows}
        assert by_variant["pmfl"]["status"] == "ok"
        assert by_variant["not_a_variant"]["status"] == "error"
        assert "ValueError" in by_variant["not_a_variant"]["error"]
        table = read_csv(tmp_path / "sweep_summary.csv")
        assert len(table) == 3
        assert table[0][:3] == ["cell", "variant", "status"]

    def test_grid_order_is_sorted_and_stable(self, tmp_path):
        grid = {"seed": [1, 2], "contrastive_weight": [0.0, 0.5]}
        rows = run_sweep(tiny_config(rounds=2, eval_every=1), grid, tmp_path)
        combos = [(r["contrastive_weight"], r["seed"]) for r in rows]
        assert combos == [(0.0, 1), (0.0, 2), (0.5, 1), (0.5, 2)]
        names = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert names[0] == "cell_000__contrastive_weight=0.0__seed=1"
        assert names[3] == "cell_003__contrastive_weight=0.5__seed=2"

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="at least one field"):
            run_sweep(tiny_config(), {}, tmp_path)
        for name in ("nodez", "validate"):
            with pytest.raises(ValueError, match="unknown config field"):
                run_sweep(tiny_config(), {name: [1]}, tmp_path)
        with pytest.raises(ValueError, match="no values"):
            run_sweep(tiny_config(), {"seed": []}, tmp_path)
        with pytest.raises(ValueError, match="workers is the sweep's pool size"):
            run_sweep(tiny_config(), {"workers": [1, 2]}, tmp_path)
