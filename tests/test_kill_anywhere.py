"""Stop a run anywhere, resume it, and get the bytes of an uninterrupted run.

A run is stopped at a random phase call in two ways.  An exception raised in
process (``KeyboardInterrupt`` and ``OSError`` among them) goes through the
harness's failure path, which writes the snapshot of the last completed
round.  SIGKILL of a child process runs no handler at all, so the resume
starts from the last periodic checkpoint, which the atomic replace keeps
whole.
"""
from __future__ import annotations

import multiprocessing
import os
import signal
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pmfl import atomic, harness
from pmfl.harness import (
    CHECKPOINT_FILE,
    CHECKPOINT_ROWS_FILE,
    OUTPUT_FILES,
    resume_run,
    run_experiment,
)

from test_harness import assert_same_outputs, tiny_config

# phases that are calls the round loop or the end-of-run phase makes; each
# stops right after the call, once it has changed what it changes
FUNCTIONS = ("local_train", "update_weights", "aggregate", "evaluate")
# phases that are file writes, besides the two checkpoint files; each stops
# after the bytes are out and before the file replaces its target
ARTIFACTS = ("metrics.csv", "weights.csv", "cdf.csv", "summary.json", "model.bin",
             "model_meta.json")
# case i stops in phase i % 12, at a random call of it
PHASES = (*FUNCTIONS, CHECKPOINT_FILE, CHECKPOINT_ROWS_FILE, *ARTIFACTS)
EXCEPTIONS = (RuntimeError("injected failure"), KeyboardInterrupt(), OSError("disk full"))
CASES = 25


def _config(case: int):
    # the variant alternates over whole sweeps of the phases, so that each
    # phase is stopped in runs of both variants
    variant = ("pmfl", "cached_update")[case // len(PHASES) % 2]
    return tiny_config(checkpoint_every=1, seed=case % 5, variant=variant)


def _install(setattr_, on_call) -> None:
    """Call ``on_call(phase)`` at the end of every phase of a run, and
    ``on_call("_play_round")`` at the end of every round."""
    for name in (*FUNCTIONS, "_play_round"):
        real = getattr(harness, name)

        def after(*args, _real=real, _name=name, **kwargs):
            result = _real(*args, **kwargs)
            on_call(_name)
            return result

        setattr_(harness, name, after)
    real_open = atomic.atomic_open

    @contextmanager
    def opened(path, *args, **kwargs):
        with real_open(path, *args, **kwargs) as fh:
            yield fh
            on_call(Path(path).name)

    setattr_(atomic, "atomic_open", opened)
    setattr_(harness, "atomic_open", opened)


def _stop_at(phase: str, nth: int, stop, calls: Counter):
    """An ``on_call`` that counts calls into ``calls`` and runs ``stop()`` at
    the ``nth`` call of ``phase``."""

    def on_call(name):
        calls[name] += 1
        if name == phase and calls[name] == nth + 1:
            stop()

    return on_call


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Uninterrupted run of a config: its directory and its phase call counts."""
    done = {}

    def get(cfg):
        key = (cfg.seed, cfg.variant)
        if key not in done:
            out_dir = tmp_path_factory.mktemp("straight")
            counts = Counter()
            with pytest.MonkeyPatch.context() as mp:
                _install(mp.setattr, lambda name: counts.update([name]))
                run_experiment(cfg, out_dir)
            done[key] = out_dir, counts
        return done[key]

    return get


def _assert_resumes_to(straight, run_dir):
    resume_run(run_dir)
    assert_same_outputs(straight, run_dir)
    # no checkpoint and no temporary file is left behind
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(OUTPUT_FILES)


@pytest.mark.parametrize("case", range(CASES))
def test_exception_anywhere_resumes_to_the_same_bytes(case, tmp_path, reference):
    cfg = _config(case)
    straight, counts = reference(cfg)
    rng = np.random.default_rng(case)
    phase = PHASES[case % len(PHASES)]
    nth = int(rng.integers(counts[phase]))
    exc = EXCEPTIONS[rng.integers(len(EXCEPTIONS))]

    def stop():
        raise exc

    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        _install(mp.setattr, _stop_at(phase, nth, stop, calls))
        with pytest.raises(type(exc)):
            run_experiment(cfg, tmp_path)
    # the checkpoint is the last round completed before the stop
    assert int(np.load(tmp_path / CHECKPOINT_FILE)["next_round"]) == calls["_play_round"]
    _assert_resumes_to(straight, tmp_path)


def _killed_run(cfg, out_dir, phase, nth):
    """Child process body: run ``cfg`` and SIGKILL itself at a phase call."""

    def kill():
        os.kill(os.getpid(), signal.SIGKILL)

    _install(setattr, _stop_at(phase, nth, kill, Counter()))
    run_experiment(cfg, out_dir)


# (phase, call index; negative counts from the end of the uninterrupted run);
# a kill inside the weights.csv write leaves its temporary file behind
@pytest.mark.parametrize(
    "phase, nth",
    [("update_weights", 2), ("aggregate", 4), ("local_train", -1), ("evaluate", -1),
     ("weights.csv", 0)],
)
def test_sigkill_at_a_phase_boundary_resumes_from_the_last_checkpoint(
    phase, nth, tmp_path, reference
):
    cfg = _config(0)
    straight, counts = reference(cfg)
    nth %= counts[phase]
    child = multiprocessing.get_context("spawn").Process(
        target=_killed_run, args=(cfg, tmp_path, phase, nth)
    )
    child.start()
    child.join(timeout=60)
    child.terminate()  # ends a child that hangs; a no-op once it has exited
    child.join()
    assert child.exitcode == -signal.SIGKILL
    assert (tmp_path / CHECKPOINT_FILE).exists()
    _assert_resumes_to(straight, tmp_path)
