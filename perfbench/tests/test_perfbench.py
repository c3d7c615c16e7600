"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import FirstCall, Tracer, high_percentile, ladder_percentile, self_times  # noqa: E402


def fake_clock(times):
    ticks = iter(times)
    return lambda: float(next(ticks))


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.open(tracer.name_id("root"))
    a = tracer.open(tracer.name_id("a"))
    g = tracer.open(tracer.name_id("g"))
    tracer.close(g)
    tracer.close(a)
    b = tracer.open(tracer.name_id("b"))
    tracer.close(b)
    tracer.close(root)
    arrays = tracer.arrays()
    duration = arrays["end"] - arrays["start"]
    assert list(arrays["parent"]) == [-1, root, a, root]
    assert list(duration) == [10, 3, 1, 4]
    assert list(self_times(arrays["parent"], duration)) == [3, 2, 1, 4]


def test_self_time_through_wrapped_calls():
    class Module:
        @staticmethod
        def outer():
            Module.inner()
            Module.inner()

        @staticmethod
        def inner():
            pass

    # outer opens at 0; inner spans are [1, 3] and [4, 7]; outer closes at 10
    tracer = Tracer(clock=fake_clock([0, 1, 3, 4, 7, 10]))
    tracer.wrap(Module, "inner", "inner")
    tracer.wrap(Module, "outer", "outer")
    Module.outer()
    tracer.restore()
    arrays = tracer.arrays()
    duration = arrays["end"] - arrays["start"]
    names = [arrays["names"][i] for i in arrays["name_id"]]
    assert names == ["outer", "inner", "inner"]
    assert list(self_times(arrays["parent"], duration)) == [5, 2, 3]


def test_spans_closed_out_of_order_are_refused():
    tracer = Tracer()
    first = tracer.open(tracer.name_id("a"))
    tracer.open(tracer.name_id("b"))
    with pytest.raises(RuntimeError):
        tracer.close(first)


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (19, None), (20, 50), (39, 50), (40, 75), (100, 90), (199, 90),
     (200, 95), (999, 95), (1000, 99), (10000, 99.9), (100000, 99.99)],
)
def test_ladder_percentile_keeps_ten_samples_beyond(count, expected):
    assert ladder_percentile(count) == expected


@pytest.mark.parametrize("count", [20, 21, 40, 57, 100, 250, 400, 1000, 10000])
def test_high_percentile_value_has_ten_samples_beyond(count):
    values = np.random.default_rng(count).permutation(count).astype(float)
    p, value = high_percentile(values)
    assert p == ladder_percentile(count)
    assert (values > value).sum() >= spans.MIN_BEYOND
    assert value == np.percentile(values, p)


def test_high_percentile_without_enough_samples():
    assert high_percentile([1.0] * 19) is None


def test_first_call_probe_records_once_and_restores():
    class Module:
        @staticmethod
        def f(x):
            return x + 1

    original = Module.f
    probe = FirstCall(Module, ("f",), clock=fake_clock([5.0]))
    assert Module.f is not original
    assert Module.f(1) == 2
    assert probe.at == 5.0
    assert Module.f is original


TINY = dict(
    num_nodes=4,
    rounds=6,
    mean_frequency=0.5,
    data_alpha=1.0,
    dataset_samples_per_class=30,
    local_iterations=2,
    eval_every=2,
    checkpoint_every=2,
    workers=1,
)


def _attributes(modules):
    return {(m, k): v for m in modules for k, v in vars(m).items()}


def _outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_traced_run_is_byte_identical_and_wrappers_are_restored(tmp_path):
    from pmfl import (
        ExperimentConfig, client, contrastive, data, harness, nn, participation,
        run_experiment, server,
    )

    watched = (
        client, contrastive, data, harness, nn, participation, server,
        contrastive.LocalBuffer, nn.ModelParams, participation.ParticipationSchedule,
    )
    cfg = ExperimentConfig(**TINY)
    before = _attributes(watched)
    run_experiment(cfg, tmp_path / "plain")

    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span(layers.ROOT):
            harness.run_experiment(cfg, tmp_path / "traced")
    finally:
        tracer.restore()
    after = _attributes(watched)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    run_experiment(cfg, tmp_path / "again")
    plain = _outputs(tmp_path / "plain")
    assert set(plain) == set(run.OUTPUT_FILES)
    assert _outputs(tmp_path / "traced") == plain
    assert _outputs(tmp_path / "again") == plain

    problems, facts = run.check_run(tmp_path / "traced")
    assert problems == []
    metrics = layers.per_layer_metrics(tracer.arrays(), tracer.counts, tmp_path / "traced")
    assert {name for name, _ in layers.PER_LAYER} - set(metrics) == {"trace.overhead_s"}
    assert metrics["client.local_train.calls"] == facts["participations"]
    assert metrics["client.zero_updates"] == TINY["rounds"] * TINY["num_nodes"] - facts["participations"]
    assert metrics["server.aggregate.calls"] == TINY["rounds"]
    # checkpoints after rounds 2 and 4; none after the last round
    assert metrics["harness.checkpoint.calls"] == 2
    assert metrics["harness.checkpoint_bytes"] > 0
    assert metrics["client.participants_per_round.mean"] == facts["participations"] / TINY["rounds"]
    assert metrics["contrastive.loss_and_grad.calls"] == facts["steps"]
    assert metrics["nn.ce_and_grad.calls"] == 0


def test_check_run_rejects_non_finite_summary(tmp_path):
    from pmfl import ExperimentConfig, run_experiment

    out = tmp_path / "run"
    run_experiment(ExperimentConfig(**TINY), out)
    assert run.check_run(out)[0] == []
    summary = json.loads((out / "summary.json").read_text())
    summary["final_test_loss"] = float("nan")
    (out / "summary.json").write_text(json.dumps(summary))
    problems, _ = run.check_run(out)
    assert len(problems) == 1 and "strict JSON" in problems[0]
