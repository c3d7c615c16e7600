"""The benchmark's trace hooks (perfbench/layers.py) against the package.

The hooks replace pmfl functions at the module attributes their callers look
them up by.  A refactor that drops or renames one of those attributes, or
changes the arguments a hook reads, fails here instead of in a benchmark run.
"""
from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from pmfl import client, contrastive, data, harness, nn, participation, server

from test_harness import tiny_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (
    client,
    contrastive,
    data,
    harness,
    nn,
    participation,
    server,
    contrastive.LocalBuffer,
    nn.ModelParams,
    participation.ParticipationSchedule,
)


def _attributes() -> dict:
    return {
        (owner.__name__, name): value
        for owner in OWNERS
        for name, value in vars(owner).items()
    }


def _traced_run(cfg, out_dir, monkeypatch):
    """Run ``cfg`` under the hooks; returns (layers module, tracer, and the
    attributes before, during and after)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")

    before = _attributes()
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        during = _attributes()
        with tracer.span(layers.ROOT):
            harness.run_experiment(cfg, out_dir)
    finally:
        tracer.restore()
    return layers, tracer, before, during, _attributes()


def _calls(tracer, name: str) -> int:
    return sum(tracer.names[i] == name for i in tracer.name_ids)


def test_trace_hooks_wrap_a_run_and_restore_every_attribute(tmp_path, monkeypatch):
    cfg = tiny_config(checkpoint_every=2)
    layers, tracer, before, during, after = _traced_run(cfg, tmp_path, monkeypatch)

    wrapped = [key for key in before if during[key] is not before[key]]
    assert wrapped
    for key in wrapped:
        assert during[key].__wrapped__ is before[key]
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    metrics = layers.per_layer_metrics(tracer.arrays(), tracer.counts, tmp_path)
    assert metrics["server.aggregate.calls"] == 6
    assert metrics["client.local_train.calls"] > 0
    assert metrics["contrastive.loss_and_grad.calls"] > 0
    assert metrics["harness.checkpoint.calls"] == 2
    # one kernel call per local step: every participation runs them all
    steps = harness.build_environment(cfg.resolved()).trace.sum() * cfg.local_iterations
    assert metrics["contrastive.loss_and_grad.calls"] == steps
    # the benchmark's check_run refuses a traced run with any other count of
    # local_train calls than the participations in participation.csv
    _, facts = importlib.import_module("run").check_run(tmp_path)
    assert metrics["client.local_train.calls"] == facts["participations"] > 0


def test_a_run_without_the_contrastive_term_still_passes_every_hook(tmp_path, monkeypatch):
    cfg = tiny_config(variant="wo_mct")
    layers, tracer, *_ = _traced_run(cfg, tmp_path, monkeypatch)

    metrics = layers.per_layer_metrics(tracer.arrays(), tracer.counts, tmp_path)
    assert metrics["nn.ce_and_grad.calls"] > 0
    assert metrics["metrics.evaluate.calls"] > 0
    assert _calls(tracer, "client.sgd_step") > 0
    assert _calls(tracer, "client.param_delta") > 0


@pytest.mark.parametrize("variant", ["uniform_average", "cached_update"])
def test_baseline_rounds_pass_the_aggregation_hook(variant, tmp_path, monkeypatch):
    cfg = tiny_config(variant=variant)
    layers, tracer, *_ = _traced_run(cfg, tmp_path, monkeypatch)

    metrics = layers.per_layer_metrics(tracer.arrays(), tracer.counts, tmp_path)
    assert metrics["server.aggregate.calls"] == cfg.rounds


# wrapped names that no run calls: they stay only so the hooks can wrap them
HOOK_ONLY = {"client.nonparticipant_update", "contrastive.ref_forward", "nn.params_copy"}


def _uncalled(run, monkeypatch) -> set[str]:
    """The names the hooks wrap that ``run()`` makes no call of."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("spans").Tracer()
    layers.install(tracer)
    try:
        with tracer.span(layers.ROOT):
            run()
    finally:
        tracer.restore()
    return set(tracer.names) - {tracer.names[i] for i in tracer.name_ids}


def test_no_other_wrapped_name_lives_for_the_hooks_alone(tmp_path, monkeypatch):
    # the contrastive kernel with checkpoints, plain cross-entropy, both
    # baseline update rules, and a resume
    configs = [tiny_config(checkpoint_every=2)] + [
        tiny_config(variant=v) for v in ("wo_mct", "uniform_average", "cached_update")
    ]
    uncalled = [
        _uncalled(lambda: harness.run_experiment(cfg, tmp_path / str(i)), monkeypatch)
        for i, cfg in enumerate(configs)
    ]
    real = harness.update_weights

    def update_weights(state, indicators):
        if state.round_idx == 4:
            raise KeyboardInterrupt
        return real(state, indicators)

    with monkeypatch.context() as m, pytest.raises(KeyboardInterrupt):
        m.setattr(harness, "update_weights", update_weights)
        harness.run_experiment(tiny_config(checkpoint_every=2), tmp_path / "resumed")
    uncalled.append(_uncalled(lambda: harness.resume_run(tmp_path / "resumed"), monkeypatch))
    assert set.intersection(*uncalled) == HOOK_ONLY
