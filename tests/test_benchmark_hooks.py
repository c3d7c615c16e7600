"""The benchmark's trace hooks (perfbench/layers.py) against the package.

The hooks replace pmfl functions at the module attributes their callers look
them up by.  A refactor that drops or renames one of those attributes, or
changes the arguments a hook reads, fails here instead of in a benchmark run.
"""
from __future__ import annotations

import importlib
from pathlib import Path

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


def test_trace_hooks_wrap_a_run_and_restore_every_attribute(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")

    before = _attributes()
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        during = _attributes()
        with tracer.span(layers.ROOT):
            harness.run_experiment(tiny_config(checkpoint_every=2), tmp_path)
    finally:
        tracer.restore()
    after = _attributes()

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
