"""Which pmfl functions a traced run wraps, and the per-layer metrics.

Each function is wrapped at the module attribute its caller looks it up by,
so ``harness.local_train`` is the call the round loop makes and
``client.combined_loss_and_grad`` the one the local loop makes.  Where no
public function marks a layer boundary, the module-level helper the loop
calls is wrapped (``harness._save_checkpoint``, ``harness._write_*``).
``cli`` and ``config`` do no measurable work and are not wrapped.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from spans import LOOP_END, ROUND, ROUND_START, ROUND_TAIL, Tracer, high_percentile, self_times

ROOT = "harness.run_experiment"
CHECKPOINT = "harness.checkpoint"
ARTIFACT_WRITERS = (
    "harness.write_json",
    "harness.write_metrics_csv",
    "harness.write_weights_csv",
    "harness.write_cdf_csv",
    "harness.write_model",
    "participation.export",
)
CONVERSIONS = ("nn.flatten", "nn.unflatten", "nn.params_copy")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("contrastive.loss_and_grad.calls", "count"),
    ("contrastive.loss_and_grad_s", "s"),
    ("contrastive.loss_and_grad.self_s", "s"),
    ("contrastive.ref_forward.calls", "count"),
    ("contrastive.ref_forward_s", "s"),
    ("contrastive.buffered_step_share", "share"),
    ("client.local_train.calls", "count"),
    ("client.local_train_s", "s"),
    ("client.local_train.self_s", "s"),
    ("client.participants_per_round.mean", "count"),
    ("client.participants_per_round.max", "count"),
    ("client.sgd_step_s", "s"),
    ("client.param_delta_s", "s"),
    ("client.buffer_push.calls", "count"),
    ("client.buffer_push_s", "s"),
    ("client.zero_updates", "count"),
    ("nn.ce_and_grad.calls", "count"),
    ("nn.ce_and_grad_s", "s"),
    ("nn.flatten.calls", "count"),
    ("nn.unflatten.calls", "count"),
    ("nn.params_copy.calls", "count"),
    ("nn.convert_s", "s"),
    ("server.update_weights_s", "s"),
    ("server.aggregate.calls", "count"),
    ("server.aggregate_s", "s"),
    ("server.useful_row_share", "share"),
    ("harness.checkpoint.calls", "count"),
    ("harness.checkpoint_s", "s"),
    ("harness.checkpoint_bytes", "bytes"),
    ("harness.artifacts_s", "s"),
    ("harness.artifact_bytes", "bytes"),
    ("harness.round_s.p50", "s"),
    ("harness.round_s.p_hi", "s"),
    ("harness.self_s", "s"),
    ("metrics.evaluate.calls", "count"),
    ("metrics.evaluate_s", "s"),
    ("metrics.update_deviation_s", "s"),
    ("harness.build_environment_s", "s"),
    ("data.load_dataset_s", "s"),
    ("heterogeneity.partition_s", "s"),
    ("heterogeneity.frequencies_s", "s"),
    ("participation.trace_s", "s"),
    ("participation.export_s", "s"),
    ("rng.stream.calls", "count"),
    ("rng.stream_s", "s"),
    ("trace.overhead_s", "s"),
)


def _count_buffered(counts, args, kwargs):
    # called as combined_loss_and_grad(w, batch, global, buffer, ..., contrastive_weight=)
    if len(args[3]) and kwargs["contrastive_weight"] > 0:
        counts["contrastive.buffered_steps"] += 1


def _count_rows(counts, args, kwargs):
    # called as aggregate(state, updates, ...): one stacked row per update
    counts["server.aggregate.rows"] += len(args[1])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of pmfl; undo with ``tracer.restore()``."""
    from pmfl import client, contrastive, data, harness, nn, participation, server

    def count_checkpoint_bytes(counts, args, kwargs):
        # called as _save_checkpoint(out_dir, ...)
        for name in (harness.CHECKPOINT_FILE, harness.CHECKPOINT_ROWS_FILE):
            counts["harness.checkpoint_bytes"] += (Path(args[0]) / name).stat().st_size

    wrap = tracer.wrap
    # set-up
    wrap(harness, "build_environment", "harness.build_environment")
    wrap(harness, "load_dataset", "data.load_dataset")
    wrap(harness, "dirichlet_partition", "heterogeneity.partition")
    wrap(harness, "assign_frequencies", "heterogeneity.frequencies")
    wrap(participation.ParticipationSchedule, "trace_matrix", "participation.trace")
    wrap(harness, "export_trace_csv", "participation.export")
    for module in (harness, client, participation, data):
        wrap(module, "stream", "rng.stream")
    # round loop: every round trains or zero-fills each node, then updates weights
    wrap(harness, "local_train", "client.local_train", mark=ROUND_START)
    wrap(harness, "nonparticipant_update", "client.nonparticipant_update", mark=ROUND_START)
    wrap(harness, "update_weights", "server.update_weights", mark=ROUND_TAIL)
    wrap(harness, "update_deviation", "metrics.update_deviation")
    wrap(harness, "aggregate", "server.aggregate", after=_count_rows)
    wrap(harness, "evaluate", "metrics.evaluate")
    wrap(harness, "_save_checkpoint", CHECKPOINT, after=count_checkpoint_bytes)
    # local loop
    wrap(client, "combined_loss_and_grad", "contrastive.loss_and_grad", after=_count_buffered)
    wrap(client, "sgd_step", "client.sgd_step")
    wrap(client, "param_delta", "client.param_delta")
    wrap(contrastive.LocalBuffer, "push", "client.buffer_push")
    wrap(contrastive, "forward_representation", "contrastive.ref_forward")
    wrap(contrastive, "cross_entropy_and_grad", "nn.ce_and_grad")
    # parameter conversions, wherever the caller looks them up
    for module in (nn, server, harness):
        wrap(module, "flatten", "nn.flatten")
    for module in (server, harness):
        wrap(module, "unflatten", "nn.unflatten")
    wrap(nn.ModelParams, "copy", "nn.params_copy")
    # artifacts; metrics.csv is the first write after the round loop
    wrap(harness, "_write_metrics_csv", "harness.write_metrics_csv", mark=LOOP_END)
    wrap(harness, "_write_weights_csv", "harness.write_weights_csv")
    wrap(harness, "_write_cdf_csv", "harness.write_cdf_csv")
    wrap(harness, "_write_json", "harness.write_json")
    wrap(harness, "_write_model", "harness.write_model")


def _share(numerator: float, denominator: float) -> float:
    """A ratio that is 0 when nothing was attempted (a bypassed layer)."""
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(spans: dict[str, np.ndarray], counts: dict, out_dir) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER` except ``trace.overhead_s``.

    ``spans`` is :meth:`Tracer.arrays` of one run, ``counts`` its
    ``Tracer.counts`` and ``out_dir`` the directory the run wrote.
    """
    names = [str(n) for n in spans["names"]]
    name_id, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    own = self_times(parent, duration)

    def mask(*wanted):
        ids = [names.index(n) for n in wanted if n in names]
        return np.isin(name_id, ids)

    # a loss call that hands off to plain cross-entropy (contrastive weight 0)
    # is the nn layer's work; the contrastive layer counts only the others
    contrastive = mask("contrastive.loss_and_grad")
    contrastive[parent[mask("nn.ce_and_grad") & (parent >= 0)]] = False

    def calls(name):
        return float(mask(name).sum())

    def total(*wanted):
        return float(duration[mask(*wanted)].sum())

    def self_s(*wanted):
        return float(own[mask(*wanted)].sum())

    rounds = duration[mask(ROUND)]
    per_round = np.bincount(
        spans["round"][mask("client.local_train")], minlength=rounds.size
    )
    # an artifact written by another writer or by a checkpoint counts once, there
    writer = mask(*ARTIFACT_WRITERS)
    nested = np.zeros_like(writer)
    nested[writer & (parent >= 0)] = mask(*ARTIFACT_WRITERS, CHECKPOINT)[
        parent[writer & (parent >= 0)]
    ]
    high = high_percentile(rounds)
    rows = counts.get("server.aggregate.rows", 0)
    zero = calls("client.nonparticipant_update")

    return {
        "contrastive.loss_and_grad.calls": float(contrastive.sum()),
        "contrastive.loss_and_grad_s": float(duration[contrastive].sum()),
        "contrastive.loss_and_grad.self_s": float(own[contrastive].sum()),
        "contrastive.ref_forward.calls": calls("contrastive.ref_forward"),
        "contrastive.ref_forward_s": total("contrastive.ref_forward"),
        "contrastive.buffered_step_share": _share(
            counts.get("contrastive.buffered_steps", 0), contrastive.sum()
        ),
        "client.local_train.calls": calls("client.local_train"),
        "client.local_train_s": total("client.local_train"),
        "client.local_train.self_s": self_s("client.local_train"),
        "client.participants_per_round.mean": _share(per_round.sum(), rounds.size),
        "client.participants_per_round.max": float(per_round.max(initial=0)),
        "client.sgd_step_s": total("client.sgd_step"),
        "client.param_delta_s": total("client.param_delta"),
        "client.buffer_push.calls": calls("client.buffer_push"),
        "client.buffer_push_s": total("client.buffer_push"),
        "client.zero_updates": zero,
        "nn.ce_and_grad.calls": calls("nn.ce_and_grad"),
        "nn.ce_and_grad_s": total("nn.ce_and_grad"),
        "nn.flatten.calls": calls("nn.flatten"),
        "nn.unflatten.calls": calls("nn.unflatten"),
        "nn.params_copy.calls": calls("nn.params_copy"),
        "nn.convert_s": total(*CONVERSIONS),
        "server.update_weights_s": total("server.update_weights"),
        "server.aggregate.calls": calls("server.aggregate"),
        "server.aggregate_s": total("server.aggregate"),
        "server.useful_row_share": _share(rows - zero, rows),
        "harness.checkpoint.calls": calls(CHECKPOINT),
        "harness.checkpoint_s": total(CHECKPOINT),
        "harness.checkpoint_bytes": float(counts.get("harness.checkpoint_bytes", 0)),
        "harness.artifacts_s": float(duration[writer & ~nested].sum()),
        "harness.artifact_bytes": float(
            sum(p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())
        ),
        "harness.round_s.p50": float(np.median(rounds)) if rounds.size else 0.0,
        "harness.round_s.p_hi": 0.0 if high is None else high[1],
        "harness.self_s": self_s(ROOT, ROUND),
        "metrics.evaluate.calls": calls("metrics.evaluate"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.update_deviation_s": total("metrics.update_deviation"),
        "harness.build_environment_s": total("harness.build_environment"),
        "data.load_dataset_s": total("data.load_dataset"),
        "heterogeneity.partition_s": total("heterogeneity.partition"),
        "heterogeneity.frequencies_s": total("heterogeneity.frequencies"),
        "participation.trace_s": total("participation.trace"),
        "participation.export_s": total("participation.export"),
        "rng.stream.calls": calls("rng.stream"),
        "rng.stream_s": total("rng.stream"),
    }
