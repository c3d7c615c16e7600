"""Experiment driver: one config in, a directory of reproducible artifacts out.

Everything a run needs (dataset, shards, frequencies, traces, initial model)
is rebuilt deterministically from the config, so a checkpoint only has to
carry the mutable state: the global model, the past global models, the node
windows and the metric rows recorded so far.  The node weights are no part of
it, nor of any artifact: they follow from the participation trace alone, so a
resume replays :func:`~pmfl.server.update_weights` over the trace up to its
round, and :func:`node_weights` replays a finished run's.  Reruns of the
same config are byte-identical, a resumed run finishes with the same bytes as
an uninterrupted one, and a sweep writes the same bytes with any worker count.

A round trains only the nodes that attend it.  Their updates fill the rows
of one (K_t, P) array, which goes through the update deviation and the
aggregation together with the participants' node ids; the absent nodes send
nothing.  Every evaluation of a run writes into one workspace
(:class:`~pmfl.nn.Workspace`), sized for the largest evaluation set, and
every participation's local steps run in one set of training buffers
(:class:`~pmfl.contrastive.TrainBuffers`), restaged for each participation.

A :class:`Run` holds all of one run's state, its next round and every node's
window included, so runs can be stepped side by side; :func:`run_experiment`
and :func:`resume_run` play one to its end.  A fresh run removes the
directory's earlier one, and a resume takes its config from the manifest.
:meth:`Run.jobs` gives the next round's ``local_train`` calls, each with the
window it trains from; a job writes nothing, so it can be run again.
:meth:`Run.finish_round` plays the server half on what the jobs return and
a copy of the state, then installs state, row and windows together: a round
that raises in either half leaves the run as it was.  A round whose global
model, deviation, accuracy or loss is not finite raises
:class:`~pmfl.server.DivergenceError`.  A checkpoint saves the state every
``checkpoint_every`` rounds, and on any failure after the opening
(:meth:`Run.fail`, which never masks the failure; Ctrl-C, SIGTERM and a
failed end-of-run write included), so it holds the last completed round.

A checkpoint is two files, both written whole before either replaces its
target, and holds nothing the trace gives back.  ``checkpoint.npz`` holds
the stamp ``format``, ``next_round``, the global model, the history of past
globals, every node's window in one array ``buffers`` and, for the cached
rule, ``cached_updates``; ``checkpoint_rows.json`` holds each recorded
round's :class:`~pmfl.metrics.RoundMetrics` as one line of compact, sorted,
strict JSON.  A resume refuses a missing or other stamp (a run stopped under
an older layout starts again), rows that are not one per round before
``next_round`` (as a pair replaced only in part leaves them), a file that
cannot be read, and arrays that are not exactly the format's, dtypes
included, or do not fit the run and its trace.
A run starts by deleting the temporary files a killed run left of its outputs.

A sweep runs its cells on a pool of spawned processes.  ``run_sweep`` is the
only code that starts one, so it imports ``multiprocessing`` and the
executor itself, and ``import pmfl`` and a single run do without them.

Output files per run:

- ``metrics.csv``    one row per evaluated round (accuracy/loss on train/test)
- ``weights.csv``    one row per round: mixing coefficient, participant count
                     and update deviation (:func:`node_weights` gives the
                     round's node weights)
- ``summary.json``   final and top-5 statistics (results only, no config echo)
- ``cdf.csv``        per-node accuracy/loss CDF of the final model
- ``partition.json`` shard sizes, class histograms, participation frequencies
- ``participation.csv`` the full round-by-node indicator matrix
- ``model.bin`` / ``model_meta.json`` flat float64 weights plus shape header
- ``manifest.json``  requested and resolved config, version, file list
"""
from __future__ import annotations

import copy
import csv
import dataclasses
import itertools
import json
import logging
import math
import signal
import sys
import threading
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_open, remove_stale_temporaries
from .atomic import write_json as _write_json
from .client import NodeState, local_train
from .client import nonparticipant_update  # noqa: F401  (the benchmark wraps it here)
from .config import ExperimentConfig, dataset_spec_for, parse_value
from .contrastive import TrainBuffers
from .data import LabeledDataset, load_dataset
from .heterogeneity import assign_frequencies, dirichlet_partition, partition_manifest
from .metrics import RoundMetrics, evaluate, node_cdf, top5_mean, update_deviation
from .nn import ModelParams, ModelSpec, Workspace, flatten, init_params, unflatten
from .participation import ParticipationSchedule, export_trace_csv
from .rng import stream
from .server import (
    AggregatorState,
    DivergenceError,
    VARIANTS,
    aggregate,
    history_coefficient,
    replay_weights,
    update_weights,
)

log = logging.getLogger(__name__)

CHECKPOINT_FILE = "checkpoint.npz"
CHECKPOINT_ROWS_FILE = "checkpoint_rows.json"
# the checkpoint.npz layout this code writes and resumes; a new layout takes the next number
CHECKPOINT_FORMAT = 2

OUTPUT_FILES = (
    "metrics.csv",
    "weights.csv",
    "summary.json",
    "cdf.csv",
    "partition.json",
    "participation.csv",
    "model.bin",
    "model_meta.json",
    "manifest.json",
)
_RUN_FILES = (*OUTPUT_FILES, CHECKPOINT_FILE, CHECKPOINT_ROWS_FILE)


def model_spec_for(cfg: ExperimentConfig) -> ModelSpec:
    return ModelSpec(
        input_dim=cfg.dataset_input_dim,
        encoder=tuple(cfg.encoder_dims),
        projection=tuple(cfg.projection_dims),
        classifier=tuple(cfg.classifier_hidden_dims) + (cfg.dataset_num_classes,),
    )


@dataclass
class Environment:
    """Everything deterministic a run derives from its config."""

    cfg: ExperimentConfig  # resolved
    train: LabeledDataset
    test: LabeledDataset
    shards: list[np.ndarray]
    dists: np.ndarray
    assignment: object
    trace: np.ndarray  # (rounds, num_nodes)
    nodes: list[NodeState]
    spec: ModelSpec
    eval_workspace: Workspace  # sized for the train set, the test set and every shard
    train_buffers: TrainBuffers  # every participation's local steps run in these


def build_environment(cfg: ExperimentConfig) -> Environment:
    """Instantiate dataset, shards, frequencies, traces and nodes from a
    resolved config.  Pure function of the config."""
    train, test = load_dataset(dataset_spec_for(cfg))
    if train.input_dim != cfg.dataset_input_dim:
        raise ValueError(
            f"dataset rows have {train.input_dim} features, config says "
            f"{cfg.dataset_input_dim}"
        )
    # a CSV's classes come from its labels; fewer than configured is fine
    if train.num_classes > cfg.dataset_num_classes:
        raise ValueError(
            f"dataset labels run up to {train.num_classes - 1}, config says "
            f"{cfg.dataset_num_classes} classes"
        )
    shards, dists = dirichlet_partition(
        train.labels,
        train.num_classes,
        cfg.num_nodes,
        cfg.data_alpha,
        stream(cfg.seed, "partition"),
    )
    assignment = assign_frequencies(
        dists,
        cfg.participation_beta,
        cfg.mean_frequency,
        stream(cfg.seed, "frequencies"),
        mode=cfg.frequency_mode,
    )
    schedule = ParticipationSchedule(
        pattern=cfg.pattern,
        frequencies=assignment.frequencies,
        root_seed=cfg.seed,
        cycle_length=cfg.cycle_length,
        p01=cfg.markov_p01,
    )
    trace = schedule.trace_matrix(cfg.rounds)
    spec = model_spec_for(cfg)
    nodes = [NodeState(k, train.rows(shards[k]), cfg.seed) for k in range(cfg.num_nodes)]
    return Environment(
        cfg=cfg,
        train=train,
        test=test,
        shards=shards,
        dists=dists,
        assignment=assignment,
        trace=trace,
        nodes=nodes,
        spec=spec,
        eval_workspace=Workspace(spec, 1, max(train.num_samples, test.num_samples)),
        train_buffers=TrainBuffers(spec, cfg.local_buffer_size, cfg.batch_size),
    )


@dataclass
class RunResult:
    out_dir: Path
    rounds_completed: int
    summary: dict


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header: list[str], rows) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _round_facts(trace: np.ndarray):
    """Each round's (round, psi, participants), what the (rounds, num_nodes)
    trace gives; psi is None in a run of fewer than 2 rounds."""
    for t, indicators in enumerate(trace):
        psi = history_coefficient(t, len(trace)) if len(trace) >= 2 else None
        yield t, psi, int(np.count_nonzero(indicators))


def _write_metrics_csv(path, trace: np.ndarray, rows: list[RoundMetrics]) -> None:
    _write_csv(path, ["round", "psi", "participants", "deviation", "train_accuracy",
                      "train_loss", "test_accuracy", "test_loss"],
               (map(_fmt, (*facts, *vars(r).values()))
                for facts, r in zip(_round_facts(trace), rows, strict=True)
                if r.train_accuracy is not None))


def _write_weights_csv(path, trace: np.ndarray, rows: list[RoundMetrics]) -> None:
    _write_csv(path, ["round", "psi", "participants", "deviation"],
               (map(_fmt, (*facts, r.deviation))
                for facts, r in zip(_round_facts(trace), rows, strict=True)))


def _write_cdf_csv(path, acc_cdf: np.ndarray, loss_cdf: np.ndarray) -> None:
    _write_csv(path, ["metric", "value", "cum_fraction"],
               ([metric, _fmt(value), _fmt(frac)]
                for metric, cdf in (("node_accuracy", acc_cdf), ("node_loss", loss_cdf))
                for value, frac in cdf))


def _write_model(out_dir: Path, spec: ModelSpec, flat: np.ndarray) -> None:
    with atomic_open(out_dir / "model.bin", "wb") as fh:
        fh.write(flat.astype("<f8").tobytes())
    _write_json(
        out_dir / "model_meta.json",
        {
            "dtype": "float64",
            "byte_order": "little",
            "count": int(flat.size),
            "input_dim": spec.input_dim,
            "encoder_dims": list(spec.encoder),
            "projection_dims": list(spec.projection),
            "classifier_dims": list(spec.classifier),
        },
    )


def _state_arrays(state: AggregatorState, windows: list[np.ndarray]) -> dict:
    """The run state at a round boundary, as the arrays a checkpoint saves,
    by reference: rounds replace them and never write them.  ``buffers``
    joins every node's window into one array; the trace gives their lengths."""
    arrays = {
        "format": np.asarray(CHECKPOINT_FORMAT),
        "next_round": np.asarray(state.round_idx),
        "global_flat": state.global_model.vector,
        "history": state.history.rows,
        "buffers": np.concatenate(windows),
    }
    if state.cached_updates is not None:  # the cached rule, after its first round
        arrays["cached_updates"] = state.cached_updates
    return arrays


def _save_checkpoint(out_dir: Path, arrays: dict, rows: list[RoundMetrics]) -> None:
    """Write :func:`_state_arrays` and the rows recorded before it; a failed
    write of either file (a row that JSON cannot encode, a full disk) leaves
    the previous pair as it was."""
    # savez appends ".npz" to a path without it, so it gets the open file
    with _write_checkpoint_rows(out_dir / CHECKPOINT_ROWS_FILE, rows), \
            atomic_open(out_dir / CHECKPOINT_FILE, "wb") as fh:
        np.savez(fh, **arrays)


@contextmanager
def _write_checkpoint_rows(path: Path, rows: list[RoundMetrics]):
    """The rows' scalar fields as one line of strict, sorted JSON, in a
    temporary file that replaces ``path`` when the block inside ends cleanly.
    Compact, because only then does ``json.dumps`` run its C encoder (an
    indent runs the pure-Python one), and every checkpoint writes every row."""
    text = json.dumps({"rows": [vars(r) for r in rows]}, sort_keys=True, allow_nan=False)
    with atomic_open(path, "w") as fh:
        fh.write(text + "\n")
        yield


@contextmanager
def _reading(path: Path):
    """Whatever a damaged ``path`` raises while it is read, as a ValueError
    that names the file."""
    try:
        yield
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path} is damaged: {type(exc).__name__}: {exc}") from exc


def _check_shapes(
    data: dict, env: Environment, state: AggregatorState, next_round: int
) -> np.ndarray:
    """Refuse saved arrays that are not exactly the format's, dtypes included,
    or whose shapes do not fit the run and its first ``next_round`` rounds;
    return the node windows' lengths, which cut ``buffers`` apart.

    The history holds one global per round up to its capacity, and a window
    one model per local step of the node's participations up to its capacity.
    """
    cfg, P, N = env.cfg, env.spec.num_params, env.cfg.num_nodes
    steps = cfg.local_iterations * env.trace[:next_round].sum(axis=0, dtype=np.int64)
    lengths = np.minimum(steps, cfg.local_buffer_size)
    i8, f8 = np.dtype(np.int64), np.dtype(np.float64)
    want = {"format": ((), i8), "next_round": ((), i8), "global_flat": ((P,), f8),
            "history": ((min(next_round, state.history.capacity), P), f8),
            "buffers": ((int(lengths.sum()), P), f8)}
    if VARIANTS[cfg.variant].rule == "cached" and next_round:  # from its first round on
        want["cached_updates"] = ((N, P), f8)
    if data.keys() != want.keys():
        raise ValueError(f"its arrays {sorted(data)} are not the format's {sorted(want)}")
    for name, (shape, dtype) in want.items():
        if (data[name].shape, data[name].dtype) != (shape, dtype):
            raise ValueError(f"{name} is a {data[name].dtype} {data[name].shape} array, round "
                             f"{next_round} of the run needs a {dtype} {shape} one")
    return lengths


def _load_checkpoint(
    out_dir: Path, env: Environment, state: AggregatorState, version: str
) -> tuple[list[RoundMetrics], list[np.ndarray]]:
    """Put a checkpoint's state into the run's fresh ``state``, replaying the
    weight bookkeeping over the trace; return its rows and its node windows.

    A file without the stamp of :data:`CHECKPOINT_FORMAT` (the error also
    names ``version``, the manifest's), one that cannot be read or one whose
    arrays or rows do not fit the run raises a ValueError naming it.
    """
    path = out_dir / CHECKPOINT_FILE
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with _reading(path):
        # every read of a saved array is a fresh copy
        with np.load(path) as npz:
            data = {name: npz[name] for name in npz.files}
    if "format" not in data or data["format"].tolist() != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not of checkpoint format {CHECKPOINT_FORMAT}, the one pmfl "
                         f"{__version__} resumes (manifest version {version}): start the run again")
    with _reading(path):
        next_round = int(data["next_round"])
        if not 0 <= next_round <= env.cfg.rounds:
            raise ValueError(f"next_round is {next_round}, the run has {env.cfg.rounds} rounds")
        lengths = _check_shapes(data, env, state, next_round)
    rows_path = out_dir / CHECKPOINT_ROWS_FILE
    with _reading(rows_path), open(rows_path) as fh:
        # an entry that is not an object of exactly RoundMetrics' fields raises TypeError
        rows = [RoundMetrics(**d) for d in json.load(fh)["rows"]]
        # one row per round, of floats or None: a pair replaced only in part fails
        if len(rows) != next_round or not all(
                type(v) in (float, type(None)) for r in rows for v in vars(r).values()):
            raise ValueError(f"its {len(rows)} rows are not the rounds before {CHECKPOINT_FILE}'s "
                             f"next_round {next_round}, each of floats or nulls")

    for _ in replay_weights(state, env.trace[:next_round]):
        pass
    state.round_idx = next_round
    state.global_model = unflatten(env.spec, data["global_flat"])
    state.history.rows = data["history"]
    state.cached_updates = data.get("cached_updates")
    windows = np.split(data["buffers"], np.cumsum(lengths)[:-1])
    for window in windows:
        window.flags.writeable = False
    return rows, windows


def _read_manifest(out_dir: Path) -> tuple[ExperimentConfig, str]:
    """The requested config and the version in the manifest of the run in ``out_dir``."""
    path = out_dir / "manifest.json"
    with open(path) as fh, _reading(path):
        manifest = json.load(fh)
        return ExperimentConfig.from_dict(manifest["requested_config"]), manifest["version"]


def node_weights(out_dir) -> np.ndarray:
    """The (rounds, num_nodes) float64 node weights of the run in ``out_dir``,
    bit for bit those each round aggregated with: :func:`~pmfl.server.replay_weights`
    over its ``participation.csv`` with its manifest's config.  A damaged manifest,
    or a trace that is not (rounds, num_nodes), raises a ValueError naming the file."""
    cfg = _read_manifest(Path(out_dir))[0].resolved()
    path = Path(out_dir) / "participation.csv"
    with _reading(path), open(path) as fh:
        lines = fh.read().splitlines()[1:]  # after the header
        # ragged rows, or rows of another width, do not make the table
        table = np.array([line.split(",") for line in lines], dtype=np.int64)
        table = table.reshape(len(lines), cfg.num_nodes + 1)
        if not np.array_equal(table[:, 0], np.arange(cfg.rounds)):
            raise ValueError(f"its {len(lines)} rows are not rounds 0 to {cfg.rounds - 1}")
        spec = model_spec_for(cfg)  # the weights never read the model
        state = AggregatorState(cfg.num_nodes, ModelParams(spec, np.zeros(spec.num_params)),
                                cfg.rounds, cutoff=cfg.cutoff_interval, history_size=0)
        return np.array(list(replay_weights(state, table[:, 1:]))).reshape(table[:, 1:].shape)


def _play_round(env: Environment, state: AggregatorState, updates) -> RoundMetrics:
    """The server half of the next round on its participants' (K_t, P) ``updates``,
    rows in node order: weight update, deviation, aggregation and evaluation."""
    cfg, t = env.cfg, state.round_idx
    indicators = env.trace[t].astype(np.int64)
    participants = np.flatnonzero(indicators == 1)

    update_weights(state, indicators)
    deviation = update_deviation(updates) if participants.size else None

    new_global = aggregate(state, updates, participants, cfg.variant, cfg.aggregation_mode)

    train = test = (None, None)
    if (t + 1) % cfg.eval_every == 0 or t == cfg.rounds - 1:
        # one call, so one matmul per layer, over each whole set: gemm's bits
        # for a row depend on how many rows share the call, so a set is never
        # split into chunks nor joined to the other
        train = evaluate(new_global, env.train, env.eval_workspace)
        if env.test.num_samples:
            test = evaluate(new_global, env.test, env.eval_workspace)
    row = RoundMetrics(deviation, *train, *test)
    for name, value in vars(row).items():
        if value is not None and not math.isfinite(value):
            raise DivergenceError(t, name)
    return row


def _summarize(
    cfg: ExperimentConfig, rows: list[RoundMetrics], trace: np.ndarray, num_params: int
) -> dict:
    evaluated = [r for r in rows if r.train_accuracy is not None]
    train_acc = [r.train_accuracy for r in evaluated]
    test_acc = [r.test_accuracy for r in evaluated if r.test_accuracy is not None]
    last = evaluated[-1] if evaluated else None
    quarter_start = (3 * cfg.rounds) // 4
    tail_devs = [r.deviation for r in rows[quarter_start:] if r.deviation is not None]
    return {
        "rounds_completed": cfg.rounds,
        "num_params": int(num_params),
        "final_train_accuracy": None if last is None else last.train_accuracy,
        "final_train_loss": None if last is None else last.train_loss,
        "final_test_accuracy": None if last is None else last.test_accuracy,
        "final_test_loss": None if last is None else last.test_loss,
        "top5_train_accuracy": top5_mean(train_acc) if train_acc else None,
        # a run without a test set has no test accuracy to rank
        "top5_test_accuracy": top5_mean(test_acc) if test_acc else None,
        "mean_deviation_last_quarter": float(np.mean(tail_devs)) if tail_devs else None,
        "realized_mean_frequency": float(trace.mean()) if trace.size else 0.0,
        "evaluated_round_count": len(evaluated),
    }


def _write_results(
    out_dir: Path, env: Environment, state: AggregatorState, rows: list[RoundMetrics]
) -> dict:
    """Evaluate the final model per node and write every end-of-run artifact."""
    cfg = env.cfg
    _write_metrics_csv(out_dir / "metrics.csv", env.trace, rows)
    _write_weights_csv(out_dir / "weights.csv", env.trace, rows)
    per_node = [evaluate(state.global_model, n.data, env.eval_workspace) for n in env.nodes]
    acc_cdf = node_cdf([a for a, _ in per_node])
    loss_cdf = node_cdf([l for _, l in per_node])
    _write_cdf_csv(out_dir / "cdf.csv", acc_cdf, loss_cdf)
    summary = _summarize(cfg, rows, env.trace, env.spec.num_params)
    _write_json(out_dir / "summary.json", summary)
    _write_model(out_dir, env.spec, flatten(state.global_model))
    return summary


def _raise_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


@contextmanager
def _sigterm_raises():
    """In the main thread, SIGTERM raises ``SystemExit`` while inside, so a
    terminated run checkpoints like an interrupted one; the previous handler
    comes back on exit.  Other threads cannot set handlers and keep them."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _raise_on_sigterm)
    try:
        yield
    finally:
        # None: a handler Python did not install, which it cannot put back
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


class Run:
    """One run, stepped a round at a time: a fresh run of ``cfg`` in ``out_dir``,
    or with ``cfg`` None the run there, resumed with its manifest's config.
    Opening it does the set-up, the resume or the removal of the directory's
    earlier run and the manifest, partition and trace writes; a failure there
    writes no checkpoint."""

    def __init__(self, cfg: ExperimentConfig | None, out_dir):
        self.out_dir = out_dir = Path(out_dir)
        resume = cfg is None
        if resume:
            cfg, version = _read_manifest(out_dir)
        cfg.validate()
        out_dir.mkdir(parents=True, exist_ok=True)
        remove_stale_temporaries(out_dir, _RUN_FILES)
        resolved = cfg.resolved()
        self.env = env = build_environment(resolved)
        self.state = state = AggregatorState(
            resolved.num_nodes, init_params(env.spec, stream(resolved.seed, "init")),
            resolved.rounds, cutoff=resolved.cutoff_interval,
            history_size=resolved.global_buffer_size, global_lr=resolved.global_lr)
        self.rows: list[RoundMetrics] = []
        # every node's window, oldest row first; only finish_round replaces one
        self.windows = [np.empty((0, env.spec.num_params))] * resolved.num_nodes
        if resume:
            self.rows, self.windows = _load_checkpoint(out_dir, env, state, version)
            log.info("resuming %s at round %d", out_dir, state.round_idx)
        else:  # no file of the earlier run may pass for one of this run
            for name in _RUN_FILES:
                (out_dir / name).unlink(missing_ok=True)
        _write_json(out_dir / "manifest.json", {
            "package": "pmfl", "version": __version__, "requested_config": cfg.to_dict(),
            "resolved_config": resolved.to_dict(), "num_params": int(env.spec.num_params),
            "outputs": list(OUTPUT_FILES),
        })
        _write_json(out_dir / "partition.json",
                    partition_manifest(env.shards, env.dists, env.assignment))
        export_trace_csv(env.trace, out_dir / "participation.csv")

    @property
    def done(self) -> bool:
        """Whether the run has played every round."""
        return self.state.round_idx == self.env.cfg.rounds

    def _participants(self) -> np.ndarray:
        if self.done:
            raise ValueError(f"the run has played all {self.env.cfg.rounds} rounds")
        return np.flatnonzero(self.env.trace[self.state.round_idx] == 1)

    def jobs(self) -> list[tuple]:
        """``local_train``'s arguments for each participant of the next round,
        in node order, each with the window the node trains from."""
        env, t = self.env, self.state.round_idx
        return [(env.nodes[k], self.state.global_model, env.cfg, t, self.windows[k],
                 env.train_buffers) for k in self._participants()]

    def finish_round(self, updates: np.ndarray, windows: list[np.ndarray]) -> None:
        """Play the server half of the next round on its (K_t, P) float64
        ``updates`` and new ``windows``, what its jobs returned in job order,
        on a copy of the state; then install the state, the row and the
        windows together and write the periodic checkpoint.  A round that
        raises leaves the run as it was."""
        participants, cfg, P = self._participants(), self.env.cfg, self.env.spec.num_params
        # row i is the update of node participants[i]; absent nodes send nothing
        K = participants.size
        if not (isinstance(updates, np.ndarray) and updates.dtype == np.float64
                and (updates.shape == (K, P) or K == updates.size == 0)):
            raise ValueError(f"updates must be a float64 ({K}, {P}) array, in node order")
        installed = list(self.windows)
        for k, window in zip(participants, windows, strict=True):
            grown = min(len(installed[k]) + cfg.local_iterations, cfg.local_buffer_size)
            if window.dtype != np.float64 or window.shape != (grown, P) or window.flags.writeable:
                raise ValueError(f"node {k}'s new window is a {window.dtype} {window.shape} "
                                 f"array, the round leaves it float64 ({grown}, P) and read-only")
            installed[k] = window
        state = copy.copy(self.state)  # the round replaces its arrays, never writes them
        row = _play_round(self.env, state, updates.reshape(K, P))
        self.state, self.windows = state, installed
        self.rows.append(row)
        every = cfg.checkpoint_every
        if every and state.round_idx % every == 0 and not self.done:
            _save_checkpoint(self.out_dir, _state_arrays(state, installed), self.rows)

    def close(self) -> RunResult:
        """Write the end-of-run artifacts and remove the checkpoint."""
        if not self.done:
            raise ValueError(f"cannot close: the run has played {self.state.round_idx} "
                             f"of {self.env.cfg.rounds} rounds")
        summary = _write_results(self.out_dir, self.env, self.state, self.rows)
        for name in (CHECKPOINT_FILE, CHECKPOINT_ROWS_FILE):
            (self.out_dir / name).unlink(missing_ok=True)
        return RunResult(self.out_dir, self.env.cfg.rounds, summary)

    def fail(self) -> None:
        """Save the state as the checkpoint: the last completed round, never
        a half-done one.  Called while an exception is handled, it never
        replaces that exception: a failed write is only logged."""
        in_flight = sys.exc_info()[1]
        try:
            _save_checkpoint(self.out_dir, _state_arrays(self.state, self.windows), self.rows)
        except Exception:
            if in_flight is None:
                raise
            log.exception("run failed, and so did its checkpoint in %s", self.out_dir)
            return
        # the caller gets the traceback with the exception
        log.error("run failed; its checkpoint in %s resumes at round %d",
                  self.out_dir, self.state.round_idx)


def _play_to_end(cfg: ExperimentConfig | None, out_dir) -> RunResult:
    """Play ``Run(cfg, out_dir)`` to its end, or to its failure checkpoint."""
    with _sigterm_raises():
        run = Run(cfg, out_dir)
        try:
            # a diverging run stops with DivergenceError; numpy's warnings on
            # the way there add nothing to it
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                while not run.done:
                    trained = [local_train(*job) for job in run.jobs()]
                    run.finish_round(np.array([u for u, _ in trained]), [w for _, w in trained])
            return run.close()
        except BaseException:
            run.fail()
            raise


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunResult:
    """Run one experiment end to end; its artifacts replace any earlier run in ``out_dir``."""
    return _play_to_end(cfg, out_dir)


def resume_run(out_dir) -> RunResult:
    """Continue an interrupted run from its checkpoint, with its recorded config."""
    return _play_to_end(None, out_dir)


def _run_cell(args) -> dict:
    """One sweep cell in a pool process; a failure becomes an error row."""
    base, overrides, index, cell_dir = args
    row = {"cell": index, **overrides}
    try:
        cfg = dataclasses.replace(base, **overrides)
        result = run_experiment(cfg, cell_dir)
        row.update(
            status="ok",
            final_test_accuracy=result.summary["final_test_accuracy"],
            top5_test_accuracy=result.summary["top5_test_accuracy"],
            final_train_accuracy=result.summary["final_train_accuracy"],
            mean_deviation_last_quarter=result.summary["mean_deviation_last_quarter"],
        )
    except Exception as exc:  # cell failures must not kill the sweep
        log.exception("sweep cell %s failed", cell_dir.name)
        row.update(status="error", error=f"{type(exc).__name__}: {exc}")
    return row


def run_sweep(base: ExperimentConfig, grid: dict[str, list], out_dir) -> list[dict]:
    """Cartesian grid of runs; cells fail independently.

    Each grid value is a setting or a raw value that
    :func:`pmfl.config.parse_value` reads, such as a ``--vary`` token; bad
    names and values raise ``ValueError`` before any cell starts, and so does
    ``workers``.  The cells run on a pool of ``base.workers`` processes, each
    with ``workers`` at its default, so a cell's bytes do not depend on the
    pool.  Returns one
    summary row per cell, in grid order, and writes ``sweep_summary.csv``.
    """
    if not grid:
        raise ValueError("sweep needs at least one field to vary")
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    parsed = {}
    for key, values in grid.items():
        if key not in fields:
            raise ValueError(f"unknown config field {key!r}")
        if key == "workers":
            raise ValueError("workers is the sweep's pool size, and each cell is one process")
        if not values:
            raise ValueError(f"sweep field {key!r} has no values")
        parsed[key] = [parse_value(fields[key], v) for v in values]
    grid = parsed
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    remove_stale_temporaries(out_dir, ("sweep_summary.csv",))
    keys = sorted(grid)
    cell_base = dataclasses.replace(base, workers=fields["workers"].default)
    cells = []
    for index, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        overrides = dict(zip(keys, combo))
        label = "__".join(f"{k}={overrides[k]}" for k in keys)
        cell_dir = out_dir / f"cell_{index:03d}__{label}".replace("/", "_")
        cells.append((cell_base, overrides, index, cell_dir))
    # here, not at the top: see the module docstring
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawn, not fork: this process may already run BLAS threads.  The cells
    # inherit the one-thread BLAS pin that ``import pmfl`` set.
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=base.workers, mp_context=spawn) as pool:
        rows = list(pool.map(_run_cell, cells))

    fieldnames = ["cell", *keys, "status", "final_test_accuracy",
                  "top5_test_accuracy", "final_train_accuracy",
                  "mean_deviation_last_quarter", "error"]
    with atomic_open(out_dir / "sweep_summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt_cell(row.get(k)) for k in fieldnames})
    return rows


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value
