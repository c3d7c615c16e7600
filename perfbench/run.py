#!/usr/bin/env python3
"""pmfl benchmark: wall, CPU, set-up time, throughput and memory per workload.

    python3 perfbench/run.py --workload desk_pmfl --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from a checkout of the repository; nothing needs installing.  Each run
is a fresh ``python3 perfbench/child.py`` process that calls
``pmfl.run_experiment`` with ``workers=1`` and BLAS pinned to one thread
through its environment.  Runs repeat until ``--seconds`` is used up and
timings are reported as medians.  ``--seed`` is the experiment seed
(``ExperimentConfig.seed``) of every run.  With ``--trace 1`` untraced and
traced runs alternate and the per-layer metrics of layers.py are reported.
Every run's outputs are checked (see ``check_run``); the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and predictions.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from spans import ladder_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

# Unpinned, OpenBLAS starts a thread per core for matrices this small and
# burns CPU for no gain; wall time then swings with the machine's load.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PLAIN_RUNS = 3  # per untraced measurement; medians need a few samples
BUDGET_S = 150  # start no run that could end later than this
HARD_LIMIT_S = 170  # a run still going this long after the first one started is killed
POLL_S = 0.02

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

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("final_test_accuracy", "share"),
    ("run_ok_share", "share"),
)


@dataclass(frozen=True)
class Workload:
    overrides: dict
    why: str


WORKLOADS = {
    "desk_pmfl": Workload(
        {},
        "the default config, what `pmfl run` gives and the Tier-1 battery "
        "repeats; contrastive local training dominates",
    ),
    "ref_slice": Workload(
        {"num_nodes": 250, "rounds": 100},
        "reference population, about 25 participants per round; where "
        "lockstep and batched local training show",
    ),
    "ckpt_sparse": Workload(
        {
            "num_nodes": 250,
            "variant": "wo_mct",
            "mean_frequency": 0.02,
            "local_iterations": 2,
            "eval_every": 2,
            "checkpoint_every": 20,
        },
        "no contrastive term, few participants; loads aggregation, "
        "checkpoints, artifact writes and evaluation instead",
    ),
}


@dataclass
class Run:
    mode: str
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] | None = None
    rounds: int = 0
    model_sha: str = ""
    blas_threads: int | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC), **BLAS_PIN}


def wait_with_timeout(pid: int, timeout: float):
    """``os.wait4`` the child, killing it after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return status, usage
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            _, status, usage = os.wait4(pid, 0)
            return status, usage
        time.sleep(POLL_S)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in strict JSON")


def check_run(out: Path) -> tuple[list[str], dict]:
    """Problems with one run's outputs, and the facts read from them."""
    missing = [name for name in OUTPUT_FILES if not (out / name).is_file()]
    if missing:
        return [f"missing outputs {missing}"], {}
    try:
        summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"summary.json is not strict JSON: {exc}"], {}
    resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
    problems = [
        f"summary.json {key} = {value!r} is not finite"
        for key, value in summary.items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    rounds = resolved["rounds"]
    if summary["rounds_completed"] != rounds:
        problems.append(f"rounds_completed {summary['rounds_completed']} != {rounds}")
    accuracy = summary["final_test_accuracy"]
    chance = 1.0 / resolved["dataset_num_classes"]
    if not isinstance(accuracy, float) or not accuracy > chance:
        problems.append(f"final_test_accuracy {accuracy!r} is not above chance {chance}")
    model = (out / "model.bin").read_bytes()
    if len(model) != 8 * summary["num_params"]:
        problems.append(f"model.bin has {len(model)} bytes for {summary['num_params']} params")
    trace = np.loadtxt(out / "participation.csv", delimiter=",", skiprows=1, ndmin=2)
    if trace.shape[0] != rounds:
        problems.append(f"participation.csv has {trace.shape[0]} rounds, want {rounds}")
    participations = int(trace[:, 1:].sum())
    return problems, {
        "accuracy": accuracy,
        "rounds": rounds,
        "participations": participations,
        "steps": participations * resolved["local_iterations"],
        "model_sha": hashlib.sha256(model).hexdigest(),
    }


def run_once(config: dict, mode: str, work: Path, index: int, timeout: float) -> Run:
    """Start one child process, wait for it, and check what it wrote."""
    stem = work / f"{index:02d}-{mode}"
    out, record_path, log_path = stem, Path(f"{stem}.json"), Path(f"{stem}.log")
    run = Run(mode)
    argv = [sys.executable, str(CHILD), json.dumps(config), str(out), str(record_path), mode]
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
        try:
            status, usage = wait_with_timeout(proc.pid, timeout)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not record_path.is_file():
        tail = log_path.read_text(errors="replace")[-2000:]
        run.problems.append(f"{mode} run exited with {proc.returncode}:\n{tail}")
        return run
    record = json.loads(record_path.read_text())
    if not Path(record["pmfl_file"]).resolve().is_relative_to(SRC.resolve()):
        run.problems.append(f"ran pmfl from {record['pmfl_file']}, not from {SRC}")
    problems, facts = check_run(out)
    run.problems += problems
    if problems:
        return run
    wall = record["end"] - started
    run.values = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "steps_per_s": facts["steps"] / wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "final_test_accuracy": facts["accuracy"],
    }
    if mode == "plain":
        run.values["setup_s"] = record["first_call"] - started
    else:
        spans = dict(np.load(f"{record_path}.spans.npz"))
        run.layer = layers.per_layer_metrics(spans, record["counts"], out)
        if run.layer["client.local_train.calls"] != facts["participations"]:
            run.problems.append(
                f"traced run trained {run.layer['client.local_train.calls']:g} times "
                f"for {facts['participations']} participations"
            )
    run.rounds = facts["rounds"]
    run.model_sha = facts["model_sha"]
    run.blas_threads = record["blas_threads"]
    return run


def measure(name: str, seed: int, seconds: float, trace: bool) -> list[Run]:
    """Runs of one workload until ``seconds`` are used up."""
    config = {**WORKLOADS[name].overrides, "seed": seed, "workers": 1}
    modes = ("plain", "trace") if trace else ("plain",)
    min_cycles = 1 if trace else MIN_PLAIN_RUNS
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    runs: list[Run] = []
    cycles: list[float] = []
    start = time.monotonic()
    try:
        while True:
            cycle_start = time.monotonic()
            for mode in modes:
                timeout = start + HARD_LIMIT_S - time.monotonic()
                runs.append(run_once(config, mode, work, len(runs), timeout))
            cycles.append(time.monotonic() - cycle_start)
            elapsed = time.monotonic() - start
            if elapsed + max(cycles) > BUDGET_S:
                break
            if len(cycles) >= min_cycles and elapsed + statistics.median(cycles) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # the rerun promise, within this set: every run ends with the same model
    reference = next((r.model_sha for r in runs if r.ok), None)
    for r in runs:
        if r.ok and r.model_sha != reference:
            r.problems.append(f"model.bin sha256 {r.model_sha} differs from {reference}")
    return runs


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pmfl").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def header(name: str, seed: int, seconds: float, trace: bool) -> list[str]:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    pin = " ".join(f"{k}={v}" for k, v in BLAS_PIN.items())
    return [
        f"workload {name} ({WORKLOADS[name].why})",
        f"config {json.dumps(WORKLOADS[name].overrides)} seed={seed} workers=1",
        f"seconds {seconds:g}, trace {'on' if trace else 'off'}",
        f"cpu {_cpu_model()}; nproc {os.cpu_count()} "
        f"(usable {len(os.sched_getaffinity(0))}); load average at start {load}",
        f"python {platform.python_version()}; numpy {np.__version__}; blas {_blas()}; "
        f"pinned {pin}",
        f"git commit {_git_commit()}; src/pmfl sha256 {_src_digest()}",
    ]


def _timing_cells(values: list[float]) -> str:
    p = ladder_percentile(len(values))
    high = "-" if p is None else f"p{p:g} {np.percentile(values, p):.6g}"
    return f"{statistics.median(values):<14.6g} {min(values):<14.6g} {high:<18} {len(values)}"


def report(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Measure one workload, print its result set, return the JSON result."""
    lines = header(name, seed, seconds, trace)
    runs = measure(name, seed, seconds, trace)
    good = [r for r in runs if r.ok]
    plain = [r for r in good if r.mode == "plain"]
    traced = [r for r in good if r.mode == "trace"]
    threads = sorted({r.blas_threads for r in good}, key=str)
    lines.append(f"blas threads reported by the runs: {threads}")
    for line in lines:
        print(f"# {line}")
    for r in runs:
        for problem in r.problems:
            print(f"FAILED {r.mode} run: {problem}", file=sys.stderr)
    failed = len(runs) - len(good)
    print(f"runs: {len(runs)} attempted, {failed} failed, run_fail_share {failed / len(runs):.4g}")
    if not plain or (trace and not traced):
        print(f"{name}: no successful run to report", file=sys.stderr)
        return None

    metrics = {}
    if not trace:
        print(f"{'metric':<22} {'unit':<6} {'median':<14} {'min':<14} {'p_hi':<18} n")
        for metric, unit in END_TO_END:
            if metric == "run_ok_share":
                values = [len(good) / len(runs)]
            else:
                values = [r.values[metric] for r in plain]
            print(f"{metric:<22} {unit:<6} {_timing_cells(values)}")
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
    else:
        overhead = statistics.median(r.values["wall_s"] for r in traced) - statistics.median(
            r.values["wall_s"] for r in plain
        )
        print(f"{'metric':<36} {'unit':<6} {'median':<14} n={len(traced)} traced runs")
        for metric, unit in layers.PER_LAYER:
            if metric == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median(r.layer[metric] for r in traced)
            print(f"{metric:<36} {unit:<6} {value:<14.6g}")
            metrics[metric] = {"value": value, "unit": unit}
        rounds = traced[0].rounds
        print(f"harness.round_s.p_hi is p{ladder_percentile(rounds):g} of {rounds} rounds")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pmfl" / "__init__.py").is_file():
        print(f"no pmfl sources at {SRC / 'pmfl'}; run from a checkout", file=sys.stderr)
        return 2
    # compiles the bytecode once, so no measured run pays for it
    warm = subprocess.run(
        [sys.executable, "-c", "import pmfl"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if warm.returncode != 0:
        print(f"cannot import pmfl:\n{warm.stderr}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = report(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        results[name] = result
    try:
        WORK.rmdir()
    except OSError:
        pass
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {
                        f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
