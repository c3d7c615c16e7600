"""Run one pmfl experiment in this fresh process and record its timings.

    python3 perfbench/child.py CONFIG_JSON OUT_DIR RECORD_JSON plain|trace

``plain`` records when the round loop is first entered (the first call to
``local_train`` or ``update_weights``) and when the last artifact has been
written, both on the system-wide monotonic clock, so the parent can measure
set-up and wall time from the moment it started this process.  ``trace``
also wraps every layer (see layers.py) and saves the spans next to the
record as ``<RECORD_JSON>.spans.npz``.  The parent sets PYTHONPATH to the
checkout's ``src`` and pins BLAS to one thread in the environment.
"""
from __future__ import annotations

import ctypes
import json
import sys
import time
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(argv: list[str]) -> int:
    config_json, out_dir, record_path, mode = argv
    import numpy as np
    import pmfl
    from pmfl import harness

    import layers
    import spans

    cfg = pmfl.ExperimentConfig.from_dict(json.loads(config_json))
    record = {"pmfl_file": pmfl.__file__}
    if mode == "trace":
        tracer = spans.Tracer()
        layers.install(tracer)
        try:
            with tracer.span(layers.ROOT):
                harness.run_experiment(cfg, out_dir)
        finally:
            tracer.restore()
        record["end"] = time.monotonic()
        record["counts"] = dict(tracer.counts)
        np.savez(record_path + ".spans.npz", **tracer.arrays())
    elif mode == "plain":
        probe = spans.FirstCall(harness, ("local_train", "update_weights"))
        try:
            harness.run_experiment(cfg, out_dir)
        finally:
            probe.restore()
        record["end"] = time.monotonic()
        record["first_call"] = probe.at
    else:
        raise ValueError(f"unknown mode {mode!r}")
    record["blas_threads"] = blas_threads()
    Path(record_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
