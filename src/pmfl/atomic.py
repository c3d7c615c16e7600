"""Files that appear whole or not at all."""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Write ``path`` through a temporary file beside it.

    ``mode`` is ``"w"`` or ``"wb"``.  On a clean exit the temporary file is
    flushed to disk and replaces ``path`` in one step; on any exception it is
    removed and ``path`` keeps its previous contents, so a reader or a resumed
    run never sees a partly written file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload) -> None:
    """Strict JSON (no NaN or infinity), sorted and indented, written whole."""
    with atomic_open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
