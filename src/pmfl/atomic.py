"""Files that appear whole or not at all."""
from __future__ import annotations

import json
import os
import re
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


def remove_stale_temporaries(directory, names) -> None:
    """Delete the temporary files :func:`atomic_open` left in ``directory``
    while writing one of ``names``.

    A writer killed outright (SIGKILL, power loss) leaves its temporary file
    for good.  Call this before any writer of ``names`` in ``directory``
    starts; other files are left alone.
    """
    for path in Path(directory).iterdir():
        stale = re.fullmatch(r"\.(.+)\.\d+\.[0-9a-f]{8}\.tmp", path.name)
        if stale and stale.group(1) in names:
            path.unlink(missing_ok=True)


def write_json(path, payload) -> None:
    """Strict JSON (no NaN or infinity), sorted and indented, written whole."""
    with atomic_open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
