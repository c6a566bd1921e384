"""Crash-safe writes for the on-disk stores (result cache, job store).

A store writes each entry to ``<name>.<pid>.tmp`` and renames it into
place, so a reader never sees half a file.  A writer killed between the
write and the rename leaves its tmp file behind; :func:`sweep_dead_tmp`
removes those whose writer pid no longer runs.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(target: Path, text: str) -> None:
    """Write ``text`` to ``target`` by write-then-rename.

    The tmp file is removed when the write or the rename fails.
    """
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def sweep_dead_tmp(directory: Path) -> None:
    """Unlink the ``*.tmp`` files in ``directory`` of writers that died.

    A tmp whose writer is still alive is an in-flight write, not a
    dropping, and is kept.
    """
    for stale in directory.glob("*.tmp"):
        if _writer_alive(stale.name):
            continue
        try:
            stale.unlink()
        except OSError:
            pass  # already gone, or not ours to remove


def _writer_alive(tmp_name: str) -> bool:
    """Whether the pid embedded in ``<name>.<pid>.tmp`` still runs."""
    try:
        pid = int(tmp_name.rsplit(".", 2)[-2])
    except (IndexError, ValueError):
        return False  # malformed: nobody owns it
    if os.name != "posix":
        # os.kill(pid, 0) is only a probe on POSIX (on Windows it
        # terminates); with no safe liveness check, assume alive and
        # let the writer's own failure cleanup handle its tmp.
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # e.g. EPERM: somebody's process, leave it alone
    return True
