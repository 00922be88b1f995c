"""Crash-safe file writes: whole-file replacement and log appends.

:func:`atomic_write` writes a temp file in the target directory and
renames it over the target.  ``os.replace`` is atomic on POSIX and
Windows when source and target live on the same filesystem, which the
same-directory temp file guarantees.  A crash at any point leaves either
the old file or the new file on disk, never a truncated hybrid -- the
property the evaluation report writer and the benchmark JSON writer
rely on.

:func:`append_line` is the discipline of the append-only JSON-lines
logs (the DSE checkpoint journal, the serve job ledger): every line is
fsynced, and a line torn by a crash never swallows the next one.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write(path, data: str, encoding: str = "utf-8") -> None:
    """Write ``data`` to ``path`` so readers never observe a partial file.

    The content is written to a temporary file in the same directory,
    flushed and fsynced, then renamed over the target with
    :func:`os.replace`.  On failure the temporary file is removed and the
    original file (if any) is left untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def append_line(handle, data: str) -> None:
    """Append ``data`` to an append-only log and fsync it.

    ``handle`` is the log opened binary and readable (``"a+b"``, or
    ``"w+b"`` for a new log).  ``data`` is normally one
    newline-terminated line; a fault hook may pass a torn one.  A log
    whose last write was cut short (a crash mid-write, an injected
    corrupt record) ends without a newline, and a record written
    straight after it would be glued onto the torn line and lost with
    it on the next read.  So a torn tail is terminated first: the torn
    line stays unreadable on its own, and the new record survives.
    """
    payload = data.encode("utf-8")
    end = handle.seek(0, os.SEEK_END)
    if end:
        handle.seek(end - 1)
        if handle.read(1) != b"\n":
            payload = b"\n" + payload
    handle.write(payload)
    handle.flush()
    os.fsync(handle.fileno())
