"""Crash-safe filesystem primitives.

Everything the package persists — JSONL corpora, run reports, checkpoint
manifests — goes through the two helpers here so an interrupted process
(SIGKILL, OOM, power loss) can never leave a *partially written* file in
place of a good one.  The recipe is the classic POSIX one: write to a
sibling temp file in the same directory, flush + ``fsync``, then
``os.replace`` onto the destination (atomic on POSIX and on NTFS).
Each writer gets its own temp file, so two writers racing on one path
cannot clobber each other's bytes.

This module deliberately imports nothing from the rest of ``repro`` so
that low-level layers (:mod:`repro.io`, :mod:`repro.telemetry.report`,
:mod:`repro.runtime.checkpoint`) can all use it without import cycles.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

#: read granularity for whole-file digests (files are re-hashed on every
#: verified load, so stream instead of slurping multi-gigabyte corpora).
_DIGEST_CHUNK = 1 << 20


def sha256_file(path: str | Path) -> tuple[str, int]:
    """``(hex digest, byte count)`` of a file's exact on-disk content.

    The digest is over raw bytes (no newline or encoding normalization),
    so any single-byte change — data, separator, or trailing newline —
    changes it.
    """
    digest = hashlib.sha256()
    size = 0
    with Path(path).open("rb") as handle:
        while True:
            chunk = handle.read(_DIGEST_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def sha256_text(text: str) -> str:
    """Hex SHA-256 of a string's UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fsync_handle(handle: IO) -> None:
    """Flush a handle and push its bytes to stable storage."""
    handle.flush()
    os.fsync(handle.fileno())


#: per-process sequence that makes every writer's temp name unique.
_TEMP_SEQUENCE = itertools.count()


@contextmanager
def atomic_writer(
    path: str | Path, encoding: str | None = "utf-8"
) -> Iterator[IO]:
    """A handle whose contents appear at ``path`` all-or-nothing.

    A text handle, or a binary one with ``encoding=None``.  The handle
    writes to a temp file of its own, ``<name>.<pid>.<counter>.tmp``
    beside ``path`` (created exclusively, so no two writers ever share
    one); on clean exit the temp file is fsynced and atomically renamed
    over ``path``.  Overlapping writers to one path therefore each
    publish whole contents, and the last to close wins.  On an
    exception the temp file is removed and ``path`` is left exactly as
    it was — including not existing at all.  A killed writer leaves
    only its ``*.tmp``, which no reader opens.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_TEMP_SEQUENCE)}.tmp"
        )
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            # a killed writer's leftover under a reused pid: skip it
            continue
    handle = (
        os.fdopen(fd, "wb") if encoding is None
        else os.fdopen(fd, "w", encoding=encoding)
    )
    try:
        yield handle
        fsync_handle(handle)
    except BaseException:
        handle.close()
        tmp.unlink(missing_ok=True)
        raise
    else:
        handle.close()
        os.replace(tmp, path)


def atomic_write_text(
    path: str | Path, text: str, encoding: str = "utf-8"
) -> Path:
    """Atomically replace ``path`` with ``text``; returns the path."""
    path = Path(path)
    with atomic_writer(path, encoding=encoding) as handle:
        handle.write(text)
    return path
