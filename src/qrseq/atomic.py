"""Atomic artifact writes: a reader finds the old file or the new one, never part of one.

Every artifact is written to a temp file in its own directory, flushed to
disk, then moved onto its name with `os.replace`, which is atomic within
one file system. A write that fails or is interrupted deletes its temp
file and leaves the old artifact, if there was one, as it was. A symlink
is written through: the file it points to is replaced, with its mode
kept. A target that is not a regular file, such as `/dev/stdout` or a
pipe, cannot be replaced and is written directly.
"""
from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def replacing(path) -> Iterator[BinaryIO]:
    """Binary handle on a temp file that replaces `path` when the block ends cleanly."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            yield fh
        return
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:  # interrupts too: no temp file outlives its write
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Write `text` as UTF-8 to `path` atomically."""
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))
