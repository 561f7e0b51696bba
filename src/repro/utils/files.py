"""Atomic file commits: the one way a state file is written.

Every derived-state file of the reproduction (model bundles, stream
statistics, ``stream.json``, the log manifest, published ``current.npz``
copies, metrics-history segments) is committed the same way: its bytes go
to a uniquely named temp file in the target's directory, which is then
moved over the target with ``os.replace``.  Readers therefore see the old
file or the new one in full, never a torn write; the new file gets a fresh
inode, so a process still holding the old one open or memory-mapped keeps
a consistent view; and concurrent writers to one path each commit their
own temp, so the target ends up equal to one of the inputs byte for byte
(the last one replaced).

Temps are created with ``O_CREAT | O_EXCL`` and mode ``0o666``, so a
committed file gets the process umask's mode, and are unlinked when the
write raises.  A crash (SIGKILL) between the write and the replace leaves
an orphan named ``<target><TEMP_SUFFIX>-<random>`` next to the target.

Dependency-free (standard library only), so every layer can import it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Tuple, Union

#: Marks a commit's temp file: ``<target name><TEMP_SUFFIX>-<random hex>``.
TEMP_SUFFIX = ".tmp"

#: ``(size, mtime_ns, inode)`` of a file, or ``None`` when it is absent.
FileIdentity = Optional[Tuple[int, int, int]]


def file_identity(path: Union[str, Path]) -> FileIdentity:
    """``(size, mtime_ns, inode)`` of ``path``, or ``None`` when it is absent."""
    try:
        info = os.stat(path)
    except FileNotFoundError:
        return None
    return info.st_size, info.st_mtime_ns, info.st_ino


def _create_temp(path: Path) -> Tuple[int, Path]:
    """Create and open a fresh, exclusively owned temp next to ``path``."""
    while True:
        temporary = path.with_name(
            f"{path.name}{TEMP_SUFFIX}-{os.urandom(4).hex()}")
        try:
            return os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                           0o666), temporary
        except FileExistsError:
            continue


@contextlib.contextmanager
def atomic_write(path: Union[str, Path]) -> Iterator[BinaryIO]:
    """Commit what the block writes to the yielded handle as ``path``.

    Parent directories are created.  The target is replaced only when the
    block finishes without raising; otherwise the temp is removed and the
    target keeps its previous bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temporary = _create_temp(path)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise


def write_bytes_atomic(path: Union[str, Path], data: bytes) -> Path:
    """Atomically commit ``data`` as the contents of ``path``."""
    with atomic_write(path) as handle:
        handle.write(data)
    return Path(path)


def copy_file_atomic(source: Union[str, Path], path: Union[str, Path]) -> Path:
    """Atomically commit a copy of ``source`` as ``path``."""
    with open(source, "rb") as reader, atomic_write(path) as handle:
        shutil.copyfileobj(reader, handle)
    return Path(path)


__all__ = ["FileIdentity", "TEMP_SUFFIX", "atomic_write", "copy_file_atomic",
           "file_identity", "write_bytes_atomic"]
