"""Storage integrity: sealed page headers, atomic writes, checksums.

Everything the out-of-core tiers persist — ``DiskStore`` spill pages,
sealed ``.pagez`` serving pages, checkpoints (a patch job's among them,
its one record of progress) — passes through this module so that (a) no reader ever consumes a torn or
bit-rotted file silently, and (b) no writer ever leaves a half-written
file at the final path.

Two complementary mechanisms:

* **Sealed pages.** Encoded page payloads are framed with a 16-byte
  header — magic ``GSP1``, payload length (u64), CRC32 (u32) — written
  by :func:`seal_page` and checked by :func:`unseal_page`. A length
  mismatch means a torn write; a CRC mismatch means bit rot. Raw memmap
  pages can't carry a header (their on-disk bytes *are* the array, and
  the byte-accounting ledger equates their disk and host sizes), so
  :class:`~repro.core.pager.PageFile` holds their CRC out of band.
* **Atomic writes.** :func:`atomic_write_bytes` and
  :func:`atomic_savez` write to a temp file, fsync, then
  ``os.replace`` onto the destination — a crash leaves either the old
  file or the new one, never a hybrid. The fault-injection hooks
  (:func:`repro.faults.check_write_fault`) mangle the temp file just
  before the rename, which is exactly what a mid-write crash that the
  filesystem made durable looks like.

Corruption surfaces as :class:`CorruptPageError` /
:class:`CorruptCheckpointError` with the path and the expected/actual
sizes, so recovery code (checkpoint fallback, page quarantine) can route
on it instead of guessing at raw ``zipfile``/numpy errors.
"""

from __future__ import annotations

import os
import struct
import zlib

from .. import faults

__all__ = [
    "CorruptCheckpointError",
    "CorruptPageError",
    "IntegrityError",
    "PAGE_MAGIC",
    "atomic_savez",
    "atomic_write_bytes",
    "checksum",
    "seal_page",
    "unseal_page",
]

#: Magic prefix of a sealed page (GS-Scale Page v1).
PAGE_MAGIC = b"GSP1"

#: Header layout: magic (4s) + payload length (u64) + CRC32 (u32).
_HEADER = struct.Struct("<4sQI")


class IntegrityError(RuntimeError):
    """Base class for integrity failures detected on read."""


class CorruptPageError(IntegrityError):
    """A page file failed its header, length, or checksum validation."""

    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"corrupt page {path}: {detail}")

    def __reduce__(self):
        # a pool worker that raises this sends it across the pool's
        # result pipe; the default reduce would re-call __init__ with the
        # message alone, fail to unpickle, and wedge the result thread
        return (type(self), (self.path, self.detail))


class CorruptCheckpointError(IntegrityError):
    """A checkpoint file is torn or unreadable.

    Attributes:
        path: checkpoint file.
        block: the ``.npz`` member that failed (empty = whole file).
        expected, actual: sizes in bytes where known (``None`` = unknown).
    """

    def __init__(
        self,
        path: str,
        detail: str = "",
        block: str = "",
        expected: int | None = None,
        actual: int | None = None,
    ):
        self.path = path
        self.block = block
        self.detail = detail
        self.expected = expected
        self.actual = actual
        parts = [f"corrupt checkpoint {path}"]
        if block:
            parts.append(f"block {block!r}")
        if expected is not None or actual is not None:
            parts.append(f"expected {expected} bytes, got {actual}")
        if detail:
            parts.append(detail)
        super().__init__(": ".join(parts))


def checksum(data) -> int:
    """CRC32 of ``data`` (bytes or any contiguous buffer, e.g. ndarray)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def seal_page(payload: bytes) -> bytes:
    """Frame an encoded page payload with the GSP1 integrity header."""
    return _HEADER.pack(PAGE_MAGIC, len(payload), checksum(payload)) + payload


def unseal_page(buf: bytes, path: str = "") -> bytes:
    """Validate and strip the GSP1 header, returning the payload.

    Raises :class:`CorruptPageError` on a short buffer, wrong magic,
    length mismatch (torn write), or CRC mismatch (bit rot).
    """
    if len(buf) < _HEADER.size:
        raise CorruptPageError(
            path, f"short page: {len(buf)} bytes < {_HEADER.size}-byte header"
        )
    magic, length, crc = _HEADER.unpack_from(buf)
    if magic != PAGE_MAGIC:
        raise CorruptPageError(path, f"bad magic {magic!r}")
    payload = buf[_HEADER.size:]
    if len(payload) != length:
        raise CorruptPageError(
            path,
            f"torn page: header promises {length} payload bytes, "
            f"got {len(payload)}",
        )
    actual = checksum(payload)
    if actual != crc:
        raise CorruptPageError(
            path, f"checksum mismatch: header {crc:#010x}, payload {actual:#010x}"
        )
    return payload


def _apply_file_fault(tmp_path: str, fault) -> None:
    """Mangle the temp file per an armed :class:`repro.faults.FileFault`."""
    if fault.kind == "torn":
        faults.truncate_file(tmp_path, fault.keep_fraction)
    else:
        faults.corrupt_file(tmp_path, fault.offset, fault.length)


def _fsync_dir(path: str) -> None:
    """Best-effort fsync of ``path``'s directory (rename durability)."""
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` via temp-file + fsync + rename.

    A crash at any point leaves the previous contents of ``path`` (or no
    file) — never a partial write. Armed write faults tear/corrupt the
    temp file before the rename; a ``crash=True`` tear then raises
    :class:`repro.faults.InjectedFaultError` *after* the rename, so the
    torn bytes are durable exactly as if the process died mid-write.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    fault = faults.check_write_fault(path)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        if fault is not None:
            _apply_file_fault(tmp, fault)
        os.replace(tmp, path)
        if fsync:
            _fsync_dir(path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    if fault is not None and fault.kind == "torn" and fault.crash:
        raise faults.InjectedFaultError(f"simulated crash tearing {path}")


def atomic_savez(path: str, arrays: dict, fsync: bool = True) -> str:
    """``np.savez_compressed`` with temp-file + fsync + rename semantics.

    Returns the final path (with ``.npz`` appended when missing, matching
    numpy's own behavior). Streams through the temp file rather than
    buffering the archive in memory.
    """
    import numpy as np

    if not path.endswith(".npz"):
        path = path + ".npz"
    tmp = f"{path}.tmp.{os.getpid()}"
    fault = faults.check_write_fault(path)
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        if fault is not None:
            _apply_file_fault(tmp, fault)
        os.replace(tmp, path)
        if fsync:
            _fsync_dir(path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    if fault is not None and fault.kind == "torn" and fault.crash:
        raise faults.InjectedFaultError(f"simulated crash tearing {path}")
    return path
