"""Fixed-size-slot, memory-mapped block files with per-slot checksums.

A :class:`BlockStorage` file is an array of equal-capacity *slots*, the
on-disk layout LM-DiskANN uses for graph nodes: because every slot has the
same capacity, a slot's byte offset is a pure function of its index, so
reads are one ``mmap`` slice with no index structure to maintain.  The
metric layer's disk-spill backend stores evicted distance blocks and
computed distance rows this way; slot payloads are raw ``float64`` buffers
there, but the file itself is payload-agnostic bytes.

Layout (all integers little-endian)::

    [0, HEADER_SIZE)            magic b"RBLK" + framed JSON header
                                {"format": 1, "slot_size": S}, zero-padded
    slot i at HEADER_SIZE + i * (8 + S):
        u32 payload_length | u32 crc32(payload) | payload | zero padding

A ``payload_length`` of zero marks a slot that was never written (slots
materialise zero-filled when the file grows), so empty, torn and corrupt
slots are all distinguishable:

* **empty** — length field is zero: :meth:`read_slot` returns ``None``.
* **torn** — the file ends inside the slot's header or payload (a crash
  mid-append): :class:`~repro.storage.framing.TruncatedRecord`, and
  :meth:`valid_slot_count` recovers the longest clean prefix.
* **corrupt** — the slot is whole but its checksum or length field lies:
  :class:`~repro.exceptions.StorageCorruptionError`.

Writers hold a non-blocking exclusive ``flock`` for the lifetime of the
object — a second open of the same file fails loudly with
:class:`~repro.exceptions.StorageError` instead of silently interleaving
writes, mirroring the answer warehouse's per-shard writer lock.
"""

from __future__ import annotations

import json
import mmap
import os
import weakref
import zlib
from pathlib import Path
from typing import Any, Dict, Optional

try:  # POSIX advisory locking; absent on some platforms (best-effort guard).
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.exceptions import StorageCorruptionError, StorageError
from repro.storage.framing import U32, TruncatedRecord, encode_record, decode_record_at

#: File magic: the first four bytes of every block file.
MAGIC = b"RBLK"

#: Current block-file format.  Bump when the layout changes incompatibly.
BLOCKFILE_FORMAT_VERSION = 1

#: Fixed byte length of the header region; slot 0 starts here.
HEADER_SIZE = 128

#: Per-slot header: u32 payload length + u32 crc32(payload).
SLOT_HEADER_SIZE = 2 * U32.size


def _encode_header(slot_size: int) -> bytes:
    payload = json.dumps(
        {"format": BLOCKFILE_FORMAT_VERSION, "slot_size": int(slot_size)},
        sort_keys=True,
    ).encode("utf-8")
    header = MAGIC + encode_record(payload)
    if len(header) > HEADER_SIZE:  # pragma: no cover - header is ~60 bytes
        raise StorageError("block-file header does not fit its fixed region")
    return header + b"\x00" * (HEADER_SIZE - len(header))


def _decode_header(data: bytes, source: Path) -> int:
    """Validate the header region; returns the file's slot size."""
    if len(data) < HEADER_SIZE or data[: len(MAGIC)] != MAGIC:
        raise StorageCorruptionError(
            f"{source} is not a block file (bad magic or truncated header)"
        )
    try:
        payload, _ = decode_record_at(data[:HEADER_SIZE], len(MAGIC))
        header = json.loads(payload.decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("block-file header is not an object")
    except (TruncatedRecord, ValueError) as error:
        raise StorageCorruptionError(
            f"block file {source} has an unreadable header: {error}"
        ) from error
    version = header.get("format")
    if version != BLOCKFILE_FORMAT_VERSION:
        raise StorageError(
            f"{source} has block-file format version {version!r}; this code "
            f"reads version {BLOCKFILE_FORMAT_VERSION}"
        )
    slot_size = header.get("slot_size")
    if not isinstance(slot_size, int) or slot_size < 1:
        raise StorageCorruptionError(
            f"block file {source} has an invalid slot_size {slot_size!r}"
        )
    return slot_size


class BlockStorage:
    """One open block file: exclusive writer lock, ``pwrite`` writes, mmap reads.

    Use :meth:`create` for a new (or replaced) file and :meth:`open` for an
    existing one; both return an instance holding the writer lock.
    """

    def __init__(self, path: Path | str, *, _slot_size_hint: Optional[int] = None):
        self.path = Path(path)
        self.slots_written = 0
        self.bytes_written = 0
        try:
            self._fd = os.open(self.path, os.O_RDWR)
        except FileNotFoundError:
            raise StorageError(f"block file {self.path} does not exist") from None
        try:
            if fcntl is not None:
                try:
                    fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    raise StorageError(
                        f"block file {self.path} is already open in another "
                        "writer; block files have exactly one owner at a time"
                    ) from None
            self._file_size = os.fstat(self._fd).st_size
            header = os.pread(self._fd, HEADER_SIZE, 0)
            self.slot_size = _decode_header(header, self.path)
            if _slot_size_hint is not None and self.slot_size != _slot_size_hint:
                raise StorageError(
                    f"block file {self.path} has slot_size {self.slot_size}, "
                    f"expected {_slot_size_hint}"
                )
        except BaseException:
            os.close(self._fd)
            raise
        self._mm: Optional[mmap.mmap] = None
        self._mm_size = 0
        # The finalizer must not reference self (it would pin the object);
        # the mmap, if any, closes itself when garbage-collected.
        self._finalizer = weakref.finalize(self, _close_fd, self._fd)

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, path: Path | str, slot_size: int) -> "BlockStorage":
        """Create (or atomically replace) the block file at *path* and open it.

        The header lands via temp file + ``fsync`` + ``os.replace``, so a
        crash mid-create leaves either no file or a complete empty one —
        never a half-written header.
        """
        slot_size = int(slot_size)
        if slot_size < 1:
            raise StorageError(f"slot_size must be positive, got {slot_size}")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        from repro.storage.framing import write_file_atomic

        write_file_atomic(path, _encode_header(slot_size))
        return cls(path, _slot_size_hint=slot_size)

    @classmethod
    def open(cls, path: Path | str, slot_size: Optional[int] = None) -> "BlockStorage":
        """Open an existing block file (checking *slot_size* when given)."""
        return cls(path, _slot_size_hint=None if slot_size is None else int(slot_size))

    # -- geometry -------------------------------------------------------------

    @property
    def slot_stride(self) -> int:
        """Bytes from one slot's header to the next: ``8 + slot_size``."""
        return SLOT_HEADER_SIZE + self.slot_size

    @property
    def n_slots(self) -> int:
        """Number of slot regions the file covers (complete or torn)."""
        body = self._file_size - HEADER_SIZE
        if body <= 0:
            return 0
        return (body + self.slot_stride - 1) // self.slot_stride

    @property
    def size_bytes(self) -> int:
        """Current byte length of the file."""
        return self._file_size

    def _slot_offset(self, index: int) -> int:
        return HEADER_SIZE + index * self.slot_stride

    # -- write path -----------------------------------------------------------

    def _check_open(self) -> None:
        if self._fd is None:
            raise StorageError(f"block file {self.path} is closed")

    def write_slot(self, index: int, payload: bytes) -> None:
        """Write *payload* into slot *index*, growing the file if needed.

        The payload must be 1..``slot_size`` bytes; zero-length payloads are
        rejected because a zero length field is the empty-slot marker.
        """
        self._check_open()
        index = int(index)
        if index < 0:
            raise StorageError(f"slot index must be non-negative, got {index}")
        payload = bytes(payload)
        if not payload:
            raise StorageError("slot payloads must be non-empty")
        if len(payload) > self.slot_size:
            raise StorageError(
                f"payload of {len(payload)} bytes exceeds slot_size {self.slot_size}"
            )
        end = self._slot_offset(index) + self.slot_stride
        if end > self._file_size:
            # Growth is a plain ftruncate: the new region reads back as
            # zeros, i.e. as empty slots, on every POSIX filesystem.
            os.ftruncate(self._fd, end)
            self._file_size = end
        record = U32.pack(len(payload)) + U32.pack(zlib.crc32(payload)) + payload
        os.pwrite(self._fd, record, self._slot_offset(index))
        self.slots_written += 1
        self.bytes_written += len(record)

    def append(self, payload: bytes) -> int:
        """Write *payload* into the next fresh slot; returns its index."""
        index = self.n_slots
        self.write_slot(index, payload)
        return index

    def sync(self) -> None:
        """``fsync`` the file (spill files rarely need it; WAL-like uses do)."""
        self._check_open()
        os.fsync(self._fd)

    # -- read path ------------------------------------------------------------

    def _view(self, start: int, end: int) -> memoryview:
        """Memory-mapped view of ``[start, end)``; remaps after growth."""
        if self._mm is None or end > self._mm_size:
            if self._mm is not None:
                self._mm.close()
            self._mm = mmap.mmap(self._fd, self._file_size, access=mmap.ACCESS_READ)
            self._mm_size = self._file_size
        return memoryview(self._mm)[start:end]

    def read_slot(self, index: int) -> Optional[bytes]:
        """Payload of slot *index*, or ``None`` for empty/out-of-file slots.

        Raises :class:`~repro.storage.framing.TruncatedRecord` when the file
        ends inside the slot (torn write) and
        :class:`~repro.exceptions.StorageCorruptionError` when the slot is
        whole but fails its checksum or declares an impossible length.
        """
        self._check_open()
        index = int(index)
        if index < 0:
            raise StorageError(f"slot index must be non-negative, got {index}")
        start = self._slot_offset(index)
        if start >= self._file_size:
            return None
        if start + SLOT_HEADER_SIZE > self._file_size:
            raise TruncatedRecord(f"slot {index} header is incomplete")
        header = bytes(self._view(start, start + SLOT_HEADER_SIZE))
        (length,) = U32.unpack_from(header, 0)
        if length == 0:
            return None
        (crc,) = U32.unpack_from(header, U32.size)
        if length > self.slot_size:
            raise StorageCorruptionError(
                f"slot {index} of {self.path} declares {length} payload bytes "
                f"but slots hold at most {self.slot_size}"
            )
        body = start + SLOT_HEADER_SIZE
        if body + length > self._file_size:
            raise TruncatedRecord(f"slot {index} payload is incomplete")
        payload = bytes(self._view(body, body + length))
        if zlib.crc32(payload) != crc:
            raise StorageCorruptionError(
                f"slot {index} of {self.path} fails its checksum"
            )
        return payload

    def valid_slot_count(self) -> int:
        """Length of the longest clean prefix of non-empty slots.

        The crash-recovery scan: counts leading slots that read back whole
        and checksum-clean, stopping at the first empty, torn or corrupt
        slot.  After truncating a file anywhere inside its final slot, this
        recovers every earlier slot.
        """
        count = 0
        while True:
            try:
                payload = self.read_slot(count)
            except (TruncatedRecord, StorageCorruptionError):
                return count
            if payload is None:
                return count
            count += 1

    # -- lifecycle / observability --------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Plain-dict snapshot for report rows and ``store stats``-style CLIs."""
        return {
            "slot_size": self.slot_size,
            "n_slots": self.n_slots,
            "file_bytes": self.size_bytes,
            "slots_written": self.slots_written,
            "bytes_written": self.bytes_written,
        }

    def close(self) -> None:
        """Release the mmap, the writer lock and the file descriptor."""
        if self._fd is None:
            return
        self._finalizer.detach()
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        os.close(self._fd)
        self._fd = None  # type: ignore[assignment]

    def __enter__(self) -> "BlockStorage":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _close_fd(fd: int) -> None:
    """GC-time cleanup: release the descriptor (and with it the lock)."""
    try:
        os.close(fd)
    except OSError:  # pragma: no cover - already closed
        pass
