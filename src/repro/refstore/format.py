"""The on-disk stored-reference container: save once, mmap forever.

:func:`save_stored_reference` writes the full
:class:`~repro.kernels.EncodedReference` payload of a sealed
:class:`~repro.cam.array.StoredReference` (raw segments and float
one-hot) into one versioned, CRC32-checksummed file;
:func:`open_stored_reference` maps it back **read-only via**
``mmap`` — zero copy, zero encoding passes
(``n_encodes`` of an opened reference stays 0 forever), and because
the OS page cache backs the mapping, every process that opens the same
file shares the same physical pages.  Service boot drops from
O(encode) to O(page-fault).

**File layout.**  The container codec of :mod:`repro.refstore.header`::

    magic | version | meta_length | meta_crc32 | payload_crc32 |
    payload_length | meta JSON | padding | 64-byte-aligned arrays

Every open validates magic, version, size and both CRC32s before
building a view; a truncated, torn, foreign or stale file raises
:class:`~repro.errors.RefStoreError`, never a silently wrong count.

**Sharding.**  :func:`slice_stored_reference` cuts zero-copy per-shard
references at the sharded engine's bank ranges.  Slicing is
bit-identical to encoding the sliced rows because every per-row cache
is a pure per-row function of the segments
(:func:`repro.kernels.slice_encoded_reference`).
"""

from __future__ import annotations

import mmap
import os
from typing import Sequence

from repro.cam.array import StoredReference
from repro.errors import CamConfigError, RefStoreError
from repro.faults.hooks import fire as _fire_fault
from repro.kernels import (
    ENCODED_REFERENCE_FIELDS,
    encoded_reference_arrays,
    encoded_reference_from_arrays,
    slice_encoded_reference,
)
from repro.refstore.header import (
    open_container,
    plan_layout,
    seal_header,
    write_payload,
)

__all__ = [
    "REFSTORE_MAGIC",
    "REFSTORE_VERSION",
    "MappedReference",
    "open_stored_reference",
    "save_stored_reference",
    "slice_stored_reference",
]

#: Leading magic bytes of every on-disk stored-reference file.
REFSTORE_MAGIC = b"ASMCAPRF"

#: File format version; bumped on any layout change so an open
#: against a stale writer fails loudly instead of mis-reading bytes.
#: Version 2 dropped the bitplane arrays from the payload.
REFSTORE_VERSION = 2


def save_stored_reference(path, reference: StoredReference) -> int:
    """Write a sealed reference's full encoded payload to *path*.

    One encode, ever: the bytes written are exactly the arrays of
    ``reference.encoded()``, so every later
    :func:`open_stored_reference` skips the encoding pass entirely.
    The write is atomic (temp file + ``os.replace``) — a crashed or
    concurrent writer can never leave a half-written file behind the
    final name.  Returns the file size in bytes.  Requires a
    **sealed** reference (the payload must be immutable once other
    processes can map it); raises
    :class:`~repro.errors.RefStoreError` otherwise.
    """
    if not reference.sealed:
        raise RefStoreError(
            "only a sealed StoredReference can be saved to a store "
            "file (seal() or StoredReference.encode(...) first)"
        )
    path = os.fspath(path)
    arrays = encoded_reference_arrays(reference.encoded())
    layout = plan_layout(arrays)
    buf = bytearray(layout.total)
    write_payload(buf, layout, arrays)
    seal_header(buf, layout, magic=REFSTORE_MAGIC,
                version=REFSTORE_VERSION)
    # Chaos hook: truncation/byte-flips injected on the sealed buffer
    # reach the disk exactly as a torn or bit-rotted file would, so
    # the next open fails the size/CRC ladder.
    _fire_fault("refstore.save", buf=buf, path=path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(buf)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise RefStoreError(
            f"could not write reference store {path!r}: {exc}"
        ) from exc
    finally:
        if os.path.exists(tmp):  # pragma: no cover - error path only
            os.unlink(tmp)
    return layout.total


class MappedReference:
    """Owner of one read-only mmap of a stored-reference file.

    :attr:`reference` is a sealed
    :class:`~repro.cam.array.StoredReference` whose arrays are
    zero-copy views over the mapping; this owner keeps the mapping
    alive and :meth:`close` drops it (the views die with it — only
    close once the reference is no longer searched).  Closing never
    touches the file: the store outlives every reader.
    """

    def __init__(self, mapping: mmap.mmap, view: memoryview,
                 reference: StoredReference, path: str, nbytes: int):
        self._mapping: "mmap.mmap | None" = mapping
        self._view: "memoryview | None" = view
        self._reference: "StoredReference | None" = reference
        self._path = path
        self._nbytes = int(nbytes)

    @property
    def reference(self) -> StoredReference:
        if self._mapping is None:
            raise RefStoreError("this mapped reference has been closed")
        return self._reference

    @property
    def path(self) -> str:
        return self._path

    @property
    def nbytes(self) -> int:
        """Mapped file size in bytes (0 once closed)."""
        return 0 if self._mapping is None else self._nbytes

    @property
    def closed(self) -> bool:
        return self._mapping is None

    def close(self) -> None:
        """Unmap the file (idempotent; never deletes it)."""
        if self._mapping is None:
            return
        self._reference = None
        view, self._view = self._view, None
        mapping, self._mapping = self._mapping, None
        try:
            if view is not None:
                view.release()
            mapping.close()
        except (OSError, BufferError):  # pragma: no cover - live views
            pass

    def __enter__(self) -> "MappedReference":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_stored_reference(path: "str | os.PathLike") -> MappedReference:
    """Map a store file back into a sealed stored reference, zero-copy.

    Validates the versioned header (magic, version, size, meta CRC32,
    payload CRC32) before building any view; every payload array is a
    read-only view over the read-only mapping, and the sealed
    reference is rebuilt without an encoding pass
    (:meth:`~repro.cam.array.StoredReference.adopt_encoded` —
    ``n_encodes`` stays 0).  Raises
    :class:`~repro.errors.RefStoreError` on a missing file and on any
    header or checksum mismatch.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as file:
            mapping = mmap.mmap(file.fileno(), 0,
                                access=mmap.ACCESS_READ)
    except FileNotFoundError as exc:
        raise RefStoreError(
            f"no reference store file {path!r}"
        ) from exc
    except (OSError, ValueError) as exc:
        # ValueError: mmap of an empty file.
        raise RefStoreError(
            f"could not map reference store {path!r}: {exc}"
        ) from exc
    view = memoryview(mapping)
    try:
        _fire_fault("refstore.open", path=path)
        arrays = open_container(
            view, magic=REFSTORE_MAGIC, version=REFSTORE_VERSION,
            describe=f"reference store {path!r}",
            error=RefStoreError,
            expected_fields=ENCODED_REFERENCE_FIELDS,
        )
        reference = StoredReference.adopt_encoded(
            encoded_reference_from_arrays(arrays))
    except BaseException:
        try:
            view.release()
            mapping.close()
        except (OSError, BufferError):  # pragma: no cover
            pass
        raise
    return MappedReference(mapping, view, reference, path, len(view))


def slice_stored_reference(
        reference: StoredReference,
        ranges: "Sequence[tuple[int, int]]",
        ) -> "tuple[StoredReference, ...]":
    """Cut sealed zero-copy shard references at the given row ranges.

    Each ``(start, stop)`` range becomes an independent sealed
    :class:`~repro.cam.array.StoredReference` over *views* of the
    parent's encoded arrays — no copy, no encoding pass
    (``n_encodes == 0`` on every shard).  Bit-identical to
    ``StoredReference.encode(segments[start:stop])`` because every
    per-row cache is a pure per-row function of the stored rows.
    """
    if not reference.sealed:
        raise RefStoreError(
            "only a sealed StoredReference can be sliced into shards"
        )
    encoded = reference.encoded()
    shards = []
    for start, stop in ranges:
        try:
            sliced = slice_encoded_reference(encoded, start, stop)
        except CamConfigError as exc:
            raise RefStoreError(str(exc)) from exc
        shards.append(StoredReference.adopt_encoded(sliced))
    return tuple(shards)
