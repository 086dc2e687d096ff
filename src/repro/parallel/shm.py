"""Shared-memory transport for sealed stored references.

The process engine's zero-copy substrate: a sealed
:class:`~repro.cam.array.StoredReference` — the SRAM plane plus the
one-pass :class:`~repro.kernels.EncodedReference` arrays — is written
**once** into a ``multiprocessing.shared_memory`` segment by
:func:`share_stored_reference`, and every worker process maps the same
physical pages back into a sealed reference with
:func:`attach_stored_reference`.  Workers therefore borrow megabytes
of encoded reference without pickling them per task, and without ever
re-running an encoding pass (``n_encodes`` of an attached reference
stays 0 — the worker-side encode-once evidence).

**Segment layout.**  A versioned, checksummed header in front of the
64-byte-aligned payload arrays::

    magic  b"ASMCAPSM"                       8 bytes
    version, meta_length                     2 x uint32 (little-endian)
    meta_crc32, payload_crc32                2 x uint32
    payload_length                           uint64
    meta JSON                                meta_length bytes
    ... 64-byte alignment padding ...
    payload arrays (fixed field order of
    repro.kernels.ENCODED_REFERENCE_FIELDS)  payload_length bytes

The meta JSON records each array's dtype/shape/offset.  ``attach``
verifies the magic, the version, and both CRC32s before building any
view, so a truncated, foreign or torn segment fails loudly
(:class:`~repro.errors.CamConfigError`) instead of producing silently
wrong counts.

**Lifecycle.**  :func:`share_stored_reference` returns a
:class:`SharedStoredReference` owner: ``close()`` (idempotent, also
the context-manager exit) unmaps *and unlinks* the segment, and a
``weakref.finalize`` guard does the same for abandoned owners — at
garbage collection or interpreter exit — so the test suite and the
benchmarks finish without ``resource_tracker`` leak warnings.
Attachments opt out of the resource tracker (the owner's unlink is
authoritative; Python < 3.13 would otherwise double-track every
worker's attachment and warn at worker exit).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

from repro.cam.array import StoredReference
from repro.errors import CamConfigError
from repro.faults.hooks import fire as _fire_fault
from repro.kernels import (
    ENCODED_REFERENCE_FIELDS,
    encoded_reference_arrays,
    encoded_reference_from_arrays,
)
# Layout re-exports: tests and layout-aware callers read the segment
# geometry through this module's historical names.
from repro.parallel.header import ALIGN as _ALIGN  # noqa: F401
from repro.parallel.header import HEADER as _HEADER  # noqa: F401
from repro.parallel.header import aligned as _aligned  # noqa: F401
from repro.parallel.header import (
    open_container,
    plan_layout,
    seal_header,
    write_payload,
)

__all__ = [
    "SHM_MAGIC",
    "SHM_VERSION",
    "SharedReferenceHandle",
    "SharedStoredReference",
    "AttachedReference",
    "attach_stored_reference",
    "share_stored_reference",
]

#: Leading magic bytes of every shared-reference segment.  The layout
#: behind it is the shared container codec of
#: :mod:`repro.parallel.header` (``_HEADER`` / ``_ALIGN`` /
#: ``_aligned`` re-export it for layout-aware callers and tests).
SHM_MAGIC = b"ASMCAPSM"

#: Header format version; bumped on any layout change so an attach
#: against a stale writer fails loudly.  Version 2 dropped the
#: bitplane arrays from the payload.
SHM_VERSION = 2


@dataclass(frozen=True)
class SharedReferenceHandle:
    """A picklable ticket for one shared reference segment.

    Everything else an attach needs (geometry, dtypes, offsets,
    checksums) lives in the segment's own header, so the ticket a
    coordinator sends to its workers is just the segment name.
    """

    name: str


class SharedStoredReference:
    """Owner of one shared-memory copy of a sealed reference.

    Created by :func:`share_stored_reference`; holds the segment until
    :meth:`close` (or the finalize guard) unlinks it.  Workers attach
    via :attr:`handle`.
    """

    def __init__(self, shm: shared_memory.SharedMemory):
        self._shm: "shared_memory.SharedMemory | None" = shm
        self._finalizer = weakref.finalize(
            self, _destroy_segment, shm
        )

    @property
    def handle(self) -> SharedReferenceHandle:
        """The picklable attach ticket for this segment."""
        if self._shm is None:
            raise CamConfigError(
                "this shared reference has been closed (unlinked)"
            )
        return SharedReferenceHandle(name=self._shm.name)

    @property
    def name(self) -> str:
        """The shared-memory segment name (None-safe via handle)."""
        return self.handle.name

    @property
    def nbytes(self) -> int:
        """Allocated segment size in bytes."""
        if self._shm is None:
            return 0
        return self._shm.size

    @property
    def closed(self) -> bool:
        return self._shm is None

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        self._finalizer.detach()
        _destroy_segment(self._shm)
        self._shm = None

    def __enter__(self) -> "SharedStoredReference":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _destroy_segment(shm: shared_memory.SharedMemory) -> None:
    """Unmap + unlink, tolerating an already-unlinked segment."""
    try:
        shm.close()
    except OSError:  # pragma: no cover - platform-specific teardown
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - raced another unlink
        pass


def share_stored_reference(
        reference: StoredReference) -> SharedStoredReference:
    """Copy a sealed reference's payload into a shared-memory segment.

    One copy, at share time — every worker that attaches afterwards
    maps the same pages read-only instead of receiving pickled arrays
    per task.  Requires a **sealed** reference (the payload must be
    immutable once other processes can map it).
    """
    if not reference.sealed:
        raise CamConfigError(
            "only a sealed StoredReference can be shared across "
            "processes (seal() or StoredReference.encode(...) first)"
        )
    arrays = encoded_reference_arrays(reference.encoded())
    layout = plan_layout(arrays)
    shm = shared_memory.SharedMemory(create=True,
                                     size=max(1, layout.total))
    try:
        # The segment is zero-initialised, so the payload CRC the
        # codec computes covers deterministic alignment padding.
        write_payload(shm.buf, layout, arrays)
        seal_header(shm.buf, layout, magic=SHM_MAGIC,
                    version=SHM_VERSION)
        # Chaos hook: corruption injected here (after the seal) is
        # covered by the already-computed CRCs, so every later attach
        # fails loudly — the parent-side stand-in for a torn segment.
        _fire_fault("parallel.shm.share", buf=shm.buf)
    except BaseException:
        _destroy_segment(shm)
        raise
    return SharedStoredReference(shm)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without adding tracker obligations.

    The sharing process owns unlink responsibility.  On Python 3.13+
    the ``track=False`` keyword expresses that directly.  Older
    Pythons auto-register every attach — but our attachers (the spawn
    workers, same-process tests) share the owner's resource-tracker
    process, whose per-name registry deduplicates, so the attach adds
    no entry and the owner's eventual ``unlink()`` balances the books
    exactly once.  Explicitly unregistering here would strip the
    owner's entry instead (and the later unlink would log a tracker
    ``KeyError``), so we deliberately leave the registration alone.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


class AttachedReference:
    """A worker-side view of one shared reference segment.

    :attr:`reference` is a sealed :class:`StoredReference` whose
    arrays are zero-copy views over the mapped segment; the attachment
    keeps the mapping alive and :meth:`close` drops it (the views die
    with it — only call once the reference is no longer used).
    Closing never unlinks: the sharing owner does that.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 reference: StoredReference):
        self._shm: "shared_memory.SharedMemory | None" = shm
        self._reference = reference

    @property
    def reference(self) -> StoredReference:
        if self._shm is None:
            raise CamConfigError("this attachment has been closed")
        return self._reference

    @property
    def closed(self) -> bool:
        return self._shm is None

    def close(self) -> None:
        """Unmap the segment (idempotent; does **not** unlink)."""
        if self._shm is None:
            return
        self._reference = None
        shm, self._shm = self._shm, None
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover - live views
            pass

    def __enter__(self) -> "AttachedReference":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def attach_stored_reference(
        handle: "SharedReferenceHandle | str") -> AttachedReference:
    """Map a shared segment back into a sealed stored reference.

    Validates the versioned header (magic, version, meta CRC32,
    payload CRC32) before building any view; every payload array is a
    read-only, zero-copy view over the mapped buffer, and the sealed
    reference is rebuilt without an encoding pass
    (:meth:`~repro.cam.array.StoredReference.adopt_encoded`).
    Raises :class:`~repro.errors.CamConfigError` on any header or
    checksum mismatch, and on unknown segment names.
    """
    name = handle.name if isinstance(handle, SharedReferenceHandle) \
        else str(handle)
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError as exc:
        raise CamConfigError(
            f"no shared reference segment named {name!r} (was the "
            f"owner closed, unlinking it?)"
        ) from exc
    try:
        _fire_fault("parallel.shm.attach", buf=shm.buf)
        arrays = open_container(
            shm.buf, magic=SHM_MAGIC, version=SHM_VERSION,
            describe=f"shared segment {name!r}",
            error=CamConfigError,
            expected_fields=ENCODED_REFERENCE_FIELDS,
        )
        reference = StoredReference.adopt_encoded(
            encoded_reference_from_arrays(arrays)
        )
    except BaseException:
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover
            pass
        raise
    return AttachedReference(shm, reference)
