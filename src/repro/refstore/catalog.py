"""A byte-budgeted, pin-aware catalog of on-disk stored references.

The multi-tenant layer over :mod:`repro.refstore.format`: a
:class:`ReferenceCatalog` maps reference *names* to store files,
opens them lazily on first borrow (one ``mmap``, zero encoding
passes), and keeps hot references resident under an optional byte
budget with LRU eviction.  Borrowing returns a
:class:`ReferenceLease` that **pins** the mapping — an LRU sweep or
an explicit :meth:`ReferenceCatalog.evict` never unmaps a reference
while any lease is open on it (explicit eviction of a pinned name
raises :class:`~repro.errors.RefStoreError`; the budget sweep skips
pinned entries, so residency may temporarily exceed the budget while
pins hold).  Closing the last lease re-runs the sweep.

All methods are thread-safe behind one lock, which makes the catalog
safe to share across the concurrent sessions of a
:class:`~repro.service.MappingFrontend`.  :meth:`ReferenceCatalog.
stats` reports hit/miss/eviction counts, open latency and resident
bytes so a service operator can size the budget from evidence.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Iterator

from repro.cam.array import StoredReference
from repro.errors import RefStoreError
from repro.knobs import check_count
from repro.faults.hooks import fire as _fire_fault
from repro.refstore.format import (
    MappedReference,
    open_stored_reference,
    save_stored_reference,
)

__all__ = [
    "CatalogStats",
    "ReferenceCatalog",
    "ReferenceLease",
]


@dataclass(frozen=True)
class CatalogStats:
    """A point-in-time snapshot of one catalog's behaviour.

    ``hits``/``misses`` count borrows served from a resident mapping
    vs. borrows that *successfully* opened the file (``misses`` is
    also the number of successful opens); ``open_failures`` counts
    borrows whose open raised (corrupt, truncated or missing store
    file) — a distinct signal, because a failed open costs the caller
    an error, not a mapping, and an operator alerting on miss rate
    must not conflate the two.  ``evictions`` counts unmapped
    references — budget sweeps and explicit evictions alike.
    ``open_seconds_*`` time only the successful miss path (map +
    validate + adopt), the cost the catalog exists to amortise.
    """

    hits: int
    misses: int
    open_failures: int
    evictions: int
    resident_count: int
    resident_bytes: int
    pinned_count: int
    byte_budget: "int | None"
    open_seconds_total: float
    open_seconds_max: float


class _Entry:
    """Catalog-internal bookkeeping for one registered name."""

    __slots__ = ("path", "mapped", "pins", "tick")

    def __init__(self, path: str):
        self.path = path
        self.mapped: "MappedReference | None" = None
        self.pins = 0
        self.tick = 0


class ReferenceLease:
    """A pin on one catalog reference, released by :meth:`close`.

    While any lease on a name is open the catalog will not unmap that
    reference — not for budget pressure, not for an explicit evict.
    Use as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, catalog: "ReferenceCatalog", name: str,
                 reference: StoredReference, nbytes: int):
        self._catalog: "ReferenceCatalog | None" = catalog
        self._name = name
        self._reference = reference
        self._nbytes = int(nbytes)

    @property
    def name(self) -> str:
        return self._name

    @property
    def reference(self) -> StoredReference:
        """The mapped reference (invalid once the lease closes)."""
        if self._catalog is None:
            raise RefStoreError(
                f"lease on reference {self._name!r} has been closed"
            )
        return self._reference

    @property
    def nbytes(self) -> int:
        """Size of the backing store file in bytes."""
        return self._nbytes

    @property
    def closed(self) -> bool:
        return self._catalog is None

    def close(self) -> None:
        """Drop the pin (idempotent); may trigger a budget sweep."""
        catalog, self._catalog = self._catalog, None
        if catalog is not None:
            catalog._release(self._name)

    def __enter__(self) -> "ReferenceLease":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ReferenceCatalog:
    """Names → on-disk stored references, resident under a byte budget.

    ``byte_budget`` bounds the bytes of *unpinned* resident mappings:
    after every open and every last-lease release, least-recently
    borrowed unpinned references are unmapped until resident bytes
    fit the budget (``None`` = unbounded).  Registered files are
    never deleted — eviction only unmaps.
    """

    def __init__(self, byte_budget: "int | None" = None):
        check_count("byte_budget", byte_budget, RefStoreError)
        self._byte_budget = (None if byte_budget is None
                             else int(byte_budget))
        self._lock = threading.Lock()
        self._entries: "dict[str, _Entry]" = {}
        self._clock = 0
        self._closed = False
        self._hits = 0
        self._misses = 0
        self._open_failures = 0
        self._evictions = 0
        self._open_seconds_total = 0.0
        self._open_seconds_max = 0.0

    # -- registration --------------------------------------------------

    def add(self, name: str, path) -> None:
        """Register an existing store file under *name* (lazy open).

        The file must exist (fail-fast on typos); its contents are
        validated on first borrow, not here.
        """
        path = os.fspath(path)
        with self._lock:
            self._require_open()
            if name in self._entries:
                raise RefStoreError(
                    f"reference name {name!r} is already registered "
                    f"(backed by {self._entries[name].path!r})"
                )
            if not os.path.isfile(path):
                raise RefStoreError(
                    f"no reference store file {path!r} to register "
                    f"as {name!r}"
                )
            self._entries[name] = _Entry(path)

    def store(self, name: str, reference: StoredReference,
              path) -> int:
        """Save *reference* to *path* and register it — one call.

        Returns the store file size in bytes.  The encode already
        paid by *reference* is the last one: every borrow of *name*
        maps the file instead.
        """
        with self._lock:
            self._require_open()
            if name in self._entries:
                raise RefStoreError(
                    f"reference name {name!r} is already registered "
                    f"(backed by {self._entries[name].path!r})"
                )
        nbytes = save_stored_reference(path, reference)
        self.add(name, path)
        return nbytes

    def names(self) -> "tuple[str, ...]":
        """All registered names, in registration order."""
        with self._lock:
            return tuple(self._entries)

    def resident_names(self) -> "tuple[str, ...]":
        """Names currently mapped into memory."""
        with self._lock:
            return tuple(name for name, entry in self._entries.items()
                         if entry.mapped is not None)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> "Iterator[str]":
        return iter(self.names())

    # -- borrow / release ----------------------------------------------

    def borrow(self, name: str) -> ReferenceLease:
        """Pin *name* resident and lease its mapped reference.

        A hit reuses the resident mapping; a miss maps and validates
        the file (timed into :meth:`stats`), then sweeps the LRU tail
        if the budget is exceeded.  Close the lease to unpin.
        """
        with self._lock:
            self._require_open()
            entry = self._entries.get(name)
            if entry is None:
                raise RefStoreError(
                    f"unknown reference name {name!r}; registered: "
                    f"{sorted(self._entries) or 'none'}"
                )
            if entry.mapped is None:
                _fire_fault("refstore.catalog.open", name=name,
                            path=entry.path)
                started = time.perf_counter()
                try:
                    entry.mapped = open_stored_reference(entry.path)
                except RefStoreError:
                    # Not a miss: the borrow produced an error, not a
                    # mapping — operators watch this count separately.
                    self._open_failures += 1
                    raise
                elapsed = time.perf_counter() - started
                self._misses += 1
                self._open_seconds_total += elapsed
                self._open_seconds_max = max(self._open_seconds_max,
                                             elapsed)
            else:
                self._hits += 1
            self._clock += 1
            entry.tick = self._clock
            entry.pins += 1
            lease = ReferenceLease(self, name,
                                   entry.mapped.reference,
                                   entry.mapped.nbytes)
            self._sweep_locked()
            return lease

    def _release(self, name: str) -> None:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None or entry.pins == 0:
                # Lease outlived an evicted-and-closed catalog entry;
                # nothing left to unpin.
                return
            entry.pins -= 1
            self._sweep_locked()

    # -- eviction ------------------------------------------------------

    def evict(self, name: str) -> bool:
        """Unmap *name* now.  Pinned references refuse, loudly.

        Returns ``True`` if a mapping was dropped, ``False`` if the
        name was registered but not resident.  Raises
        :class:`~repro.errors.RefStoreError` for unknown names and
        for names with open leases — eviction never invalidates a
        borrowed reference.
        """
        with self._lock:
            self._require_open()
            entry = self._entries.get(name)
            if entry is None:
                raise RefStoreError(
                    f"unknown reference name {name!r}; registered: "
                    f"{sorted(self._entries) or 'none'}"
                )
            if entry.mapped is None:
                return False
            if entry.pins > 0:
                raise RefStoreError(
                    f"reference {name!r} is pinned by {entry.pins} "
                    f"open lease(s); close them before evicting"
                )
            self._evict_locked(entry)
            return True

    def _evict_locked(self, entry: _Entry) -> None:
        mapped, entry.mapped = entry.mapped, None
        mapped.close()
        self._evictions += 1

    def _sweep_locked(self) -> None:
        """Unmap LRU unpinned entries until resident bytes fit."""
        if self._byte_budget is None:
            return
        while self._resident_bytes_locked() > self._byte_budget:
            victims = [entry for entry in self._entries.values()
                       if entry.mapped is not None and entry.pins == 0]
            if not victims:
                # Every resident mapping is pinned: the budget is
                # temporarily exceeded, by design — pins never break.
                return
            self._evict_locked(min(victims, key=lambda e: e.tick))

    def _resident_bytes_locked(self) -> int:
        return sum(entry.mapped.nbytes
                   for entry in self._entries.values()
                   if entry.mapped is not None)

    # -- observability / lifecycle -------------------------------------

    def stats(self) -> CatalogStats:
        with self._lock:
            return CatalogStats(
                hits=self._hits,
                misses=self._misses,
                open_failures=self._open_failures,
                evictions=self._evictions,
                resident_count=sum(
                    1 for entry in self._entries.values()
                    if entry.mapped is not None),
                resident_bytes=self._resident_bytes_locked(),
                pinned_count=sum(
                    1 for entry in self._entries.values()
                    if entry.pins > 0),
                byte_budget=self._byte_budget,
                open_seconds_total=self._open_seconds_total,
                open_seconds_max=self._open_seconds_max,
            )

    def close(self) -> None:
        """Unmap everything and refuse further use (idempotent).

        Raises :class:`~repro.errors.RefStoreError` if any lease is
        still open — closing under a live borrower would invalidate
        arrays mid-search.
        """
        with self._lock:
            if self._closed:
                return
            pinned = sorted(name for name, entry
                            in self._entries.items() if entry.pins > 0)
            if pinned:
                raise RefStoreError(
                    f"cannot close catalog with open leases on "
                    f"{pinned}; close the leases (or their sessions) "
                    f"first"
                )
            for entry in self._entries.values():
                if entry.mapped is not None:
                    self._evict_locked(entry)
            self._closed = True

    def __enter__(self) -> "ReferenceCatalog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RefStoreError("this reference catalog has been closed")
