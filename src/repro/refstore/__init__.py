"""repro.refstore — persistent stored references and their catalog.

Encode a reference once, :func:`save_stored_reference` it, and every
later service boot :func:`open_stored_reference`-s the file back as a
zero-copy :class:`~repro.cam.array.StoredReference` via
``mmap`` — no encoding pass (``n_encodes`` stays 0), page-cache
shared across processes, every open guarded by a
magic/version/CRC32 ladder (the container codec,
:mod:`repro.refstore.header`).

:class:`ReferenceCatalog` layers multi-tenant residency on top:
names → files, lazy opens, byte-budgeted LRU eviction that never
unmaps a pinned (leased) reference, and hit/miss/latency stats.
``MappingFrontend(..., catalog=...)`` and
``StreamingMappingService(..., catalog=...)`` borrow from a catalog
by name instead of encoding from raw segments; results are
bit-identical either way (see DESIGN.md, "Reference persistence
contract").
"""

from repro.refstore.catalog import (
    CatalogStats,
    ReferenceCatalog,
    ReferenceLease,
)
from repro.refstore.format import (
    REFSTORE_MAGIC,
    REFSTORE_VERSION,
    MappedReference,
    open_stored_reference,
    save_stored_reference,
)

__all__ = [
    "CatalogStats",
    "MappedReference",
    "REFSTORE_MAGIC",
    "REFSTORE_VERSION",
    "ReferenceCatalog",
    "ReferenceLease",
    "open_stored_reference",
    "save_stored_reference",
]
