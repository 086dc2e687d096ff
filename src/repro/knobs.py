"""One shared validation gate for the cross-layer constructor knobs.

``backend=``, ``max_workers=``, ``micro_batch=`` and ``compaction=``
appear at four constructor boundaries (:class:`repro.cam.CamArray`,
:class:`repro.core.pipeline.ShardedReadMappingPipeline`,
:class:`repro.service.StreamingMappingService` and
:class:`repro.service.MappingFrontend`).  They are validated *here*,
once, so a falsy or invalid value raises the same
:class:`~repro.errors.CamConfigError` with the same message at every
boundary — ``micro_batch=0`` is a configuration mistake, not a request
for autotuning (that is ``None``), and it should fail loudly instead
of being coerced or surfacing as an unrelated lower-layer error.

Every count knob passes :func:`check_count`, which also rejects a
``bool``, ``float`` or ``str`` rather than truncating it.  Knobs that
only exist at the service layer (the frontend's ``pool_workers=`` and
``max_backlog=``) go through the same check but keep raising
:class:`~repro.errors.ServiceError` there — this gate owns exactly the
knobs that thread through multiple layers.
"""

from __future__ import annotations

import numbers

from repro.errors import CamConfigError
from repro.kernels import KernelBackend, get_backend


def check_count(name: str, value, error: type = CamConfigError) -> None:
    """Reject a count knob that is set but not a positive integer.

    ``None`` passes (autotune/disable).  Python and numpy integers are
    accepted; a ``bool``, ``float`` or ``str`` raises *error* instead
    of being truncated (``micro_batch=2.7`` is a mistake, not 2).
    """
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise error(f"{name} must be positive, got {value}")


def validate_service_knobs(micro_batch: "int | None" = None,
                           compaction: "int | None" = None,
                           *,
                           max_workers: "int | None" = None,
                           backend: "str | KernelBackend | None" = None,
                           ) -> None:
    """Reject falsy/invalid cross-layer knobs at a constructor boundary.

    Every knob treats ``None`` as "autotune/disable"; explicit values
    must be valid (counts: positive integers).  Raises
    :class:`~repro.errors.CamConfigError`.
    """
    check_count("micro_batch", micro_batch)
    check_count("compaction", compaction)
    check_count("max_workers", max_workers)
    if backend is not None and not isinstance(backend, KernelBackend):
        get_backend(backend)  # raises CamConfigError on unknown names


def validate_reference_source(segments, *,
                              catalog: "object | None" = None) -> None:
    """Reject inconsistent ``(segments, catalog)`` constructor pairings.

    The service layer accepts three reference sources in the
    ``segments`` position: a raw segment matrix, a sealed
    :class:`~repro.cam.array.StoredReference` (e.g. from
    :func:`repro.refstore.open_stored_reference`), or — with
    ``catalog=`` — a reference *name* to borrow from a
    :class:`~repro.refstore.ReferenceCatalog`.  This gate pins the
    pairing rules once, so every boundary raises the same
    :class:`~repro.errors.CamConfigError`:

    * ``catalog=`` given → ``segments`` must be a name string;
    * a name string without ``catalog=`` is meaningless;
    * a passed-in stored reference must be sealed (an unsealed one
      still accepts stores, and sessions must never race them).
    """
    # Function-level import: cam.array imports this module's sibling
    # gate, so the reference type cannot be imported at module level.
    from repro.cam.array import StoredReference

    if catalog is not None and not isinstance(segments, str):
        raise CamConfigError(
            f"with catalog=, pass the reference name (a str) in "
            f"the segments position, got {type(segments).__name__}"
        )
    if catalog is None and isinstance(segments, str):
        raise CamConfigError(
            f"a reference name ({segments!r}) needs catalog=; without "
            f"one, pass a segment matrix or a sealed StoredReference"
        )
    if isinstance(segments, StoredReference) and not segments.sealed:
        raise CamConfigError(
            "a StoredReference passed to the service layer must be "
            "sealed (StoredReference.encode(...) seals; adopted "
            "references are born sealed)"
        )
