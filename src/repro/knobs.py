"""One shared validation gate for the cross-layer constructor knobs.

``micro_batch=`` and ``compaction=`` appear at three constructor
boundaries (:class:`repro.cam.CamArray`,
:class:`repro.service.StreamingMappingService` and
:class:`repro.service.MappingFrontend`).  They are validated *here*,
once, so a falsy or invalid value raises the same
:class:`~repro.errors.CamConfigError` with the same message at every
boundary — ``micro_batch=0`` is a configuration mistake, not a request
for autotuning (that is ``None``), and it should fail loudly instead
of being coerced or surfacing as an unrelated lower-layer error.

Every count knob passes :func:`check_count`, which also rejects a
``bool``, ``float`` or ``str`` rather than truncating it.  Counts that
live in one layer (the catalog's ``byte_budget=``, the sweep's
``n_runs``) go through the same check but raise that layer's error
(:class:`~repro.errors.RefStoreError`,
:class:`~repro.errors.ExperimentError`) — this gate owns exactly the
knobs that thread through multiple layers.

The same rule holds for the values every search threads down: a
batch's one threshold (:func:`check_threshold`), a sweep's threshold
vector (:func:`check_thresholds`), the ground-truth DP's band, and
the determinism keys, seeds and pass rotations (:func:`check_integer`,
raising :class:`~repro.errors.CamConfigError`) are integers or an
error, never truncated — ``threshold=2.7`` is a mistake, not ``T = 2``,
keys ``0.5`` and ``0.9`` are not one noise stream, ``seed=True`` is not
seed 1 and ``rotation=2.7`` is not the rotation-2 pass.  A seed is
masked to 64 bits only after its gate.  Contractlint ``CL304`` keeps
truncating coercions of those parameters out of the rest of
``src/repro``.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.errors import CamConfigError, ThresholdError


def check_integer(name: str, value, error: type = CamConfigError) -> int:
    """*value* as a Python ``int``, or *error* if it is not an integer.

    Python and numpy integers are accepted; a ``bool``, ``float``,
    ``str`` or array raises *error* instead of being truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_count(name: str, value, error: type = CamConfigError) -> None:
    """Reject a count knob that is set but not a positive integer.

    ``None`` passes (autotune/disable); anything else must pass
    :func:`check_integer` (``micro_batch=2.7`` is a mistake, not 2).
    """
    if value is None:
        return
    if check_integer(name, value, error) < 1:
        raise error(f"{name} must be positive, got {value}")


def check_threshold(value, sweep_call: str) -> int:
    """A batch's one threshold ``T`` as a Python ``int``.

    A batch takes exactly one threshold: a vector raises
    :class:`~repro.errors.ThresholdError` naming *sweep_call*, the
    entry point that takes one, and a non-integer raises it too.  The
    range ``0..N`` is the array's to check (it knows ``N``).
    """
    if np.ndim(value) != 0:
        raise ThresholdError(
            f"a batch takes one threshold, got shape {np.shape(value)}; "
            f"pass a threshold vector to {sweep_call}"
        )
    return check_integer("threshold", value, ThresholdError)


def check_thresholds(values) -> np.ndarray:
    """A sweep's threshold vector as a new non-empty 1-D int64 array.

    Raises :class:`~repro.errors.ThresholdError` for any other shape
    and for a non-integer dtype (floats, bools, strings).
    """
    vector = np.asarray(values)
    if vector.ndim != 1 or vector.shape[0] == 0:
        raise ThresholdError(
            f"thresholds must be a non-empty 1-D sweep vector, got "
            f"shape {vector.shape}"
        )
    if not np.issubdtype(vector.dtype, np.integer):
        raise ThresholdError(
            f"thresholds must be integers, got dtype {vector.dtype}"
        )
    return vector.astype(np.int64)


def validate_service_knobs(micro_batch: "int | None" = None,
                           compaction: "int | None" = None) -> None:
    """Reject falsy/invalid cross-layer knobs at a constructor boundary.

    Every knob treats ``None`` as "autotune/disable"; explicit values
    must be valid (counts: positive integers).  Raises
    :class:`~repro.errors.CamConfigError`.
    """
    check_count("micro_batch", micro_batch)
    check_count("compaction", compaction)


def validate_reference_source(segments, *,
                              catalog: "object | None" = None) -> None:
    """Reject inconsistent ``(segments, catalog)`` constructor pairings.

    The service layer accepts three reference sources in the
    ``segments`` position: a raw segment matrix, a
    :class:`~repro.cam.array.StoredReference` (e.g. from
    :func:`repro.refstore.open_stored_reference`), or — with
    ``catalog=`` — a reference *name* to borrow from a
    :class:`~repro.refstore.ReferenceCatalog`.  This gate pins the
    pairing rules once, so every boundary raises the same
    :class:`~repro.errors.CamConfigError`:

    * ``catalog=`` given → ``segments`` must be a name string;
    * a name string without ``catalog=`` is meaningless.
    """
    if catalog is not None and not isinstance(segments, str):
        raise CamConfigError(
            f"with catalog=, pass the reference name (a str) in "
            f"the segments position, got {type(segments).__name__}"
        )
    if catalog is None and isinstance(segments, str):
        raise CamConfigError(
            f"a reference name ({segments!r}) needs catalog=; without "
            f"one, pass a segment matrix or a StoredReference"
        )
