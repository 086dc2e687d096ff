"""The encoded reference and the boolean reference counts.

The mismatch counts behind ``CamArray.search_batch`` /
``search_sweep`` are two exact quantities (:mod:`repro.kernels.gemm`
computes them):

* ``counts_batch(encoded, queries, ed_star=...)`` — per-row digital
  mismatch counts, HD or the neighbour-tolerant ED* of
  :mod:`repro.distance.ed_star`; with ``rotations=`` offsets, the
  ``(R, B, M)`` counts of the block rotated left by each offset (the
  TASR/SR passes; offset 0 is the unrotated base pass);
* ``counts_batch_dual(encoded, queries)`` — the ``(ED*, HD)`` pair from
  one shared query pass (the controller's back-to-back search trick).

**Exactness contract.**  Counts are small integers (bounded by the row
length) and are computed exactly — the float32 GEMM is exact below
``2**24`` — so every digital decision, ledger event and report
downstream equals what the boolean comparison would give.  The
property tests in ``tests/kernels/`` enforce ``==`` against
:func:`_fallback_counts`, not ``approx``.

This module owns the :class:`EncodedReference` value (the
per-reference encodings, built in one pass over the segments) and the
boolean-sweep :func:`_fallback_counts`, which handles query codes
outside ACGT (ambiguity codes cannot be one-hot indexed) and is the
test oracle.

Layering: this package sits *below* ``repro.cam`` — it imports only
numpy, ``repro.constants``, ``repro.errors``, ``repro.genome.alphabet``
and the boolean reference kernels of ``repro.distance.ed_star``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import CHUNK_ELEMS
from repro.distance.ed_star import mismatch_counts_all_reads
from repro.errors import CamConfigError
from repro.genome import alphabet


@dataclass(frozen=True)
class EncodedReference:
    """Every per-reference search encoding, built in one pass.

    An immutable value the kernel computes *against*: the raw stored
    segments (the boolean fallback's input) and the float32 one-hot the
    GEMM multiplies.  Building them together is what lets a
    :class:`repro.cam.array.StoredReference` stay thread-safe and
    encoded exactly once while it serves any number of sessions.
    """

    segments: np.ndarray        # (M, N) uint8, read-only
    onehot: np.ndarray          # (M, N * 4) float32, read-only

    @property
    def n_rows(self) -> int:
        return self.segments.shape[0]

    @property
    def n_cells(self) -> int:
        return self.segments.shape[1]


def encode_reference(segments: np.ndarray) -> EncodedReference:
    """One encoding pass producing the reference's search cache.

    float32 is exact for the GEMM: every partial inner product is
    an integer below ``2**24``.  Stored codes are alphabet-checked at
    write time, so the one-hot index is always in range.  The encoding
    freezes a private copy of *segments*; the caller's matrix stays
    writeable.
    """
    segments = np.array(segments, dtype=np.uint8, order="C")
    n_rows, n_cells = segments.shape
    onehot = np.zeros((n_rows * n_cells, alphabet.ALPHABET_SIZE),
                      dtype=np.float32)
    if segments.size:
        onehot[np.arange(n_rows * n_cells), segments.ravel()] = 1.0
    onehot = onehot.reshape(n_rows, n_cells * alphabet.ALPHABET_SIZE)
    for array in (segments, onehot):
        array.setflags(write=False)
    return EncodedReference(segments=segments, onehot=onehot)


#: The payload arrays of an :class:`EncodedReference`, in the fixed
#: serialisation order of the reference store's container.
ENCODED_REFERENCE_FIELDS = ("segments", "onehot")


def encoded_reference_arrays(
        encoded: EncodedReference) -> "tuple[tuple[str, np.ndarray], ...]":
    """``(name, array)`` pairs of an encoding's payload, fixed order.

    The single definition of "everything needed to search a
    reference" — :mod:`repro.refstore` writes exactly these arrays
    into a store file, and :func:`encoded_reference_from_arrays`
    rebuilds the value from them, so the file format cannot drift
    from the dataclass.
    """
    return tuple((name, getattr(encoded, name))
                 for name in ENCODED_REFERENCE_FIELDS)


def encoded_reference_from_arrays(
        arrays: "dict[str, np.ndarray]") -> EncodedReference:
    """Rebuild an :class:`EncodedReference` from its payload arrays.

    The inverse of :func:`encoded_reference_arrays` for the zero-copy
    store open: the arrays are adopted as-is (marked read-only, never
    copied, no re-encoding pass), so views over a mapped file stay
    views.
    """
    missing = [name for name in ENCODED_REFERENCE_FIELDS
               if name not in arrays]
    if missing:
        raise CamConfigError(
            f"encoded-reference payload is missing arrays: {missing}"
        )
    for name in ENCODED_REFERENCE_FIELDS:
        arrays[name].setflags(write=False)
    return EncodedReference(**{name: arrays[name]
                               for name in ENCODED_REFERENCE_FIELDS})


def _fallback_counts(segments: np.ndarray, queries: np.ndarray,
                     *, ed_star: bool) -> np.ndarray:
    """Boolean-sweep ``(B, M)`` counts, memory-bounded.

    The reference semantics of every count: it serves query blocks
    carrying non-ACGT codes, which a one-hot lookup cannot represent,
    and it is the oracle the GEMM kernel is tested against.
    """
    if ed_star:
        return mismatch_counts_all_reads(segments, queries)
    n_queries = queries.shape[0]
    counts = np.empty((n_queries, segments.shape[0]), dtype=np.intp)
    plane_elems = max(1, segments.shape[0] * segments.shape[1])
    chunk = max(1, CHUNK_ELEMS // plane_elems)
    for start in range(0, n_queries, chunk):
        block = queries[start:start + chunk]
        counts[start:start + chunk] = np.count_nonzero(
            segments[None, :, :] != block[:, None, :], axis=2
        )
    return counts
