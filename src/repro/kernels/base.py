"""Substrate shared by every kernel backend.

The mismatch-count primitives behind ``CamArray.search_batch`` /
``search_sweep`` are pluggable *kernel backends*.  Each backend
computes the same two exact quantities:

* ``counts_batch(encoded, queries, ed_star=...)`` — per-row digital
  mismatch counts, HD or the neighbour-tolerant ED* of
  :mod:`repro.distance.ed_star`; with ``rotations=`` offsets, the
  ``(R, B, M)`` counts of the block rotated left by each offset (the
  TASR/SR passes; offset 0 is the unrotated base pass);
* ``counts_batch_dual(encoded, queries)`` — the ``(ED*, HD)`` pair from
  one shared query pass (the controller's back-to-back search trick).

**Exactness contract.**  Counts are small integers (bounded by the row
length), and a backend must compute them exactly — the float32 GEMM is
exact below ``2**24`` — so every digital decision, ledger event and
report downstream is independent of the backend choice.  The property
tests in ``tests/kernels/`` enforce ``==`` against the boolean
reference, not ``approx``.

This module owns the pieces every backend shares: the
:class:`EncodedReference` value (the per-reference encodings, built in
one pass over the segments) and the boolean-sweep fallback that
handles query codes outside ACGT (ambiguity codes cannot be one-hot
indexed, so they route to the reference comparison; it is also the
test oracle).

Layering: this package sits *below* ``repro.cam`` — it imports only
numpy, ``repro.constants``, ``repro.errors``, ``repro.genome.alphabet``
and the boolean reference kernels of ``repro.distance.ed_star``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.constants import CHUNK_ELEMS
from repro.distance.ed_star import mismatch_counts_all_reads
from repro.errors import CamConfigError
from repro.genome import alphabet


@dataclass(frozen=True)
class EncodedReference:
    """Every per-reference search encoding, built in one pass.

    An immutable value the backends compute *against*: the raw stored
    segments (the boolean fallback's input) and the float32 one-hot the
    GEMM lane multiplies.  Building them together is what lets a
    :class:`repro.cam.array.StoredReference` stay thread-safe and
    encoded exactly once while any backend serves any session.
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
    """One encoding pass producing every backend's search cache.

    float32 is exact for the GEMM lane: every partial inner product is
    an integer below ``2**24``.  Stored codes are alphabet-checked at
    write time, so the one-hot index is always in range.
    """
    segments = np.ascontiguousarray(segments, dtype=np.uint8)
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


def _per_offset_counts(count: "Callable[[np.ndarray], np.ndarray]",
                      queries: np.ndarray, offsets: "tuple[int, ...]",
                      n_rows: int) -> np.ndarray:
    """``(R, B, M)`` counts of ``count`` over each left-rotated block."""
    out = np.empty((len(offsets), queries.shape[0], n_rows), dtype=np.intp)
    for index, offset in enumerate(offsets):
        out[index] = count(np.roll(queries, -offset, axis=1))
    return out


class KernelBackend:
    """Base class of the mismatch-count kernel backends.

    Subclasses implement :meth:`_counts` (and optionally
    :meth:`_counts_dual` and :meth:`_rotated_counts`); the public entry
    points here own what must never differ between backends — the
    exact-lane eligibility gate and the shared boolean fallback for
    queries carrying non-ACGT ambiguity codes.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    # -- public entry points ----------------------------------------------

    def counts_batch(self, encoded: EncodedReference, queries: np.ndarray,
                     *, ed_star: bool,
                     rotations: "Sequence[int] | None" = None) -> np.ndarray:
        """Exact ``(B, M)`` mismatch counts (ED* or Hamming).

        With ``rotations``, the ``(R, B, M)`` counts of the block
        rotated left by each offset (``np.roll(queries, -offset,
        axis=1)``; negative offsets rotate right, 0 is the block as
        given).
        """
        eligible = self.exact_lane_eligible(queries)
        if rotations is None:
            if not eligible:
                return self._fallback_counts(encoded.segments, queries,
                                             ed_star=ed_star)
            return self._counts(encoded, queries, ed_star=ed_star)
        offsets = tuple(int(offset) for offset in rotations)
        if not eligible:
            return _per_offset_counts(
                partial(self._fallback_counts, encoded.segments,
                        ed_star=ed_star),
                queries, offsets, encoded.n_rows)
        return self._rotated_counts(encoded, queries, offsets,
                                    ed_star=ed_star)

    def counts_batch_dual(
            self, encoded: EncodedReference,
            queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ED*, HD)`` count blocks sharing one query pass."""
        if not self.exact_lane_eligible(queries):
            ed = self._fallback_counts(encoded.segments, queries,
                                       ed_star=True)
            hd = self._fallback_counts(encoded.segments, queries,
                                       ed_star=False)
            return ed, hd
        return self._counts_dual(encoded, queries)

    # -- shared gates ------------------------------------------------------

    @staticmethod
    def exact_lane_eligible(queries: np.ndarray) -> bool:
        """Whether the backend's exact lane can encode this search.

        Stored codes are alphabet-checked at write time; only query
        codes outside ACGT (which a one-hot lookup cannot represent)
        force the boolean comparison fallback.
        """
        if queries.shape[0] == 0:
            return False
        return int(queries.max()) < alphabet.ALPHABET_SIZE

    @staticmethod
    def _fallback_counts(segments: np.ndarray, queries: np.ndarray,
                         *, ed_star: bool) -> np.ndarray:
        """Boolean-sweep reference (non-ACGT queries), memory-bounded."""
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

    # -- backend lanes -----------------------------------------------------

    def _counts(self, encoded: EncodedReference, queries: np.ndarray,
                *, ed_star: bool) -> np.ndarray:
        raise NotImplementedError

    def _counts_dual(self, encoded: EncodedReference,
                     queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ed = self._counts(encoded, queries, ed_star=True)
        hd = self._counts(encoded, queries, ed_star=False)
        return ed, hd

    def _rotated_counts(self, encoded: EncodedReference, queries: np.ndarray,
                        offsets: "tuple[int, ...]", *,
                        ed_star: bool) -> np.ndarray:
        """Roll the block per offset and count each copy."""
        return _per_offset_counts(
            partial(self._counts, encoded, ed_star=ed_star),
            queries, offsets, encoded.n_rows)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
