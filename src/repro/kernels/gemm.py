"""The float one-hot GEMM backend (``numpy-gemm``).

Each query cell's *acceptable* stored bases (the co-located read base
plus, in ED* mode, its immediate neighbours — the searchline fan-out of
Fig. 4(c)) become a ``(B, N * 4)`` float32 mask, and one BLAS matmul
against the stored one-hot counts the matches.  float32 is exact here:
every partial inner product is an integer below ``2**24``.

**Table-gather encode.**  A cell's mask is a function of at most three
codes, so it is gathered, not scattered: a packed ``uint32`` table
holds each possible cell's four mask bytes.  ED* indexes a 100-entry
table at ``prev*20 + cur*5 + next`` (code 4 stands for "no neighbour"
past either row edge), HD a 4-entry table at ``cur``.  ``take`` over
the index block, viewed as ``uint8``, is the mask; it is copied into
one float32 buffer reused by every pass of a call.

**Rotations from one encode.**  A left rotation by ``r`` reads cell
``j`` of the rotated read from cell ``(j + r) mod N`` of the original,
so the rotated code block is a window of the block laid twice side by
side — a view, not a copy.  Its mask at ``j`` depends only on the
rotated codes at ``j - 1, j, j + 1`` (edge sentinels included), which
is exactly the index the table is gathered at; the rotated counts
therefore equal a fresh encode of ``np.roll(queries, -r, axis=1)``.
The base pass and every TASR/SR rotation of a block come out of one
call, one GEMM per pass over the reused mask buffer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constants import CHUNK_ELEMS
from repro.genome import alphabet
from repro.kernels.base import EncodedReference, KernelBackend
from repro.kernels.registry import register_backend

#: The "no neighbour" code past either edge of a row.
_EDGE = alphabet.ALPHABET_SIZE


def _packed_table(*codes: np.ndarray) -> np.ndarray:
    """``uint32`` entries whose byte ``b`` is 1 where any code is ``b``."""
    bases = np.arange(alphabet.ALPHABET_SIZE)
    mask = np.zeros(codes[0].shape + bases.shape, dtype=np.uint8)
    for code in codes:
        mask |= code[..., None] == bases
    return mask.reshape(-1, alphabet.ALPHABET_SIZE).view(np.uint32).ravel()


#: ED* masks indexed by ``prev*20 + cur*5 + next``.
_ED_STAR_TABLE = _packed_table(*np.meshgrid(
    np.arange(_EDGE + 1), np.arange(_EDGE), np.arange(_EDGE + 1),
    indexing="ij"))
#: HD masks indexed by ``cur``.
_HD_TABLE = _packed_table(np.arange(_EDGE))


def _gemm_chunks(n_queries: int, n_cells: int) -> "list[tuple[int, int]]":
    """Query-block chunks bounding the float32 mask's memory."""
    per_query = max(1, n_cells * alphabet.ALPHABET_SIZE)
    chunk = max(1, CHUNK_ELEMS // per_query)
    return [(start, min(start + chunk, n_queries))
            for start in range(0, n_queries, chunk)]


def _ed_star_index(codes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``prev*20 + cur*5 + next`` per cell, :data:`_EDGE` past a row edge."""
    np.multiply(codes, 5, out=out)
    out[:, 0] += _EDGE * 20
    out[:, 1:] += codes[:, :-1] * np.uint8(20)
    out[:, :-1] += codes[:, 1:]
    out[:, -1] += _EDGE
    return out


def _gather_mask(codes: np.ndarray, ed_star: bool, index: np.ndarray,
                 packed: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Gather the ``(B, N * 4)`` float32 mask of ``codes`` into ``mask``.

    ``index`` (uint8) and ``packed`` (uint32) are ``(B, N)`` scratch
    buffers; ``codes`` may be a strided window (a rotation view).
    """
    if ed_star:
        table, codes = _ED_STAR_TABLE, _ed_star_index(codes, index)
    else:
        table = _HD_TABLE
    np.take(table, codes, out=packed, mode="clip")
    mask[...] = packed.view(np.uint8)
    return mask


class GemmBackend(KernelBackend):
    """One-hot float32 GEMM mismatch counts."""

    name = "numpy-gemm"

    def _counts(self, encoded: EncodedReference, queries: np.ndarray,
                *, ed_star: bool) -> np.ndarray:
        counts = np.empty((queries.shape[0], encoded.n_rows), dtype=np.intp)
        self._passes(encoded, queries, ((ed_star, 0),), (counts,))
        return counts

    def _counts_dual(self, encoded: EncodedReference,
                     queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Two blocks, not views of one (2, B, M) array: ledgers keep
        # each pass's counts, and the shared block raised the peak RSS
        # of a four-session frontend by ~4%.
        ed = np.empty((queries.shape[0], encoded.n_rows), dtype=np.intp)
        hd = np.empty_like(ed)
        self._passes(encoded, queries, ((True, 0), (False, 0)), (ed, hd))
        return ed, hd

    def _rotated_counts(self, encoded: EncodedReference, queries: np.ndarray,
                        offsets: "tuple[int, ...]", *,
                        ed_star: bool) -> np.ndarray:
        counts = np.empty((len(offsets), queries.shape[0], encoded.n_rows),
                          dtype=np.intp)
        self._passes(encoded, queries,
                     tuple((ed_star, offset) for offset in offsets), counts)
        return counts

    @staticmethod
    def _passes(encoded: EncodedReference, queries: np.ndarray,
                passes: "tuple[tuple[bool, int], ...]",
                outs: "Sequence[np.ndarray]") -> None:
        """Write each ``(ed_star, offset)`` pass's ``(B, M)`` counts.

        One GEMM per pass and chunk; the index, packed and float32
        mask buffers are allocated once and reused by every pass.
        """
        queries = np.asarray(queries, dtype=np.uint8)
        n_queries, n_cells = queries.shape
        chunks = _gemm_chunks(n_queries, n_cells)
        rows = chunks[0][1] if chunks else 0
        index = np.empty((rows, n_cells), dtype=np.uint8)
        packed = np.empty((rows, n_cells), dtype=np.uint32)
        mask = np.empty((rows, n_cells * alphabet.ALPHABET_SIZE),
                        dtype=np.float32)
        stored = encoded.onehot.T
        for start, stop in chunks:
            size = stop - start
            block = queries[start:stop]
            twice = np.concatenate((block, block), axis=1)
            for (ed_star, offset), out in zip(passes, outs):
                shift = offset % n_cells
                _gather_mask(twice[:, shift:shift + n_cells], ed_star,
                             index[:size], packed[:size], mask[:size])
                out[start:stop] = n_cells - mask[:size] @ stored


register_backend(GemmBackend())
