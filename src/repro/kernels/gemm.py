"""The one count kernel (``numpy-gemm``): a float one-hot GEMM.

Each query cell's *acceptable* stored bases (the co-located read base
plus, in ED* mode, its immediate neighbours — the searchline fan-out of
Fig. 4(c)) become four float32 mask columns, and a BLAS matmul against
the stored one-hot counts the matches.  float32 is exact here: every
partial inner product is an integer below ``2**24``.

**One gather per mode.**  A cell's mask is a function of at most three
codes, so it is gathered, not scattered: a packed ``uint32`` table
holds each possible cell's four mask bytes.  ED* indexes a 100-entry
table at ``prev*20 + cur*5 + next`` (code 4 stands for "no neighbour"),
HD a 4-entry table at ``cur``.  A call gathers each mode's mask of the
block once, with **circular** neighbours: cell ``j``'s ``prev`` and
``next`` are cells ``j - 1`` and ``j + 1`` mod ``N``.

**Passes are windows of that mask.**  A left rotation by ``r`` reads
cell ``j`` of the rotated read from cell ``(j + r) mod N`` of the
original, and for ``j`` in ``1..N-2`` the rotated cell's neighbours are
the circular neighbours of that original cell — so the rotated mask is
the circular mask's columns rotated by ``r`` cells, two slice copies.
Only the rotated read's first and last cells differ: their neighbour
across the row edge is the sentinel, so they are re-gathered at
``EDGE*20 + q[r]*5 + q[r+1]`` and ``q[r-2]*20 + q[r-1]*5 + EDGE``
(indices mod ``N``, which stays exact for ``N <= 2``).  HD masks
have no neighbours and need no fix.  The rotated counts therefore
equal a fresh encode of ``np.roll(queries, -r, axis=1)``.

**One GEMM per chunk.**  Every pass of a call — the base pass and each
TASR/SR rotation, or the ED*/HD pair — copies its window into one
``(P·B, 4N)`` float32 buffer, and one matmul per chunk (sized by
:data:`~repro.constants.CHUNK_ELEMS` over the ``P·B`` rows) counts them
all.  Each output row is the same integer dot product of the same mask
row as in a per-pass GEMM, so the stacked call is ``==`` per-pass
calls.  Each pass's ``(B, M)`` block is written separately: the
subtraction ``N - matches`` casts it into the narrowest unsigned dtype
holding ``N`` (``np.min_scalar_type(N)``: ``uint16`` at the paper's
256-base rows, ``uint8`` up to 255).  Ledgers keep these blocks, so
the dtype sets their memory: a quarter of an ``intp`` block at
N = 256.

**The entry points.**  :func:`counts_batch` and :func:`counts_batch_dual`
run every query block of ACGT codes through the stacked GEMM; a block
carrying any other code takes the boolean
:func:`~repro.kernels.base._fallback_counts`, per pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constants import CHUNK_ELEMS
from repro.errors import CamConfigError
from repro.genome import alphabet
from repro.kernels.base import EncodedReference, _fallback_counts

#: The "no neighbour" code past either edge of a row.
_EDGE = alphabet.ALPHABET_SIZE
#: Mask columns per cell.
_WIDTH = alphabet.ALPHABET_SIZE


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


def _gemm_chunks(n_rows: int, n_cells: int) -> "list[tuple[int, int]]":
    """Stacked-row chunks bounding the float32 mask's memory."""
    per_row = max(1, n_cells * _WIDTH)
    chunk = max(1, CHUNK_ELEMS // per_row)
    return [(start, min(start + chunk, n_rows))
            for start in range(0, n_rows, chunk)]


def _circular_mask(codes: np.ndarray, ed_star: bool) -> np.ndarray:
    """The ``(B, N * 4)`` uint8 mask of ``codes``, neighbours circular."""
    if not ed_star:
        return np.take(_HD_TABLE, codes).view(np.uint8)
    index = np.multiply(codes, 5)
    index[:, 1:] += codes[:, :-1] * np.uint8(20)
    index[:, 0] += codes[:, -1] * np.uint8(20)
    index[:, :-1] += codes[:, 1:]
    index[:, -1] += codes[:, 0]
    return np.take(_ED_STAR_TABLE, index).view(np.uint8)


def _edge_masks(codes: np.ndarray,
                shift: int) -> "tuple[np.ndarray, np.ndarray]":
    """``(B, 4)`` ED* masks of the first and last cells of ``codes``
    rotated left by ``shift``, the sentinel past each row edge.

    With ``N <= 2`` the in-row neighbour taken mod ``N`` is the cell
    itself or the row's other cell, exactly what the rotated read holds
    there; with ``N = 1`` it is the cell's own base, which adds nothing
    to its mask, so both masks are the lone cell's.
    """
    n_cells = codes.shape[1]

    def at(cell: int) -> np.ndarray:
        return codes[:, cell % n_cells].astype(np.intp)

    first = _EDGE * 20 + at(shift) * 5 + at(shift + 1)
    last = at(shift - 2) * 20 + at(shift - 1) * 5 + _EDGE
    return tuple(_ED_STAR_TABLE.take(index).view(np.uint8).reshape(-1, _WIDTH)
                 for index in (first, last))


def _window(circular: np.ndarray, codes: np.ndarray, offset: int,
            ed_star: bool, out: np.ndarray) -> np.ndarray:
    """Write the float32 mask of ``codes`` rotated left by ``offset``.

    ``circular`` is ``_circular_mask(codes, ed_star)``; the rotated
    mask is its columns rotated by ``offset`` cells, with the two edge
    cells re-gathered in ED* mode.
    """
    n_cells = codes.shape[1]
    shift = offset % n_cells
    cut = (n_cells - shift) * _WIDTH
    out[:, :cut] = circular[:, shift * _WIDTH:]
    out[:, cut:] = circular[:, :shift * _WIDTH]
    if ed_star:
        out[:, :_WIDTH], out[:, -_WIDTH:] = _edge_masks(codes, shift)
    return out


def counts_batch(encoded: EncodedReference, queries: np.ndarray,
                 *, ed_star: bool,
                 rotations: "Sequence[int] | None" = None) -> np.ndarray:
    """Exact ``(B, M)`` mismatch counts (ED* or Hamming).

    With ``rotations``, the ``(R, B, M)`` counts of the block rotated
    left by each offset (``np.roll(queries, -offset, axis=1)``;
    negative offsets rotate right, 0 is the block as given), from one
    stacked call.  Offsets are integers; callers gate them
    (:meth:`repro.cam.array.StoredReference.counts_batch`).  Counts
    come in the narrowest unsigned dtype holding ``N``.
    """
    dtype = np.min_scalar_type(encoded.n_cells)
    if rotations is None:
        counts = np.empty((queries.shape[0], encoded.n_rows), dtype=dtype)
        _count(encoded, queries, ((ed_star, 0),), (counts,))
        return counts
    offsets = tuple(rotations)
    counts = np.empty((len(offsets), queries.shape[0], encoded.n_rows),
                      dtype=dtype)
    _count(encoded, queries, tuple((ed_star, offset) for offset in offsets),
           counts)
    return counts


def counts_batch_dual(encoded: EncodedReference,
                      queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ED*, HD)`` count blocks sharing one query pass."""
    # Two blocks, not views of one (2, B, M) array: ledgers keep each
    # pass's counts, and a shared block stays live while either pass's
    # event does.  With uint16 blocks the shared one raised a
    # four-session frontend's peak RSS by 0.2% on a 2-CPU VM (128.3 ->
    # 128.6 MB; it was ~4% with intp blocks).
    ed = np.empty((queries.shape[0], encoded.n_rows),
                  dtype=np.min_scalar_type(encoded.n_cells))
    hd = np.empty_like(ed)
    _count(encoded, queries, ((True, 0), (False, 0)), (ed, hd))
    return ed, hd


def _count(encoded: EncodedReference, queries: np.ndarray,
           passes: "tuple[tuple[bool, int], ...]",
           outs: "Sequence[np.ndarray]") -> None:
    """Write each pass's counts: the GEMM, or the boolean fallback.

    Stored codes are alphabet-checked at write time; only a query block
    carrying a code outside ACGT (which the one-hot masks cannot
    represent) takes :func:`~repro.kernels.base._fallback_counts`.  A
    block whose width is not the reference's raises
    :class:`~repro.errors.CamConfigError` before either runs.
    """
    if queries.ndim != 2 or queries.shape[1] != encoded.n_cells:
        raise CamConfigError(
            f"query block of shape {queries.shape} does not fit a "
            f"reference of {encoded.n_cells} columns"
        )
    if queries.shape[0] and int(queries.max()) < alphabet.ALPHABET_SIZE:
        _passes(encoded, queries, passes, outs)
        return
    for (ed_star, offset), out in zip(passes, outs, strict=True):
        out[...] = _fallback_counts(encoded.segments,
                                    np.roll(queries, -offset, axis=1),
                                    ed_star=ed_star)


def _passes(encoded: EncodedReference, queries: np.ndarray,
            passes: "tuple[tuple[bool, int], ...]",
            outs: "Sequence[np.ndarray]") -> None:
    """Write each ``(ed_star, offset)`` pass's ``(B, M)`` counts.

    One circular mask gather per mode; pass ``p`` owns rows
    ``p*B .. (p+1)*B`` of the stacked float32 buffer, and each chunk
    of those rows is one GEMM.
    """
    queries = np.asarray(queries, dtype=np.uint8)
    n_queries, n_cells = queries.shape
    circular = {ed_star: _circular_mask(queries, ed_star)
                for ed_star in {ed_star for ed_star, _ in passes}}
    chunks = _gemm_chunks(len(passes) * n_queries, n_cells)
    mask = np.empty((chunks[0][1] if chunks else 0, n_cells * _WIDTH),
                    dtype=np.float32)
    stored = encoded.onehot.T
    for start, stop in chunks:
        writes = []
        for index, ((ed_star, offset), out) in enumerate(
                zip(passes, outs, strict=True)):
            base = index * n_queries
            first, last = max(start, base), min(stop, base + n_queries)
            if first >= last:
                continue
            rows = slice(first - start, last - start)
            reads = slice(first - base, last - base)
            _window(circular[ed_star][reads], queries[reads], offset,
                    ed_star, mask[rows])
            writes.append((rows, out[reads]))
        counted = mask[:stop - start] @ stored
        for rows, out in writes:
            np.subtract(n_cells, counted[rows], out=out, casting="unsafe")
