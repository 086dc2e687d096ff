"""ED* — the neighbour-tolerant mismatch count of EDAM and ASMCap.

For a stored segment ``S`` and a read ``R`` of equal length ``N``, cell
``i`` *matches* when the stored base equals the co-located read base or
either of its immediate neighbours (Fig. 2):

    match(i) = (S[i] == R[i]) or (S[i] == R[i-1]) or (S[i] == R[i+1])

``ED*`` is the number of cells where none of the three comparisons hit.
Because the neighbour comparisons absorb single-base shifts, ED* tracks
true edit distance much better than Hamming distance when isolated
indels occur — that is the entire premise of EDAM and ASMCap.  Edge
cells have only one neighbour; the missing comparison contributes no
match.

Properties (exercised by the property-based tests):

* ``0 <= ED*(S, R) <= HD(S, R)`` — the neighbour terms can only turn
  mismatches into matches;
* ``ED*(S, S) == 0``;
* ED* is *not* symmetric and *not* a metric, and it may over- or
  under-estimate true edit distance (the paper's Fig. 2 examples) —
  those misjudgments are what HDAC and TASR correct.
"""

from __future__ import annotations

import numpy as np

from repro.constants import CHUNK_ELEMS
from repro.errors import SequenceError
from repro.genome.sequence import DnaSequence


def match_planes(segments: np.ndarray,
                 read: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three partial-match planes ``(O_L, O_C, O_R)``.

    Mirrors the per-cell comparison logic of Fig. 4(c): plane entry
    ``[i, j]`` is True when stored base ``j`` of row ``i`` matches the
    left-neighbour / co-located / right-neighbour read base.

    Parameters
    ----------
    segments:
        ``(M, N)`` uint8 matrix of stored rows.
    read:
        ``(N,)`` uint8 read codes.
    """
    segments = np.asarray(segments)
    read = np.asarray(read)
    if segments.ndim != 2:
        raise SequenceError(f"segments must be 2-D, got shape {segments.shape}")
    if read.ndim != 1 or read.shape[0] != segments.shape[1]:
        raise SequenceError(
            f"read shape {read.shape} incompatible with segments "
            f"{segments.shape}"
        )
    o_c = segments == read[None, :]
    o_l = np.zeros_like(o_c)
    o_r = np.zeros_like(o_c)
    if read.shape[0] > 1:
        # O_L: stored base j vs read base j-1 (no left neighbour at j=0).
        o_l[:, 1:] = segments[:, 1:] == read[None, :-1]
        # O_R: stored base j vs read base j+1 (no right neighbour at j=N-1).
        o_r[:, :-1] = segments[:, :-1] == read[None, 1:]
    return o_l, o_c, o_r


def ed_star_batch(segments: np.ndarray, read: np.ndarray) -> np.ndarray:
    """ED* of one read against many stored segments, ``(M,)`` ints."""
    o_l, o_c, o_r = match_planes(segments, read)
    matched = o_l | o_c | o_r
    return np.count_nonzero(~matched, axis=1)


def ed_star_counts_batch(segments: np.ndarray,
                         reads: np.ndarray) -> np.ndarray:
    """ED* of every read against every segment, ``(B, M)`` ints.

    The :func:`match_planes` comparison for a whole block of reads, with
    the neighbour planes OR-ed into one buffer instead of being
    materialised separately.
    """
    segments = np.asarray(segments)
    reads = np.asarray(reads)
    if segments.ndim != 2:
        raise SequenceError(f"segments must be 2-D, got shape {segments.shape}")
    if reads.ndim != 2 or reads.shape[1] != segments.shape[1]:
        raise SequenceError(
            f"reads shape {reads.shape} incompatible with segments "
            f"{segments.shape}"
        )
    matched = segments[None, :, :] == reads[:, None, :]
    if reads.shape[1] > 1:
        np.logical_or(matched[:, :, 1:],
                      segments[None, :, 1:] == reads[:, None, :-1],
                      out=matched[:, :, 1:])
        np.logical_or(matched[:, :, :-1],
                      segments[None, :, :-1] == reads[:, None, 1:],
                      out=matched[:, :, :-1])
    return matched.shape[2] - np.count_nonzero(matched, axis=2)


def ed_star(segment: DnaSequence, read: DnaSequence) -> int:
    """ED* between one stored segment and one read (equal lengths)."""
    if len(segment) != len(read):
        raise SequenceError(
            f"ED* needs equal lengths, got {len(segment)} and {len(read)}"
        )
    if len(segment) == 0:
        return 0
    return int(ed_star_batch(segment.codes[None, :], read.codes)[0])


def mismatch_counts_all_reads(segments: np.ndarray,
                              reads: np.ndarray) -> np.ndarray:
    """ED* for every (read, segment) pair: ``(R, M)`` int matrix.

    Vectorised through :func:`ed_star_counts_batch` in chunks so peak
    memory stays bounded for workload-sized read blocks.
    """
    segments = np.asarray(segments)
    reads = np.asarray(reads)
    if reads.ndim != 2:
        raise SequenceError(f"reads must be 2-D, got shape {reads.shape}")
    if segments.ndim != 2:
        raise SequenceError(f"segments must be 2-D, got shape {segments.shape}")
    n_reads = reads.shape[0]
    counts = np.empty((n_reads, segments.shape[0]), dtype=np.intp)
    chunk = max(1, CHUNK_ELEMS // max(1, segments.size))
    for start in range(0, n_reads, chunk):
        counts[start:start + chunk] = ed_star_counts_batch(
            segments, reads[start:start + chunk]
        )
    return counts
