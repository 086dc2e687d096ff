"""Edit (Levenshtein) distance: full DP, banded DP, and batched banded DP.

These kernels provide the *ground truth* for every accuracy experiment:
a (read, segment) pair is a true match at threshold ``T`` iff
``edit_distance(segment, read) <= T`` (Section II-B).

Three implementations, all mutually cross-checked in the tests:

* :func:`edit_distance` — full ``O(n*m)`` dynamic program, row-vectorised
  with numpy (the inner insertion scan uses the ``min-accumulate`` trick);
* :func:`banded_edit_distance` — ``O(n*k)`` banded DP, exact whenever the
  true distance is at most the band half-width ``k``;
* :func:`banded_edit_distance_batch` — the banded DP vectorised across
  many (read, segment) pairs at once, which is what makes exhaustive
  ground-truth labelling of a whole dataset tractable in Python.

The batch kernel reports distances **capped at** ``band + 1``: a result
of ``band + 1`` means "greater than ``band``", which is all the
experiments need because they never sweep thresholds beyond the band.

Before the DP runs, two exact lower-bound prefilters prove most pairs
"greater than band" outright: the 1-gram base-composition bound
(:func:`composition_lower_bound`) over the full pair grid, then
Ukkonen's q-gram bound (:func:`qgram_lower_bound`, ``q = 3``) pairwise
over its survivors.  Both are true lower bounds, so the prefiltered
labelling stays exact — property-tested against the unfiltered DP.

The DP itself exits early.  Every ``_COMPACT_EVERY`` rows it drops the
pairs whose band row minimum is above the band, and compacts its
tables down to the pairs still live.  This is exact: DP values never
decrease along an alignment path, and every in-band path from
``(0, 0)`` to ``(L, L)`` crosses row ``i`` inside the band, so the row
minimum is a lower bound on the final banded value — a pair whose row
minimum exceeds the band ends above it and keeps the ``band + 1`` cap
its result cell was filled with.  Live pairs run the same integer
arithmetic as before compaction.  At Fig.-7 scales about 96 of some
530 prefilter survivors — roughly each read's own segment — are still
live after the first 48 rows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SequenceError, ThresholdError
from repro.genome.sequence import DnaSequence

#: Large sentinel standing in for +infinity inside int32 DP tables.
_INF = np.int32(1 << 20)

#: Same sentinel for the int16 banded-batch tables (DP values there
#: never exceed length + band + 1 << 16384, so the headroom is safe).
_INF16 = np.int16(1 << 14)

#: q-gram length for the Ukkonen lower-bound prefilter.  q = 3 keeps
#: the profile table tiny (64 bins) while separating unrelated DNA
#: pairs far better than the 1-gram composition bound.
_QGRAM_Q = 3

#: Rows between early-exit checks of the batched banded DP: every this
#: many rows, pairs whose band row minimum already exceeds the band are
#: dropped from the loop.
_COMPACT_EVERY = 8


def _row_histograms(values: np.ndarray, n_bins: int) -> np.ndarray:
    """``(R, n_bins)`` int32 per-row histograms of ``(R, L)`` bin ids.

    One global ``np.bincount`` with the row index folded into the high
    bits, so the whole block costs one pass instead of one call per row.
    """
    n_rows = values.shape[0]
    keys = np.arange(n_rows, dtype=np.int64)[:, None] * n_bins + values
    counts = np.bincount(keys.ravel(), minlength=n_rows * n_bins)
    return counts.reshape(n_rows, n_bins).astype(np.int32)


def composition_profiles(rows: np.ndarray, n_codes: int) -> np.ndarray:
    """``(R, n_codes)`` int32 base-composition histograms of code rows.

    Accepts any code below *n_codes*, so reads carrying ambiguity codes
    (>= 4) are profiled like any other symbol.
    """
    return _row_histograms(np.asarray(rows, dtype=np.int64), n_codes)


def composition_lower_bound(segments: np.ndarray,
                            reads: np.ndarray) -> np.ndarray:
    """Cheap per-pair lower bound on the edit distance.

    A single edit operation changes the base-composition histograms'
    L1 distance by at most 2 (a substitution moves one count down and
    another up; an insertion or deletion moves one count), so
    ``ED(a, b) >= ceil(L1(comp(a), comp(b)) / 2)`` for every pair.
    The bound costs two :func:`composition_profiles` passes and one
    ``(R, M, n_codes)`` broadcast — nothing next to the banded DP —
    and at Fig.-7 scales it proves >40-80 % of pairs "greater than
    band" before the DP runs.
    """
    segments = np.asarray(segments, dtype=np.uint8)
    reads = np.asarray(reads, dtype=np.uint8)
    n_codes = int(max(segments.max(initial=0),
                      reads.max(initial=0))) + 1
    seg_comp = composition_profiles(segments, n_codes)
    read_comp = composition_profiles(reads, n_codes)
    l1 = np.abs(read_comp[:, None, :] - seg_comp[None, :, :]).sum(axis=2)
    return (l1 + 1) // 2


def qgram_profiles(rows: np.ndarray, q: int = _QGRAM_Q) -> np.ndarray:
    """``(R, 4**q)`` q-gram occurrence profiles of DNA code rows.

    Rows must hold codes below 4 (the DNA alphabet) and be at least
    ``q`` long; callers gate on both (see
    :func:`banded_edit_distance_batch`).
    """
    rows = np.asarray(rows, dtype=np.int64)
    n_rows, length = rows.shape
    n_grams = alphabet_size = 4
    for _ in range(q - 1):
        n_grams *= alphabet_size
    if n_rows == 0:
        return np.zeros((0, n_grams), dtype=np.int32)
    if length < q:
        raise SequenceError(
            f"rows of length {length} have no {q}-grams"
        )
    # Base-4 values of every window, histogrammed per row.
    values = np.zeros((n_rows, length - q + 1), dtype=np.int64)
    for offset in range(q):
        values = values * alphabet_size + rows[:, offset:length - q + 1
                                               + offset]
    return _row_histograms(values, n_grams)


def _qgram_bound_from_l1(l1: np.ndarray, q: int) -> np.ndarray:
    """``ceil(L1 / 2q)`` — the bound both q-gram call sites share."""
    return ((l1 + 2 * q - 1) // (2 * q)).astype(np.int32)


def qgram_lower_bound(segments: np.ndarray, reads: np.ndarray,
                      q: int = _QGRAM_Q) -> np.ndarray:
    """Ukkonen's q-gram lower bound on the edit distance, per pair.

    A single edit operation destroys at most ``q`` of a string's
    q-grams and creates at most ``q`` new ones, so the L1 distance
    between two q-gram profiles changes by at most ``2q`` per
    operation: ``ED(a, b) >= ceil(L1(profile(a), profile(b)) / 2q)``.
    Exact (never above the true distance) for any two equal-length
    code rows over the DNA alphabet; with ``q = 1`` this degenerates
    to :func:`composition_lower_bound`.
    """
    seg_prof = qgram_profiles(segments, q)
    read_prof = qgram_profiles(reads, q)
    l1 = np.abs(read_prof[:, None, :].astype(np.int64)
                - seg_prof[None, :, :]).sum(axis=2)
    return _qgram_bound_from_l1(l1, q)


def edit_distance(a: DnaSequence, b: DnaSequence) -> int:
    """Exact Levenshtein distance between two sequences (unit costs)."""
    x, y = a.codes, b.codes
    n, m = len(x), len(y)
    if n == 0:
        return m
    if m == 0:
        return n
    # One DP row over y, vectorised; the left-neighbour (insertion)
    # dependency is resolved with the min-accumulate identity
    #   D[j] = j + min_{j' <= j} (tmp[j'] - j').
    offsets = np.arange(m + 1, dtype=np.int32)
    prev = offsets.copy()
    cur = np.empty(m + 1, dtype=np.int32)
    for i in range(1, n + 1):
        substitution = prev[:-1] + (y != x[i - 1])
        cur[0] = i
        cur[1:] = np.minimum(substitution, prev[1:] + 1)
        cur = offsets + np.minimum.accumulate(cur - offsets)
        prev, cur = cur, prev
    return int(prev[m])


def _check_band(band) -> int:
    """*band* as a non-negative Python ``int``, or
    :class:`~repro.errors.ThresholdError` (``2.9`` is not band 2)."""
    # Function-level: repro.knobs sits above this layer (CL501).
    from repro.knobs import check_integer

    band = check_integer("band", band, ThresholdError)
    if band < 0:
        raise ThresholdError(f"band must be non-negative, got {band}")
    return band


def banded_edit_distance(a: DnaSequence, b: DnaSequence, band: int) -> int:
    """Banded Levenshtein distance.

    Exact when the true distance is ``<= band``; returns ``band + 1``
    otherwise (meaning "greater than *band*").  Sequences of different
    lengths are supported as long as ``|len(a) - len(b)| <= band``
    (otherwise the distance trivially exceeds the band).
    """
    band = _check_band(band)
    if abs(len(a) - len(b)) > band:
        return band + 1
    if len(a) == len(b):
        result = banded_edit_distance_batch(
            a.codes[None, :], b.codes[None, :], band
        )
        return int(result[0, 0])
    # Unequal lengths are rare in our experiments; fall back to full DP.
    return min(edit_distance(a, b), band + 1)


def banded_edit_distance_batch(segments: np.ndarray, reads: np.ndarray,
                               band: int) -> np.ndarray:
    """Banded edit distance for every (read, segment) pair.

    Parameters
    ----------
    segments:
        ``(M, L)`` uint8 matrix of stored segments.
    reads:
        ``(R, L)`` uint8 matrix of reads (same length ``L``).
    band:
        Band half-width ``k``; distances above it are capped at ``k+1``.

    Returns
    -------
    numpy.ndarray
        ``(R, M)`` int32 matrix ``D`` with ``D[r, s] =
        min(ED(reads[r], segments[s]), band + 1)``.

    Notes
    -----
    The DP runs in anti-band (offset) space: for DP cell ``(i, j)`` the
    offset is ``d = j - i + k`` with ``d in [0, 2k]``.  The prefilter
    survivors advance through rows ``i = 1..L`` together; each row
    costs a handful of vectorised operations over a ``(2k+1, P)``
    table, and every ``_COMPACT_EVERY`` rows the pairs already proven
    above the band leave it.
    """
    segments = np.ascontiguousarray(segments, dtype=np.uint8)
    reads = np.ascontiguousarray(reads, dtype=np.uint8)
    if segments.ndim != 2 or reads.ndim != 2:
        raise SequenceError("segments and reads must both be 2-D matrices")
    if segments.shape[1] != reads.shape[1]:
        raise SequenceError(
            f"length mismatch: segments have {segments.shape[1]} columns, "
            f"reads have {reads.shape[1]}"
        )
    k = _check_band(band)
    n_segments, length = segments.shape
    n_reads = reads.shape[0]
    width = 2 * k + 1
    cap = np.int32(k + 1)

    if length == 0:
        return np.zeros((n_reads, n_segments), dtype=np.int32)

    # Prefilters: a pair whose cheap lower bound already exceeds the
    # band is "greater than band" by definition — emit the cap without
    # running its DP.  The 1-gram composition bound runs over the full
    # (R, M) grid; the stronger q-gram (Ukkonen) bound then runs
    # pairwise over its survivors only.  At Fig.-7 scales the two
    # together remove most of the pair-major table.
    result = np.full((n_reads, n_segments), cap, dtype=np.int32)
    bound = composition_lower_bound(segments, reads)
    read_idx, seg_idx = np.nonzero(bound <= k)
    if read_idx.size == 0:
        return result
    if (length >= _QGRAM_Q
            and int(max(segments.max(initial=0),
                        reads.max(initial=0))) < 4):
        # Profile counts are at most the row length, so below 2**15
        # they and their differences fit int16: the pairwise gathers
        # then move a quarter of the bytes of int64 ones.
        prof_dtype = np.int16 if length < 1 << 15 else np.int32
        seg_prof = qgram_profiles(segments).astype(prof_dtype)
        read_prof = qgram_profiles(reads).astype(prof_dtype)
        diff = read_prof[read_idx]
        np.subtract(diff, seg_prof[seg_idx], out=diff)
        np.abs(diff, out=diff)
        l1 = diff.sum(axis=1, dtype=np.int64)
        survivors = _qgram_bound_from_l1(l1, _QGRAM_Q) <= k
        read_idx = read_idx[survivors]
        seg_idx = seg_idx[survivors]
        if read_idx.size == 0:
            return result

    # Band-major layout over the surviving pairs only, one column per
    # pair: row i's read bases are one contiguous vector, and the
    # segments are padded with an impossible code so neighbour gathers
    # at the band edges always compare unequal (validity is enforced
    # separately).
    pair_reads = np.ascontiguousarray(reads[read_idx].T)      # (L, P)
    n_pairs = read_idx.shape[0]
    padded = np.full((length + 2 * k, n_pairs), 255, dtype=np.uint8)
    padded[k : k + length] = segments[seg_idx].T

    # int16 tables when the DP values fit (they never exceed
    # length + band + 1): the smaller element size roughly halves the
    # memory traffic of the row loop.  Longer sequences fall back to
    # int32 so values can never wrap past the sentinel.
    if length + k + 1 < int(_INF16):
        dp_dtype, dp_inf = np.int16, _INF16
    else:
        dp_dtype, dp_inf = np.int32, _INF
    d_column = np.arange(width, dtype=dp_dtype)[:, None]

    # The table holds E[d] = D[i][j] - d rather than D itself, which
    # turns the insertion term into a plain running minimum.  Row
    # i = 0: D[0][j] = j with j = d - k, so E = -k on the offsets
    # inside the matrix (d >= k, j <= length).
    prev = np.full((width, n_pairs), dp_inf, dtype=dp_dtype)
    prev[k : min(width, length + k + 1)] = -k

    # Pairs still in the loop, as indices into read_idx / seg_idx.
    alive = np.arange(n_pairs)
    cur = np.empty_like(prev)
    mismatch = np.empty_like(prev)
    up = np.empty((width - 1, n_pairs), dtype=dp_dtype)
    for i in range(1, length + 1):
        # Offsets inside the matrix (0 <= j = i + d - k <= length) are
        # [lo, hi); only the first and last k rows have any outside.
        lo = max(0, k - i)
        hi = min(width, length - i + k + 1)
        edge = lo > 0 or hi < width
        # Substitution: D[i-1][j-1] + (a[i-1] != b[j-1]), the same
        # offset d.  The segment bases b[j-1] of the whole band are
        # padded rows (j-1) + k = i + d - 1, i.e. the slice
        # [i-1, i-1+width).
        np.not_equal(padded[i - 1 : i - 1 + width], pair_reads[i - 1],
                     out=mismatch, casting="unsafe")
        np.add(prev, mismatch, out=cur)
        # Deletion: D[i-1][j] + 1 sits at offset d+1 (none for the last
        # offset), which is E[d+1] + 2 in E terms.
        np.add(prev[1:], 2, out=up)
        np.minimum(cur[:-1], up, out=cur[:-1])
        if edge:
            # Base column j = 0 (only when i <= k): D[i][0] = i at
            # d = k - i, so E = 2i - k.
            if i <= k:
                cur[k - i] = 2 * i - k
            # Kill offsets outside the matrix before the insertion scan.
            cur[:lo] = dp_inf
            cur[hi:] = dp_inf
        # Insertion: D[i][j-1] + 1 sits at offset d-1, which is E[d-1]
        # in E terms, so the whole chain is a running minimum.
        np.minimum.accumulate(cur, axis=0, out=cur)
        if edge:
            cur[:lo] = dp_inf
            cur[hi:] = dp_inf
        prev, cur = cur, prev
        if i % _COMPACT_EVERY == 0:
            # Early exit: a band row minimum above k is a lower bound
            # on the pair's final value (see the module docstring), so
            # the pair keeps the cap it was filled with.
            live = (prev + d_column).min(axis=0) <= k
            if not live.all():
                alive = alive[live]
                if alive.size == 0:
                    return result
                prev = np.ascontiguousarray(prev[:, live])
                padded = np.ascontiguousarray(padded[:, live])
                pair_reads = np.ascontiguousarray(pair_reads[:, live])
                cur = np.empty_like(prev)
                mismatch = np.empty_like(prev)
                up = np.empty((width - 1, alive.size), dtype=dp_dtype)

    # D[length][length] sits at offset k; scatter into the
    # prefiltered result grid.
    result[read_idx[alive], seg_idx[alive]] = np.minimum(
        prev[k].astype(np.int32) + k, cap)
    return result


def edit_distance_matrix(a: DnaSequence, b: DnaSequence) -> np.ndarray:
    """The full ``(len(a)+1, len(b)+1)`` comparison matrix ``M[i, j]``.

    Exposed for the ReSMA baseline (which processes this matrix
    anti-diagonal by anti-diagonal) and for didactic examples; prefer
    :func:`edit_distance` when only the distance is needed.
    """
    x, y = a.codes, b.codes
    n, m = len(x), len(y)
    table = np.zeros((n + 1, m + 1), dtype=np.int32)
    table[:, 0] = np.arange(n + 1)
    table[0, :] = np.arange(m + 1)
    offsets = np.arange(m + 1, dtype=np.int32)
    for i in range(1, n + 1):
        substitution = table[i - 1, :-1] + (y != x[i - 1])
        row = np.empty(m + 1, dtype=np.int32)
        row[0] = i
        row[1:] = np.minimum(substitution, table[i - 1, 1:] + 1)
        table[i] = offsets + np.minimum.accumulate(row - offsets)
    return table
