"""Kraken2-like exact k-mer classifier — the paper's F1 normalizer.

The paper normalises F1 scores by ``F1(Kraken2)`` (Section V-A).
Kraken2 classifies a read by looking up each of its k-mers in a
reference database and requiring a sufficient fraction of hits
("confidence").  Exact k-mer matching is the crucial property: a single
edit breaks every k-mer spanning it, so with k around 35 even the
paper's mild error conditions destroy most k-mers — which is precisely
why exact matching scores so much lower than ASM on erroneous reads
(the 4.5-7.7x normalized-F1 headroom of Fig. 7).

This model reproduces that mechanism with a per-(read, segment)
decision so it plugs into the same confusion-matrix evaluation as the
CAM matchers: a segment is called a match when enough of the read's
k-mers occur in that segment.

**Implementation.**  Everything is vectorised and *exact* — no k-mer
hashing.  Each k-mer window is packed at 2 bits per base by doubling
(shift-or over spans of 1, 2, 4, ... bases).  The leading 32 bases fill
one uint64 word; for k > 32 the remaining bases follow in chunks of at
most 16.  The index dense-ranks the leading words with one ``argsort``
and folds each later chunk into the rank as ``rank * 4**len + word``,
re-ranking after every fold, so every key fits int64 and equal ids
mean equal windows.  It stores one CSR row per k-mer id listing the
segments that hold it, each segment once however often the k-mer
repeats there.  Classification packs the read block's windows, looks
them up level by level with ``searchsorted`` (needles sorted first),
and sums hits per ``(read, segment)`` with one ``np.bincount`` — so
:meth:`KrakenLikeClassifier.classify_batch` scores a whole ``(B, L)``
read block without any per-k-mer Python.  The scalar
:meth:`KrakenLikeClassifier.classify` is the batch-of-one special case,
guaranteeing the two agree bit-for-bit.

**Input contract.**  A packed window holds only the codes 0-3.  A
segment carrying any other code raises :class:`DatasetError` naming it
(the CAM rejects such a reference too).  A read window carrying one
counts as a miss, which is exact: it cannot equal any window of an
ACGT-only reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.genome.sequence import DnaSequence
from repro.knobs import check_count, check_integer

#: Kraken2's default k-mer length.
DEFAULT_K = 35

#: Minimum fraction of the read's k-mers that must occur in a segment
#: for a match call (Kraken2's confidence threshold).  0.9 makes the
#: classifier behave like Kraken2 on a single-reference database: one
#: interior edit already destroys ~k of the read's k-mers (fraction
#: drops to ~0.84 for k = 35 on 256-base reads), so only near-exact
#: reads classify — which is what makes exact matching score so poorly
#: on erroneous reads.
CONFIDENCE = 0.9


@dataclass(frozen=True)
class KrakenOutcome:
    """Per-segment hit fractions for one read."""

    hit_fractions: np.ndarray
    decisions: np.ndarray
    n_kmers: int


@dataclass(frozen=True)
class KrakenBatchOutcome:
    """Per-(read, segment) hit fractions for a read block."""

    hit_fractions: np.ndarray
    decisions: np.ndarray
    n_kmers: int


#: Bases packed into the leading uint64 word of a k-mer (2 bits each).
_WORD_BASES = 32

#: Most bases per later chunk: a dense rank (below 2**31) times 4**16
#: plus a 16-base word stays below 2**63.
_CHUNK_BASES = 16


def _packed_windows(codes: np.ndarray, span: int) -> np.ndarray:
    """``(B, L - span + 1)`` uint64: every *span*-base window of the
    ``(B, L)`` code block at 2 bits per base, first base most
    significant.

    Built by doubling: windows of ``2w`` bases are the ``w``-base
    windows at ``p`` and ``p + w`` shifted and or-ed together, and
    *span*'s binary digits pick which power-of-two pieces to append.
    """
    n_cols = codes.shape[1]
    piece = codes.astype(np.uint64)
    width = 1
    value, value_span = None, 0
    remaining = span
    while True:
        if remaining & width:
            if value is None:
                value, value_span = piece, width
            else:
                n = n_cols - value_span - width + 1
                value = ((value[:, :n] << 2 * width)
                         | piece[:, value_span : value_span + n])
                value_span += width
            remaining -= width
        if not remaining:
            return value
        n = n_cols - 2 * width + 1
        piece = (piece[:, :n] << 2 * width) | piece[:, width : width + n]
        width *= 2


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal sorted values."""
    starts = np.empty(ordered.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _dense_rank(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ranks of *values* and their sorted distinct values.

    One ``argsort``: ``np.unique`` costs many times more on the same
    integer keys.
    """
    order = np.argsort(values)
    ordered = values[order]
    starts = _run_starts(ordered)
    ranks = np.empty(ordered.shape[0], dtype=np.int64)
    ranks[order] = np.cumsum(starts) - 1
    return ranks, ordered[starts]


def _fold(ranks: np.ndarray, words: np.ndarray, span: int) -> np.ndarray:
    """Keys ``rank * 4**span + word`` of a later *span*-base chunk."""
    return ranks * (1 << 2 * span) + words.astype(np.int64)


class KrakenLikeClassifier:
    """Exact k-mer membership classifier over stored segments.

    Parameters
    ----------
    segments:
        ``(M, L)`` uint8 matrix of stored reference segments.
    k:
        k-mer length (Kraken2 default 35); a positive integer, a float,
        bool or string raises :class:`~repro.errors.DatasetError`.

    A read matches a segment when at least :data:`CONFIDENCE` of its
    k-mers occur in it.
    """

    def __init__(self, segments: np.ndarray, k: int = DEFAULT_K):
        segments = np.asarray(segments, dtype=np.uint8)
        if segments.ndim != 2:
            raise DatasetError("segments must be a 2-D matrix")
        k = check_integer("k", k, DatasetError)
        check_count("k", k, DatasetError)
        if k > segments.shape[1]:
            raise DatasetError(
                f"k = {k} exceeds segment length {segments.shape[1]}"
            )
        bad = segments >= 4
        if bad.any():
            raise DatasetError(
                f"segments hold code {int(segments[bad].max())}; the "
                "k-mer index packs the DNA codes 0-3 only"
            )
        self._k = k
        self._n_segments = int(segments.shape[0])
        # Bases per packed level: the leading word, then later chunks.
        first = min(k, _WORD_BASES)
        self._spans = [first] + [min(_CHUNK_BASES, k - start) for start
                                 in range(first, k, _CHUNK_BASES)]
        # Level 0 holds the sorted distinct leading words, each later
        # level the sorted distinct folded keys.
        self._levels: list[np.ndarray] = []
        ids = np.empty(0, dtype=np.int64)
        if self._n_segments:
            for level, words in enumerate(self._chunk_words(segments)):
                keys = words.ravel()
                if level:
                    keys = _fold(ids, keys, self._spans[level])
                ids, distinct = _dense_rank(keys)
                self._levels.append(distinct)
        # CSR rows k-mer id -> segments holding it, each segment once.
        n_windows = segments.shape[1] - k + 1
        pairs = np.sort(ids * self._n_segments
                        + np.arange(ids.shape[0]) // n_windows)
        kmer_ids, self._segments_of = np.divmod(pairs[_run_starts(pairs)],
                                                self._n_segments)
        n_ids = self._levels[-1].shape[0] if self._levels else 0
        self._row_starts = np.zeros(n_ids + 1, dtype=np.int64)
        np.cumsum(np.bincount(kmer_ids, minlength=n_ids),
                  out=self._row_starts[1:])

    @property
    def k(self) -> int:
        return self._k

    @property
    def n_segments(self) -> int:
        return self._n_segments

    def _chunk_words(self, codes: np.ndarray) -> list[np.ndarray]:
        """Per level, the ``(B, n_windows)`` packed words of every k-mer
        window of a code block."""
        n_windows = codes.shape[1] - self._k + 1
        packed: dict[int, np.ndarray] = {}
        words, start = [], 0
        for span in self._spans:
            if span not in packed:
                packed[span] = _packed_windows(codes, span)
            words.append(packed[span][:, start : start + n_windows])
            start += span
        return words

    def _window_hits(self, codes: np.ndarray) -> tuple[np.ndarray,
                                                       np.ndarray]:
        """Flat indices of the block's k-mer windows found in the index,
        and their k-mer ids.

        Windows holding a code >= 4 are misses.  The needles are sorted
        once by leading word, which keeps each level's ``searchsorted``
        walking the index in order.
        """
        if not self._levels:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        n_reads, length = codes.shape
        n_windows = length - self._k + 1
        bad = np.zeros((n_reads, length + 1), dtype=np.int32)
        np.cumsum(codes >= 4, axis=1, out=bad[:, 1:])
        valid = bad[:, self._k:] == bad[:, :n_windows]
        words = self._chunk_words(codes)
        found = np.flatnonzero(valid)
        found = found[np.argsort(words[0].ravel()[found])]
        for level, distinct in enumerate(self._levels):
            needles = words[level].ravel()[found]
            if level:
                needles = _fold(ids, needles, self._spans[level])
            positions = np.searchsorted(distinct, needles)
            clipped = np.minimum(positions, distinct.shape[0] - 1)
            hit = distinct[clipped] == needles
            found, ids = found[hit], positions[hit]
        return found, ids

    def classify_batch(self, reads: np.ndarray) -> KrakenBatchOutcome:
        """Hit fractions and decisions for a ``(B, L)`` read block."""
        reads = np.asarray(reads, dtype=np.uint8)
        if reads.ndim != 2:
            raise DatasetError(
                f"classify_batch needs a (B, L) block, got shape "
                f"{reads.shape}"
            )
        if reads.shape[1] < self._k:
            raise DatasetError(
                f"reads of length {reads.shape[1]} shorter than "
                f"k = {self._k}"
            )
        n_reads = reads.shape[0]
        n_kmers = reads.shape[1] - self._k + 1
        windows, ids = self._window_hits(reads)
        # Expand each found window to the segments of its CSR row.
        starts = self._row_starts[ids]
        counts = self._row_starts[ids + 1] - starts
        ends = np.cumsum(counts)
        entries = (np.repeat(starts - (ends - counts), counts)
                   + np.arange(counts.sum()))
        cells = (np.repeat(windows // n_kmers, counts) * self._n_segments
                 + self._segments_of[entries])
        hits = np.bincount(cells, minlength=n_reads * self._n_segments)
        hits = hits.reshape(n_reads, self._n_segments).astype(np.int32)
        fractions = hits / n_kmers
        return KrakenBatchOutcome(
            hit_fractions=fractions,
            decisions=fractions >= CONFIDENCE,
            n_kmers=n_kmers,
        )

    def classify(self, read: DnaSequence) -> KrakenOutcome:
        """Hit fractions and match decisions against every segment."""
        if len(read) < self._k:
            raise DatasetError(
                f"read of length {len(read)} shorter than k = {self._k}"
            )
        batch = self.classify_batch(read.codes[None, :])
        return KrakenOutcome(
            hit_fractions=batch.hit_fractions[0],
            decisions=batch.decisions[0],
            n_kmers=batch.n_kmers,
        )
