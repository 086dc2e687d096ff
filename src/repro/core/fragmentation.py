"""Long-read fragmentation: matching reads wider than the array.

The paper's top architecture (Fig. 4(a)) notes the global buffer "can
fetch the entire reads **or k-mers** for the subsequent match according
to the read length": when a read is longer than the array width ``N``,
it is split into ``N``-base fragments that are searched independently
and whose decisions are combined.  EDAM's read-length ceiling (44
distinguishable states) forces fragmentation much earlier than
ASMCap's — one of the charge domain's practical advantages.

Combination rule: fragment ``f`` of the read should match row ``r`` of
array column-block ``f`` when the read originates at stored segment
``r``; a read matches a segment when at least ``min_fragment_matches``
of its fragments match the corresponding stored fragment row, with the
per-fragment threshold given by splitting the read-level budget ``T``
across fragments (ceil division — a slightly permissive split that
favours sensitivity, matching the seed-filter role fragmentation plays
in practice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cam.array import CamArray, as_read_codes, as_segments_matrix
from repro.errors import CamConfigError, ThresholdError
from repro.knobs import check_integer


@dataclass(frozen=True)
class FragmentOutcome:
    """Result of one fragmented match.

    Attributes
    ----------
    decisions:
        Per-segment combined decisions.
    fragment_matches:
        ``(n_segments, n_fragments)`` boolean matrix of per-fragment
        decisions.
    per_fragment_threshold:
        The threshold each fragment search used.
    n_searches:
        Total search operations issued (one per fragment).
    energy_joules / latency_ns:
        Summed over fragment searches.
    """

    decisions: np.ndarray
    fragment_matches: np.ndarray
    per_fragment_threshold: int
    n_searches: int
    energy_joules: float
    latency_ns: float


class FragmentedMatcher:
    """Match reads of ``n_fragments * N`` bases on an ``M x N`` array.

    The reference segments are equally long reads' worth of bases; each
    stored segment occupies ``n_fragments`` consecutive *logical* rows
    (one per fragment) laid out fragment-major: array row
    ``f * n_segments + s`` holds fragment ``f`` of segment ``s``.

    Parameters
    ----------
    array:
        The CAM array; its ``rows`` must hold
        ``n_segments * n_fragments`` fragment rows.
    segments:
        ``(n_segments, n_fragments * N)`` uint8 matrix of long
        reference segments.
    min_fragment_matches:
        Fragments that must match for a segment-level 'match'; an
        integer (:class:`~repro.errors.ThresholdError` otherwise).
    """

    def __init__(self, array: CamArray, segments: np.ndarray,
                 min_fragment_matches: int = 1):
        segments = as_segments_matrix(segments)
        n_segments, total_len = segments.shape
        width = array.cols
        if total_len % width != 0:
            raise CamConfigError(
                f"segment length {total_len} is not a multiple of the "
                f"array width {width}"
            )
        n_fragments = total_len // width
        if n_segments * n_fragments > array.rows:
            raise CamConfigError(
                f"{n_segments} segments x {n_fragments} fragments exceed "
                f"{array.rows} array rows"
            )
        min_fragment_matches = check_integer(
            "min_fragment_matches", min_fragment_matches, ThresholdError)
        if not 1 <= min_fragment_matches <= n_fragments:
            raise ThresholdError(
                f"min_fragment_matches must be in 1..{n_fragments}, got "
                f"{min_fragment_matches}"
            )
        self._array = array
        self._n_segments = n_segments
        self._n_fragments = n_fragments
        self._min_matches = min_fragment_matches
        rows = np.concatenate([
            segments[:, f * width : (f + 1) * width]
            for f in range(self._n_fragments)
        ])
        array.store(rows)

    @property
    def n_segments(self) -> int:
        return self._n_segments

    @property
    def n_fragments(self) -> int:
        return self._n_fragments

    @property
    def read_length(self) -> int:
        return self._n_fragments * self._array.cols

    def per_fragment_threshold(self, threshold: int) -> int:
        """Split a read-level edit budget across fragments.

        *threshold* is an integer; a float, bool or string raises
        :class:`~repro.errors.ThresholdError` instead of being split.
        """
        threshold = check_integer("threshold", threshold, ThresholdError)
        if threshold < 0:
            raise ThresholdError(
                f"threshold must be non-negative, got {threshold}"
            )
        return math.ceil(threshold / self._n_fragments)

    def match(self, read: np.ndarray, threshold: int) -> FragmentOutcome:
        """ED*-match one long read at read-level threshold ``T``."""
        read = as_read_codes(read)
        if read.shape != (self.read_length,):
            raise CamConfigError(
                f"read shape {read.shape} != expected ({self.read_length},)"
            )
        fragment_threshold = self.per_fragment_threshold(threshold)
        width = self._array.cols
        n_segments, n_fragments = self._n_segments, self._n_fragments
        # One search_batch over all fragments: query f is fragment f
        # (keyed by its index), and only its own column block of rows
        # holds the matching fragment of each segment.
        result = self._array.search_batch(
            read.reshape(n_fragments, width), fragment_threshold)
        matches = np.stack([
            result.matches[f, f * n_segments:(f + 1) * n_segments]
            for f in range(n_fragments)
        ], axis=1)
        decisions = matches.sum(axis=1) >= self._min_matches
        return FragmentOutcome(
            decisions=decisions,
            fragment_matches=matches,
            per_fragment_threshold=fragment_threshold,
            n_searches=n_fragments,
            energy_joules=sum(result.energy_per_query_joules.tolist()),
            latency_ns=result.latency_ns,
        )
