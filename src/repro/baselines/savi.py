"""SaVI baseline (ICCAD 2020): TCAM seed-and-vote read mapping.

SaVI splits each read into k-mers, finds each k-mer's exact locations
in the reference with TCAM searches, and *votes*: every k-mer hit at
reference position ``p`` votes for alignment origin ``p - offset``.
The origin with the most votes wins; the read maps there when the vote
count clears a minimum.  Voting is faster than extending but loses
accuracy (the ~93.8 % the paper quotes), and exact k-mer matching makes
the approach brittle under edits — each edit breaks every k-mer that
spans it.

The functional path uses the real :class:`~repro.genome.kmer.KmerIndex`
so the accuracy behaviour is genuine; the cost model charges one TCAM
search per k-mer plus a voting step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import DatasetError
from repro.genome.kmer import KmerIndex, iter_kmers
from repro.genome.sequence import DnaSequence


@dataclass(frozen=True)
class SaviOutcome:
    """One read's seed-and-vote result and modelled TCAM cost."""

    origin: "int | None"
    votes: int
    n_kmers: int
    latency_ns: float
    energy_joules: float

    @property
    def mapped(self) -> bool:
        return self.origin is not None


class SaviBaseline:
    """Seed-and-vote mapper over a k-mer index with TCAM costs.

    Parameters
    ----------
    reference:
        Reference sequence to index.
    k:
        Seed length (paper-era tools use ~16).  Seeds do not overlap
        (SaVI's configuration): they start every ``k`` bases.

    A read maps when ``constants.SAVI_MIN_VOTES`` votes agree on an
    origin, votes within ``constants.SAVI_POSITION_TOLERANCE`` bases
    pooled.
    """

    def __init__(self, reference: DnaSequence,
                 k: int = constants.SAVI_KMER_LENGTH):
        self._index = KmerIndex.build(reference, k)
        self._k = self._index.k

    @property
    def index(self) -> KmerIndex:
        return self._index

    @property
    def k(self) -> int:
        return self._k

    def map_read(self, read: DnaSequence) -> SaviOutcome:
        """Seed, look up, vote; returns the winning origin (or None)."""
        if len(read) < self._k:
            raise DatasetError(
                f"read of length {len(read)} shorter than k = {self._k}"
            )
        votes: Counter[int] = Counter()
        n_kmers = 0
        for offset, kmer in iter_kmers(read, self._k):
            if offset % self._k != 0:
                continue
            n_kmers += 1
            for position in self._index.lookup(kmer):
                votes[position - offset] += 1
        origin, count = self._tally(votes)
        latency = (n_kmers * constants.SAVI_TCAM_SEARCH_NS
                   + constants.SAVI_VOTE_NS)
        energy = (n_kmers * constants.SAVI_TCAM_SEARCH_ENERGY_J
                  + constants.SAVI_VOTE_ENERGY_J)
        return SaviOutcome(origin=origin, votes=count, n_kmers=n_kmers,
                           latency_ns=latency, energy_joules=energy)

    def _tally(self, votes: "Counter[int]") -> tuple["int | None", int]:
        """Pool nearby origins and pick the winner."""
        if not votes:
            return None, 0
        pooled: Counter[int] = Counter()
        for origin, count in votes.items():
            bucket = origin // (constants.SAVI_POSITION_TOLERANCE + 1)
            pooled[bucket] += count
        bucket, count = pooled.most_common(1)[0]
        if count < constants.SAVI_MIN_VOTES:
            return None, count
        # Representative origin: the highest-voted raw origin in the bucket.
        in_bucket = {o: c for o, c in votes.items()
                     if o // (constants.SAVI_POSITION_TOLERANCE + 1) == bucket}
        origin = max(in_bucket, key=in_bucket.get)
        return origin, count

    def decisions_for_segments(self, read: DnaSequence, n_segments: int,
                               segment_length: int) -> np.ndarray:
        """Per-segment match decisions compatible with the CAM matchers.

        The read is declared matched to the segment containing its
        winning origin (within tolerance of the segment start).
        """
        outcome = self.map_read(read)
        decisions = np.zeros(n_segments, dtype=bool)
        if outcome.origin is None:
            return decisions
        segment = outcome.origin // segment_length
        offset_in_segment = outcome.origin % segment_length
        tolerance = constants.SAVI_POSITION_TOLERANCE
        near_start = (offset_in_segment <= tolerance
                      or segment_length - offset_in_segment <= tolerance)
        if 0 <= segment < n_segments and near_start:
            decisions[segment] = True
        return decisions

    def read_latency_ns(self, read_length: int) -> float:
        """Modelled per-read latency."""
        n_kmers = max(1, (read_length - self._k) // self._k + 1)
        return (n_kmers * constants.SAVI_TCAM_SEARCH_NS
                + constants.SAVI_VOTE_NS)

    def read_energy_joules(self, read_length: int) -> float:
        """Modelled per-read energy."""
        n_kmers = max(1, (read_length - self._k) // self._k + 1)
        return (n_kmers * constants.SAVI_TCAM_SEARCH_ENERGY_J
                + constants.SAVI_VOTE_ENERGY_J)
