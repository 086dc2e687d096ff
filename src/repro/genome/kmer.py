"""k-mer machinery: iteration and an exact-match index.

The seeding-strategy baselines (SaVI's seed-and-vote, the Kraken2-like
classifier) and several examples need exact k-mer matching against a
reference.  k-mers are packed into Python integers (2 bits per base) so
dictionary lookups are cheap and hashable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import DatasetError
from repro.genome.sequence import DnaSequence

#: Maximum k supported by the 2-bit integer packing (Python ints are
#: unbounded, but 64 is far beyond genomics practice).
MAX_K = 64


def pack_kmer(codes: np.ndarray) -> int:
    """Pack an array of base codes into a 2-bit-per-base integer."""
    value = 0
    for code in codes:
        value = (value << 2) | int(code)
    return value


def iter_kmers(sequence: DnaSequence, k: int) -> Iterator[tuple[int, int]]:
    """Yield ``(position, packed_kmer)`` for every k-mer of *sequence*."""
    if not 1 <= k <= MAX_K:
        raise DatasetError(f"k must be in 1..{MAX_K}, got {k}")
    codes = sequence.codes
    n = len(codes)
    if n < k:
        return
    mask = (1 << (2 * k)) - 1
    value = pack_kmer(codes[:k])
    yield 0, value
    for i in range(k, n):
        value = ((value << 2) | int(codes[i])) & mask
        position = i - k + 1
        yield position, value


@dataclass
class KmerIndex:
    """Exact-match k-mer index over a reference sequence.

    Maps each packed k-mer to the sorted list of reference positions
    where it occurs.  This is the substrate both seeding baselines use:
    SaVI votes on positions returned by lookups, and the Kraken-like
    classifier tests k-mer membership.
    """

    k: int
    positions: dict[int, list[int]]
    reference_length: int

    @classmethod
    def build(cls, reference: DnaSequence, k: int) -> "KmerIndex":
        """Index every k-mer of *reference*.

        ``k`` is a positive integer: a float, bool or string raises
        :class:`~repro.errors.DatasetError`, never truncated.
        """
        # Function-level: repro.knobs sits above this layer (CL501).
        from repro.knobs import check_count, check_integer

        k = check_integer("k", k, DatasetError)
        check_count("k", k, DatasetError)
        table: dict[int, list[int]] = defaultdict(list)
        for position, kmer in iter_kmers(reference, k):
            table[kmer].append(position)
        return cls(k=k, positions=dict(table),
                   reference_length=len(reference))

    def lookup(self, kmer: int) -> list[int]:
        """Positions of *kmer* in the reference (empty when absent)."""
        return self.positions.get(kmer, [])

    def __len__(self) -> int:
        """Number of distinct k-mers indexed."""
        return len(self.positions)
