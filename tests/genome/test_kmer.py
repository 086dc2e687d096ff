"""Tests for k-mer packing and indexing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DatasetError
from repro.genome import alphabet
from repro.genome.kmer import (
    KmerIndex,
    iter_kmers,
    pack_kmer,
)
from repro.genome.sequence import DnaSequence

dna_text = st.text(alphabet="ACGT", min_size=1, max_size=40)


def unpack_kmer(value: int, k: int) -> np.ndarray:
    """Inverse of ``pack_kmer``, two bits at a time."""
    codes = np.empty(k, dtype=np.uint8)
    for i in range(k - 1, -1, -1):
        codes[i] = value & 0b11
        value >>= 2
    return codes


class TestPacking:
    def test_pack_known(self):
        # ACGT = 00 01 10 11 = 0b00011011 = 27
        assert pack_kmer(alphabet.encode("ACGT")) == 27

    @given(dna_text)
    def test_pack_unpack_round_trip(self, text):
        codes = alphabet.encode(text)
        assert np.array_equal(unpack_kmer(pack_kmer(codes), len(text)), codes)

class TestIteration:
    def test_positions_and_count(self):
        pairs = list(iter_kmers(DnaSequence("ACGTA"), 3))
        assert [p for p, _ in pairs] == [0, 1, 2]

    def test_sequence_shorter_than_k(self):
        assert list(iter_kmers(DnaSequence("AC"), 3)) == []

    def test_rolling_matches_direct_packing(self):
        seq = DnaSequence("GATTACAGATTACA")
        for position, kmer in iter_kmers(seq, 5):
            expected = pack_kmer(seq.codes[position : position + 5])
            assert kmer == expected

    def test_invalid_k(self):
        with pytest.raises(DatasetError):
            list(iter_kmers(DnaSequence("ACGT"), 0))


class TestIndex:
    def test_lookup_returns_all_positions(self):
        index = KmerIndex.build(DnaSequence("ACGACG"), 3)
        acg = pack_kmer(alphabet.encode("ACG"))
        assert index.lookup(acg) == [0, 3]

    def test_lookup_missing(self):
        index = KmerIndex.build(DnaSequence("AAAA"), 2)
        assert index.lookup(pack_kmer(alphabet.encode("GT"))) == []

    def test_contains(self):
        index = KmerIndex.build(DnaSequence("ACGT"), 2)
        assert index.lookup(pack_kmer(alphabet.encode("CG")))
        assert not index.lookup(pack_kmer(alphabet.encode("TT")))

    def test_distinct_fraction_unique_sequence(self):
        index = KmerIndex.build(DnaSequence("ACGT"), 2)
        assert len(index) == 3  # every one of the 3 slots distinct

    def test_distinct_fraction_repetitive(self):
        index = KmerIndex.build(DnaSequence("A" * 100), 4)
        assert len(index) == 1  # 97 slots, one k-mer

