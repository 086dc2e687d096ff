"""Tests for DnaSequence: immutability, slicing, rotation, biology.

A read's rotation (TASR's shift-register rotation, Section IV-B) is
applied by the count kernel's ``rotations=``; ``TestRotation`` pins its
direction on sequences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distance.edit_distance import composition_profiles
from repro.errors import SequenceError
from repro.genome.sequence import DnaSequence
from repro.kernels import counts_batch, encode_reference

dna_text = st.text(alphabet="ACGT", max_size=100)


class TestConstruction:
    def test_from_string(self):
        assert str(DnaSequence("GATTACA")) == "GATTACA"

    def test_from_codes(self):
        seq = DnaSequence(np.array([2, 0, 3], dtype=np.uint8))
        assert str(seq) == "GAT"

    def test_copy_constructor(self):
        a = DnaSequence("ACGT")
        assert DnaSequence(a) == a

    def test_rejects_2d(self):
        with pytest.raises(SequenceError):
            DnaSequence(np.zeros((2, 2), dtype=np.uint8))

    def test_rejects_bad_codes(self):
        with pytest.raises(SequenceError):
            DnaSequence(np.array([7], dtype=np.uint8))

    def test_codes_are_read_only(self):
        seq = DnaSequence("ACGT")
        with pytest.raises(ValueError):
            seq.codes[0] = 3

    def test_source_array_mutation_does_not_leak(self):
        source = np.array([0, 1, 2], dtype=np.uint8)
        seq = DnaSequence(source)
        source[0] = 3
        assert str(seq) == "ACG"


class TestProtocol:
    def test_len_and_iter(self):
        seq = DnaSequence("ACG")
        assert len(seq) == 3
        assert list(seq) == ["A", "C", "G"]

    def test_equality_with_string(self):
        assert DnaSequence("acgt") == "ACGT"
        assert DnaSequence("ACGT") == "acgt"

    def test_hashable_and_consistent(self):
        a, b = DnaSequence("ACGT"), DnaSequence("ACGT")
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_slicing(self):
        seq = DnaSequence("GATTACA")
        assert str(seq[1:4]) == "ATT"
        assert str(seq[0]) == "G"
        assert str(seq[::-1]) == "ACATTAG"

    def test_bad_index_type_raises_typed_error(self):
        # Error-contract regression (contractlint CL401): a bad index
        # raises the typed SequenceError, not a bare TypeError.
        with pytest.raises(SequenceError, match="int or slice"):
            DnaSequence("GATTACA")["not-an-index"]

    def test_concatenation(self):
        assert str(DnaSequence("AC") + DnaSequence("GT")) == "ACGT"

    def test_repr_truncates(self):
        seq = DnaSequence("A" * 100)
        assert "..." in repr(seq)


class TestBiology:
    def test_gc_content(self):
        assert DnaSequence("GGCC").gc_content() == 1.0
        assert DnaSequence("AATT").gc_content() == 0.0
        assert DnaSequence("").gc_content() == 0.0

    def test_base_counts(self):
        """The labeller's composition profile counts A, C, G, T."""
        counts = composition_profiles(DnaSequence("AACGG").codes[None, :], 4)
        assert counts.tolist() == [[2, 1, 2, 0]]

    @given(dna_text)
    def test_gc_matches_counts(self, text):
        seq = DnaSequence(text)
        _, c, g, _ = composition_profiles(seq.codes[None, :], 4)[0]
        expected = ((g + c) / len(text)) if text else 0.0
        assert seq.gc_content() == pytest.approx(expected)


def _rotated_distance(read: str, stored: str, offset: int) -> int:
    """Hamming count of *read*, rotated by *offset*, against *stored*."""
    encoded = encode_reference(DnaSequence(stored).codes[None, :])
    counts = counts_batch(encoded, DnaSequence(read).codes[None, :],
                          ed_star=False, rotations=(offset,))
    return int(counts[0, 0, 0])


class TestRotation:
    def test_rotate_left(self):
        assert _rotated_distance("ACGT", "CGTA", 1) == 0

    def test_rotate_right(self):
        assert _rotated_distance("ACGT", "TACG", -1) == 0

    def test_rotate_zero_returns_same(self):
        assert _rotated_distance("ACGT", "ACGT", 0) == 0

    def test_rotate_full_cycle(self):
        assert _rotated_distance("ACGT", "ACGT", 4) == 0

    @given(dna_text.filter(bool), st.integers(-300, 300))
    def test_rotation_is_invertible(self, text, offset):
        """Rotating by ``offset`` and back by ``-offset`` is the identity."""
        rotated = str(DnaSequence(np.roll(DnaSequence(text).codes, -offset)))
        assert _rotated_distance(text, rotated, offset) == 0
        assert _rotated_distance(rotated, text, -offset) == 0


class TestWindow:
    def test_window_extracts(self):
        assert str(DnaSequence("GATTACA").window(1, 3)) == "ATT"

    def test_window_out_of_range(self):
        with pytest.raises(SequenceError):
            DnaSequence("ACGT").window(2, 3)

    def test_window_negative(self):
        with pytest.raises(SequenceError):
            DnaSequence("ACGT").window(-1, 2)
