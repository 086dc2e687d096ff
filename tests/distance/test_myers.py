"""Tests for the Myers bit-parallel oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.edit_distance import edit_distance
from repro.distance.myers import myers_edit_distance
from repro.genome.sequence import DnaSequence

dna = st.text(alphabet="ACGT", max_size=60).map(DnaSequence)


class TestMyers:
    @pytest.mark.parametrize("a,b,expected", [
        ("", "", 0),
        ("ACGT", "", 4),
        ("", "ACGT", 4),
        ("ACGT", "ACGT", 0),
        ("ACGT", "TGCA", 4),
        ("AGCTGAGA", "AGCATGAG", 2),
    ])
    def test_known_values(self, a, b, expected):
        assert myers_edit_distance(DnaSequence(a), DnaSequence(b)) == expected

    @settings(max_examples=150, deadline=None)
    @given(dna, dna)
    def test_agrees_with_dp(self, a, b):
        assert myers_edit_distance(a, b) == edit_distance(a, b)

    def test_long_patterns_beyond_word_size(self, rng):
        """Python bignums make >64-base patterns work transparently."""
        a = DnaSequence(rng.integers(0, 4, 300).astype(np.uint8))
        b = DnaSequence(rng.integers(0, 4, 300).astype(np.uint8))
        assert myers_edit_distance(a, b) == edit_distance(a, b)
