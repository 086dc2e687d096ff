"""Tests for repro.genome.alphabet: encoding and validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AlphabetError
from repro.genome import alphabet

dna_text = st.text(alphabet="ACGT", max_size=200)


class TestEncodeDecode:
    def test_known_codes(self):
        codes = alphabet.encode("ACGT")
        assert codes.tolist() == [0, 1, 2, 3]

    def test_lowercase_accepted(self):
        assert alphabet.encode("acgt").tolist() == [0, 1, 2, 3]

    def test_empty_string(self):
        assert alphabet.encode("").size == 0
        assert alphabet.decode(np.array([], dtype=np.uint8)) == ""

    def test_invalid_character_raises_with_position(self):
        with pytest.raises(AlphabetError, match="position 2"):
            alphabet.encode("ACNT")

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(AlphabetError):
            alphabet.decode(np.array([4], dtype=np.uint8))

    @given(dna_text)
    def test_round_trip(self, text):
        assert alphabet.decode(alphabet.encode(text)) == text

    def test_encode_returns_uint8(self):
        assert alphabet.encode("GATTACA").dtype == np.uint8


class TestRandomCodes:
    def test_length_and_range(self, rng):
        codes = alphabet.random_codes(1000, rng)
        assert codes.shape == (1000,)
        assert codes.min() >= 0 and codes.max() <= 3

    def test_gc_content_respected(self, rng):
        codes = alphabet.random_codes(50_000, rng, gc_content=0.2)
        gc = np.isin(codes, [1, 2]).mean()
        assert abs(gc - 0.2) < 0.02

    def test_extreme_gc(self, rng):
        codes = alphabet.random_codes(1000, rng, gc_content=0.0)
        assert not np.isin(codes, [1, 2]).any()

    def test_invalid_gc_raises(self, rng):
        with pytest.raises(AlphabetError):
            alphabet.random_codes(10, rng, gc_content=1.5)

    def test_negative_length_raises(self, rng):
        with pytest.raises(AlphabetError):
            alphabet.random_codes(-1, rng)
