"""Tests for Hamming-distance kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distance.hamming import hamming_distance
from repro.errors import SequenceError
from repro.genome.sequence import DnaSequence
from repro.kernels import counts_batch, encode_reference


class TestScalar:
    def test_known(self):
        assert hamming_distance(DnaSequence("ACGT"), DnaSequence("AGGA")) == 2

    def test_identity(self):
        seq = DnaSequence("GATTACA")
        assert hamming_distance(seq, seq) == 0

    def test_empty(self):
        assert hamming_distance(DnaSequence(""), DnaSequence("")) == 0

    def test_length_mismatch(self):
        with pytest.raises(SequenceError):
            hamming_distance(DnaSequence("AC"), DnaSequence("A"))

    @given(st.text(alphabet="ACGT", max_size=50))
    def test_symmetry(self, text):
        a = DnaSequence(text)
        b = DnaSequence(text[::-1])
        assert hamming_distance(a, b) == hamming_distance(b, a)

    def test_paper_fig2_example(self):
        assert hamming_distance(DnaSequence("AGCTGAGA"),
                                DnaSequence("ATCTGCGA")) == 2
        assert hamming_distance(DnaSequence("AGCTGAGA"),
                                DnaSequence("AGCATGAG")) == 5


class TestBatch:
    def test_agrees_with_scalar(self, rng):
        """The count kernel's HD mode == the scalar distance per row."""
        segments = rng.integers(0, 4, (8, 20)).astype(np.uint8)
        read = rng.integers(0, 4, 20).astype(np.uint8)
        batch = counts_batch(encode_reference(segments), read[None, :],
                             ed_star=False)[0]
        for i, row in enumerate(segments):
            assert batch[i] == hamming_distance(DnaSequence(row),
                                                DnaSequence(read))
