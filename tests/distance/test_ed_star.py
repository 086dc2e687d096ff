"""Tests for the ED* neighbour-tolerant mismatch count.

Includes bit-exact agreement between the vectorised kernel and the
cell-level circuit model, and all three Fig. 2 examples with the
paper's quoted values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import row_mismatch_count

from repro.cam.cell import MatchMode
from repro.distance.ed_star import (
    ed_star,
    ed_star_batch,
    ed_star_counts_batch,
    match_planes,
    mismatch_counts_all_reads,
)
from repro.distance.hamming import hamming_distance
from repro.errors import SequenceError
from repro.genome.sequence import DnaSequence

dna_pair = st.integers(1, 60).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="ACGT", min_size=n, max_size=n),
        st.text(alphabet="ACGT", min_size=n, max_size=n),
    )
)


class TestPaperExamples:
    """Fig. 2: S1 is the read, S2 the stored sequence."""

    S1 = DnaSequence("AGCTGAGA")

    def test_example_1_substitutions(self):
        assert ed_star(DnaSequence("ATCTGCGA"), self.S1) == 2

    def test_example_2_insertion(self):
        assert ed_star(DnaSequence("AGCATGAG"), self.S1) == 1

    def test_example_3_deletion(self):
        assert ed_star(DnaSequence("AGTGAGAA"), self.S1) == 0

    def test_fig2_top_row_match_modes(self):
        """ACC stored vs CTA/GCT/AGC/TGA reads: L/C/R/mismatch."""
        stored = np.frombuffer(b"\x00\x01\x01", dtype=np.uint8)  # ACC
        # middle cell (index 1) stores C
        for read_text, expected_plane in (
            ("CTA", "L"), ("GCT", "C"), ("AGC", "R"), ("TGA", None)
        ):
            read = DnaSequence(read_text).codes
            o_l, o_c, o_r = match_planes(stored[None, :], read)
            planes = {"L": o_l[0, 1], "C": o_c[0, 1], "R": o_r[0, 1]}
            if expected_plane is None:
                assert not any(planes.values())
            else:
                assert planes[expected_plane]


class TestProperties:
    def test_identity_is_zero(self):
        seq = DnaSequence("GATTACA")
        assert ed_star(seq, seq) == 0

    def test_empty(self):
        assert ed_star(DnaSequence(""), DnaSequence("")) == 0

    def test_length_mismatch(self):
        with pytest.raises(SequenceError):
            ed_star(DnaSequence("AC"), DnaSequence("A"))

    @settings(max_examples=100, deadline=None)
    @given(dna_pair)
    def test_bounded_by_hamming(self, pair):
        segment, read = DnaSequence(pair[0]), DnaSequence(pair[1])
        assert 0 <= ed_star(segment, read) <= hamming_distance(segment, read)

    @settings(max_examples=50, deadline=None)
    @given(dna_pair)
    def test_single_shift_tolerated(self, pair):
        """A read shifted by one base has small ED* (edge cells aside)."""
        segment = DnaSequence(pair[0])
        shifted = DnaSequence(np.roll(segment.codes, 1))
        # Every interior stored base sees its true partner as a neighbour.
        assert ed_star(segment, shifted) <= 2


class TestBatch:
    def test_agrees_with_scalar(self, rng):
        segments = rng.integers(0, 4, (6, 25)).astype(np.uint8)
        read = rng.integers(0, 4, 25).astype(np.uint8)
        batch = ed_star_batch(segments, read)
        for i, row in enumerate(segments):
            assert batch[i] == ed_star(DnaSequence(row), DnaSequence(read))

    def test_all_reads_matrix(self, rng):
        segments = rng.integers(0, 4, (4, 15)).astype(np.uint8)
        reads = rng.integers(0, 4, (3, 15)).astype(np.uint8)
        matrix = mismatch_counts_all_reads(segments, reads)
        assert matrix.shape == (3, 4)
        for r in range(3):
            assert np.array_equal(matrix[r], ed_star_batch(segments, reads[r]))

    def test_shape_validation(self):
        with pytest.raises(SequenceError):
            match_planes(np.zeros((2, 4), dtype=np.uint8),
                         np.zeros(3, dtype=np.uint8))

    def test_planes_batch_rows_match_scalar_planes(self, rng):
        """ed_star_counts_batch row q == ed_star_batch of read q."""
        segments = rng.integers(0, 4, (5, 17)).astype(np.uint8)
        reads = rng.integers(0, 4, (4, 17)).astype(np.uint8)
        counts = ed_star_counts_batch(segments, reads)
        assert counts.shape == (4, 5)
        for q in range(4):
            assert np.array_equal(counts[q], ed_star_batch(segments, reads[q]))

    def test_counts_batch_reduces_planes_batch(self, rng):
        """ed_star_counts_batch row q == OR-and-count of match_planes
        of read q."""
        segments = rng.integers(0, 4, (5, 17)).astype(np.uint8)
        reads = rng.integers(0, 4, (4, 17)).astype(np.uint8)
        counts = ed_star_counts_batch(segments, reads)
        for q in range(4):
            o_l, o_c, o_r = match_planes(segments, reads[q])
            expected = np.count_nonzero(~(o_l | o_c | o_r), axis=1)
            assert np.array_equal(counts[q], expected)

    def test_all_reads_matrix_chunks_consistently(self, rng):
        """Chunked evaluation equals one-shot for workload-sized input."""
        segments = rng.integers(0, 4, (3, 9)).astype(np.uint8)
        reads = rng.integers(0, 4, (50, 9)).astype(np.uint8)
        assert np.array_equal(
            mismatch_counts_all_reads(segments, reads),
            ed_star_counts_batch(segments, reads),
        )

    def test_batch_shape_validation(self):
        with pytest.raises(SequenceError):
            ed_star_counts_batch(np.zeros((2, 4), dtype=np.uint8),
                                 np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(SequenceError):
            ed_star_counts_batch(np.zeros((2, 4), dtype=np.uint8),
                                 np.zeros(4, dtype=np.uint8))


class TestAgainstCellModel:
    """The vectorised kernel must be bit-exact with the circuit logic."""

    def test_bit_exact_with_cells(self, rng):
        segment = rng.integers(0, 4, 30).astype(np.uint8)
        read = rng.integers(0, 4, 30).astype(np.uint8)
        count = row_mismatch_count(segment, read, MatchMode.ED_STAR)
        assert count == ed_star(DnaSequence(segment), DnaSequence(read))

    def test_hamming_mode_bit_exact_with_cells(self, rng):
        segment = rng.integers(0, 4, 30).astype(np.uint8)
        read = rng.integers(0, 4, 30).astype(np.uint8)
        count = row_mismatch_count(segment, read, MatchMode.HAMMING)
        assert count == hamming_distance(DnaSequence(segment),
                                         DnaSequence(read))
