"""Tests for the DP edit-distance kernels (full and batched banded)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edit_distance_matrix

from repro.distance.edit_distance import (
    banded_edit_distance_batch,
    composition_lower_bound,
    composition_profiles,
    edit_distance,
)
from repro.errors import SequenceError, ThresholdError
from repro.genome.sequence import DnaSequence

dna = st.text(alphabet="ACGT", max_size=30).map(DnaSequence)
dna_nonempty = st.text(alphabet="ACGT", min_size=1, max_size=30).map(DnaSequence)


class TestEditDistance:
    @pytest.mark.parametrize("a,b,expected", [
        ("", "", 0),
        ("A", "", 1),
        ("", "ACGT", 4),
        ("ACGT", "ACGT", 0),
        ("ACGT", "AGGT", 1),
        ("ACGT", "CGT", 1),     # deletion
        ("ACGT", "AACGT", 1),   # insertion
        ("AGCTGAGA", "ATCTGCGA", 2),   # paper Fig. 2 example 1
        # Fig. 2 examples 2/3 quote ED=1 in *fixed-window* semantics
        # (the inserted/deleted base pushes one base out of the window);
        # full Levenshtein between the shown 8-base strings is 2.
        ("AGCTGAGA", "AGCATGAG", 2),
        ("AGCTGAGA", "AGTGAGAA", 2),
    ])
    def test_known_values(self, a, b, expected):
        assert edit_distance(DnaSequence(a), DnaSequence(b)) == expected

    @given(dna, dna)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(dna)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(dna, dna)
    def test_length_difference_lower_bound(self, a, b):
        assert edit_distance(a, b) >= abs(len(a) - len(b))

    @given(dna, dna)
    def test_max_length_upper_bound(self, a, b):
        assert edit_distance(a, b) <= max(len(a), len(b))

    @settings(max_examples=30, deadline=None)
    @given(dna, dna, dna)
    def test_triangle_inequality(self, a, b, c):
        assert (edit_distance(a, c)
                <= edit_distance(a, b) + edit_distance(b, c))


def _banded(a: str, b: str, band: int) -> int:
    """One pair through the batched banded DP."""
    return int(banded_edit_distance_batch(
        DnaSequence(a).codes[None, :], DnaSequence(b).codes[None, :], band)[0, 0])


class TestBanded:
    def test_exact_within_band(self):
        assert _banded("ACGTACGT", "ACGAACGT", band=3) == 1

    def test_caps_beyond_band(self):
        assert _banded("AAAAAAAA", "TTTTTTTT", band=3) == 4

    def test_negative_band_rejected(self):
        with pytest.raises(ThresholdError):
            _banded("A", "A", -1)


class TestBatch:
    def test_agrees_with_scalar(self, rng):
        length, band = 32, 8
        segments = rng.integers(0, 4, (6, length)).astype(np.uint8)
        reads = rng.integers(0, 4, (4, length)).astype(np.uint8)
        batch = banded_edit_distance_batch(segments, reads, band)
        for r in range(4):
            for s in range(6):
                exact = edit_distance(DnaSequence(reads[r]),
                                      DnaSequence(segments[s]))
                assert batch[r, s] == min(exact, band + 1)

    def test_identical_rows_zero(self, rng):
        segments = rng.integers(0, 4, (3, 20)).astype(np.uint8)
        batch = banded_edit_distance_batch(segments, segments.copy(), 5)
        assert np.array_equal(np.diag(batch), np.zeros(3, dtype=np.int32))

    def test_band_zero_is_exact_match_test(self, rng):
        segments = rng.integers(0, 4, (4, 16)).astype(np.uint8)
        reads = segments.copy()
        reads[0, 3] ^= 1
        batch = banded_edit_distance_batch(segments, reads, 0)
        assert batch[0, 0] == 1  # capped: "greater than 0"
        assert batch[1, 1] == 0

    def test_zero_length(self):
        empty = np.zeros((2, 0), dtype=np.uint8)
        batch = banded_edit_distance_batch(empty, empty, 4)
        assert batch.shape == (2, 2)
        assert (batch == 0).all()

    def test_shape_validation(self):
        with pytest.raises(SequenceError):
            banded_edit_distance_batch(np.zeros((2, 4), dtype=np.uint8),
                                       np.zeros((2, 5), dtype=np.uint8), 2)

    def test_result_shape(self, rng):
        segments = rng.integers(0, 4, (7, 12)).astype(np.uint8)
        reads = rng.integers(0, 4, (3, 12)).astype(np.uint8)
        assert banded_edit_distance_batch(segments, reads, 4).shape == (3, 7)


class TestCompositionLowerBound:
    """The prefilter bound must never exceed the true distance."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bound_below_exact_distance(self, seed):
        rng = np.random.default_rng(seed)
        segments = rng.integers(0, 4, (6, 24)).astype(np.uint8)
        reads = rng.integers(0, 4, (4, 24)).astype(np.uint8)
        bound = composition_lower_bound(segments, reads)
        for r in range(reads.shape[0]):
            for s in range(segments.shape[0]):
                exact = edit_distance(DnaSequence(reads[r]),
                                      DnaSequence(segments[s]))
                assert bound[r, s] <= exact

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=600),
           st.integers(0, 2**32 - 1))
    def test_profiles_equal_per_row_bincount(self, max_code, n_rows,
                                             n_cols, seed):
        """The row-folded histogram ``==`` one bincount per row, for
        ACGT and ambiguity codes (4..6) alike and past 255 cells."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, max_code + 1,
                            (n_rows, n_cols)).astype(np.uint8)
        n_codes = max_code + 1
        expected = np.zeros((n_rows, n_codes), dtype=np.int32)
        for index, row in enumerate(rows):
            expected[index] = np.bincount(row, minlength=n_codes)
        got = composition_profiles(rows, n_codes)
        assert got.dtype == np.int32
        assert np.array_equal(got, expected)

    def test_identical_rows_bound_zero(self, rng):
        rows = rng.integers(0, 4, (3, 16)).astype(np.uint8)
        assert (np.diag(composition_lower_bound(rows, rows)) == 0).all()

    def test_batch_dp_unaffected_by_prefilter(self, rng):
        """Pairs the bound prunes get the cap; survivors keep the exact
        banded value — i.e. the prefilter changes nothing observable."""
        segments = rng.integers(0, 4, (9, 32)).astype(np.uint8)
        reads = rng.integers(0, 4, (5, 32)).astype(np.uint8)
        reads[0] = segments[3]
        band = 6
        batch = banded_edit_distance_batch(segments, reads, band)
        for r in range(reads.shape[0]):
            for s in range(segments.shape[0]):
                exact = edit_distance(DnaSequence(reads[r]),
                                      DnaSequence(segments[s]))
                assert batch[r, s] == min(exact, band + 1)


class TestLongSequenceFallback:
    def test_int32_fallback_beyond_int16_range(self):
        """Sequences too long for the int16 tables stay exact."""
        length = 16400  # length + band + 1 exceeds the int16 sentinel
        rng = np.random.default_rng(0)
        base = rng.integers(0, 4, length).astype(np.uint8)
        edited = base.copy()
        edited[[10, 5000, 16000]] = (edited[[10, 5000, 16000]] + 1) % 4
        batch = banded_edit_distance_batch(base[None, :],
                                           np.stack([base, edited]), 4)
        assert batch[0, 0] == 0
        assert batch[1, 0] == 3


class TestMatrix:
    def test_matrix_boundaries(self):
        table = edit_distance_matrix(DnaSequence("ACG"), DnaSequence("AG"))
        assert table[:, 0].tolist() == [0, 1, 2, 3]
        assert table[0, :].tolist() == [0, 1, 2]

    def test_matrix_corner_is_distance(self, rng):
        for _ in range(10):
            a = DnaSequence(rng.integers(0, 4, 15).astype(np.uint8))
            b = DnaSequence(rng.integers(0, 4, 12).astype(np.uint8))
            table = edit_distance_matrix(a, b)
            assert table[-1, -1] == edit_distance(a, b)

    def test_matrix_monotone_steps(self, rng):
        """Adjacent DP cells differ by at most 1."""
        a = DnaSequence(rng.integers(0, 4, 20).astype(np.uint8))
        b = DnaSequence(rng.integers(0, 4, 20).astype(np.uint8))
        table = edit_distance_matrix(a, b)
        assert (np.abs(np.diff(table, axis=0)) <= 1).all()
        assert (np.abs(np.diff(table, axis=1)) <= 1).all()
