"""Tests for the anti-diagonal comparison-matrix traversal (ReSMA)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edit_distance_matrix

from repro.distance.comparison_matrix import AntiDiagonalTraversal
from repro.distance.edit_distance import edit_distance
from repro.genome.sequence import DnaSequence

dna = st.text(alphabet="ACGT", max_size=25).map(DnaSequence)


class TestCorrectness:
    @settings(max_examples=60, deadline=None)
    @given(dna, dna)
    def test_distance_agrees_with_row_dp(self, a, b):
        assert AntiDiagonalTraversal.run(a, b).distance == edit_distance(a, b)

    def test_full_matrix_agrees(self, rng):
        a = DnaSequence(rng.integers(0, 4, 18).astype(np.uint8))
        b = DnaSequence(rng.integers(0, 4, 13).astype(np.uint8))
        traversal = AntiDiagonalTraversal.run(a, b)
        assert np.array_equal(traversal.matrix, edit_distance_matrix(a, b))


class TestWorkStatistics:
    def test_wavefront_count(self, rng):
        n, m = 10, 7
        a = DnaSequence(rng.integers(0, 4, n).astype(np.uint8))
        b = DnaSequence(rng.integers(0, 4, m).astype(np.uint8))
        stats = AntiDiagonalTraversal.run(a, b).stats
        # Interior wavefronts: s = 2 .. n+m, i.e. n + m - 1 of them.
        assert stats.n_wavefronts == n + m - 1

    def test_total_updates_equal_interior_cells(self, rng):
        n, m = 12, 9
        a = DnaSequence(rng.integers(0, 4, n).astype(np.uint8))
        b = DnaSequence(rng.integers(0, 4, m).astype(np.uint8))
        stats = AntiDiagonalTraversal.run(a, b).stats
        assert stats.total_cell_updates == n * m

    def test_max_width_is_min_dimension(self, rng):
        a = DnaSequence(rng.integers(0, 4, 20).astype(np.uint8))
        b = DnaSequence(rng.integers(0, 4, 6).astype(np.uint8))
        stats = AntiDiagonalTraversal.run(a, b).stats
        assert stats.max_wavefront_width == 6

    def test_widths_sum_to_updates(self, rng):
        a = DnaSequence(rng.integers(0, 4, 11).astype(np.uint8))
        b = DnaSequence(rng.integers(0, 4, 14).astype(np.uint8))
        stats = AntiDiagonalTraversal.run(a, b).stats
        assert sum(stats.wavefront_widths) == stats.total_cell_updates

    def test_empty_inputs(self):
        traversal = AntiDiagonalTraversal.run(DnaSequence(""),
                                              DnaSequence("ACG"))
        assert traversal.distance == 3
        assert traversal.stats.n_wavefronts == 0
