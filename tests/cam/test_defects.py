"""Tests for array defect injection and graceful degradation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.cam.defects import DefectiveArray, DefectMap
from repro.errors import CamConfigError


@pytest.fixture
def clean_array(rng):
    array = CamArray(rows=16, cols=32, noisy=False)
    array.store(rng.integers(0, 4, (16, 32)).astype(np.uint8))
    return array


class TestDefectMap:
    def test_sampling_rates(self, rng):
        defects = DefectMap.sample(100_000, 0.01, 0.02, rng)
        assert defects.stuck_match.mean() == pytest.approx(0.01, abs=0.002)
        assert defects.stuck_mismatch.mean() == pytest.approx(0.02,
                                                              abs=0.002)
        # A row cannot be stuck both ways.
        assert not (defects.stuck_match & defects.stuck_mismatch).any()

    def test_zero_rates_no_defects(self, rng):
        defects = DefectMap.sample(100, 0.0, 0.0, rng)
        assert defects.n_defective == 0

    def test_apply_overrides(self, rng):
        defects = DefectMap(
            stuck_match=np.array([True, False, False]),
            stuck_mismatch=np.array([False, True, False]),
        )
        patched = defects.apply(np.array([False, True, True]))
        assert patched.tolist() == [True, False, True]

    def test_apply_shape_checked(self):
        defects = DefectMap(stuck_match=np.zeros(3, bool),
                            stuck_mismatch=np.zeros(3, bool))
        with pytest.raises(CamConfigError):
            defects.apply(np.zeros(4, bool))

    def test_invalid_rates(self, rng):
        with pytest.raises(CamConfigError):
            DefectMap.sample(10, 1.5, 0.0, rng)


class TestDefectiveArray:
    def test_stuck_match_row_always_matches(self, clean_array, rng):
        defects = DefectMap(stuck_match=np.zeros(16, bool),
                            stuck_mismatch=np.zeros(16, bool))
        defects.stuck_match[7] = True
        wrapped = DefectiveArray(clean_array, defects)
        read = rng.integers(0, 4, 32).astype(np.uint8)
        result = wrapped.search_batch(read[None, :], threshold=0)
        assert result.matches[0, 7]

    def test_stuck_mismatch_row_never_matches(self, clean_array):
        defects = DefectMap(stuck_match=np.zeros(16, bool),
                            stuck_mismatch=np.zeros(16, bool))
        defects.stuck_mismatch[3] = True
        wrapped = DefectiveArray(clean_array, defects)
        stored = clean_array.stored_segments()[3]
        result = wrapped.search_batch(stored[None, :], threshold=0)
        assert not result.matches[0, 3]  # exact match suppressed by defect

    def test_healthy_rows_unaffected(self, clean_array, rng):
        defects = DefectMap(stuck_match=np.zeros(16, bool),
                            stuck_mismatch=np.zeros(16, bool))
        defects.stuck_match[0] = True
        wrapped = DefectiveArray(clean_array, defects)
        read = rng.integers(0, 4, 32).astype(np.uint8)
        clean = clean_array.search_batch(read[None, :], 4).matches
        patched = wrapped.search_batch(read[None, :], 4).matches
        assert np.array_equal(clean[:, 1:], patched[:, 1:])
        assert patched[0, 0]

    def test_shape_mismatch_rejected(self, clean_array):
        defects = DefectMap(stuck_match=np.zeros(8, bool),
                            stuck_mismatch=np.zeros(8, bool))
        with pytest.raises(CamConfigError):
            DefectiveArray(clean_array, defects)

    def test_accuracy_degrades_smoothly(self, rng):
        """More defects -> monotonically worse mapping, never a crash."""
        segments = rng.integers(0, 4, (32, 64)).astype(np.uint8)
        recovered = []
        for rate in (0.0, 0.1, 0.4):
            array = CamArray(rows=32, cols=64, noisy=False)
            array.store(segments)
            defects = DefectMap.sample(32, 0.0, rate,
                                       np.random.default_rng(5))
            wrapped = DefectiveArray(array, defects)
            # Read r searched as row r of one block: its self-match.
            hits = wrapped.search_batch(segments, 0).matches.diagonal()
            recovered.append(int(hits.sum()))
        assert recovered[0] == 32
        assert recovered[0] >= recovered[1] >= recovered[2]
        assert recovered[2] < 32
