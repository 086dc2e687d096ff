"""Tests for long-read fragmentation over the CAM array."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.core.fragmentation import FragmentedMatcher
from repro.errors import CamConfigError, ThresholdError
from repro.genome.generator import generate_reference


@pytest.fixture
def long_segments(rng):
    """8 segments of 2 fragments x 64 bases each."""
    reference = generate_reference(8 * 128 + 64, seed=130,
                                   with_repeats=False)
    return np.stack([
        reference.codes[i * 128 : (i + 1) * 128] for i in range(8)
    ])


@pytest.fixture
def matcher(long_segments):
    array = CamArray(rows=16, cols=64, domain="charge", noisy=False)
    return FragmentedMatcher(array, long_segments, min_fragment_matches=2)


class TestLayout:
    def test_geometry(self, matcher):
        assert matcher.n_segments == 8
        assert matcher.n_fragments == 2
        assert matcher.read_length == 128

    def test_fragment_rows_layout(self, matcher, long_segments):
        stored = matcher._array.stored.segments
        # Fragment-major: rows 0..7 hold fragment 0, rows 8..15 fragment 1.
        assert np.array_equal(stored[3], long_segments[3][:64])
        assert np.array_equal(stored[8 + 3], long_segments[3][64:])

    def test_capacity_check(self, long_segments):
        small = CamArray(rows=8, cols=64, noisy=False)
        with pytest.raises(CamConfigError):
            FragmentedMatcher(small, long_segments)

    def test_length_multiple_check(self, rng):
        array = CamArray(rows=16, cols=64, noisy=False)
        segments = rng.integers(0, 4, (4, 100)).astype(np.uint8)
        with pytest.raises(CamConfigError):
            FragmentedMatcher(array, segments)

    def test_min_matches_validation(self, long_segments):
        array = CamArray(rows=16, cols=64, noisy=False)
        with pytest.raises(ThresholdError):
            FragmentedMatcher(array, long_segments, min_fragment_matches=3)


class TestMatching:
    def test_exact_read_matches_origin(self, matcher, long_segments):
        outcome = matcher.match(long_segments[5], threshold=0)
        assert outcome.decisions[5]
        assert outcome.fragment_matches[5].all()
        assert outcome.n_searches == 2

    def test_random_read_matches_nothing(self, matcher, rng):
        read = rng.integers(0, 4, 128).astype(np.uint8)
        outcome = matcher.match(read, threshold=4)
        assert not outcome.decisions.any()

    def test_edited_read_within_budget(self, matcher, long_segments, rng):
        read = long_segments[2].copy()
        read[10] = (read[10] + 1) % 4   # one edit in fragment 0
        read[90] = (read[90] + 1) % 4   # one edit in fragment 1
        outcome = matcher.match(read, threshold=2)
        assert outcome.per_fragment_threshold == 1
        assert outcome.decisions[2]

    def test_budget_split_is_ceiling(self, matcher):
        assert matcher.per_fragment_threshold(3) == 2
        assert matcher.per_fragment_threshold(4) == 2
        assert matcher.per_fragment_threshold(0) == 0

    def test_min_matches_one_is_permissive(self, long_segments, rng):
        array = CamArray(rows=16, cols=64, noisy=False)
        lenient = FragmentedMatcher(array, long_segments,
                                    min_fragment_matches=1)
        # Corrupt fragment 1 completely: fragment 0 alone should carry.
        read = long_segments[4].copy()
        read[64:] = rng.integers(0, 4, 64).astype(np.uint8)
        outcome = lenient.match(read, threshold=2)
        assert outcome.decisions[4]

    def test_wrong_read_length(self, matcher, rng):
        with pytest.raises(CamConfigError):
            matcher.match(rng.integers(0, 4, 64).astype(np.uint8), 2)

    def test_costs_scale_with_fragments(self, matcher, long_segments):
        outcome = matcher.match(long_segments[0], threshold=0)
        assert outcome.energy_joules > 0
        assert outcome.latency_ns == pytest.approx(2 * 0.9)
