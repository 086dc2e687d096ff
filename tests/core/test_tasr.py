"""Tests for Algorithm 2 (TASR): the rotation schedule and how the
matcher issues and combines the rotated passes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.tasr import rotation_offsets
from repro.errors import CamConfigError, ThresholdError
from repro.genome.edits import ErrorModel


class TestRotationOffsets:
    def test_both_directions(self):
        assert set(rotation_offsets(2, "both")) == {1, 2, -1, -2}

    def test_left_only(self):
        assert rotation_offsets(3, "left") == (1, 2, 3)

    def test_right_only(self):
        assert rotation_offsets(2, "right") == (-1, -2)

    def test_nr_zero(self):
        assert rotation_offsets(0, "both") == ()

    def test_invalid_direction(self):
        with pytest.raises(ThresholdError):
            rotation_offsets(2, "diagonal")

    def test_negative_nr(self):
        with pytest.raises(ThresholdError):
            rotation_offsets(-1, "both")


def _tasr_matcher(segments, **config):
    """A noiseless TASR-only matcher (HDAC off) over *segments*."""
    array = CamArray(rows=segments.shape[0], cols=segments.shape[1],
                     noisy=False, seed=0)
    array.store(segments)
    return AsmCapMatcher(array, ErrorModel.condition_b(),
                         MatcherConfig(enable_hdac=False, **config))


@pytest.fixture
def segments(rng):
    return rng.integers(0, 4, (8, 64)).astype(np.uint8)


class TestThresholdGuard:
    def test_below_lower_bound_skips_rotations(self, segments):
        matcher = _tasr_matcher(segments)
        lower_bound = matcher.tasr_lower_bound()
        assert lower_bound >= 1
        outcome = matcher.match_batch(segments[:2], lower_bound - 1)
        assert not outcome.tasr_mask.any()
        assert outcome.n_searches.tolist() == [1, 1]
        assert "TasrRotationPass" not in matcher.array.ledger.pass_counts()

    def test_at_lower_bound_triggers(self, segments):
        matcher = _tasr_matcher(segments, tasr_nr=2, tasr_direction="both")
        outcome = matcher.match_batch(segments[:2],
                                      matcher.tasr_lower_bound())
        assert outcome.tasr_mask.all()
        assert outcome.n_searches.tolist() == [5, 5]
        assert matcher.array.ledger.pass_counts()["TasrRotationPass"] == 4


class TestDecisionCombination:
    def test_or_semantics(self, segments):
        # Shifted by two bases, the read escapes ED*'s one-base window;
        # only a rotated pass brings it back within reach.
        read = np.roll(segments[3], 2)
        threshold = max(4, _tasr_matcher(segments).tasr_lower_bound())
        plain = _tasr_matcher(segments, enable_tasr=False)
        assert not plain.match(read, threshold).decisions[3]
        outcome = _tasr_matcher(segments).match(read, threshold)
        assert outcome.decisions[3]
        assert outcome.decisions.sum() == 1

    def test_base_matches_preserved(self, segments):
        matcher = _tasr_matcher(segments)
        threshold = max(2, matcher.tasr_lower_bound())
        assert matcher.match(segments[5], threshold).decisions[5]

    def test_rotation_cycles_counted(self, segments):
        matcher = _tasr_matcher(segments, tasr_nr=2, tasr_direction="both")
        outcome = matcher.match(segments[0], 8)
        assert matcher.array.stats.n_rotation_cycles == 1 + 2 + 1 + 2
        assert outcome.n_searches == 1 + 4

    def test_base_not_mutated(self, segments):
        reads = segments[:3].copy()
        _tasr_matcher(segments, tasr_nr=1, tasr_direction="left") \
            .match_batch(reads, 8)
        assert np.array_equal(reads, segments[:3])

    def test_shape_mismatch_rejected(self, segments):
        with pytest.raises(CamConfigError):
            _tasr_matcher(segments).match(np.zeros(63, np.uint8), 8)

    def test_negative_threshold_rejected(self, segments):
        with pytest.raises(ThresholdError):
            _tasr_matcher(segments).match(segments[0], -1)
