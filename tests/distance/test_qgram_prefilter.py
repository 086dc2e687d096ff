"""Property tests for the q-gram (Ukkonen) lower-bound prefilter.

The prefilter may only ever *prove* pairs "greater than band" — it
must never change a labelled distance.  These tests fuzz the bound's
validity and cross-check the prefiltered batch kernel against the
unfiltered full DP, i.e. exactness of the ground-truth labelling is
property-tested end to end.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.edit_distance import (
    _qgram_bound_from_l1,
    banded_edit_distance_batch,
    composition_lower_bound,
    edit_distance,
    qgram_profiles,
)
from repro.errors import SequenceError
from repro.eval.ground_truth import label_dataset
from repro.genome.datasets import build_dataset
from repro.genome.sequence import DnaSequence

def qgram_lower_bound(segments: np.ndarray, reads: np.ndarray,
                      q: int = 3) -> np.ndarray:
    """The labeller's q-gram bound over the full ``(R, M)`` pair grid."""
    l1 = np.abs(qgram_profiles(reads, q)[:, None, :].astype(np.int64)
                - qgram_profiles(segments, q)[None, :, :]).sum(axis=2)
    return _qgram_bound_from_l1(l1, q)


equal_length_pair = st.integers(3, 40).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="ACGT", min_size=n, max_size=n),
        st.text(alphabet="ACGT", min_size=n, max_size=n),
    )
)


class TestQgramBound:
    @settings(max_examples=150, deadline=None)
    @given(equal_length_pair)
    def test_never_exceeds_true_distance(self, pair):
        a, b = DnaSequence(pair[0]), DnaSequence(pair[1])
        bound = qgram_lower_bound(a.codes[None, :], b.codes[None, :])
        assert bound[0, 0] <= edit_distance(b, a)

    @settings(max_examples=80, deadline=None)
    @given(equal_length_pair)
    def test_at_least_as_strong_cases_stay_valid_with_composition(
            self, pair):
        """max(composition, qgram) is still a valid lower bound."""
        a, b = DnaSequence(pair[0]), DnaSequence(pair[1])
        comp = composition_lower_bound(a.codes[None, :], b.codes[None, :])
        qgram = qgram_lower_bound(a.codes[None, :], b.codes[None, :])
        assert max(int(comp[0, 0]), int(qgram[0, 0])) <= edit_distance(b, a)

    def test_zero_on_identity(self, rng):
        rows = rng.integers(0, 4, (5, 30)).astype(np.uint8)
        assert (np.diag(qgram_lower_bound(rows, rows)) == 0).all()

    def test_profiles_count_every_window(self, rng):
        rows = rng.integers(0, 4, (3, 20)).astype(np.uint8)
        profiles = qgram_profiles(rows, q=3)
        assert profiles.shape == (3, 64)
        assert (profiles.sum(axis=1) == 20 - 3 + 1).all()

    def test_profiles_reject_short_rows(self, rng):
        with pytest.raises(SequenceError):
            qgram_profiles(rng.integers(0, 4, (2, 2)).astype(np.uint8))

    def test_q1_equals_composition_bound(self, rng):
        """With q = 1 Ukkonen degenerates to the composition bound."""
        segments = rng.integers(0, 4, (6, 25)).astype(np.uint8)
        reads = rng.integers(0, 4, (4, 25)).astype(np.uint8)
        assert np.array_equal(
            qgram_lower_bound(segments, reads, q=1),
            composition_lower_bound(segments, reads),
        )


class TestPrefilteredBatchExactness:
    @pytest.mark.parametrize("band", [0, 2, 6, 12])
    def test_matches_unfiltered_full_dp(self, rng, band):
        segments = rng.integers(0, 4, (12, 48)).astype(np.uint8)
        reads = segments[rng.integers(0, 12, 9)].copy()
        for row in reads:  # inject a few substitutions
            idx = rng.integers(0, 48, rng.integers(0, 8))
            row[idx] = rng.integers(0, 4, idx.size)
        batch = banded_edit_distance_batch(segments, reads, band)
        for r in range(reads.shape[0]):
            for s in range(segments.shape[0]):
                true = edit_distance(DnaSequence(reads[r]),
                                     DnaSequence(segments[s]))
                assert batch[r, s] == min(true, band + 1)

    def test_non_acgt_codes_skip_qgram_but_stay_exact(self, rng):
        """Codes outside ACGT can't be q-gram-indexed; the kernel must
        fall back gracefully and stay exact."""

        def reference_dp(a: np.ndarray, b: np.ndarray) -> int:
            prev = list(range(len(b) + 1))
            for i in range(1, len(a) + 1):
                cur = [i] + [0] * len(b)
                for j in range(1, len(b) + 1):
                    cur[j] = min(prev[j - 1] + (a[i - 1] != b[j - 1]),
                                 prev[j] + 1, cur[j - 1] + 1)
                prev = cur
            return prev[-1]

        segments = rng.integers(0, 4, (4, 20)).astype(np.uint8)
        reads = segments.copy()
        reads[0, 3] = 7  # out-of-alphabet code
        batch = banded_edit_distance_batch(segments, reads, 4)
        for r in range(4):
            for s in range(4):
                true = reference_dp(reads[r], segments[s])
                assert batch[r, s] == min(true, 5)

    def test_labelling_matches_unfiltered(self):
        """End to end: prefiltered ground truth == brute-force truth."""
        dataset = build_dataset("B", n_reads=10, read_length=64,
                                n_segments=16, seed=3)
        truth = label_dataset(dataset, max_threshold=8)
        for r, record in enumerate(dataset.reads):
            for s in range(dataset.n_segments):
                true = edit_distance(
                    record.read,
                    DnaSequence(dataset.segments[s]),
                )
                assert truth.distances[r, s] == min(true, truth.band + 1)
