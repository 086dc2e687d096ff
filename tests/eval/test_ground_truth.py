"""Tests for exact ground-truth labelling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.distance.ed_star import mismatch_counts_all_reads
from repro.distance.edit_distance import edit_distance
from repro.errors import ExperimentError
from repro.eval.confusion import confusion_from_decisions
from repro.eval.ground_truth import label_dataset
from repro.genome.datasets import build_dataset
from repro.genome.sequence import DnaSequence


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("A", n_reads=10, read_length=96, n_segments=12,
                         seed=110)


@pytest.fixture(scope="module")
def truth(dataset):
    return label_dataset(dataset, max_threshold=8)


class TestLabelling:
    def test_shape(self, truth, dataset):
        assert truth.distances.shape == (10, 12)
        assert truth.n_reads == 10
        assert truth.n_segments == 12

    def test_capped_at_band(self, truth):
        assert truth.distances.max() <= truth.band + 1

    def test_distances_match_exact_dp(self, truth, dataset):
        for r, record in enumerate(dataset.reads):
            for s in range(dataset.n_segments):
                exact = edit_distance(record.read,
                                      DnaSequence(dataset.segments[s]))
                assert truth.distances[r, s] == min(exact, truth.band + 1)

    def test_labels_monotone_in_threshold(self, truth):
        previous = truth.labels(0)
        for threshold in range(1, truth.band + 1):
            current = truth.labels(threshold)
            assert (previous <= current).all()
            previous = current

    def test_origin_pairs_have_small_distance(self, truth, dataset):
        for r, record in enumerate(dataset.reads):
            origin = record.origin // dataset.read_length
            assert truth.distances[r, origin] <= truth.band + 1

    def test_threshold_out_of_band_rejected(self, truth):
        with pytest.raises(ExperimentError):
            truth.labels(truth.band + 1)

    def test_positives_per_threshold_monotone(self, truth):
        values = [int(truth.labels(t).sum()) for t in range(truth.band + 1)]
        assert all(a <= b for a, b in zip(values, values[1:], strict=False))

    def test_negative_threshold_rejected(self, dataset):
        with pytest.raises(ExperimentError):
            label_dataset(dataset, max_threshold=-1)


def _auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(a true pair scores below a false pair); ties count half."""
    pos, neg = scores[labels][:, None], scores[~labels][None, :]
    return float((pos < neg).mean() + (pos == neg).mean() / 2)


class TestMatcherScoresAgainstTruth:
    def test_ed_star_scores_discriminate(self):
        """ED* counts must separate origin pairs from random pairs."""
        dataset = build_dataset("A", n_reads=16, read_length=128,
                                n_segments=16, seed=150)
        reads = np.stack([r.read.codes for r in dataset.reads])
        scores = mismatch_counts_all_reads(dataset.segments, reads)
        labels = label_dataset(dataset, 8).labels(8)
        assert _auc(scores.ravel(), labels.ravel()) > 0.95

    def test_ed_star_beats_hamming_under_indels(self):
        """Condition B shifts reads; the neighbour window absorbs it."""
        dataset = build_dataset("B", n_reads=32, read_length=256,
                                n_segments=32, seed=150)
        reads = np.stack([r.read.codes for r in dataset.reads])
        ed_star = mismatch_counts_all_reads(dataset.segments, reads)
        hamming = np.count_nonzero(
            dataset.segments[None, :, :] != reads[:, None, :], axis=2)
        labels = label_dataset(dataset, 8).labels(8).ravel()
        assert _auc(ed_star.ravel(), labels) > _auc(hamming.ravel(), labels)

    def test_f1_optimal_threshold_beats_tightest(self):
        dataset = build_dataset("A", n_reads=24, read_length=128,
                                n_segments=24, seed=140)
        array = CamArray(rows=24, cols=128, noisy=False)
        array.store(dataset.segments)
        matcher = AsmCapMatcher(array, dataset.model, MatcherConfig.plain())
        truth = label_dataset(dataset, 8)
        curve = {}
        for threshold in range(1, 9):
            decisions = np.stack([matcher.match(r.read.codes, threshold,
                                                query_key=i).decisions
                                  for i, r in enumerate(dataset.reads)])
            curve[threshold] = confusion_from_decisions(
                decisions, truth.labels(threshold)).f1
        assert max(curve.values()) > curve[1]
