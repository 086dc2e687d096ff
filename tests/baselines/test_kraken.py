"""Tests for the Kraken2-like exact-matching normalizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.kraken import CONFIDENCE, KrakenLikeClassifier
from repro.errors import DatasetError
from repro.genome.datasets import build_dataset
from repro.genome.sequence import DnaSequence


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("A", n_reads=16, read_length=128, n_segments=16,
                         seed=100)


class TestClassification:
    def test_clean_read_hits_own_segment(self, dataset):
        classifier = KrakenLikeClassifier(dataset.segments, k=31)
        clean_read = DnaSequence(dataset.segments[5])
        outcome = classifier.classify(clean_read)
        assert outcome.decisions[5]
        assert outcome.hit_fractions[5] == pytest.approx(1.0)

    def test_random_read_hits_nothing(self, dataset, rng):
        classifier = KrakenLikeClassifier(dataset.segments, k=31)
        read = DnaSequence(rng.integers(0, 4, 128).astype(np.uint8))
        assert not classifier.classify(read).decisions.any()

    def test_edits_degrade_hit_fraction(self, dataset):
        """Exact matching is brittle: edited reads lose most k-mers."""
        classifier = KrakenLikeClassifier(dataset.segments, k=31)
        fractions = []
        for record in dataset.reads:
            origin = record.origin // dataset.read_length
            outcome = classifier.classify(record.read)
            fractions.append(outcome.hit_fractions[origin])
        # Condition A injects ~1.3 edits per 128-base read on average:
        # a single interior edit already kills ~31 of the 98 k-mers
        # (edit-free reads keep fraction 1.0, so check mean and tail).
        assert np.mean(fractions) < 0.95
        assert min(fractions) < 0.8

    def test_classify_batch_matches_scalar(self, dataset):
        """The batch path is the scalar path's implementation — the
        two must agree bit-for-bit, fractions included."""
        classifier = KrakenLikeClassifier(dataset.segments, k=31)
        reads = np.stack([r.read.codes for r in dataset.reads])
        batch = classifier.classify_batch(reads)
        assert batch.decisions.shape == (reads.shape[0],
                                         classifier.n_segments)
        for q, record in enumerate(dataset.reads):
            outcome = classifier.classify(record.read)
            assert np.array_equal(batch.decisions[q], outcome.decisions)
            assert np.array_equal(batch.hit_fractions[q],
                                  outcome.hit_fractions)
            assert batch.n_kmers == outcome.n_kmers

    def test_classify_batch_validation(self, dataset):
        classifier = KrakenLikeClassifier(dataset.segments, k=31)
        with pytest.raises(DatasetError):
            classifier.classify_batch(dataset.segments[0])
        with pytest.raises(DatasetError):
            classifier.classify_batch(
                np.zeros((2, 16), dtype=np.uint8))

    def test_confidence_threshold_applied(self, dataset):
        classifier = KrakenLikeClassifier(dataset.segments, k=31)
        for record in dataset.reads:
            outcome = classifier.classify(record.read)
            assert np.array_equal(outcome.decisions,
                                  outcome.hit_fractions >= CONFIDENCE)


class TestValidation:
    def test_k_longer_than_segment(self, dataset):
        with pytest.raises(DatasetError):
            KrakenLikeClassifier(dataset.segments, k=500)

    def test_read_shorter_than_k(self, dataset):
        classifier = KrakenLikeClassifier(dataset.segments, k=31)
        with pytest.raises(DatasetError):
            classifier.classify(DnaSequence("ACGT"))

    def test_segment_count(self, dataset):
        classifier = KrakenLikeClassifier(dataset.segments, k=31)
        assert classifier.n_segments == 16
