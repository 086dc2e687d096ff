"""Sweep-engine equivalence tests: one search pass per threshold curve.

The contract everything rests on: every random draw of the matching
flow is keyed by ``(query_key, pass)`` — never by the threshold — so a
threshold sweep that computes each pass once and re-applies the
sense-amp references must be **bit-identical** to running the scalar
(or batched) path once per threshold with the same keys.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.edam import EdamMatcher
from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.cam.sense_amp import SenseAmplifier
from repro.core.hdac import hdac_correct_batch
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.errors import CamConfigError, ThresholdError
from repro.eval.confusion import confusion_from_decisions
from repro.eval.ground_truth import label_dataset
from repro.genome.datasets import build_dataset


def _reads_matrix(dataset):
    return np.stack([record.read.codes for record in dataset.reads])


def _fresh_matcher(dataset, config, *, array_seed=5, matcher_seed=6):
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     domain="charge", noisy=True, seed=array_seed)
    array.store(dataset.segments)
    return AsmCapMatcher(array, dataset.model, config, seed=matcher_seed)


CONDITIONS = {
    "A": list(range(1, 9)),
    "B": list(range(2, 17, 2)),
}


class TestSearchSweepEquivalence:
    """CamArray.search_sweep slice t == search_batch at thresholds[t]."""

    @pytest.mark.parametrize("mode", [MatchMode.ED_STAR, MatchMode.HAMMING])
    def test_matches_search_batch_per_threshold(self, small_dataset_a, mode):
        dataset = small_dataset_a
        reads = _reads_matrix(dataset)
        keys = [(q, 7) for q in range(reads.shape[0])]
        thresholds = np.array([1, 3, 6, 12])

        def fresh_array():
            array = CamArray(rows=dataset.n_segments,
                             cols=dataset.read_length,
                             domain="charge", noisy=True, seed=3)
            array.store(dataset.segments)
            return array

        sweep = fresh_array().search_sweep(reads, thresholds, mode,
                                           noise_keys=keys)
        batch_array = fresh_array()
        for t_index, threshold in enumerate(thresholds):
            batch = batch_array.search_batch(reads, int(threshold), mode,
                                             noise_keys=keys)
            assert np.array_equal(sweep.matches[t_index], batch.matches)
            assert np.array_equal(sweep.mismatch_counts,
                                  batch.mismatch_counts)
            assert np.array_equal(sweep.energy_per_query_joules,
                                  batch.energy_per_query_joules)

    def test_voltages_shared_across_thresholds(self, small_dataset_a):
        """The sweep's whole point: one noise draw for every threshold."""
        dataset = small_dataset_a
        reads = _reads_matrix(dataset)
        array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                         noisy=True, seed=3)
        array.store(dataset.segments)
        keys = [(q,) for q in range(reads.shape[0])]
        sweep = array.search_sweep(reads, np.array([1, 4, 8]),
                                   noise_keys=keys)
        assert sweep.v_ml.shape == reads.shape[:1] + (dataset.n_segments,)
        assert sweep.matches.shape == (3,) + sweep.v_ml.shape

    def test_sweep_records_physical_not_scalar_cost(self, small_dataset_a):
        dataset = small_dataset_a
        reads = _reads_matrix(dataset)
        array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                         noisy=True, seed=3)
        array.store(dataset.segments)
        array.search_sweep(reads, np.array([1, 4, 8]))
        assert array.stats.n_searches == reads.shape[0]

    def test_validation(self, small_dataset_a):
        dataset = small_dataset_a
        reads = _reads_matrix(dataset)
        array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                         seed=3)
        array.store(dataset.segments)
        with pytest.raises(ThresholdError):
            array.search_sweep(reads, np.array([[1, 2]]))
        with pytest.raises(ThresholdError):
            array.search_sweep(reads, np.array([], dtype=int))
        with pytest.raises(ThresholdError):
            array.search_sweep(reads, np.array([dataset.read_length + 1]))
        with pytest.raises(CamConfigError):
            array.search_sweep(reads, np.array([1]), noise_keys=[(0, 1)])


class TestMatchSweepBitIdentity:
    """The satellite's property: sweep F1 series == scalar F1 series."""

    @pytest.mark.parametrize("condition", ["A", "B"])
    @pytest.mark.parametrize(
        "config", [MatcherConfig(), MatcherConfig.plain()],
        ids=["hdac+tasr", "plain"])
    def test_f1_series_bit_identical_to_scalar(self, condition, config):
        thresholds = CONDITIONS[condition]
        dataset = build_dataset(condition, n_reads=24, read_length=128,
                                n_segments=32, seed=11)
        reads = _reads_matrix(dataset)
        truth = label_dataset(dataset, max(thresholds))

        sweep = _fresh_matcher(dataset, config).match_sweep(reads,
                                                            thresholds)
        scalar = _fresh_matcher(dataset, config)
        for t_index, threshold in enumerate(thresholds):
            labels = truth.labels(threshold)
            scalar_decisions = np.stack([
                scalar.match(reads[q], threshold, query_key=q).decisions
                for q in range(reads.shape[0])
            ])
            sweep_f1 = confusion_from_decisions(sweep.decisions[t_index], labels).f1
            scalar_f1 = confusion_from_decisions(scalar_decisions, labels).f1
            assert sweep_f1 == scalar_f1  # bit-identical, not approx
            assert np.array_equal(sweep.decisions[t_index],
                                  scalar_decisions)

    @pytest.mark.parametrize("condition", ["A", "B"])
    def test_cost_accounting_matches_scalar(self, condition):
        thresholds = CONDITIONS[condition]
        dataset = build_dataset(condition, n_reads=12, read_length=96,
                                n_segments=16, seed=2)
        reads = _reads_matrix(dataset)
        sweep = _fresh_matcher(dataset, MatcherConfig()).match_sweep(
            reads, thresholds)
        scalar = _fresh_matcher(dataset, MatcherConfig())
        for t_index, threshold in enumerate(thresholds):
            for q in range(reads.shape[0]):
                outcome = scalar.match(reads[q], threshold, query_key=q)
                assert outcome.n_searches == sweep.n_searches[t_index, q]
                assert outcome.energy_joules == pytest.approx(
                    sweep.energy_joules[t_index, q])
                assert outcome.latency_ns == pytest.approx(
                    sweep.latency_ns[t_index, q])

    def test_matches_match_batch_slices(self, small_dataset_b):
        dataset = small_dataset_b
        reads = _reads_matrix(dataset)
        thresholds = [2, 6, 10, 14]
        keys = list(range(100, 100 + reads.shape[0]))
        sweep = _fresh_matcher(dataset, MatcherConfig()).match_sweep(
            reads, thresholds, query_keys=keys)
        batch = _fresh_matcher(dataset, MatcherConfig())
        for t_index, threshold in enumerate(thresholds):
            outcome = batch.match_batch(reads, threshold, query_keys=keys)
            assert np.array_equal(sweep.decisions[t_index],
                                  outcome.decisions)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000),
           array_seed=st.integers(0, 1000),
           n_reads=st.integers(1, 12))
    def test_property_sweep_equals_scalar(self, seed, array_seed, n_reads):
        """Fuzzed over dataset/array seeds and block sizes."""
        thresholds = [1, 2, 5, 8]
        dataset = build_dataset("A", n_reads=n_reads, read_length=64,
                                n_segments=12, seed=seed)
        reads = _reads_matrix(dataset)
        config = MatcherConfig()
        sweep = _fresh_matcher(dataset, config,
                               array_seed=array_seed).match_sweep(
            reads, thresholds)
        scalar = _fresh_matcher(dataset, config, array_seed=array_seed)
        for t_index, threshold in enumerate(thresholds):
            for q in range(n_reads):
                assert np.array_equal(
                    sweep.decisions[t_index, q],
                    scalar.match(reads[q], threshold,
                                 query_key=q).decisions,
                )

    def test_at_threshold_accessor(self, small_dataset_a):
        dataset = small_dataset_a
        reads = _reads_matrix(dataset)
        sweep = _fresh_matcher(dataset, MatcherConfig()).match_sweep(
            reads, [2, 4])
        assert np.array_equal(sweep.at_threshold(4), sweep.decisions[1])
        with pytest.raises(CamConfigError):
            sweep.at_threshold(3)

    def test_validation(self, small_dataset_a):
        dataset = small_dataset_a
        reads = _reads_matrix(dataset)
        matcher = _fresh_matcher(dataset, MatcherConfig())
        with pytest.raises(CamConfigError):
            matcher.match_sweep(reads[0], [1, 2])
        with pytest.raises(ThresholdError):
            matcher.match_sweep(reads, [])
        with pytest.raises(CamConfigError):
            matcher.match_sweep(reads, [1, 2], query_keys=[1])


class TestEdamSweep:
    def test_bit_identical_to_keyed_scalar(self, small_dataset_b):
        dataset = small_dataset_b
        reads = _reads_matrix(dataset)
        thresholds = np.array([2, 6, 12])

        def fresh():
            array = CamArray(rows=dataset.n_segments,
                             cols=dataset.read_length,
                             domain="current", noisy=True, seed=9)
            matcher = EdamMatcher(array=array)
            matcher.store(dataset.segments)
            return matcher

        sweep = fresh().match_sweep(reads, thresholds)
        scalar = fresh()
        for t_index, threshold in enumerate(thresholds):
            for q in range(reads.shape[0]):
                outcome = scalar.match(reads[q], int(threshold),
                                       query_key=q)
                assert np.array_equal(sweep[t_index, q],
                                      outcome.decisions)


class TestSenseAmpSweep:
    def test_matches_scalar_decide(self):
        sa = SenseAmplifier()
        v_ml = np.linspace(0.0, 1.0, 64).reshape(4, 16)
        thresholds = np.array([0, 3, 9, 16])
        sweep = sa.decide_sweep(v_ml, thresholds[:, None], 16)
        for t_index, threshold in enumerate(thresholds):
            assert np.array_equal(sweep[t_index],
                                  sa.decide(v_ml, int(threshold), 16))

    def test_threshold_shape_rejected(self):
        sa = SenseAmplifier()
        with pytest.raises(ThresholdError):
            sa.decide_sweep(np.zeros((2, 4)), np.array([1]), 4)


class TestHdacSweep:
    def test_slices_match_batch_correction(self, rng):
        n_thresholds, n_queries, n_rows = 3, 5, 17
        ed = rng.random((n_thresholds, n_queries, n_rows)) < 0.5
        hd = rng.random((n_thresholds, n_queries, n_rows)) < 0.5
        p = np.array([0.0, 0.4, 1.0])
        states = np.arange(1, n_queries + 1, dtype=np.uint64) * 977
        swept = hdac_correct_batch(ed, hd, p[:, None], states)
        for t in range(n_thresholds):
            batch = hdac_correct_batch(ed[t], hd[t],
                                       np.full(n_queries, p[t]), states)
            assert np.array_equal(swept[t], batch)

    def test_validation(self):
        block = np.zeros((2, 3, 4), dtype=bool)
        states = np.arange(3, dtype=np.uint64)
        p = np.zeros((2, 1))
        with pytest.raises(ThresholdError):
            hdac_correct_batch(block, block[0], p, states)
        with pytest.raises(ThresholdError):
            hdac_correct_batch(block, block, np.array([[0.5], [1.5]]),
                               states)
        # p and states must broadcast against the (T, B) leading axes.
        with pytest.raises(ValueError):
            hdac_correct_batch(block, block, np.zeros((3, 1)), states)
        with pytest.raises(ValueError):
            hdac_correct_batch(block, block, p, states[:2])
