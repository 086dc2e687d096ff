"""Tests for the assembled AsmCapMatcher (search flow + accounting)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.errors import CamConfigError
from repro.genome.datasets import build_dataset
from repro.genome.edits import ErrorModel


@pytest.fixture(scope="module")
def dataset_a():
    return build_dataset("A", n_reads=12, read_length=128, n_segments=16,
                         seed=50)


@pytest.fixture(scope="module")
def dataset_b():
    return build_dataset("B", n_reads=12, read_length=128, n_segments=16,
                         seed=51)


def make_matcher(dataset, config=None, noisy=False, seed=0):
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     domain="charge", noisy=noisy, seed=seed)
    array.store(dataset.segments)
    return AsmCapMatcher(array, dataset.model, config, seed=seed)


def passes(matcher):
    """Search passes per ledger event class."""
    return matcher.array.ledger.pass_counts()


class TestSearchScheduling:
    def test_condition_a_issues_hd_search(self, dataset_a):
        """HDAC active in Condition A: base + Hamming = 2 searches."""
        matcher = make_matcher(dataset_a)
        outcome = matcher.match(dataset_a.reads[0].read.codes, threshold=2)
        assert outcome.n_searches == 2
        assert passes(matcher) == {"EdStarPass": 1, "HdacPass": 1}
        assert outcome.hdac_probability > 0

    def test_condition_a_no_tasr(self, dataset_a):
        matcher = make_matcher(dataset_a)
        outcome = matcher.match(dataset_a.reads[0].read.codes, threshold=8)
        assert 8 < outcome.tasr_lower_bound
        assert "TasrRotationPass" not in passes(matcher)

    def test_condition_b_skips_hdac(self, dataset_b):
        """HDAC's p < 1 % in Condition B: no extra Hamming search."""
        matcher = make_matcher(dataset_b)
        outcome = matcher.match(dataset_b.reads[0].read.codes, threshold=4)
        assert "HdacPass" not in passes(matcher)
        assert outcome.hdac_probability == 0.0

    def test_condition_b_triggers_tasr_above_tl(self, dataset_b):
        matcher = make_matcher(dataset_b)
        lower_bound = matcher.tasr_lower_bound()
        outcome = matcher.match(dataset_b.reads[0].read.codes,
                                threshold=lower_bound)
        n_rotations = passes(matcher)["TasrRotationPass"]
        assert n_rotations == 2 * matcher.config.tasr_nr
        assert outcome.n_searches == 1 + n_rotations

    def test_plain_config_single_search(self, dataset_a):
        matcher = make_matcher(dataset_a, MatcherConfig.plain())
        outcome = matcher.match(dataset_a.reads[0].read.codes, threshold=2)
        assert outcome.n_searches == 1
        assert passes(matcher) == {"EdStarPass": 1}


class TestAccounting:
    def test_latency_scales_with_searches(self, dataset_b):
        matcher = make_matcher(dataset_b)
        low = matcher.match(dataset_b.reads[0].read.codes, threshold=2)
        high = matcher.match(dataset_b.reads[0].read.codes,
                             threshold=matcher.tasr_lower_bound())
        assert high.n_searches > low.n_searches
        assert high.latency_ns > low.latency_ns
        assert high.energy_joules > low.energy_joules

    def test_latency_equals_search_sum(self, dataset_a):
        matcher = make_matcher(dataset_a)
        outcome = matcher.match(dataset_a.reads[0].read.codes, threshold=2)
        assert outcome.latency_ns == pytest.approx(
            outcome.n_searches * matcher.array.search_time_ns
        )


class TestCorrectionBehaviour:
    def test_origin_row_found_at_reasonable_threshold(self, dataset_a):
        matcher = make_matcher(dataset_a)
        found = 0
        for record in dataset_a.reads:
            outcome = matcher.match(record.read.codes, threshold=8)
            origin_row = dataset_a.origin_segment_index(record)
            found += int(outcome.decisions[origin_row])
        assert found >= len(dataset_a.reads) * 0.8

    def test_tasr_recovers_consecutive_deletion(self):
        """Inject a 2-base deletion burst: plain ED* misses the origin
        at moderate T, TASR recovers it (the Fig. 6 scenario)."""
        dataset = build_dataset("B", n_reads=1, read_length=128,
                                n_segments=8, seed=0)
        segment = dataset.segments[2]
        rng = np.random.default_rng(3)
        read = np.concatenate([
            segment[:40], segment[42:],
            rng.integers(0, 4, 2).astype(np.uint8),
        ])
        plain = make_matcher(dataset, MatcherConfig.plain())
        full = make_matcher(dataset, MatcherConfig())
        threshold = full.tasr_lower_bound()  # smallest rotating T
        plain_outcome = plain.match(read, threshold)
        full_outcome = full.match(read, threshold)
        # The burst inflates ED* beyond T for the plain matcher...
        assert not plain_outcome.decisions[2]
        # ...and rotation recovers the alignment.
        assert full_outcome.decisions[2]

    def test_hdac_reduces_false_positives(self):
        """Heavy substitutions at tiny T: HDAC must cut FPs."""
        model = ErrorModel(substitution=0.05)
        dataset = build_dataset(model, n_reads=24, read_length=128,
                                n_segments=16, seed=9)
        plain = make_matcher(dataset, MatcherConfig.plain(), seed=1)
        full = make_matcher(dataset, MatcherConfig(), seed=1)
        fp_plain = fp_full = 0
        for record in dataset.reads:
            # With ~6 substitutions expected, ED(origin) > 1 almost
            # surely, so any match at T=1 on the origin row is a FP
            # candidate; count total matches as the FP proxy.
            fp_plain += int(plain.match(record.read.codes, 1).decisions.sum())
            fp_full += int(full.match(record.read.codes, 1).decisions.sum())
        assert fp_full < fp_plain


class TestReproducibility:
    def test_same_seed_same_decisions(self, dataset_a):
        a = make_matcher(dataset_a, seed=3)
        b = make_matcher(dataset_a, seed=3)
        read = dataset_a.reads[0].read.codes
        assert np.array_equal(a.match(read, 2).decisions,
                              b.match(read, 2).decisions)


class TestBatchMatching:
    """match_batch must be bit-identical to the keyed scalar flow."""

    @pytest.mark.parametrize("condition,threshold", [
        ("A", 2),   # HDAC pass issued, TASR dormant
        ("A", 8),   # HDAC at larger T
        ("B", 2),   # neither strategy (below Tl, p ~ 0)
        ("B", 8),   # TASR rotations issued
    ])
    def test_batch_equals_keyed_scalar(self, dataset_a, dataset_b,
                                       condition, threshold):
        dataset = dataset_a if condition == "A" else dataset_b
        matcher = make_matcher(dataset, noisy=True, seed=13)
        reads = np.stack([r.read.codes for r in dataset.reads])
        batch = matcher.match_batch(reads, threshold)
        # Replay in reverse order: keyed streams make order irrelevant.
        for q in reversed(range(len(reads))):
            outcome = matcher.match(reads[q], threshold, query_key=q)
            assert np.array_equal(batch.decisions[q], outcome.decisions)
            assert batch.n_searches[q] == outcome.n_searches
            assert batch.energy_joules[q] == pytest.approx(
                outcome.energy_joules
            )
            assert batch.latency_ns[q] == pytest.approx(
                outcome.latency_ns
            )
            assert batch.hdac_probabilities[q] == pytest.approx(
                outcome.hdac_probability
            )
            assert batch.tasr_lower_bound == outcome.tasr_lower_bound

    def test_strategy_masks(self, dataset_a, dataset_b):
        reads_a = np.stack([r.read.codes for r in dataset_a.reads[:4]])
        hdac_batch = make_matcher(dataset_a).match_batch(reads_a, 2)
        assert hdac_batch.hdac_mask.all()
        assert not hdac_batch.tasr_mask.any()
        assert (hdac_batch.n_searches == 2).all()

        reads_b = np.stack([r.read.codes for r in dataset_b.reads[:4]])
        matcher_b = make_matcher(dataset_b)
        tasr_batch = matcher_b.match_batch(
            reads_b, matcher_b.tasr_lower_bound()
        )
        assert tasr_batch.tasr_mask.all()
        assert not tasr_batch.hdac_mask.any()

    def test_per_query_thresholds_mix_masks(self, dataset_a):
        """A threshold vector can enable HDAC for only some queries."""
        matcher = make_matcher(dataset_a)
        reads = np.stack([r.read.codes for r in dataset_a.reads[:4]])
        thresholds = np.array([1, 30, 2, 25])
        batch = matcher.match_batch(reads, thresholds)
        assert batch.hdac_mask.tolist() == [True, False, True, False]
        for q in range(4):
            outcome = matcher.match(reads[q], int(thresholds[q]),
                                    query_key=q)
            assert np.array_equal(batch.decisions[q], outcome.decisions)

    def test_totals_consistent(self, dataset_a):
        matcher = make_matcher(dataset_a)
        reads = np.stack([r.read.codes for r in dataset_a.reads])
        batch = matcher.match_batch(reads, 4)
        assert batch.n_queries == len(reads)
        assert batch.total_searches == batch.n_searches.sum()
        assert batch.total_energy_joules == pytest.approx(
            batch.energy_joules.sum()
        )

    def test_empty_batch(self, dataset_a):
        matcher = make_matcher(dataset_a)
        empty = np.zeros((0, dataset_a.read_length), dtype=np.uint8)
        batch = matcher.match_batch(empty, 4)
        assert batch.n_queries == 0
        assert batch.total_searches == 0

    def test_rotation_cycles_accounted(self, dataset_b):
        matcher = make_matcher(dataset_b)
        reads = np.stack([r.read.codes for r in dataset_b.reads[:5]])
        threshold = matcher.tasr_lower_bound()
        before = matcher.array.stats.n_rotation_cycles
        matcher.match_batch(reads, threshold)
        # NR = 2 in both directions: 1+2+1+2 cycles per query.
        assert matcher.array.stats.n_rotation_cycles - before == 6 * 5

    def test_bad_inputs(self, dataset_a):
        matcher = make_matcher(dataset_a)
        reads = np.stack([r.read.codes for r in dataset_a.reads[:2]])
        with pytest.raises(CamConfigError):
            matcher.match_batch(reads[0], 4)  # 1-D block
        with pytest.raises(CamConfigError):
            matcher.match_batch(reads, 4, query_keys=[1])
